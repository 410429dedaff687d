"""Exact counts of Frobenius-fixed irreducible local systems on curves."""

from .laurent import CurveInput, LaurentPoly, evaluate_at_curve, graeffe_power, pic_polynomial

# re-exported from locsys.counting, which is imported on first use, so that
# `import locsys.cli` and the `eval` command do not load the counting engine
_COUNTING = ("ATable", "CSymbol", "CTable", "FreePoly", "a_from_c", "c_from_a")

__all__ = [
    "ATable",
    "CSymbol",
    "CTable",
    "CurveInput",
    "FreePoly",
    "LaurentPoly",
    "a_from_c",
    "c_from_a",
    "evaluate_at_curve",
    "graeffe_power",
    "pic_polynomial",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _COUNTING:
        from . import counting

        return getattr(counting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
