"""Field specs for JSON instances, and the loader they make up.

A spec is a callable that takes one JSON value and returns it converted, or
raises.  The policy is the same for every instance a `verify` checker
replays:

- an integer field is a JSON integer: a float, bool or string is rejected,
  never truncated or parsed;
- a rational field is a string naming a rational ("-3/2") or a JSON
  integer;
- a key has exactly one spelling: a rank key is the canonical decimal form
  of an integer and a pair key is two of them joined by a comma ("1,0"),
  so no two keys name the same entry;
- a missing field is a KeyError naming it and an unknown one a ValueError.

Rules that tie fields together (a chamber's keys are the pairs of its `r`)
stay with the code that needs them.
"""

from __future__ import annotations

from fractions import Fraction


def integer(label, low=None, high=None, cap=None):
    """A JSON integer, in low..high where given.  cap bounds a size that sets
    how much work a check does, with a message of its own."""
    if high is not None:
        want = f"a JSON integer in {low}..{high}"
    else:
        want = "JSON integers" if low is None else f"JSON integers >= {low}"

    def read(v):
        if type(v) is not int or (low is not None and v < low) or (high is not None and v > high):
            raise ValueError(f"{label} must be {want}, not {v!r}")
        if cap is not None and v > cap:
            raise ValueError(f"{label} must be at most {cap}, not {v!r}")
        return v
    return read


def rational(v):
    """A string naming a rational, or a JSON integer, as a Fraction."""
    if type(v) is not int and type(v) is not str:
        raise ValueError(f"rational fields must be strings or JSON integers, not {v!r}")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"rational field {v!r} has a zero denominator") from None


def list_of(item, nonempty=False):
    """A JSON list, non-empty where asked, read item by item."""
    want = "a non-empty list" if nonempty else "a list"

    def read(v):
        if type(v) is not list or nonempty and not v:
            raise ValueError(f"expected {want}, not {v!r}")
        return [item(x) for x in v]
    return read


def square(label, item):
    """A non-empty square matrix, a JSON list of n lists of n entries, read
    entry by entry."""
    rows = list_of(list_of(item))

    def read(v):
        m = rows(v)
        if not m or any(len(row) != len(m) for row in m):
            raise ValueError(f"{label} must be a non-empty square matrix, not {v!r}")
        return m
    return read


def tuple_of(label, shape, *items):
    """A JSON list of exactly len(items) values, each read by its spec, as a tuple."""
    def read(v):
        if type(v) is not list or len(v) != len(items):
            raise ValueError(f"{label} must be {shape}, not {v!r}")
        return tuple(spec(x) for spec, x in zip(items, v))
    return read


def record(specs):
    """An object with exactly the fields of specs, read as {name: value}."""
    def read(v):
        if type(v) is not dict:
            raise ValueError(f"expected an object with the fields {sorted(specs)}, not {v!r}")
        out = {name: spec(v[name]) for name, spec in specs.items()}
        if len(v) != len(out):
            raise ValueError(f"unknown fields {sorted(v.keys() - specs.keys())}")
        return out
    return read


def canonical_int(key):
    """The integer that the string key spells canonically ("12", "-3"), else None."""
    try:
        n = int(key)
    except (TypeError, ValueError):
        return None
    return n if str(n) == key else None


def pair_key(key):
    """The pair (i, j) that the string key spells canonically as "i,j", else None."""
    i, _, j = key.partition(",")
    pair = canonical_int(i), canonical_int(j)
    return None if None in pair else pair


def keyed(parse, value, label):
    """An object read as {parse(key): value}; parse gives None for a key that
    is not canonically spelled (canonical_int, pair_key)."""
    def read(v):
        if type(v) is not dict:
            raise ValueError(f"{label} must be an object, not {v!r}")
        out = {}
        for key, x in v.items():
            k = parse(key)
            if k is None:
                raise ValueError(f"{label} must have exactly the keys spelled canonically, "
                                 f"not {key!r}")
            out[k] = value(x)
        return out
    return read


def require_keys(label, got, want, rule):
    """Raise unless the keys of got are exactly the set want, which rule describes."""
    if got.keys() != want:
        raise ValueError(f"{label} must have exactly the keys {rule}, got {sorted(got)!r}")
