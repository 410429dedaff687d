"""Smoke test of tools/reach.py on a tiny module: which functions the probe
sees entered, how decorated, nested and class-level functions are named and
matched, and what the report prints."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TINY = '''\
import functools


def used():
    return helper(2)


def helper(x):
    def inner():
        return x
    return inner()


def never():
    def nested_never():
        return 0
    return 1


@functools.cache
def cached(n):
    return n


class Box:
    def method(self):
        return 1

    @property
    def prop(self):
        return 2

    def unused_method(self):
        return 3


VALUE = cached(1)
'''


def test_reports_the_functions_no_run_enters(tmp_path):
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "mod.py").write_text(TINY)
    spec = importlib.util.spec_from_file_location("tiny_mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    probe = reach.Probe()
    with probe:  # import time counts: it enters `cached`
        spec.loader.exec_module(mod)
    with probe:
        mod.used()
        box = mod.Box()
        box.method()
        assert box.prop == 2
    mod.never()  # after the probe: not seen
    funcs = reach.functions(package)
    assert [(name, first, last) for _, name, first, last, _ in funcs] == [
        ("used", 4, 5), ("helper", 8, 11), ("helper.<locals>.inner", 9, 10),
        ("never", 14, 17), ("never.<locals>.nested_never", 15, 16), ("cached", 20, 22),
        ("Box.method", 26, 27), ("Box.prop", 29, 31), ("Box.unused_method", 33, 34)]
    missed = reach.unentered(funcs, probe.entered)
    assert [name for _, name, _, _, _ in missed] == [
        "never", "never.<locals>.nested_never", "Box.unused_method"]
    assert reach.report(missed, tmp_path) == [
        "tiny/mod.py:14 never (4 lines)",
        "tiny/mod.py:15 never.<locals>.nested_never (2 lines)",
        "tiny/mod.py:33 Box.unused_method (2 lines)",
        "3 functions (6 lines) entered by none of the runs",
    ]


def test_main_reads_the_sources_before_the_runs(tmp_path, monkeypatch, capsys):
    """A source file edited while the runs go on does not move the functions
    away from the code objects the runs entered."""
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "mod.py").write_text(TINY)

    def run_all(probe, workdir):
        spec = importlib.util.spec_from_file_location("tiny_mod", package / "mod.py")
        mod = importlib.util.module_from_spec(spec)
        with probe:
            spec.loader.exec_module(mod)
            mod.used()
            assert mod.Box().method() == 1 and mod.Box().prop == 2
        (package / "mod.py").write_text("\n\n\n" + TINY)  # every function moves down

    monkeypatch.setattr(reach, "PACKAGE", str(package))
    monkeypatch.setattr(reach, "ROOT", str(tmp_path))
    monkeypatch.setattr(reach, "run_all", run_all)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends ROOT/src
    assert reach.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "tiny/mod.py:14 never (4 lines)",
        "tiny/mod.py:15 never.<locals>.nested_never (2 lines)",
        "tiny/mod.py:33 Box.unused_method (2 lines)",
        "3 functions (6 lines) entered by none of the runs",
    ]
