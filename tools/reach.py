"""Which functions of `src/locsys` does no command run?

    python3 tools/reach.py

Runs a fixed list under a function-level profiler (`sys.setprofile`) and
prints every function of the package that none of the runs enters, with its
length in lines, and then the total.  The list:

- importing every module of the package (import-time calls count);
- every op of the benchmark's three workloads (`perfbench/workloads.py`) at
  seed 1, each once; the benchmark's own set-up and oracles are not
  profiled, so a function that only they call is reported;
- `a-symbolic --n 1..20`, `d-count` for every d | n <= 12, `euler` for
  n <= 6 and 2 <= g <= 4, `pgn` and `qgn` on the A-tables of the `master`
  cells, and `verify all --seed 0..3`, each in text and with `--json`;
- `tests/test_acceptance.py`, under pytest.

Failure and validation paths are among what it reports: no run feeds bad
input.  It takes over a minute (75 s on 2 cores); tier-1 runs it on a tiny
module only.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "locsys")
SEED = 1


class Probe:
    """While active, records the code object of every Python function that
    is entered (on this thread: no run starts another)."""

    def __init__(self):
        self.entered = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.entered.add(frame.f_code)

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def functions(package_dir):
    """[(path, qualified name, first line, last line, enclosing function or
    None)] of every function in the package's modules.  The first line is a
    decorator's, if any, as in the function's code object."""
    out = []

    def walk(node, path, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                entry = (path, prefix + child.name, first, child.end_lineno, enclosing)
                out.append(entry)
                walk(child, path, f"{prefix}{child.name}.<locals>.", entry)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.", enclosing)
            else:
                walk(child, path, prefix, enclosing)

    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(package_dir, name))
            with open(path, encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), path, "", None)
    return out


def unentered(funcs, entered):
    """The entries of `funcs` whose code object is not in `entered`."""
    seen = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    return [f for f in funcs if (f[0], f[2]) not in seen]


def report(missed, base):
    """The printed lines: one per function, then the total, which counts a
    function nested in a listed one only once."""
    listed = set(missed)
    lines = [f"{os.path.relpath(path, base)}:{first} {name} ({last - first + 1} lines)"
             for path, name, first, last, _ in missed]
    total = sum(last - first + 1 for _, _, first, last, enclosing in missed
                if enclosing not in listed)
    lines.append(f"{len(missed)} functions ({total} lines) entered by none of the runs")
    return lines


def _cli(probe, *argv):
    from locsys import cli

    with probe, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def run_all(probe, workdir):
    """Run the fixed list under `probe`."""
    with probe:
        for name in sorted(os.listdir(PACKAGE)):
            if name.endswith(".py") and name != "__main__.py":
                importlib.import_module(f"locsys.{name[:-3]}")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import MASTER_CELLS, WORKLOADS

    from locsys.combinat import divisors

    for name, workload in WORKLOADS.items():
        bench = workload(SEED, workdir)
        for op in bench.operations():
            with probe:
                output = op.run()
            bench.record(op, output)
        if bench.check():
            raise RuntimeError(f"the {name} workload's oracles failed")
    for flags in ((), ("--json",)):
        for n in range(1, 21):
            _cli(probe, *flags, "a-symbolic", "--n", str(n))
        for n in range(1, 13):
            for d in divisors(n):
                _cli(probe, *flags, "d-count", "--n", str(n), "--d", str(d))
        for n in range(1, 7):
            for g in range(2, 5):
                _cli(probe, *flags, "euler", "--n", str(n), "--g", str(g))
        for g, n in MASTER_CELLS:  # the A-tables the master workload wrote
            table = os.path.join(workdir, f"atable_g{g}n{n}.json")
            for command in ("pgn", "qgn"):
                _cli(probe, *flags, command, "--n", str(n), "--g", str(g), "--a-table", table)
        for seed in range(4):
            _cli(probe, *flags, "verify", "all", "--seed", str(seed))
    import pytest

    with probe, contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests", "test_acceptance.py")])
    if code != 0:
        raise RuntimeError(f"tests/test_acceptance.py exited {code}")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # parsed before the runs: the line numbers must be those of the code that
    # is imported, not of a file edited while the runs take their minute
    funcs = functions(PACKAGE)
    probe = Probe()
    with tempfile.TemporaryDirectory() as workdir:
        run_all(probe, workdir)
    for line in report(unentered(funcs, probe.entered), ROOT):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
