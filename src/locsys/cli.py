"""Command-line front end.

Subcommands: a-symbolic, pgn, qgn, euler, d-count, eval, verify.  Exit codes:
0 success, 1 theorem-level assertion failure (or, for now, a verify checker
that raised, reported with an error line), 2 usage error or bad input file,
141 stdout closed before the output was written (`locsys ... | head`).
All output is deterministic for fixed flags and seed.

Each command imports what it runs when it runs: `verify` loads the suites,
the counting commands load the counting engine, and `eval` needs neither.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import warnings

from .laurent import (
    CurveInput,
    DivisibilityError,
    EntryMissing,
    IntegralityError,
    evaluate_at_curve,
    pic_eform,
    read_weil,
)

# verify.SUITES's keys, in its order (tests check the two agree), so that the
# parser does not import the suites
SUITE_NAMES = ("kappa", "matrix-tree", "matr", "delta", "gm-family", "cones", "lattice",
               "integrality", "combinat", "aggregation", "roundtrip")

# the exit status when the reader closes stdout early (`locsys ... | head`)
EXIT_CLOSED_STDOUT = 141

# the largest a-symbolic rank: rank 20 takes about 0.5 s, and each rank
# above costs about 1.6 times the one below (in process, 21 and 22 take
# about 0.65 and 1.0 s against 0.41 s for 20)
A_SYMBOLIC_MAX_RANK = 20
# the largest eval --k: at 10000, a rank-1 count on a genus-3 curve over F_5
# takes about 0.3 s and A[3,4] there about 2.6 s; the cost grows with k^2
EVAL_MAX_K = 10000
# the largest pgn/qgn --g: at rank 1 the printed z-form has 4^g terms, and
# `pgn --n 1` takes about 1.1 s at g = 9 and 8.6 s at g = 10
PGN_MAX_GENUS = 9
# the largest euler --g: at 10000, --n 30030 (six primes) prints 89,564
# digits in about 0.34 s; the cost grows with g^2
EULER_MAX_GENUS = 10000
# the largest euler --n, d-count --n/--d and eval curve q: each factors by
# trial division, which past 1000 stops at a cofactor proven prime, so the
# most is at the square of a prime near 10^6: with the imports, `euler` at
# 999983^2 takes about 0.15 s, and at the prime 999999999989 0.06 s
DIVISOR_MAX = 10 ** 12
# the largest eval curve g: on a curve over F_999999999989 with distinct
# traces, `eval --n 1 --k 1` takes about 0.005 s in process at g = 12, 0.05 s
# at 20 and 0.45 s at 30 (mostly the Weil check), so at k = 1 the cap does
# not bind; it bounds the cost at large k, which grows with g and k
# together: `eval --n 1 --k 1000` takes about 11 s at g = 12
CURVE_MAX_GENUS = 12


class CheckFailure(RuntimeError):
    pass


def _open(path, mode="r"):
    """Open an input file (mode "r") or an output file (mode "w"); one that
    cannot be opened is a usage error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise ValueError(f"cannot {verb} {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _any_digits():
    """Lift Python's int-to-str digit limit (3.10.7 and later) while an exact
    result is printed: the limit guards the readers against oversized input,
    and stays on for them."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector while a polynomial file is parsed and read,
    and restore its state however the read ends.  The loaded JSON and its
    key tuples hold no reference cycles, so the collections their
    allocation would start free nothing, and each one rescans the objects
    the load holds (in a fresh process, reading the five A-tables of the
    benchmark's `master` cells, 2 MB in all, runs 146 young-generation
    collections, 13 middle and one full)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _print(args, obj, text):
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def cmd_a_symbolic(args):
    from .counting import a_symbolic_text

    if args.n > A_SYMBOLIC_MAX_RANK:
        raise ValueError(f"a-symbolic takes --n up to {A_SYMBOLIC_MAX_RANK}, not {args.n}")
    text = a_symbolic_text(args.n)
    _print(args, {"n": args.n, "polynomial": text}, f"A[{args.n}] = {text}")
    return 0


def _build_pipeline(n, g, a_table_path):
    """The e-form C-table through rank n; rank 1 reads no A-table."""
    from .counting import ATable, c_from_a

    atable = ATable(g, {})
    if n >= 2:
        if a_table_path is None:
            raise ValueError("ranks >= 2 need --a-table with the bundle counts")
        with _open(a_table_path) as fh, _collector_paused():
            # json.load lets the file's text go before the entries are read
            atable = ATable.from_obj(json.load(fh), g, owned=True)
    return c_from_a(n, g, atable)


def _run_pgn(args, want_quotient):
    """The report runs in e-form; only the table and polynomial that are
    written are converted to z-form."""
    from .counting import pgn_report

    n, g = args.n, args.g
    if n < 1 or g < 2 and not (g == 1 and n == 1):
        raise ValueError("need n >= 1 and g >= 2 (or g = 1 with n = 1)")
    if g > PGN_MAX_GENUS:
        raise ValueError(f"{args.command} takes --g up to {PGN_MAX_GENUS}, not {g}")
    table = _build_pipeline(n, g, args.a_table)
    if args.emit_ctable:
        with _open(args.emit_ctable, "w") as fh:
            # json.dumps runs the C encoder; json.dump to a file would not
            fh.write(json.dumps(table.to_obj(), sort_keys=True, separators=(",", ":")))
    p = table.entry(n, 1)
    report, q = pgn_report(n, g, p)
    label = "Q" if want_quotient else "P"
    if want_quotient and q is None:
        raise CheckFailure("quotient unavailable: Picard divisibility failed")
    out_poly = (q if want_quotient else p).to_laurent()
    if args.json:  # each form builds only what it prints
        _print(args, {"n": n, "g": g, label: out_poly.to_obj(), "report": report}, None)
    else:
        lines = [f"{label}[g={g},n={n}] = {out_poly.render()}"]
        lines += [f"  {key}: {report[key]}" for key in sorted(report)]
        _print(args, None, "\n".join(lines))
    if not all(report[k] for k in
               ("weil_invariant", "positivity", "dominant_term", "pic_divisible", "euler_matches")):
        raise CheckFailure("pipeline report contains failing checks")
    return 0


def cmd_pgn(args):
    return _run_pgn(args, want_quotient=False)


def cmd_qgn(args):
    return _run_pgn(args, want_quotient=True)


def cmd_euler(args):
    from .counting import euler_characteristic

    if args.g > EULER_MAX_GENUS:
        raise ValueError(f"euler takes --g up to {EULER_MAX_GENUS}, not {args.g}")
    if args.n > DIVISOR_MAX:
        raise ValueError(f"euler takes --n up to {DIVISOR_MAX}, not {args.n}")
    value = euler_characteristic(args.n, args.g)
    with _any_digits():
        _print(args, {"n": args.n, "g": args.g, "euler": value},
               f"euler[g={args.g},n={args.n}] = {value}")
    return 0


def cmd_d_count(args):
    from .counting import CTable, inertial_class_count

    for flag, value in (("n", args.n), ("d", args.d)):
        if value > DIVISOR_MAX:
            raise ValueError(f"d-count takes --{flag} up to {DIVISOR_MAX}, not {value}")
    text = inertial_class_count(args.n, args.d, CTable.symbolic()).render()
    _print(args, {"n": args.n, "d": args.d, "polynomial": text}, f"D[{args.n}]({args.d}) = {text}")
    return 0


def cmd_eval(args):
    if args.n < 1:
        raise ValueError("need n >= 1")
    if args.k > EVAL_MAX_K:
        raise ValueError(f"eval takes --k up to {EVAL_MAX_K}, not {args.k}")
    if args.n == 1 and args.pgn is not None:
        raise ValueError("eval --n 1 takes no --pgn: the rank-1 polynomial is built in")
    with _open(args.curve) as fh:
        obj = json.load(fh)
    # capped before any work; CurveInput.from_obj reports every other fault
    sizes = obj if isinstance(obj, dict) else {}
    for name, cap in (("g", CURVE_MAX_GENUS), ("q", DIVISOR_MAX)):
        value = sizes.get(name)
        if type(value) is int and value > cap:
            raise ValueError(f"eval takes a curve with {name} up to {cap}, not {value}")
    with warnings.catch_warnings(record=True) as caught:  # one plain line each
        warnings.simplefilter("always")
        curve = CurveInput.from_obj(obj)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.n == 1:
        poly = pic_eform(curve.g)
    else:
        if args.pgn is None:
            raise ValueError("ranks >= 2 need --pgn with the count polynomial")
        with _open(args.pgn) as fh, _collector_paused():
            poly = read_weil(json.load(fh), curve.g)
    value = evaluate_at_curve(poly, curve, args.k, curve.g - 1)
    with _any_digits():
        _print(args, {"n": args.n, "k": args.k, "count": value},
               f"count[n={args.n},k={args.k}] = {value}")
    return 0


def cmd_verify(args):
    from . import verify as verify_mod

    if args.replay:
        with _open(args.replay) as fh:
            payload = json.load(fh)
        result = verify_mod.replay(payload)
        lines = [f"replay {result['suite']}: {'PASS' if result['passed'] else 'FAIL'}"]
        if "error" in result:
            lines.append(f"  error: {result['error']}")
        _print(args, result, "\n".join(lines))
        return 0 if result["passed"] else 1
    names = verify_mod.SUITES.keys() if args.suite == "all" else [args.suite]
    reports = []
    failed = False
    for name in names:
        report = verify_mod.run_suite(name, seed=args.seed,
                                      iterations=args.iterations, jobs=args.jobs)
        reports.append(report)
        failed = failed or not report["passed"]
    obj = {"seed": args.seed, "iterations": args.iterations, "suites": reports}
    lines = []
    for report in reports:
        status = "PASS" if report["passed"] else "FAIL"
        lines.append(f"{report['suite']}: {status} ({report['checks']} checks)")
        if "error" in report:
            lines.append(f"  error: {report['error']}")
        if not report["passed"] and report.get("counterexample") is not None:
            lines.append(f"  counterexample: {json.dumps(report['counterexample'], sort_keys=True)}")
    _print(args, obj, "\n".join(lines))
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locsys",
        description="Count Frobenius-fixed irreducible local systems on curves.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "a-symbolic",
        help="rank-n bundle count in C-symbols (any degree coprime to n; "
             "the count is degree-independent)",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_a_symbolic)

    for name, fn in (("pgn", cmd_pgn), ("qgn", cmd_qgn)):
        p = sub.add_parser(name, help=f"build {name[0].upper()}-polynomial from a fixture")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--a-table", type=str, default=None)
        p.add_argument("--emit-ctable", type=str, default=None,
                       help="write the recovered count table as JSON")
        p.set_defaults(func=fn)

    p = sub.add_parser("euler", help="Euler characteristic of the rank-n stratum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("d-count", help="inertial classes with fixator order d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_d_count)

    p = sub.add_parser("eval", help="integer count on a concrete curve")
    p.add_argument("--curve", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pgn", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="run work items in parallel; reports are identical")
    p.add_argument("--replay", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # keep no reference to the parser, and free its reference cycles (about
    # 220 objects) before the command runs rather than at the collector's next
    # run, so that a caller in the same process is not left holding them; a
    # young-generation collection here costs about what that run would
    args = build_parser().parse_args(argv)
    gc.collect(0)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: send what is left (and the flush at exit)
        # to devnull and end without a traceback, with the status a shell
        # gives a process that SIGPIPE ends, 128 + 13
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (CheckFailure, DivisibilityError, IntegralityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, EntryMissing) as exc:  # EntryMissing: the A-table lacks a rank
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
