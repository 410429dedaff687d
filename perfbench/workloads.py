"""Seeded inputs, operations and independent oracles of the three workloads.

Every workload is a closed loop with one client: `operations()` lists the
calls of one pass, each made through the public library or through
`locsys.cli.main` in-process, and the runner starts each call when the
previous one has returned.  The workload seed fixes every input.  Outputs are
kept (or compared with the first output of the same operation) and checked by
`check()` after the timed loop, with oracles that do not reuse the code path
they check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

from locsys import cli, counting
from locsys.counting import CTable, a_from_c, euler_characteristic
from locsys.laurent import LaurentPoly, pic_polynomial, weil_symmetrize
from locsys.verify import random_invariant

MASTER_CELLS = ((2, 5), (2, 6), (3, 4), (3, 5), (4, 3))
SYMBOLIC_MAX_RANK = 14
EVAL_KS = (1, 2, 4, 8)
# A[3,4] is evaluated at k = 1 only: k = 2, 4, 8 take 2-9 s per call.
LARGE_G3_KS = (1,)

# Frobenius eigenvalue in Z[i] of the factor 1 - a z + q z^2, keyed by (q, a).
GAUSSIAN_EIGENVALUE = {
    (2, 2): (1, 1), (2, -2): (-1, 1),
    (5, 4): (2, 1), (5, -4): (-2, 1), (5, 2): (1, 2), (5, -2): (-1, 2),
}


class Op:
    """One call of the program: `run()` is timed; `oracle(output)` is called
    on the first output after the timed loop and says whether it is right."""

    def __init__(self, name, group, run, oracle, cell=None):
        self.name = name
        self.group = group
        self.run = run
        self.oracle = oracle
        self.cell = cell


def call_cli(argv):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# inputs


def _planted_orbits(shape_rng, coeff_rng, g):
    """Weil-symmetrized monomials drawn as verify.random_invariant draws them.

    The shape (how many orbits, which exponents) comes from `shape_rng`, the
    coefficients from `coeff_rng`.  With one generator for both this is
    exactly verify.random_invariant; the benchmark keeps the shapes of the
    calibration seed so that the cost of a pass does not depend on the
    workload seed, and draws the coefficients from the workload seed.
    """
    total = LaurentPoly.zero(g)
    for _ in range(shape_rng.randint(1, 2)):
        z = [shape_rng.randint(-1, 1) for _ in range(g)]
        t = shape_rng.randint(0, 2) - sum(min(e, 0) for e in z)
        shape_rng.randint(1, 3)  # the coefficient random_invariant would draw
        mono = LaurentPoly.monomial(g, coeff_rng.randint(1, 3), t=t, z=z)
        total = total + weil_symmetrize(mono)
    return total if not total.is_zero() else LaurentPoly.const(g, 1)


def plant_cell(seed, g, n):
    """Planted C-table for ranks 1..n and the cofactor Q of the top rank.

    Ranks 2..n-1 are random invariants.  The top rank is the Picard
    polynomial times Q = t^((g-1)n^2+1-g) + R + c, with R a random invariant
    of lower weight and c chosen so that Q takes the Euler value at t = z = 1;
    then the `qgn` report passes every check.
    """
    shape_rng = random.Random(0)
    coeff_rng = random.Random(f"{seed}:master:{g}:{n}")
    planted = {1: pic_polynomial(g)}
    for s in range(2, n):
        planted[s] = _planted_orbits(shape_rng, coeff_rng, g)
    rest = _planted_orbits(shape_rng, coeff_rng, g)
    top = (g - 1) * n * n + 1
    chi = euler_characteristic(n, g)
    cofactor = (LaurentPoly.monomial(g, 1, t=top - g) + rest
                + (chi - 1 - rest.substitute(1, [1] * g, g - 1)))
    planted[n] = pic_polynomial(g) * cofactor
    return planted, cofactor


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def weil_curve(q, traces):
    """Curve JSON with numerator prod (1 - a z + q z^2) over the traces a,
    |a| <= 2 sqrt(q), and the traces."""
    num = [1]
    for a in traces:
        num = _poly_mul(num, [1, -a, q])
    return {"g": len(traces), "q": q, "numerator": num}, traces


def gaussian_curves(rng, size):
    """Curves whose Frobenius eigenvalues lie in Z[i], the first with a
    repeated factor.  Signs vary with the seed; q and the pattern of repeated
    factors do not, so neither does the cost of evaluating."""
    s = lambda: rng.choice((1, -1))
    curves = [weil_curve(2, [2 * s()] * 2)]
    if size == "smoke":
        return curves
    b = 4 * s()
    curves.append(weil_curve(5, [b, 2 * s()]))
    curves.append(weil_curve(5, [b, 2 * s(), -b]))
    return curves


def generic_curves(rng, size):
    """Weil curves with distinct random traces |a| < 2 sqrt(q), q not a
    square, for the rank-1 counts."""
    out = []
    for g in ((2,) if size == "smoke" else (2, 2, 3, 3)):
        q = rng.choice((3, 7, 8, 11, 13))
        bound = int((4 * q) ** 0.5)
        curve, _ = weil_curve(q, rng.sample(range(-bound, bound + 1), g))
        out.append((curve, None))
    return out


# --------------------------------------------------------------------------
# oracles


def gaussian_value(poly, curve, traces, k):
    """Exact value of a Weil-invariant polynomial at t = q^k, z_i = alpha_i^k,
    with alpha_i in Z[i]; z^-1 = conj(z) / t since |alpha|^2 = q."""
    q = curve["q"]
    t = q ** k
    base = []
    for a in traces:
        re, im = GAUSSIAN_EIGENVALUE[(q, a)]
        zr, zi = 1, 0
        for _ in range(k):
            zr, zi = zr * re - zi * im, zr * im + zi * re
        base.append((zr, zi))
    powers = [{0: (1, 0)} for _ in base]

    def power(i, e):
        cache = powers[i]
        if e not in cache:
            zr, zi = base[i]
            if e < 0:
                zi = -zi
            pr, pi = power(i, e - 1 if e > 0 else e + 1)
            cache[e] = (pr * zr - pi * zi, pr * zi + pi * zr)
        return cache[e]

    shift = max(sum(-e for e in key[1] if e < 0) - key[0] for key in poly.terms)
    shift = max(shift, 0)
    gamma = curve["g"] - 1
    total_re = total_im = 0
    for (et, ez, ey), c in poly.terms.items():
        vr, vi = 1, 0
        for i, e in enumerate(ez):
            if e:
                pr, pi = power(i, e)
                vr, vi = vr * pr - vi * pi, vr * pi + vi * pr
        scale = Fraction(c) * t ** (et - sum(-e for e in ez if e < 0) + shift) * gamma ** ey
        total_re += scale * vr
        total_im += scale * vi
    value = Fraction(total_re) / t ** shift
    if total_im != 0 or value.denominator != 1:
        raise ArithmeticError("Gaussian substitution gave a non-integer")
    return int(value)


def pic_count(numerator, k):
    """|Pic^0| over the degree-k extension: prod (1 - alpha_i^k), from the
    numerator by Newton power sums in integer arithmetic."""
    deg = len(numerator) - 1
    e = [(-1) ** j * b for j, b in enumerate(numerator)]
    p = [0] * (deg * k + 1)
    for m in range(1, deg * k + 1):
        acc = (-1) ** (m - 1) * m * e[m] if m <= deg else 0
        for i in range(1, min(m, deg + 1)):
            acc += (-1) ** (i - 1) * e[i] * p[m - i]
        p[m] = acc
    pk = [0] + [p[m * k] for m in range(1, deg + 1)]
    ek = [1]
    for m in range(1, deg + 1):
        acc = sum((-1) ** (i - 1) * ek[m - i] * pk[i] for i in range(1, m + 1))
        if acc % m:
            raise ArithmeticError("power sums gave a non-integer")
        ek.append(acc // m)
    return sum((-1) ** j * ek[j] for j in range(deg + 1))


_SYMBOL = re.compile(r"^(C\[(\d+),(\d+)\]|\(g-1\))(?:\^(\d+))?$")


def parse_symbolic(text):
    """Terms of a rendered count polynomial: list of (coefficient, factors)
    with factors a dict (s, k) -> exponent, ("g-1",) -> exponent."""
    terms = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff, chunk = -coeff, chunk[1:]
        factors = {}
        for piece in chunk.split("*"):
            m = _SYMBOL.match(piece)
            if m is None:
                coeff *= Fraction(piece)
                continue
            key = (int(m.group(2)), int(m.group(3))) if m.group(2) else ("g-1",)
            factors[key] = factors.get(key, 0) + int(m.group(4) or 1)
        terms.append((coeff, factors))
    return terms


def symbolic_value(terms, values):
    total = Fraction(0)
    for coeff, factors in terms:
        v = coeff
        for key, e in factors.items():
            v *= values[key] ** e
        total += v
    return total


def linear_part_ok(terms, r):
    """The part linear in the C-symbols is the sum of C[d,1] over d | r."""
    linear = {}
    for coeff, factors in terms:
        degree = sum(e for key, e in factors.items() if key != ("g-1",))
        if degree == 1:
            key = frozenset(factors.items())
            linear[key] = linear.get(key, 0) + coeff
    want = {frozenset({((d, 1), 1)}): 1 for d in range(1, r + 1) if r % d == 0}
    return linear == want


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, one pass of operations and the output checks of a workload.

    `record(op, output)` is called after each timed call and returns False
    when the output differs from that op's first output.  `check()` runs each
    op's oracle on its first output and returns the names of the ops that
    fail.  With `corrupt` set, every oracle compares against an expected value
    that is off by one, so every op must fail: that proves the oracles live.
    """

    def __init__(self, seed, workdir, size="full", corrupt=False):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.bump = 1 if corrupt else 0
        self.first = {}
        self.ops = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def operations(self):
        ops = self._operations()
        self.ops = {op.name: op for op in ops}
        return ops

    def record(self, op, output):
        if op.name not in self.first:
            self.first[op.name] = output
            return True
        return output == self.first[op.name]

    def check(self):
        bad = []
        for name, output in self.first.items():
            try:
                ok = self.ops[name].oracle(output)
            except Exception:  # an unreadable output is a wrong one
                ok = False
            if not ok:
                bad.append(name)
        return bad

    def exact_counts(self):
        """Counts read from the outputs that must repeat exactly."""
        return {}


def _cli_json(output):
    """Parsed stdout of a successful CLI call, else None."""
    code, out = output[0], output[1]
    return json.loads(out) if code == 0 else None


class Master(Workload):
    name = "master"

    def __init__(self, seed, workdir, size="full", corrupt=False):
        super().__init__(seed, workdir, size, corrupt)
        self.cells = MASTER_CELLS if size == "full" else ((2, 3),)
        self.max_rank = SYMBOLIC_MAX_RANK if size == "full" else 5
        self.planted = {}
        self.cofactor = {}
        for g, n in self.cells:
            self.planted[(g, n)], self.cofactor[(g, n)] = plant_cell(seed, g, n)

    def _operations(self):
        ops = []
        for g, n in self.cells:
            planted = self.planted[(g, n)]
            point = self._point(g, n)
            for r in range(2, n + 1):
                # looked up on the module at call time, as a traced run needs
                ops.append(Op(f"forward g{g}n{n} r{r}", "forward",
                              lambda r=r, g=g, p=planted: counting.a_from_c(
                                  r, g, CTable.concrete(g, p)),
                              lambda out, r=r, pt=point: self._forward_ok(out, r, pt),
                              cell=(g, n)))
            argv = ["--json", "qgn", "--n", str(n), "--g", str(g),
                    "--a-table", self.path(f"atable_g{g}n{n}.json"),
                    "--emit-ctable", self.path(f"ctable_g{g}n{n}.json")]
            ops.append(Op(f"qgn g{g}n{n}", "qgn", lambda argv=argv: self._qgn(argv),
                          lambda out, cell=(g, n): self._qgn_ok(out, cell)))
        for r in range(1, self.max_rank + 1):
            ops.append(Op(f"symbolic r{r}", "symbolic",
                          lambda r=r: call_cli(["--json", "a-symbolic", "--n", str(r)]),
                          lambda out, r=r: linear_part_ok(self._symbolic(r), r + self.bump)))
        return ops

    def _qgn(self, argv):
        result = call_cli(argv)
        with open(argv[-1], "r", encoding="utf-8") as fh:
            return result + (fh.read(),)

    def record(self, op, output):
        fresh = op.name not in self.first
        same = super().record(op, output)
        if fresh and op.group == "forward" and op.name.endswith(f"r{op.cell[1]}"):
            # the cell's last rank is done: write the A-table that qgn reads
            g, n = op.cell
            entries = {str(r): self.first[f"forward g{g}n{n} r{r}"].to_obj()
                       for r in range(2, n + 1)}
            with open(self.path(f"atable_g{g}n{n}.json"), "w", encoding="utf-8") as fh:
                json.dump({"entries": entries}, fh, separators=(",", ":"))
        return same

    def exact_counts(self):
        return {f"counting.terms.g{g}n{n}": len(self.first[f"forward g{g}n{n} r{n}"].terms)
                for g, n in self.cells}

    def _symbolic(self, r):
        return parse_symbolic(_cli_json(self.first[f"symbolic r{r}"])["polynomial"])

    def _point(self, g, n):
        """A seeded rational point (t, z) and the values of the planted
        C[s,k] = C_s(t^k, z^k) there, with (g-1) -> g-1."""
        rng = random.Random(f"{self.seed}:point:{g}:{n}")
        t = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        z = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(g)]
        values = {("g-1",): Fraction(g - 1)}
        for s, poly in self.planted[(g, n)].items():
            for k in range(1, n // s + 1):
                values[(s, k)] = poly.substitute(t ** k, [v ** k for v in z], 0)
        return t, z, values

    def _forward_ok(self, poly, r, point):
        """The concrete master formula agrees with the symbolic one, taken
        from the `a-symbolic` output, at a random rational point."""
        t, z, values = point
        return poly.substitute(t, z, 0) == symbolic_value(self._symbolic(r), values) + self.bump

    def _qgn_ok(self, output, cell):
        """The inversion recovers every planted entry and the cofactor."""
        obj = _cli_json(output)
        entries = json.loads(output[3])["entries"]
        planted = self.planted[cell]
        return (LaurentPoly.from_obj(obj["Q"]) == self.cofactor[cell] + self.bump
                and all(obj["report"][key] for key in obj["report"] if key != "euler_value")
                and sorted(entries) == sorted(str(s) for s in planted)
                and all(LaurentPoly.from_obj(entries[str(s)]) == p for s, p in planted.items()))


class Evaluate(Workload):
    name = "evaluate"

    def __init__(self, seed, workdir, size="full", corrupt=False):
        super().__init__(seed, workdir, size, corrupt)
        rng = random.Random(f"{seed}:evaluate")
        self.curves = []
        for i, (curve, traces) in enumerate(gaussian_curves(rng, size)
                                            + generic_curves(rng, size)):
            path = self.path(f"curve{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(curve, fh)
            self.curves.append((path, curve, traces))
        self.polys = []
        for g, n in ((2, 5), (3, 4)) if size == "full" else ((2, 3),):
            planted, _ = plant_cell(seed, g, n)
            big = a_from_c(n, g, CTable.concrete(g, planted))
            for label, group, poly in ((f"P{g}{n}", "small", planted[n]),
                                       (f"A{g}{n}", "large", big)):
                path = self.path(f"{label}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(poly.to_json())
                self.polys.append((label, g, n, group, poly, path))

    def _operations(self):
        ops = []
        for i, (path, curve, traces) in enumerate(self.curves):
            g = curve["g"]
            polys = [("pic", g, 1, "small", pic_polynomial(g), None)]
            if traces is not None:  # the generic curves get the rank-1 count only
                polys += [p for p in self.polys if p[1] == g]
            for label, _, n, group, poly, poly_path in polys:
                ks = LARGE_G3_KS if group == "large" and g == 3 else EVAL_KS
                for k in ks:
                    argv = ["--json", "eval", "--curve", path, "--n", str(n), "--k", str(k)]
                    if poly_path:
                        argv += ["--pgn", poly_path]
                    if traces is not None:
                        want = lambda p=poly, c=curve, tr=traces, k=k: gaussian_value(p, c, tr, k)
                    else:
                        want = lambda c=curve, k=k: pic_count(c["numerator"], k)
                    ops.append(Op(f"eval c{i} {label} k{k}", group,
                                  lambda argv=argv: call_cli(argv),
                                  lambda out, want=want: _cli_json(out)["count"]
                                  == want() + self.bump))
        return ops


# (g, n) of the six instances the roundtrip suite draws, for every run; see
# verify_seed.
ROUNDTRIP_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]


def verify_seed(seed):
    """Program seed for a workload seed: the first of seed * 10^6, +1, ...
    whose roundtrip suite draws instances of the shapes ROUNDTRIP_SHAPES.

    How long `verify all` takes depends mostly on how many of the roundtrip
    suite's six random (g, n) instances are large: across program seeds that
    suite alone takes 0.1-3.7 s, and the whole call differs by 40%.  Fixing
    the shapes keeps the work of a run independent of the seed, while the
    planted polynomials and every other suite's instances still vary with it.  The draws replay the suite's own
    generator: Random("<seed>:roundtrip"), then g, n and the planted ranks.
    About one program seed in 65 matches.
    """
    for candidate in range(seed * 10 ** 6, (seed + 1) * 10 ** 6):
        rng = random.Random(f"{candidate}:roundtrip")
        shapes = []
        for _ in range(len(ROUNDTRIP_SHAPES)):
            g = rng.choice([2, 3])
            n = rng.randint(2, 4)
            for _ in range(2, n + 1):
                random_invariant(rng, g)
            shapes.append((g, n))
        if sorted(shapes) == ROUNDTRIP_SHAPES:
            return candidate
    raise RuntimeError(f"no program seed for workload seed {seed} draws {ROUNDTRIP_SHAPES}")


class Verify(Workload):
    name = "verify"

    def __init__(self, seed, workdir, size="full", corrupt=False):
        super().__init__(seed, workdir, size, corrupt)
        self.program_seed = verify_seed(seed)

    def _operations(self):
        argv = ["--json", "verify", "all", "--seed", str(self.program_seed), "--jobs", "1"]
        if self.size != "full":
            argv += ["--iterations", "2"]
        return [Op("verify all", "wall", lambda: call_cli(argv), self._verify_ok)]

    def record(self, op, output):
        if self.bump and op.name in self.first:
            return False
        return super().record(op, output)

    def _verify_ok(self, output):
        """Exit code 0, every suite present and passing with checks run."""
        from locsys.verify import SUITES

        suites = _cli_json(output)["suites"]
        return (len(suites) == len(SUITES) + self.bump
                and all(report["passed"] and report["checks"] > 0 for report in suites))

    def exact_counts(self):
        return {f"verify.{r['suite']}.checks": r["checks"]
                for r in _cli_json(self.first["verify all"])["suites"]}


WORKLOADS = {"master": Master, "evaluate": Evaluate, "verify": Verify}
