"""Seeded verification suites behind the `verify` subcommand.

Each suite is a seeded generator of work items, (checker name, instance)
pairs.  `run_suite` checks each item as it is drawn, with the registered
checker of that name, an exact check, and at the first failure emits a shrunk
JSON counterexample that `replay` runs again; no item list is held.  Suites
never mutate global state, so equal seeds give byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import cones, fields, spectral
from .combinat import (
    binomial_convolution_check,
    cycle_sum_identity_check,
    divisors,
    mobius,
    mobius_divisor_lemma_check,
    partition_count,
    partition_walk,
)
from .counting import ATable, CTable, a_from_c, c_from_a
from .integrality import (
    DivisibilityFailure,
    DivisibilityInstance,
    binomial_gcd_divisibility_check,
    coprime_factorial_congruence_check,
    divisibility_check,
    random_instance,
)
from .laurent import LaurentPoly, pic_polynomial, weil_symmetrize
from .spectral import Block, DiscretePairDatum, TheoremViolation


def _rng(seed, name):
    return random.Random(f"{seed}:{name}")


def _frac_str(x):
    return str(Fraction(x))


def _shrink(instance, fails, moves):
    """Greedy minimization: accept any simpler candidate that still fails."""
    progress = True
    while progress:
        progress = False
        for cand in moves(instance):
            try:
                still_failing = fails(cand)
            except Exception:
                continue
            if still_failing:
                instance = cand
                progress = True
                break
    return instance


# --------------------------------------------------------------------------
# instance checkers (also used by --replay)
#
# KINDS maps (checker, kind), with kind the instance's "kind" field or None
# where it has none, to the spec that reads the instance (locsys.fields) and
# the body that checks the values read.  A body looks up the functions it
# calls when it runs, so a patched function takes effect.

_RATIONALS = fields.list_of(fields.rational)
_DELTA = fields.list_of(fields.integer("delta entries", low=1))
_RATIONAL_FUNC = fields.record({"num": _RATIONALS, "den": _RATIONALS})
_COMPOSITION = cones.check_composition
_SIZES = fields.list_of(fields.integer("lattice sizes", low=1), nonempty=True)
_ORDER = fields.list_of(fields.integer("lattice order"))
_E = fields.integer("lattice e")
_LAM = fields.list_of(fields.tuple_of("lam entries", "[re, im] pairs",
                                      fields.rational, fields.rational))


def _kind(specs):
    """The spec of an instance with a "kind" field (already dispatched on)."""
    return fields.record({"kind": str, **specs})


def _holds(check, *args):
    """Whether a check that raises TheoremViolation on failure passes."""
    try:
        check(*args)
    except TheoremViolation:
        return False
    return True


def _kappa(f):
    matrix, u, v = f["matrix"], f["u"], f["v"]
    if not len(u) == len(v) == len(matrix):
        raise ValueError(f"kappa u and v must have {len(matrix)} entries each, one per row")
    return spectral.det_slope_identities_check(matrix, u, v)


def _block_det(f):
    a, us = f["a"], f["us"]
    if len(us) != len(a):
        raise ValueError(f"block-det us must be {len(a)} lists, one per row of a, "
                         f"not {len(us)}")
    return spectral.block_det_identity_check(a, us)


def _tree(f):
    r, weights = f["r"], f["weights"]
    fields.require_keys("matrix-tree weights", weights,
                        {(i, j) for i in range(r) for j in range(i + 1, r)},
                        f"'i,j', 0 <= i < j < {r}")
    tree = spectral.spanning_tree_sum(r, weights)
    rows = [[Fraction(0)] * r for _ in range(r)]
    for (i, j), w in weights.items():
        rows[i][j] = rows[j][i] = -w
    for i in range(r):
        rows[i][i] = -sum(rows[i], Fraction(0))
    return tree == spectral.det_slope(rows)


def _matr(datum):
    a, b, c = spectral.triple_oracle(datum)
    return a == b == c


def _chamber(f):
    r, coeffs = f["r"], f["coeffs"]
    fields.require_keys("chamber coeffs", coeffs,
                        {(i, j) for i in range(r) for j in range(r) if i != j},
                        f"'i,j', 0 <= i != j < {r}")
    cfuncs = {}
    derivs = {}
    for pair, cs in coeffs.items():

        def func(x, cs=cs):
            out = x * 0 + 1
            for k, c in enumerate(cs, start=1):
                if c:
                    out = out + (x ** k - 1) * c.numerator / c.denominator
            return out

        cfuncs[pair] = func
        derivs[pair] = sum(k * c for k, c in enumerate(cs, start=1))
    try:
        limit, basis = spectral.chamber_limit_exact(r, cfuncs, derivs=derivs)
    except TheoremViolation:
        return False
    return limit == basis


def _lam(f):
    """lambda, one [re, im] pair per block."""
    lam, r = f["lam"], len(f["sizes"])
    if len(lam) != r:
        raise ValueError(f"lam must be a list of {r} [re, im] pairs, one per block, "
                         f"not {len(lam)}")
    return lam


def _support(f):
    p, samples = f["p"], f["T"]
    if not samples or any(len(T) != sum(p) for T in samples):
        raise ValueError(f"cones support T must be a non-empty list of points with "
                         f"{sum(p)} coordinates, one per column of p")
    return cones.gamma_support_bound_check(p, samples, e=f["e"])


def _growth(f):
    if f["sizes"] != [1, 1]:
        raise ValueError(f"lattice growth counts the sizes [1, 1], not {f['sizes']!r}")
    counts = [cones.truncation_lattice_sum((1, 1), 0, (0, 0), (t, -t))
              for t in range(f["tmax"] + 1)]
    return counts == list(range(f["tmax"] + 1))


def _divisible(inst):
    try:
        return divisibility_check(inst)
    except DivisibilityFailure:
        return False


def _aggregation(f):
    a, dtable = f["a"], f["dtable"]
    fields.require_keys("aggregation dtable", dtable,
                        {(j, d) for j in range(1, a + 1) for d in divisors(j)},
                        f"'j,d', 1 <= j <= {a}, d | j")
    return spectral.aggregation_check(a, f["l"], f["S"], f["g"], dtable)


def _roundtrip(f):
    g, n, planted = f["g"], f["n"], f["planted"]
    fields.require_keys("roundtrip planted", planted, set(range(1, n + 1)), f"1..{n}")
    table = CTable.concrete(g, planted)
    entries = {s: a_from_c(s, g, table) for s in range(2, n + 1)}
    recovered = c_from_a(n, g, ATable(g, entries))
    return all(recovered.weil[s] == table.weil[s] for s in range(1, n + 1))


def _positive(label, cap=None):
    return fields.integer(label, low=1, cap=cap)


# A field that sets the size of a check has a cap, so that every replay ends
# quickly.  Each cap is at least the largest value a suite draws, and the
# check runs in well under a second at it (partition-count at n = 50
# walks 204,226 partitions).
KINDS = {
    ("kappa", None): (
        fields.record({"matrix": fields.square("kappa matrix", fields.rational),
                       "u": _RATIONALS, "v": _RATIONALS}),
        _kappa),
    ("block-det", None): (
        fields.record({"a": fields.square("block-det a", fields.rational),
                       "us": fields.list_of(fields.list_of(fields.rational, nonempty=True))}),
        _block_det),
    ("matrix-tree", None): (
        fields.record({"r": fields.integer("matrix-tree r", 1, 7), "weights": fields.keyed(
            fields.pair_key, fields.rational, "matrix-tree weights")}),
        _tree),
    ("matr", None): (DiscretePairDatum.from_obj, _matr),
    ("delta", None): (
        fields.record({"lengths": _DELTA, "fixes": _DELTA}),
        lambda f: _holds(spectral.orbit_character_sum, f["lengths"], f["fixes"])),
    ("gm-family", None): (
        fields.record({"r": fields.integer("chamber r", 2, 5), "coeffs": fields.keyed(
            fields.pair_key, _RATIONALS, "chamber coeffs")}),
        _chamber),
    ("gm-family", "circle"): (
        _kind({"c12": _RATIONAL_FUNC, "c21": _RATIONAL_FUNC}),
        lambda f: _holds(spectral.circle_count_check, spectral.RationalFunc(**f["c12"]),
                         spectral.RationalFunc(**f["c21"]))),
    ("cones", "langlands"): (
        _kind({"p": _COMPOSITION, "q": _COMPOSITION, "H": _RATIONALS}),
        lambda f: cones.langlands_identity_check(f["p"], f["q"], f["H"])),
    ("cones", "egal"): (
        _kind({"p": _COMPOSITION, "H": _RATIONALS, "T": _RATIONALS}),
        lambda f: (cones.gamma_cone(f["p"], f["H"], f["T"])
                   == cones.gamma_prime(f["p"], f["H"], f["T"]))),
    ("cones", "zero"): (
        _kind({"p": _COMPOSITION, "H": _RATIONALS}),
        lambda f: cones.gamma_cone(f["p"], f["H"], [0] * len(f["p"])) == 0),
    ("cones", "inversion"): (
        _kind({"p": _COMPOSITION, "H": _RATIONALS, "T": _RATIONALS}),
        lambda f: cones.gamma_inversion_check(f["p"], f["H"], f["T"])),
    ("cones", "support"): (
        _kind({"p": _COMPOSITION, "T": fields.list_of(fields.list_of(fields.integer(
            "cones support T"))), "e": fields.integer("cones support e")}),
        _support),
    ("lattice", "series"): (
        _kind({"sizes": _SIZES, "order": _ORDER, "e": _E, "lam": _LAM}),
        lambda f: spectral.cone_series_check(f["sizes"], f["order"], f["e"], _lam(f))[0]),
    ("lattice", "degree-one"): (
        _kind({"sizes": _SIZES, "order": _ORDER, "lam": _LAM}),
        lambda f: spectral.cone_degree_one_identity(f["sizes"], f["order"], _lam(f))),
    ("lattice", "fourier"): (
        _kind({"sizes": _SIZES, "e": _E, "lam": _LAM}),
        lambda f: spectral.cone_fourier_average_check(f["sizes"], f["e"], _lam(f))),
    ("lattice", "periodicity"): (
        _kind({"sizes": _SIZES, "order": _ORDER, "e": _E}),
        lambda f: spectral.cone_periodicity_check(f["sizes"], f["order"], f["e"])),
    ("lattice", "growth"): (
        _kind({"sizes": _SIZES, "tmax": _positive("lattice tmax", 100)}), _growth),
    ("integrality", None): (DivisibilityInstance.from_obj, _divisible),
    ("integrality", "congruence"): (
        _kind({"p": fields.integer("congruence p", low=2, cap=13),
               "alpha": _positive("congruence alpha", 3), "n": _positive("congruence n", 1000)}),
        lambda f: coprime_factorial_congruence_check(f["p"], f["alpha"], f["n"])),
    ("integrality", "binom"): (
        _kind({"n": fields.integer("binom n", low=-10 ** 6, cap=10 ** 6),
               "m": _positive("binom m", 10 ** 4)}),
        lambda f: binomial_gcd_divisibility_check(f["n"], f["m"])),
    ("combinat", "cycle"): (
        _kind({"m": _positive("cycle m", 30), "xi": _positive("cycle xi"), "S": fields.rational}),
        lambda f: cycle_sum_identity_check(f["m"], f["xi"], f["S"])),
    ("combinat", "convolution"): (
        _kind({"k": _positive("convolution k", 30), "xi": _positive("convolution xi"),
               "S": fields.rational, "D": fields.rational}),
        lambda f: binomial_convolution_check(f["k"], f["xi"], f["D"], f["S"])),
    ("combinat", "mobius-divisor"): (
        _kind({"t": _positive("mobius-divisor t", 10 ** 6),
               "l": _positive("mobius-divisor l", 10 ** 6),
               "L": _positive("mobius-divisor L", 10 ** 6)}),
        lambda f: mobius_divisor_lemma_check(f["t"], f["l"], f["L"])),
    ("combinat", "partition-count"): (
        _kind({"n": _positive("partition-count n", 50)}),
        lambda f: sum(1 for _ in partition_walk(f["n"])) == partition_count(f["n"])),
    ("combinat", "mobius-sum"): (
        _kind({"n": _positive("mobius-sum n", 10 ** 6)}),
        lambda f: sum(mobius(d) for d in divisors(f["n"])) == (1 if f["n"] == 1 else 0)),
    ("aggregation", None): (
        fields.record({"a": _positive("aggregation a", 12), "l": _positive("aggregation l"),
                       "g": fields.integer("aggregation g"), "S": fields.rational,
                       "dtable": fields.keyed(fields.pair_key, fields.rational,
                                              "aggregation dtable")}),
        _aggregation),
    ("roundtrip", None): (
        fields.record({"g": fields.integer("roundtrip g", cap=3), "n": _positive("roundtrip n", 5),
                       "planted": fields.keyed(fields.canonical_int, LaurentPoly.from_obj,
                                               "roundtrip planted")}),
        _roundtrip),
}


def _checker(name):
    def check(obj):
        kind = obj.get("kind") if type(obj) is dict else None
        try:
            spec, body = KINDS[name, kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {name} check {kind!r}") from None
        return body(spec(obj))
    return check


CHECKERS = {name: _checker(name) for name, _ in KINDS}


def replay(payload):
    """Rerun one checker on a saved instance; a malformed payload is a ValueError."""
    try:
        name, instance = payload["checker"], payload["instance"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed replay payload: {exc!r}") from None
    if not isinstance(name, str) or name not in CHECKERS:
        raise ValueError(f"unknown checker {name!r}; choose from {sorted(CHECKERS)}")
    failure = _run_one((name, instance))
    result = {"suite": payload.get("suite", name), "passed": failure is None}
    if failure is not None and failure[1] is not None:
        result["error"] = failure[1]
    return result


# --------------------------------------------------------------------------
# generators


def random_zero_sum_matrix(rng, n, symmetric):
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
    for i in range(n):
        rows[i][i] -= sum(rows[i], Fraction(0))
    return rows


def random_datum(rng) -> DiscretePairDatum:
    while True:
        blocks = []
        seen = set()
        orbits_total = 0
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            nu = rng.randint(1, 3)
            fix = rng.choice([f for f in divisors(d)])
            if (d, nu, fix) in seen:
                continue
            seen.add((d, nu, fix))
            m = rng.randint(1, 3)
            parts = []
            left = m
            while left:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            blocks.append(Block(d, nu, fix, m, tuple(parts)))
            orbits_total += len(parts)
        if blocks and orbits_total <= 5:
            return DiscretePairDatum(rng.choice([2, 3]), tuple(blocks))


def random_invariant(rng, g, max_monomials=2, max_t=2) -> LaurentPoly:
    total = LaurentPoly.zero(g)
    for _ in range(rng.randint(1, max_monomials)):
        z = [rng.randint(-1, 1) for _ in range(g)]
        t = rng.randint(0, max_t) - sum(min(e, 0) for e in z)
        mono = LaurentPoly.monomial(g, rng.randint(1, 3), t=t, z=z)
        total = total + weil_symmetrize(mono)
    return total if not total.is_zero() else LaurentPoly.const(g, 1)


# --------------------------------------------------------------------------
# shrinking moves


def _moves_matr(obj):
    blocks = obj["blocks"]
    if len(blocks) > 1:
        for i in range(len(blocks)):
            yield {"g": obj["g"], "blocks": blocks[:i] + blocks[i + 1:]}
    for i, b in enumerate(blocks):
        for key in ("d", "nu", "fix", "m"):
            if b[key] > 1:
                nb = dict(b)
                nb[key] -= 1
                if key == "m":
                    nb["orbits"] = [1] * nb["m"]
                if nb["d"] % nb["fix"] == 0 and sum(nb["orbits"]) == nb["m"]:
                    yield {"g": obj["g"], "blocks": blocks[:i] + [nb] + blocks[i + 1:]}
        if len(b["orbits"]) > 1:
            nb = dict(b)
            nb["orbits"] = [b["orbits"][0] + b["orbits"][1]] + list(b["orbits"][2:])
            yield {"g": obj["g"], "blocks": blocks[:i] + [nb] + blocks[i + 1:]}


def _moves_delta(obj):
    ls, fs = obj["lengths"], obj["fixes"]
    if len(ls) > 1:
        for i in range(len(ls)):
            yield {"lengths": ls[:i] + ls[i + 1:], "fixes": fs[:i] + fs[i + 1:]}
    for i in range(len(ls)):
        if ls[i] > 1:
            yield {"lengths": ls[:i] + [ls[i] - 1] + ls[i + 1:], "fixes": fs}
        if fs[i] > 1:
            yield {"lengths": ls, "fixes": fs[:i] + [fs[i] - 1] + fs[i + 1:]}


def _moves_integrality(obj):
    if "kind" in obj:
        return
    inst = DivisibilityInstance.from_obj(obj)
    if inst.m > 1:
        for drop in range(inst.m):
            k = {}
            eps = {}
            for (i, j, s), v in inst.k.items():
                if i == drop:
                    continue
                ni = i - 1 if i > drop else i
                k[(ni, j, s)] = v
                eps[(ni, j, s)] = inst.eps[(i, j, s)]
            a = [x for i, x in enumerate(inst.a) if i != drop]
            nu = [x for i, x in enumerate(inst.nu) if i != drop]
            if k:
                yield DivisibilityInstance(a=a, nu=nu, chi=inst.chi, k=k, eps=eps).to_obj()
    for key in list(inst.k):
        if inst.k[key] > 1:
            k = dict(inst.k)
            k[key] -= 1
            i = key[0]
            a = list(inst.a)
            a[i] -= key[2]
            if a[i] >= 1:
                try:
                    yield DivisibilityInstance(a=a, nu=inst.nu, chi=inst.chi,
                                               k=k, eps=dict(inst.eps)).to_obj()
                except ValueError:
                    pass


_MOVES = {
    "matr": _moves_matr,
    "delta": _moves_delta,
    "integrality": _moves_integrality,
}


def _run_one(item):
    """None when the (checker name, instance) item passes, so that a worker
    sends nothing back for it, else (item, error): error is "<ExcType>:
    <message>" when the checker raised, else None."""
    checker_name, instance = item
    try:
        return None if CHECKERS[checker_name](instance) else (item, None)
    except Exception as exc:
        return item, f"{type(exc).__name__}: {exc}"


# the most worker processes a suite starts; a pool never has more workers
# than items
MAX_JOBS = 64

# the largest --iterations, twice the largest default (500); at it the
# roundtrip suite runs for about 9 s
MAX_ITERATIONS = 1000


def _finish(name, items, jobs=1):
    """Check the (checker name, instance) items in one pass, up to the first
    failing one, and build the suite's report.

    With jobs > 1 the items run in a process pool of at most `jobs` workers
    and never more than there are items; `imap` keeps item order, so reports
    are identical.  "checks" counts the items checked.  A theorem failure is
    shrunk; a checker that raised is reported unshrunk with its exception
    under "error"."""
    items = iter(items)
    if jobs > 1:
        # pool.map's chunk size on at most 64 items per job: a longer suite
        # runs in chunks of 16, since a message costs more than most checks
        head = list(itertools.islice(items, 64 * jobs))
        items = itertools.chain(head, items)
        if len(head) > 1:
            import multiprocessing

            workers = min(jobs, len(head))
            chunk = -(-len(head) // (4 * workers))
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return _report(name, pool.imap(_run_one, items, chunk))
    return _report(name, map(_run_one, items))


def _report(name, failures):
    """The report on the per-item results of _run_one, in item order."""
    checks = 0
    for checks, failure in enumerate(failures, 1):
        if failure is not None:
            (checker_name, instance), error = failure
            report = {"suite": name, "passed": False, "checks": checks}
            if error is not None:
                report["error"] = error
            elif checker_name in _MOVES:
                checker = CHECKERS[checker_name]
                instance = _shrink(instance, lambda cand: not checker(cand), _MOVES[checker_name])
            report["counterexample"] = {"suite": name, "checker": checker_name,
                                        "instance": instance}
            return report
    return {"suite": name, "passed": True, "checks": checks, "counterexample": None}


# --------------------------------------------------------------------------
# suites


def suite_kappa(seed, iterations):
    rng = _rng(seed, "kappa")
    iterations = iterations or 200
    for _ in range(iterations):
        n = rng.randint(2, 6)
        rows = random_zero_sum_matrix(rng, n, symmetric=True)
        yield "kappa", {
            "matrix": [[_frac_str(x) for x in row] for row in rows],
            "u": [str(rng.randint(1, 5)) for _ in range(n)],
            "v": [str(rng.randint(1, 5)) for _ in range(n)],
        }
    for _ in range(iterations):
        k = rng.randint(1, 3)
        yield "block-det", {
            "a": [[f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in range(k)]
                  for _ in range(k)],
            "us": [[str(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                   for _ in range(k)],
        }


def suite_matrix_tree(seed, iterations):
    rng = _rng(seed, "matrix-tree")
    for _ in range(iterations or 100):
        r = rng.randint(1, 6)
        weights = {
            f"{i},{j}": f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}"
            for i in range(r) for j in range(i + 1, r)
        }
        yield "matrix-tree", {"r": r, "weights": weights}


def suite_matr(seed, iterations):
    rng = _rng(seed, "matr")
    for _ in range(iterations or 100):
        yield "matr", random_datum(rng).to_obj()


def suite_delta(seed, iterations):
    """Every multiset of one to three (orbit length, fix) pairs, each entry
    at most min(max(iterations, 2), 8) (6 by default).  Here `iterations`
    is that bound, not a count: 1 and 2 yield the same items, and so does
    every value from 8 up (47,904 items, against 9,138 at the default).
    The seed is not read."""
    max_entry = min(max(iterations or 6, 2), 8)
    pairs = [(l, f) for l in range(1, max_entry + 1) for f in range(1, max_entry + 1)]
    for length in range(1, 4):
        for combo in itertools.combinations_with_replacement(pairs, length):
            yield "delta", {"lengths": [l for l, _ in combo], "fixes": [f for _, f in combo]}


# (numerator, denominator) coefficients, low to high degree, of the two
# rational functions of each two-block chamber family whose circle integral
# the gm-family suite checks
_CIRCLE_FAMILIES = [
    (([1, -2], [1]), ([1], [1])),
    (([1], [1]), ([1], [1])),
    (([1], [1, -3]), ([1, 1, -6], [1])),
    (([2, -5, 2], [1]), ([1], [3, -10, 3])),
]


def suite_gm_family(seed, iterations):
    rng = _rng(seed, "gm-family")
    for _ in range(iterations or 12):
        r = rng.randint(2, 4)
        coeffs = {}
        for i in range(r):
            for j in range(r):
                if i != j:
                    deg = rng.randint(1, 3)
                    coeffs[f"{i},{j}"] = [str(rng.randint(-2, 2)) for _ in range(deg)]
        yield "gm-family", {"r": r, "coeffs": coeffs}
    for (num12, den12), (num21, den21) in _CIRCLE_FAMILIES:
        yield "gm-family", {"kind": "circle", "c12": {"num": num12, "den": den12},
                            "c21": {"num": num21, "den": den21}}


def suite_cones(seed, iterations):
    rng = _rng(seed, "cones")
    iterations = iterations or 250
    compositions = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1, 1), (1, 1, 1, 1, 1)]
    for _ in range(iterations):
        p = rng.choice(compositions)
        grouping = rng.choice(list(cones.coarsenings(p)))
        q = cones._block_sums(p, grouping)
        H = [f"{rng.randint(-40, 40)}/{rng.choice([1, 3, 7])}" for _ in p]
        yield "cones", {"kind": "langlands", "p": list(p), "q": q, "H": H}
    for _ in range(iterations):
        p = rng.choice(compositions)
        flag = sorted((rng.randint(-9, 9) for _ in range(sum(p))), reverse=True)
        Tp = [str(x) for x in cones.project_full_flag(flag, p)]
        H = [f"{rng.randint(-15, 15)}/{rng.choice([1, 2])}" for _ in p]
        yield "cones", {"kind": "egal", "p": list(p), "H": H, "T": Tp}
        yield "cones", {"kind": "inversion", "p": list(p), "H": H, "T": Tp}
    for h1 in range(-4, 5):
        for h2 in range(-4, 5):
            yield "cones", {"kind": "zero", "p": [1, 1], "H": [str(h1), str(h2)]}
    yield "cones", {"kind": "support", "p": [1, 1], "T": [[2, -2], [5, 1]], "e": 0}
    yield "cones", {"kind": "support", "p": [1, 1, 1], "T": [[3, 1, -1]], "e": 0}


def suite_lattice(seed, iterations):
    rng = _rng(seed, "lattice")
    shapes = [((1, 1), (0, 1)), ((1, 1), (1, 0)), ((2, 1), (0, 1)), ((2, 1), (1, 0)),
              ((1, 1, 1), (0, 1, 2)), ((2, 1, 1), (1, 0, 2))]
    for idx in range(iterations or 20):
        sizes, order = shapes[idx % len(shapes)]
        r = len(sizes)
        lam = []
        for i in range(r):
            mod = 0.4 + 0.2 * i + rng.random() * 0.05
            # rounded to sixty-fourths: exact rationals with small denominators
            lam.append([_frac_str(Fraction(round(64 * mod * f(0.3 + i)), 64))
                        for f in (math.cos, math.sin)])
        # enforce increasing moduli along the identity order for convergence
        e = rng.randint(-3, 3)
        yield "lattice", {"kind": "series", "sizes": list(sizes), "order": list(order),
                          "e": e, "lam": lam}
        yield "lattice", {"kind": "degree-one", "sizes": list(sizes), "order": list(order),
                          "lam": lam}
        yield "lattice", {"kind": "periodicity", "sizes": list(sizes), "order": list(order),
                          "e": e}
    for sizes, e in (((1, 1), -1), ((2, 1), 2), ((1, 1, 1), 1), ((2, 2), 3)):
        lam = [[_frac_str(Fraction(5 + 3 * i, 10)), _frac_str(Fraction(i + 1, 10))]
               for i in range(len(sizes))]
        yield "lattice", {"kind": "fourier", "sizes": list(sizes), "e": e, "lam": lam}
    yield "lattice", {"kind": "growth", "sizes": [1, 1], "tmax": 20}


def suite_integrality(seed, iterations):
    rng = _rng(seed, "integrality")
    for _ in range(iterations or 500):
        yield "integrality", random_instance(rng).to_obj()
    yield from (("integrality", {"kind": "congruence", "p": p, "alpha": alpha, "n": n})
                for p in (2, 3, 5, 7) for alpha in (1, 2, 3) for n in range(1, 51))
    for _ in range(200):
        n = rng.choice([-1, 1]) * rng.randint(1, 10000)
        yield "integrality", {"kind": "binom", "n": n, "m": rng.randint(1, 400)}


def suite_combinat(seed, iterations):
    """Partition counts for n <= 40, Mobius sums for n <= 2000, the
    Mobius-divisor identity on an 8 x 8 x 8 grid, and seeded cycle and
    convolution items for every m <= 12 and divisor xi of m.  Only the last
    are random, drawn max(1, iterations // 10) times per (m, xi) (5 by
    default): `iterations` counts rounds of ten, so 1 to 19 yield the same
    2,622 items and 20 yields 2,692."""
    rng = _rng(seed, "combinat")
    rounds = max(1, (iterations or 50) // 10)
    for n in range(1, 41):
        yield "combinat", {"kind": "partition-count", "n": n}
    for n in range(1, 2001):
        yield "combinat", {"kind": "mobius-sum", "n": n}
    for m in range(1, 13):
        for xi in divisors(m):
            for _ in range(rounds):
                s = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
                yield "combinat", {"kind": "cycle", "m": m, "xi": xi, "S": s}
                d = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
                yield "combinat", {"kind": "convolution", "k": m, "xi": xi, "S": s, "D": d}
    for t in range(1, 9):
        for l in range(1, 9):
            for big_l in range(1, 9):
                yield "combinat", {"kind": "mobius-divisor", "t": t, "l": l, "L": big_l}


def suite_aggregation(seed, iterations):
    rng = _rng(seed, "aggregation")
    for _ in range(iterations or 50):
        a = rng.randint(1, 4)
        l = rng.choice([1, 2])
        dtable = {}
        for j in range(1, a + 1):
            for d in divisors(j):
                dtable[f"{j},{d}"] = f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}"
        yield "aggregation", {
            "a": a, "l": l, "g": rng.choice([2, 3]),
            "S": f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}",
            "dtable": dtable,
        }


def suite_roundtrip(seed, iterations):
    rng = _rng(seed, "roundtrip")
    for _ in range(iterations or 6):
        g = rng.choice([2, 3])
        n = rng.randint(2, 4)
        planted = {1: pic_polynomial(g)}
        for s in range(2, n + 1):
            planted[s] = random_invariant(rng, g)
        yield "roundtrip", {
            "g": g, "n": n,
            "planted": {str(s): p.to_obj() for s, p in planted.items()},
        }


SUITES = {
    "kappa": suite_kappa,
    "matrix-tree": suite_matrix_tree,
    "matr": suite_matr,
    "delta": suite_delta,
    "gm-family": suite_gm_family,
    "cones": suite_cones,
    "lattice": suite_lattice,
    "integrality": suite_integrality,
    "combinat": suite_combinat,
    "aggregation": suite_aggregation,
    "roundtrip": suite_roundtrip,
}


def run_suite(name, seed=0, iterations=None, jobs=1):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if iterations is not None and iterations < 1:
        raise ValueError(f"need iterations >= 1, got {iterations}")
    if iterations is not None and iterations > MAX_ITERATIONS:
        raise ValueError(f"need iterations <= {MAX_ITERATIONS}, got {iterations}")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"need 1 <= jobs <= {MAX_JOBS}, got {jobs}")
    report = _finish(name, SUITES[name](seed, iterations), jobs)
    if name == "matr":
        report["note"] = (
            "closed form carries no extra factor for the number of distinct Speh sizes; "
            "adjudicated by exact agreement with the matrix slope and the tree sum"
        )
    return report
