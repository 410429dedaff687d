"""The helpers of `locsys.polyq` against brute force: ring operations by
their values at rational points, remainders by divisibility, Newton's
identities on known integer roots, and exact real-root counts and remainder
chains on polynomials built from known roots.  The integer pseudo-remainder
sequences behind gcds, squarefree parts, remainder chains, Cauchy indices
and real-root counts are checked against a Fraction-arithmetic reference
(`divmod_` and the plain Euclidean and signed remainder sequences on it)
over a seeded grid."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from locsys import polyq

# monic quadratics irreducible over Q, with their real roots
QUADRATICS = [([1, 0, 1], []), ([1, 1, 1], []), ([-2, 0, 1], [-math.sqrt(2), math.sqrt(2)]),
              ([-1, -1, 1], [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])]
RATIONALS = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]


def _times_linear(f, r):
    """f(x) (x - r)."""
    return [a - r * b for a, b in zip([0] + f, f + [0])]


def test_real_roots_against_known_roots():
    rng = random.Random("real-roots")
    for _ in range(400):
        quadratic, irrational = rng.choice(QUADRATICS)
        roots = sorted(set(rng.sample(RATIONALS, rng.randint(0, 4))))
        f = quadratic
        for r in roots:
            f = _times_linear(f, r)
        ends = sorted(rng.choice([rng.choice(RATIONALS), rng.choice(roots or RATIONALS)])
                      for _ in range(2))
        lo, hi = rng.choice([ends, [-math.inf, ends[1]], [ends[0], math.inf], [-math.inf, math.inf]])
        want = sum(lo <= r <= hi for r in roots + irrational)
        assert polyq.real_roots(f, lo, hi) == want, (f, lo, hi)


def test_real_roots_at_the_ends():
    f = _times_linear(_times_linear([-2, 0, 1], 1), -1)  # roots -sqrt 2, -1, 1, sqrt 2
    assert polyq.real_roots(f, -1, 1) == 2
    assert polyq.real_roots(f, 1, 1) == polyq.real_roots(f, -1, -1) == 1
    assert polyq.real_roots(f, -1, 0) == polyq.real_roots(f, 0, 1) == 1
    assert polyq.real_roots(f, Fraction(-1, 2), Fraction(1, 2)) == 0
    assert polyq.real_roots(f, -math.inf, math.inf) == 4
    assert polyq.real_roots([1, 0, 1], -math.inf, math.inf) == 0
    assert polyq.real_roots([3], -1, 1) == 0


def divmod_(a, b):
    """Reference: quotient and remainder of a by b (b nonzero and trimmed) in
    Fraction arithmetic."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for s in reversed(range(len(quo))):
        c = quo[s] = rem[s + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            rem[s + i] -= c * bc
    return quo, polyq.trim(rem[:len(b) - 1])


def _signed_remainders(f0, f1):
    """The chain f_(i+1) = -(f_(i-1) mod f_i), unscaled."""
    chain = [f0, f1]
    while rem := divmod_(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return chain


def _random_chain_pairs(rng, count):
    for _ in range(count):
        f0 = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rng.randint(2, 9))]
        f0[-1] = f0[-1] or 1
        f1 = polyq.trim([Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                         for _ in range(rng.randint(1, len(f0) - 1))]) or [1]
        yield f0, f1


def test_remainder_chain_members_are_primitive_positive_multiples():
    """On random Fraction pairs and on the differential grid."""
    rng = random.Random("remainder-chain")
    for f0, f1 in itertools.chain(_random_chain_pairs(rng, 200), differential_grid()):
        chain = polyq.remainder_chain(f0, f1)
        plain = _signed_remainders(f0, f1)
        assert chain[:2] == [f0, f1] and len(chain) == len(plain)
        for got, want in zip(chain[2:], plain[2:]):
            assert all(type(c) is int for c in got) and math.gcd(*got) == 1, got
            ratio = Fraction(got[-1]) / want[-1]
            assert ratio > 0 and [ratio * c for c in want] == got, (got, want)


def ref_gcd(a, b):
    """Reference: the monic gcd of a and b (not both zero) by the plain
    Euclidean algorithm on divmod_."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def ref_squarefree(f):
    """Reference: f / gcd(f, f'), a rational multiple of polyq.squarefree."""
    return divmod_(f, ref_gcd(f, polyq.derivative(f)))[0]


def ref_cauchy_index(f0, f1, lo, hi):
    if not f1:
        return 0
    chain = _signed_remainders(f0, f1)
    return polyq.sign_changes(chain, lo) - polyq.sign_changes(chain, hi)


def ref_real_roots(f, lo, hi):
    """Reference: real_roots through the unscaled signed remainder chain."""
    at_lo = lo != -math.inf and polyq.value(f, lo) == 0
    return ref_cauchy_index(f, polyq.derivative(f), lo, hi) + at_lo


def _is_rational_multiple(got, want):
    ratio = Fraction(got[-1]) / want[-1]
    return len(got) == len(want) and [ratio * c for c in want] == got


GRID_ROOTS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def _grid_poly(rng, roots, degree, rational):
    """A polynomial of the given degree with the given roots (repeats kept),
    the rest of it a random factor; a negative leading coefficient about
    half the time, Fraction coefficients where rational."""
    cofactor = [rng.randint(-7, 7) for _ in range(degree - len(roots))] + [rng.choice([-3, -1, 1, 2])]
    if rational:
        cofactor = [Fraction(c, rng.randint(1, 4)) for c in cofactor]
    f = cofactor
    for r in roots:
        f = _times_linear(f, r)
    return f if rational else [int(c) for c in f]


def differential_grid(count=600):
    """Seeded pairs (a, b), trimmed and b nonzero: int or Fraction
    coefficients, deg a - deg b from -1 to 3, negative leading coefficients,
    repeated and shared roots, zero constant terms (the root 0)."""
    rng = random.Random("pseudo-remainder-grid")
    for i in range(count):
        rational = i % 3 == 0
        shared = rng.choices(GRID_ROOTS, k=rng.randint(0, 2))
        b_roots = shared + rng.choices(GRID_ROOTS, k=rng.randint(0, 2))
        deg_b = len(b_roots) + rng.randint(0, 2)
        deg_a = max(deg_b + rng.randint(-1, 3), len(shared))
        a_roots = shared + rng.choices(GRID_ROOTS, k=rng.randint(0, deg_a - len(shared)))
        yield (polyq.trim(_grid_poly(rng, a_roots, deg_a, rational)),
               polyq.trim(_grid_poly(rng, b_roots, deg_b, rational)))


def test_differential_grid_covers_its_cases():
    gaps, seen = set(), set()
    for a, b in differential_grid():
        gaps.add(len(a) - len(b))
        seen.add(("fraction", any(type(c) is Fraction for c in a + b)))
        seen.add(("negative-lead-gap", b[-1] < 0, len(a) - len(b)))
        seen.add(("zero-constant", a[0] == 0))
        seen.add(("shared-root", len(ref_gcd(a, b)) > 1))
        seen.add(("repeated-root", len(ref_squarefree(a)) < len(a)))
    assert gaps == {-1, 0, 1, 2, 3}
    assert {("negative-lead-gap", True, 2), ("negative-lead-gap", True, 3)} <= seen
    for case in ("fraction", "zero-constant", "shared-root", "repeated-root"):
        assert {(case, True), (case, False)} <= seen, case


def test_pseudo_remainder_is_the_scaled_remainder():
    """|lc(b)|^(deg a - deg b + 1) times the remainder, exactly: the sign of
    lc(b) and the exponent both matter."""
    for a, b in differential_grid():
        a, b = polyq.primitive(a), polyq.primitive(b)
        scale = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
        got = polyq.pseudo_remainder(a, b)
        assert all(type(c) is int for c in got)
        assert got == [scale * c for c in divmod_(a, b)[1]], (a, b, got)


def test_exact_quotient_raises_unless_exact():
    for a, b in differential_grid():
        a, b = polyq.primitive(a), polyq.primitive(b)
        product = polyq.mul(a, b)
        assert polyq.exact_quotient(product, b) == a, (a, b)
        rem = divmod_(a, b)[1]
        if rem:  # a remainder of lower degree than b
            with pytest.raises(ArithmeticError, match="inexact"):
                polyq.exact_quotient(polyq.add(product, polyq.primitive(rem)), b)
    # (x^2 + 1) / (2x + 1) is not in Z[x], nor is 3x / 2x, whose only
    # remainder is at the top
    for a, b in [([1, 0, 1], [1, 2]), ([0, 3], [0, 2]), ([3], [2])]:
        with pytest.raises(ArithmeticError, match="inexact"):
            polyq.exact_quotient(a, b)


def test_gcd_and_squarefree_against_the_reference():
    for a, b in differential_grid():
        got = polyq.gcd(a, b)
        assert all(type(c) is int for c in got) and math.gcd(*got) == 1, (a, b, got)
        assert _is_rational_multiple(got, ref_gcd(a, b)), (a, b, got)
        square_free = polyq.squarefree(a)
        assert all(type(c) is int for c in square_free) and math.gcd(*square_free) == 1
        assert _is_rational_multiple(square_free, ref_squarefree(a)), (a, square_free)


def test_counts_against_the_reference():
    """Cauchy indices and real-root counts agree with those of the unscaled
    chain, at roots and between them."""
    ends = [-math.inf, math.inf] + GRID_ROOTS + [Fraction(1, 3), 4]
    rng = random.Random("chain-grid")
    for a, b in differential_grid():
        f = polyq.squarefree(a)
        for _ in range(3):
            lo, hi = sorted(rng.sample(ends, 2))
            if all(x in (-math.inf, math.inf) or polyq.value(a, x) for x in (lo, hi)):
                assert polyq.cauchy_index(a, b, lo, hi) == ref_cauchy_index(a, b, lo, hi)
            assert polyq.real_roots(f, lo, hi) == ref_real_roots(ref_squarefree(a), lo, hi), (a, lo, hi)


POINTS = [Fraction(n, d) for n in range(-4, 5) for d in (1, 3)]


def _random_poly(rng, top=6):
    """Integer or Fraction coefficients, possibly with zeros inside and on top,
    or the empty list."""
    return [rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
            for _ in range(rng.randint(0, top))]


def test_add_and_mul_by_their_values():
    rng = random.Random("ring")
    for _ in range(300):
        a, b = _random_poly(rng), _random_poly(rng)
        total, product = polyq.add(a, b), polyq.mul(a, b)
        assert len(total) == max(len(a), len(b))
        assert len(product) == max(len(a) + len(b) - 1, 0)
        n = rng.randint(0, len(product) + 2)  # the truncated product, zero-padded
        assert polyq.mul(a, b, n) == (product + [0] * n)[:n], (a, b, n)
        for x in POINTS:
            assert polyq.value(total, x) == polyq.value(a, x) + polyq.value(b, x), (a, b, x)
            assert polyq.value(product, x) == polyq.value(a, x) * polyq.value(b, x), (a, b, x)


def test_rem_monic_is_a_remainder():
    rng = random.Random("rem-monic")
    for _ in range(300):
        m = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1]
        f = [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        r = polyq.rem_monic(f, m)
        assert len(r) == len(m) - 1, (f, m, r)  # so deg r < deg m
        assert all(type(c) is int for c in r)
        assert divmod_(polyq.add(f, [-c for c in r]), m)[1] == [], (f, m, r)


def test_mobius_image_is_the_scaled_substitution():
    rng = random.Random("mobius")
    for _ in range(200):
        p = polyq.trim(_random_poly(rng)) or [1]
        num, den = ([rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2))
        image = polyq.mobius_image(p, num, den)
        assert len(image) == len(p)
        for x in POINTS:
            d = polyq.value(den, x)
            if d:
                want = polyq.value(p, polyq.value(num, x) / d) * d ** (len(p) - 1)
                assert polyq.value(image, x) == want, (p, num, den, x)


def test_newton_identities_on_known_roots():
    rng = random.Random("newton")
    for _ in range(200):
        roots = [rng.randint(-7, 7) for _ in range(rng.randint(0, 6))]
        b = [1]  # prod (1 - a z)
        for a in roots:
            b = polyq.mul(b, [1, -a])
        count = len(roots) + 4
        assert polyq.power_sums(b, count) == [0] + [sum(a ** m for a in roots)
                                                    for m in range(1, count + 1)]
        e = [sum(math.prod(c) for c in itertools.combinations(roots, j))
             for j in range(len(roots) + 1)]
        assert polyq.elementary(polyq.power_sums(b, len(roots))) == e
        assert [(-1) ** j * c for j, c in enumerate(e)] == b  # the round trip


def test_elementary_raises_on_a_non_integer():
    # e_2 = (e_1 p_1 - p_2) / 2 = 1/2 for the power sums p_1 = 1, p_2 = 0
    with pytest.raises(ArithmeticError, match="non-integer"):
        polyq.elementary([0, 1, 0])
