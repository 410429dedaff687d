"""The helpers of `locsys.polyq` against brute force: ring operations by
their values at rational points, remainders by divisibility, Newton's
identities on known integer roots, and exact real-root counts and remainder
chains on polynomials built from known roots."""

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


def _signed_remainders(f0, f1):
    """The chain f_(i+1) = -(f_(i-1) mod f_i), unscaled."""
    chain = [f0, f1]
    while rem := polyq.divmod_(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return chain


def test_remainder_chain_members_are_primitive_positive_multiples():
    rng = random.Random("remainder-chain")
    for _ in range(200):
        f0 = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rng.randint(2, 9))]
        f0[-1] = f0[-1] or 1
        f1 = polyq.trim([Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                         for _ in range(rng.randint(1, len(f0) - 1))]) or [1]
        chain = polyq.remainder_chain(f0, f1)
        plain = _signed_remainders(f0, f1)
        assert chain[:2] == [f0, f1] and len(chain) == len(plain)
        for got, want in zip(chain[2:], plain[2:]):
            assert all(type(c) is int for c in got) and math.gcd(*got) == 1, got
            ratio = Fraction(got[-1]) / want[-1]
            assert ratio > 0 and [ratio * c for c in want] == got, (got, want)


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
        assert polyq.divmod_(polyq.add(f, [-c for c in r]), m)[1] == [], (f, m, r)


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
