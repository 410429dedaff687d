"""Exact real-root counts and remainder chains of `locsys.polyq`, against
polynomials built from known roots."""

import math
import random
from fractions import Fraction

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
