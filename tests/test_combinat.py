import math
import random
from fractions import Fraction

import pytest

from counting_refs import s_weight
from locsys.combinat import (
    binom_ring,
    binomial_convolution_check,
    cycle_sum_identity_check,
    divisors,
    mobius,
    mobius_divisor_lemma_check,
    mobius_divisors,
    partition_count,
    partition_walk,
    partitions,
    partitions_restricted,
    prime_factors,
)
from locsys import combinat
from locsys.counting import FreePoly


@pytest.mark.parametrize("n,value", [(1, 1), (12, 0), (30, -1), (2, -1), (4, 0), (6, 1)])
def test_mobius_values(n, value):
    assert mobius(n) == value


def test_mobius_divisor_sums():
    for n in range(1, 10001):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_prime_factors_against_sieve():
    smallest = list(range(5001))  # smallest prime factor, by a sieve
    for p in range(2, 71):
        if smallest[p] == p:
            for m in range(p * p, 5001, p):
                smallest[m] = min(smallest[m], p)
    for n in range(1, 5001):
        want, m = {}, n
        while m > 1:
            want[smallest[m]] = want.get(smallest[m], 0) + 1
            m //= smallest[m]
        assert list(prime_factors(n)) == sorted(want.items()), n


def brute_factors(n):
    """The factorization of n by trial division over every integer up to
    the square root of what is left."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] * (n > 1)


def test_prime_factors_against_brute_force():
    # past the trial-division bound the cofactor is tested for primality:
    # seeded n up to 10^7, many of them with a cofactor above 10^6
    rng = random.Random("prime-factors")
    bound = combinat._TRIAL_BOUND
    ns = [rng.randint(bound ** 2, 10 ** 7) for _ in range(300)]
    ns += [rng.randint(2, 10 ** 7) for _ in range(100)]
    ns += [p * rng.randint(1, 9) for p in (1000003, 1999993, 3000017)]  # a prime cofactor
    ns += [1000003 * q for q in (2, 3, 1009)]
    for n in ns:
        assert list(prime_factors(n)) == brute_factors(n), n


@pytest.mark.parametrize("n,want", [
    (999999999989, [(999999999989, 1)]),  # primes near 10^12
    (1000000000039, [(1000000000039, 1)]),
    (999983 ** 2, [(999983, 2)]),  # prime squares near 10^12
    (1000003 ** 2, [(1000003, 2)]),
    (999983 * 1000003, [(999983, 1), (1000003, 1)]),
    (2 ** 12 * 5 ** 12, [(2, 12), (5, 12)]),
    # strong pseudoprimes whose least factor is above the bound: to bases
    # 2..11, and to every one of the first 11 prime bases (37 exposes it)
    (2152302898747, [(6763, 1), (10627, 1), (29947, 1)]),
    (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
    # primes that trial division alone could not reach in time
    (2 ** 61 - 1, [(2 ** 61 - 1, 1)]),
    (1009 * (2 ** 61 - 1), [(1009, 1), (2 ** 61 - 1, 1)]),
])
def test_prime_factors_large(n, want):
    assert list(prime_factors(n)) == want
    assert math.prod(p ** e for p, e in want) == n
    for p, _ in want:
        if p < 10 ** 8:
            assert brute_factors(p) == [(p, 1)]


def test_proven_prime(monkeypatch):
    for n in (2152302898747, 3825123056546413051, 999983 ** 2, 1):
        assert not combinat._proven_prime(n)
    for n in (1000003, 999999999989, 2 ** 61 - 1, 2 ** 78 - 11):
        assert combinat._proven_prime(n)
    # past the bound of the deterministic test nothing is proven prime
    for n in (2 ** 79 - 67, 2 ** 127 - 1):
        assert not combinat._proven_prime(n)
    # the bound is the least strong pseudoprime to the first 12 prime bases:
    # only the bound keeps it from being proven prime
    n = 399165290221 * 798330580441
    assert n == combinat._MR_LIMIT
    assert not combinat._proven_prime(n)
    monkeypatch.setattr(combinat, "_MR_LIMIT", n + 1)
    assert combinat._proven_prime(n)


def test_mobius_divisors():
    assert mobius_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert mobius_divisors(1) == [(1, 1)]
    for n in range(1, 5001):
        assert mobius_divisors(n) == [(d, mobius(d)) for d in divisors(n) if mobius(d)], n


def recursive_partitions(n):
    """Reference generator: the recursive enumeration `partitions` used before
    it became iterative, each partition counted into a multiplicity map with
    the parts ascending."""
    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    for parts in rec(n, n):
        yield {p: parts.count(p) for p in sorted(set(parts))}


def recursive_partitions_restricted(m, xi):
    if m % xi:
        return
    for lam in recursive_partitions(m // xi):
        yield {j * xi: a for j, a in lam.items()}


def _shape(lam):
    return type(lam), list(lam.items())


def _parts(lam):
    """The parts of a multiplicity map, each as often as it occurs."""
    return [j for j, a in lam.items() for _ in range(a)]


def test_partitions_match_recursive_reference():
    for n in range(1, 26):
        new = list(partitions(n))
        old = list(recursive_partitions(n))
        assert [_shape(lam) for lam in new] == [_shape(lam) for lam in old]
        assert all(sum(j * a for j, a in lam.items()) == n for lam in new)


def test_partitions_restricted_match_recursive_reference():
    for m in range(1, 25):
        for xi in range(1, 5):
            new = [_shape(lam) for lam in partitions_restricted(m, xi)]
            assert new == [_shape(lam) for lam in recursive_partitions_restricted(m, xi)]


def test_partitions_of_two():
    assert {tuple(_parts(lam)) for lam in partitions(2)} == {(1, 1), (2,)}


def test_partition_counts_match_recurrence():
    for n in range(1, 41):
        assert sum(1 for _ in partitions(n)) == partition_count(n)
    assert partition_count(10) == 42
    assert sum(1 for _ in partitions(4)) == 5


def test_walk_step_counts_match_recurrence():
    for n in range(1, 51):
        assert sum(1 for _ in partition_walk(n)) == partition_count(n)


def test_partitions_are_the_walk_steps():
    for n in range(1, 21):
        steps = [dict(zip(parts, mults)) for parts, mults in partition_walk(n)]
        lams = list(partitions(n))
        # each map is a copy: later steps of the walk leave it as it was
        assert [_shape(lam) for lam in lams] == [_shape(step) for step in steps]
        assert len({id(lam) for lam in lams}) == len(lams)
        assert all(list(m) == sorted(m) for m in steps)


def test_partitions_deterministic_order():
    assert [tuple(sorted(_parts(lam), reverse=True)) for lam in partitions(6)] == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]


def test_s_weight():
    assert all(s_weight({1: 4}, j) == 4 for j in (1, 2, 5))
    assert s_weight({2: 1}, 1) == 1
    assert s_weight({1: 1, 2: 1}, 2) == 3
    assert [s_weight({1: 2, 3: 1}, j) for j in (1, 2, 3, 4)] == [3, 4, 5, 5]


def test_partitions_restricted():
    assert {tuple(_parts(lam)) for lam in partitions_restricted(4, 2)} == {(2, 2), (4,)}
    assert list(partitions_restricted(3, 2)) == []
    assert sum(1 for _ in partitions_restricted(6, 1)) == 11


def ring_binom(x, k):
    """Reference binomial: the ring-generic falling factorial `binom_ring`
    used for every x before ints and Fractions took the integer path."""
    if k == 0:
        return Fraction(1) if isinstance(x, (int, Fraction)) else x * 0 + 1
    num = x
    shifted = x
    for _ in range(1, k):
        shifted = shifted - 1
        num = num * shifted
    return num * Fraction(1, math.factorial(k))


def test_binom_ring_matches_ring_reference():
    rng = random.Random(5)
    xs = [rng.randint(-30, 30) for _ in range(20)]
    xs += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(60)]
    for x in xs:
        for k in range(13):
            got = binom_ring(x, k)
            assert type(got) is Fraction
            assert got == ring_binom(x, k), (x, k)


def test_binomials():
    assert binom_ring(Fraction(5), 2) == 10
    assert all(binom_ring(Fraction(-1), k) == (-1) ** k for k in range(6))
    y = FreePoly.gamma()
    assert binom_ring(y, 2) == y * (y - 1) * Fraction(1, 2)
    assert binom_ring(Fraction(7), 0) == 1


class TestCycleSum:
    def test_trivial(self):
        assert cycle_sum_identity_check(1, 1, Fraction(7, 3))

    def test_spec_points(self):
        assert cycle_sum_identity_check(4, 2, Fraction(3))
        assert cycle_sum_identity_check(6, 1, Fraction(-2))

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            cycle_sum_identity_check(5, 2, Fraction(1))

    def test_randomized(self):
        rng = random.Random(0)
        for m in range(1, 13):
            for xi in divisors(m):
                for _ in range(5):
                    s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    assert cycle_sum_identity_check(m, xi, s)


class TestBinomialConvolution:
    def test_single_part(self):
        # k = xi: both sides reduce to D*S
        assert binomial_convolution_check(3, 3, Fraction(5, 2), Fraction(-7, 3))

    def test_spec_points(self):
        assert binomial_convolution_check(4, 2, Fraction(2), Fraction(3))
        assert binomial_convolution_check(6, 3, Fraction(-1), Fraction(1, 2))

    def test_randomized(self):
        rng = random.Random(1)
        for k in range(1, 13):
            for xi in divisors(k):
                for _ in range(5):
                    d = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    assert binomial_convolution_check(k, xi, d, s)


class TestMobiusDivisorLemma:
    def test_trivial(self):
        assert mobius_divisor_lemma_check(1, 1, 1)

    def test_spec_points(self):
        assert mobius_divisor_lemma_check(2, 4, 1)
        assert mobius_divisor_lemma_check(6, 3, 1)

    def test_exhaustive(self):
        for t in range(1, 13):
            for l in range(1, 13):
                for big_l in range(1, 13):
                    assert mobius_divisor_lemma_check(t, l, big_l)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None, 0])
def test_partitions_reject_non_integer_n(n):
    # 2.5 used to loop without end
    with pytest.raises(ValueError):
        list(partitions(n))
    with pytest.raises(ValueError):
        list(partition_walk(n))
