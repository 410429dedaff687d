"""Partitions, as multiplicity maps {part: count}, the prime factorization
behind the Moebius function and Moebius sums, generalized binomials, and
brute-force verification of the partition / binomial generating-function
identities that the counting engine relies on."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# trial division tests the cofactor for primality from this divisor on
_TRIAL_BOUND = 1000
# the first 12 primes; as Miller-Rabin bases they decide primality exactly
# below 318665857834031151167461 = 399165290221 * 798330580441, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017; OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def prime_factors(n: int):
    """The prime factorization of n as pairs (p, e), p ascending, found
    lazily by trial division, so that a caller may stop after any factor;
    n < 2 has none.  From the divisor _TRIAL_BOUND on, a cofactor that is
    proven prime ends the division."""
    p, tested = 2, 1
    while p * p <= n:
        if p >= _TRIAL_BOUND and n != tested:  # a new cofactor
            if _proven_prime(n):
                break
            tested = n
        if n % p == 0:
            n, e = _divide_out(n, p)
            yield p, e
        p += 1
    if n > 1:
        yield n, 1


def _divide_out(n: int, p: int):
    """(n / p^e, e) for the largest e with p^e | n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _proven_prime(n: int) -> bool:
    """Whether n, odd and free of prime factors below 38, is proven prime by
    the deterministic Miller-Rabin test; False at or above _MR_LIMIT, where
    the test proves nothing, and at n = 1."""
    if not 1 < n < _MR_LIMIT:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mobius(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError("need n >= 1")
    result = 1
    for _, e in prime_factors(n):
        if e > 1:
            return 0
        result = -result
    return result


def mobius_divisors(n: int):
    """[(d, mu(d))] for the squarefree d | n, d ascending: the divisors that
    a Moebius sum over d | n does not skip."""
    out = [(1, 1)]
    for p, _ in prime_factors(n):
        out += [(d * p, -mu) for d, mu in out]
    return sorted(out)


def divisors(n: int):
    """All d | n, ascending, by its own trial division (the independent side
    of the Moebius-sum check)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def partition_walk(n: int):
    """Walk the partitions of n, largest part decreasing first, yielding at
    each step the two lists it then mutates: the distinct parts in ascending
    order and their multiplicities.  A caller that keeps a step must copy it.

    Reverse-lexicographic order with O(1) amortised steps per partition
    (Zoghbi & Stojmenovic's ZS1, 1998): each step takes one copy of the
    smallest part p > 1, together with all the 1s, and re-splits that amount
    greedily into parts p - 1 and one smaller remainder.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need an integer n >= 1, not {n!r}")
    parts, mults = [n], [1]
    while True:
        yield parts, mults
        freed = 0
        if parts[0] == 1:
            if len(parts) == 1:
                return
            freed = mults[0]
            del parts[0], mults[0]
        p = parts[0]
        freed += p
        if mults[0] == 1:
            del parts[0], mults[0]
        else:
            mults[0] -= 1
        p -= 1
        q, r = divmod(freed, p)
        if r:
            parts[0:0] = (r, p)
            mults[0:0] = (1, q)
        else:
            parts.insert(0, p)
            mults.insert(0, q)


def partitions(n: int):
    """All unordered partitions of n, in the order of `partition_walk`, each
    a new multiplicity map {part: count} with the parts ascending."""
    return (dict(zip(parts, mults)) for parts, mults in partition_walk(n))


def partitions_restricted(m: int, xi: int):
    """Partitions of m whose parts are all divisible by xi, as `partitions` gives them."""
    if xi < 1:
        raise ValueError("need xi >= 1")
    if m % xi:
        return
    for lam in partitions(m // xi):
        yield {j * xi: a for j, a in lam.items()}


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Classical pentagonal-number recurrence; independent oracle for the
    partition generator."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def binom_ring(x, k: int):
    """Falling-factorial binomial x(x-1)...(x-k+1)/k! in any commutative
    ring containing the rationals; binom(x, 0) = 1.

    For x = p/q an int or Fraction this is prod_{i<k} (p - i q) / (q^k k!),
    taken in integers with one division."""
    if k < 0:
        raise ValueError("need k >= 0")
    if isinstance(x, (int, Fraction)):
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(range(p, p - k * q, -q)), q ** k * math.factorial(k))
    if k == 0:
        return x * 0 + 1
    num = x
    shifted = x
    for i in range(1, k):
        shifted = shifted - 1
        num = num * shifted
    return num * Fraction(1, math.factorial(k))


def multinomial(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def cycle_sum_identity_check(m: int, xi: int, s) -> bool:
    """Brute-force the cycle-count sum against its closed binomial form:

    m! * sum over partitions of m with xi | parts of
        S^(#parts - 1) / (prod c_j! * prod j^c_j)
      == (m-1)! * binom(S/xi + m/xi - 1, m/xi - 1).
    """
    if m % xi:
        raise ValueError("xi must divide m")
    s = Fraction(s)
    lhs = Fraction(0)
    for lam in partitions_restricted(m, xi):
        denom = 1
        for j, c in lam.items():
            denom *= math.factorial(c) * j ** c
        lhs += s ** (sum(lam.values()) - 1) / denom
    lhs *= math.factorial(m)
    rhs = math.factorial(m - 1) * binom_ring(s / xi + m // xi - 1, m // xi - 1)
    return lhs == rhs


def binomial_convolution_check(k: int, xi: int, d, s) -> bool:
    """Brute-force the multinomial binomial convolution against binom(D*S, k/xi):

    sum over partitions (i^{b_i}) of k with xi | parts of
        binom(D, sum b_i) * multinomial(b) * prod binom(S, i/xi)^{b_i}
      == binom(D*S, k/xi).
    """
    if k % xi:
        raise ValueError("xi must divide k")
    d = Fraction(d)
    s = Fraction(s)
    lhs = Fraction(0)
    for lam in partitions_restricted(k, xi):
        term = binom_ring(d, sum(lam.values())) * multinomial(lam.values())
        for i, b in lam.items():
            term *= binom_ring(s, i // xi) ** b
        lhs += term
    return lhs == binom_ring(d * s, k // xi)


def mobius_divisor_lemma_check(t: int, l: int, big_l: int) -> bool:
    """sum of mu(m) over m with m*l/(l, m*t) | L equals [L == 1 and l | t].

    Only squarefree m whose primes divide t*l*L can meet the condition, so
    the enumeration over squarefree divisors of t*l*L is exhaustive.
    """
    if min(t, l, big_l) < 1:
        raise ValueError("need positive arguments")
    total = 0
    for m, mu in mobius_divisors(t * l * big_l):
        if big_l % (m * l // math.gcd(l, m * t)) == 0:
            total += mu
    expected = 1 if (big_l == 1 and t % l == 0) else 0
    return total == expected
