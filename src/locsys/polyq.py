"""Dense univariate polynomials over Q as coefficient lists, constant term
first; a zero polynomial is the empty list.  This module is the one owner of
the format: sums, products (truncated ones too), remainders mod a monic
polynomial, the Moebius substitution, division, gcds, the squarefree part,
signed remainder chains, Cauchy indices, real-root counts, and Newton's
identities between coefficients, power sums and elementary symmetric
functions.  They serve `laurent` (the curve Weil check, the power transform,
evaluation at a curve), `spectral` (the characteristic polynomial,
unit-circle root counts, cyclotomic numbers, the aggregation check's series)
and `series` (the product of two truncated series).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def trim(f):
    """f without its vanishing top coefficients."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def add(a, b):
    """a + b, as long as the longer of the two (not trimmed)."""
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def mul(a, b, n=None):
    """a b, not trimmed: all len(a) + len(b) - 1 coefficients, or the first n
    (a truncated product); zeros of a are skipped.  The coefficients may lie
    in any ring that adds to int 0."""
    out = [0] * (len(a) + len(b) - 1 if n is None else n)
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:len(out) - i]):
                out[i + j] += x * y
    return out


def rem_monic(f, m):
    """The remainder of f mod the monic m, padded to length deg m; multiples
    of m are subtracted from the top down, so integers stay integers."""
    deg = len(m) - 1
    f = list(f) + [0] * (deg - len(f))
    for top in range(len(f) - 1, deg - 1, -1):
        lead = f[top]
        if lead:
            for k, c in enumerate(m, start=top - deg):
                f[k] -= lead * c
    return f[:deg]


def mobius_image(p, num, den):
    """sum_k p_k num^k den^(n-k): the polynomial p(num/den) den^n, n = deg p,
    for num, den linear polynomials."""
    n = len(p) - 1
    out = []
    for k, c in enumerate(p):
        term = [c]
        for factor in [num] * k + [den] * (n - k):
            term = mul(term, factor)
        out = add(out, term)
    return out


def divmod_(a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for s in reversed(range(len(quo))):
        c = quo[s] = rem[s + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            rem[s + i] -= c * bc
    return quo, trim(rem[:len(b) - 1])


def derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def primitive(f):
    """f times the positive rational that makes its coefficients coprime
    integers; [] stays []."""
    scale = math.lcm(*(Fraction(c).denominator for c in f))
    f = [int(c * scale) for c in f]
    content = math.gcd(*f)
    return [c // content for c in f]


def gcd(a, b):
    """A greatest common divisor of a and b (not normalized); each remainder
    is made primitive, which keeps the coefficients from growing."""
    while b:
        a, b = b, primitive(divmod_(a, b)[1])
    return a


def squarefree(f):
    """f / gcd(f, f'): the same roots, each once."""
    return divmod_(f, gcd(f, derivative(f)))[0]


def value(f, x):
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def remainder_chain(f0, f1):
    """The signed remainder chain f0, f1, f2, ... up to its last nonzero
    member (f1 nonzero), f_(i+1) = -(f_(i-1) mod f_i) made primitive: a
    positive multiple, and a remainder mod c f_i is the one mod f_i, so
    every member keeps its sign."""
    chain = [f0, f1]
    while rem := divmod_(chain[-2], chain[-1])[1]:
        chain.append([-c for c in primitive(rem)])
    return chain


def sign_changes(chain, x):
    """Sign changes along the values of the chain's polynomials at x, zeros
    dropped; at x = -inf or +inf each reads the sign it tends to."""
    if x in (-math.inf, math.inf):
        signs = [(f[-1] > 0) != (x < 0 and len(f) % 2 == 0) for f in chain]
    else:
        signs = [v > 0 for v in (value(f, x) for f in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def cauchy_index(f0, f1, lo, hi):
    """Cauchy index of f1/f0 over (lo, hi), neither end a root of f0: its
    jumps from -inf to +inf minus those from +inf to -inf, from the sign
    changes along the signed remainder chain at the ends; lo may be -inf and
    hi +inf."""
    if not f1:
        return 0
    chain = remainder_chain(f0, f1)
    return sign_changes(chain, lo) - sign_changes(chain, hi)


def real_roots(f, lo, hi):
    """Distinct real roots of a squarefree f in the closed interval [lo, hi];
    lo may be -inf and hi +inf.  Each root is a jump of f'/f from -inf to
    +inf, so the Cauchy index of f'/f counts the roots in between (Sturm's
    theorem).  A root at hi is counted too, since the sign changes at a root
    of f are those just right of it; a root at lo is added."""
    return cauchy_index(f, derivative(f), lo, hi) + (lo != -math.inf and value(f, lo) == 0)


def power_sums(b, count):
    """Newton power sums p_0..p_count (p_0 is left 0) of the reciprocal roots
    of P(z) = sum b_j z^j = prod (1 - a_i z), in integers."""
    deg = len(b) - 1
    p = [0] * (count + 1)
    for m in range(1, count + 1):
        acc = m * b[m] if m <= deg else 0
        p[m] = -acc - sum(b[i] * p[m - i] for i in range(1, min(m - 1, deg) + 1))
    return p


def elementary(sums):
    """e_0..e_n of n numbers from their power sums sums[1..n] (sums[0] is not
    read), by Newton's identities; every caller's e_j are integers."""
    e = [1]
    for m in range(1, len(sums)):
        acc = sum((-1) ** (i - 1) * e[m - i] * sums[i] for i in range(1, m + 1))
        if acc % m:
            raise ArithmeticError("power transform produced a non-integer")
        e.append(acc // m)
    return e
