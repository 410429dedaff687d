"""Dense univariate polynomials over Q as coefficient lists, constant term
first; a zero polynomial is the empty list.  This module is the one owner of
the format: sums, products (truncated ones too), remainders mod a monic
polynomial, the Moebius substitution, pseudo-remainders and exact
quotients in integers, and on them gcds, the squarefree part, signed
remainder chains, Cauchy indices and real-root counts, and Newton's
identities between coefficients, power sums and elementary symmetric
functions.  No division, gcd or remainder chain does Fraction arithmetic:
a rational input is scaled once by `primitive`, a positive factor, which
keeps every sign and every count.  They serve `laurent` (the curve Weil
check, the power transform, evaluation at a curve), `spectral` (the
characteristic polynomial, unit-circle root counts, cyclotomic numbers, the
aggregation check's series) and `series` (the product of two truncated
series).
"""

from __future__ import annotations

import itertools
import math


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


def pseudo_remainder(a, b):
    """|lc(b)|^(deg a - deg b + 1) (a mod b) for integer a and integer b with
    a nonzero top coefficient, trimmed; a itself (trimmed) when
    deg a < deg b.  Each step scales by |lc(b)| rather than lc(b), so the
    result is a positive multiple of the remainder and keeps its sign (a
    sign-preserving pseudo-remainder; Collins, J. ACM 14, 1967)."""
    rem, low, lead = trim(a), b[:-1], b[-1]
    if not lead:
        raise ZeroDivisionError("divisor with a zero top coefficient")
    deg, scale = len(low), abs(lead)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem.pop() if lead > 0 else -rem.pop()
        if scale != 1:
            rem = [scale * x for x in rem]
        if c:
            for k, y in enumerate(low, start=top - deg):
                rem[k] -= c * y
    return trim(rem)


def exact_quotient(a, b):
    """a / b for integer a and nonzero integer b, where b divides a in Z[x];
    any other pair is an ArithmeticError."""
    rem, low, lead = list(a), b[:-1], b[-1]
    quo = [0] * max(len(rem) - len(low), 0)
    for s in reversed(range(len(quo))):
        c, r = divmod(rem.pop(), lead)
        if r:
            raise ArithmeticError("inexact polynomial quotient")
        quo[s] = c
        if c:
            for i, y in enumerate(low, start=s):
                rem[i] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial quotient")
    return quo


def derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def primitive(f):
    """f times the positive rational that makes its coefficients coprime
    integers, for int and Fraction coefficients; [] stays []."""
    if not all(type(c) is int for c in f):
        scale = math.lcm(*(c.denominator for c in f))
        f = [int(c * scale) for c in f]
    content = math.gcd(*f)
    return [c // content for c in f] if content > 1 else list(f)


def gcd(a, b):
    """A greatest common divisor of a and b, a primitive integer polynomial
    (its sign not normalized), from the primitive remainder sequence: each
    pseudo-remainder is made primitive, which keeps the coefficients from
    growing."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return a


def squarefree(f):
    """f / gcd(f, f'), made primitive: the same roots, each once.  The
    quotient of the primitive f by the primitive gcd is integral (Gauss's
    lemma)."""
    f = primitive(f)
    return exact_quotient(f, gcd(f, derivative(f)))


def value(f, x):
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def remainder_chain(f0, f1):
    """The signed remainder chain f0, f1, f2, ... up to its last nonzero
    member (f1 nonzero).  f0 and f1 are returned as given; each later member
    is f_(i+1) = -(f_(i-1) mod f_i) times a positive rational, a primitive
    integer polynomial.  It is computed on primitive f0, f1 by
    pseudo-remainders: a remainder mod c f_i (c > 0) is the one mod f_i, and
    every scale is positive, so every member keeps its sign."""
    chain = [f0, f1]
    a, b = primitive(f0), primitive(f1)
    while rem := pseudo_remainder(a, b):
        a, b = b, [-c for c in primitive(rem)]
        chain.append(b)
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
