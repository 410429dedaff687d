"""Dense univariate polynomials over Q as coefficient lists, constant term
first; a zero polynomial is the empty list.

Division, the squarefree part, signed remainder chains, Cauchy indices and
real-root counts: the exact helpers behind the curve Weil check
(`laurent.CurveInput.is_weil`) and the unit-circle root counts of
`spectral.circle_count_check`.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(f):
    """f without its vanishing top coefficients."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


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
