"""Dense univariate polynomials over Q as coefficient lists, constant term
first; a zero polynomial is the empty list.

Division, the squarefree part and Sturm chains: the exact helpers behind the
curve Weil check (`laurent.CurveInput.is_weil`) and the unit-circle root
counts of `spectral.circle_count_check`.
"""

from __future__ import annotations

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


def gcd(a, b):
    """A greatest common divisor of a and b (not normalized)."""
    while b:
        a, b = b, divmod_(a, b)[1]
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
    """The signed remainder chain f0, f1, f2, ... with f_(i+1) = -(f_(i-1)
    mod f_i), up to the last nonzero one (f1 nonzero)."""
    chain = [f0, f1]
    while rem := divmod_(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return chain


def sturm_count(f, lo, hi):
    """Distinct real roots of a squarefree f in (lo, hi] (Sturm's theorem;
    zeros are dropped when sign changes are counted)."""
    chain = remainder_chain(f, derivative(f))

    def changes(x):
        signs = [v > 0 for v in (value(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)
