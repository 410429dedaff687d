import math
import random
from fractions import Fraction

import pytest

from locsys.counting import FreePoly
from locsys.laurent import LaurentPoly
from locsys.series import TruncatedSeries


def series(cap, *coeffs):
    cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (cap + 1 - len(coeffs))
    return TruncatedSeries(cap, cs)


def rand_series(rng, cap, constant):
    coeffs = [Fraction(constant)] + [
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cap)
    ]
    return TruncatedSeries(cap, coeffs)


def test_exp_of_z():
    # exp(x t) equals the closed form x^k/k! that the chamber limits use:
    # equal values, and Fraction coefficients throughout
    for x in (1, Fraction(-1), Fraction(2, 3), Fraction(-7, 5), Fraction(1, 6)):
        for cap in range(1, 7):
            got = TruncatedSeries.from_terms(cap, [(1, x)], Fraction(0)).exp()
            want = [Fraction(x) ** k / math.factorial(k) for k in range(cap + 1)]
            assert got.coeffs == want, (x, cap)
            assert all(type(c) is Fraction for c in got.coeffs)


def test_exp_of_zero():
    assert series(4, 0).exp() == series(4, 1)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series(2, 1, 1).exp()


def test_coeff_range_checked():
    with pytest.raises(IndexError):
        series(2, 1).coeff(3)


def test_coeff_matches_direct_convolution():
    # brute-force product expansion as an independent oracle
    rng = random.Random(3)
    for _ in range(10):
        cap = rng.randint(2, 6)
        s = rand_series(rng, cap, 0)
        e = s.exp()
        brute = [Fraction(0)] * (cap + 1)
        term = [Fraction(1)] + [Fraction(0)] * cap
        fact = 1
        for m in range(cap + 1):
            for i, c in enumerate(term):
                brute[i] += c / fact
            fact *= m + 1
            nxt = [Fraction(0)] * (cap + 1)
            for i, a in enumerate(term):
                if a:
                    for j, b in enumerate(s.coeffs):
                        if b and i + j <= cap:
                            nxt[i + j] += a * b
            term = nxt
        for v in range(cap + 1):
            assert e.coeff(v) == brute[v]


def test_laurent_coefficients():
    g = 1
    z = LaurentPoly.z_var(g, 0)
    zero = LaurentPoly.zero(g)
    s = TruncatedSeries(2, [zero, z, zero])
    e = s.exp()
    assert e.coeff(0) == LaurentPoly.const(g, 1)
    assert e.coeff(1) == z
    assert e.coeff(2) == z * z * Fraction(1, 2)


def test_free_poly_coefficients():
    x = FreePoly.symbol(1, 1)
    zero = FreePoly.zero()
    s = TruncatedSeries(2, [zero, x, zero])
    e = s.exp()
    assert e.coeff(2) == x * x * Fraction(1, 2)
    assert (s * FreePoly.gamma()).coeff(1) == FreePoly.gamma() * x


def test_inverse_and_integer_powers():
    rng = random.Random(11)
    for _ in range(25):
        cap = rng.randint(0, 6)
        s = rand_series(rng, cap, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)))
        one = series(cap, 1)
        assert s * s.inverse() == one and s / s == one
        assert s ** 0 == one and s ** 1 == s and s ** 3 == s * s * s
        assert s ** -2 * s ** 2 == one and s ** -1 == s.inverse()


def test_inverse_needs_a_unit_constant():
    with pytest.raises(ZeroDivisionError):
        series(3, 0, 1).inverse()
    with pytest.raises(TypeError):
        series(3, 1, 1) ** Fraction(1, 2)


def test_scalar_division_and_reflected_subtraction():
    s = series(2, 3, 1, 4)
    assert s / 2 == series(2, Fraction(3, 2), Fraction(1, 2), 2)
    assert s / Fraction(2, 3) == series(2, Fraction(9, 2), Fraction(3, 2), 6)
    assert 1 - s == series(2, -2, -1, -4) == -(s - 1)
    # the c-function shape of the chamber limits: integer powers, division by ints
    x = series(3, 1, 1, Fraction(1, 2), Fraction(1, 6))  # exp(t)
    value = x * 0 + 1 + (x ** 2 - 1) * 3 / 2 - x ** -1
    assert value.coeff(0) == 0 and value.coeff(1) == 3 + 1


@pytest.mark.parametrize("ring", ["free", "laurent"])
def test_polynomial_coefficient_product(ring):
    # series x series over a polynomial ring against the truncated
    # convolution; zero constant terms leave the low coefficients of the
    # product without any nonzero term, and they must stay in the ring
    rng = random.Random(f"polynomial-series:{ring}")
    if ring == "free":
        zero = FreePoly.zero()
        atoms = [FreePoly.symbol(1, 1), FreePoly.symbol(2, 1), FreePoly.gamma()]
    else:
        zero = LaurentPoly.zero(2)
        atoms = [LaurentPoly.t_var(2), LaurentPoly.z_var(2, 0), LaurentPoly.monomial(2, 1, z=[0, -1])]

    def coeff():
        return sum((x * Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for x in atoms), zero)

    for _ in range(12):
        cap = rng.randint(0, 5)
        a = TruncatedSeries(cap, [zero] + [coeff() for _ in range(cap)])
        b = TruncatedSeries(cap, [zero] * min(2, cap + 1) + [coeff() for _ in range(cap - 1)])
        got = (a * b).coeffs
        want = [sum((a.coeffs[i] * b.coeffs[m - i] for i in range(m + 1)), zero)
                for m in range(cap + 1)]
        assert got == want
        assert all(type(c) is type(zero) for c in got)
