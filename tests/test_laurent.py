import functools
import itertools
import json
import random
import warnings
from fractions import Fraction

import pytest

from locsys.laurent import (
    CurveInput,
    DimensionMismatch,
    DivisibilityError,
    InvarianceError,
    LaurentPoly,
    evaluate_at_curve,
    graeffe_power,
    pic_polynomial,
    weil_symmetrize,
)
from locsys.verify import random_invariant


def lp(g, **kw):
    return LaurentPoly.monomial(g, kw.pop("c", 1), **kw)


CURVE = CurveInput(2, 2, [1, 0, 3, 0, 4])


class TestRingOps:
    def test_distributivity_example(self):
        one = LaurentPoly.const(1, 1)
        t = LaurentPoly.t_var(1)
        z = LaurentPoly.z_var(1, 0)
        zinv = lp(1, z=[-1])
        product = (one + t * zinv) * (one - z)
        assert product == one - z + t * zinv - t

    def test_additive_identity(self):
        p = lp(2, c=5, t=1, z=[2, -1])
        assert p + LaurentPoly.zero(2) == p

    def test_cancellation(self):
        z = LaurentPoly.z_var(1, 0)
        assert (z - z).is_zero()

    def test_mixed_g_rejected(self):
        with pytest.raises(DimensionMismatch):
            LaurentPoly.const(1, 1) + LaurentPoly.const(2, 1)

    def test_scalar_and_int_coefficients_mix(self):
        p = lp(1, c=Fraction(1, 2), t=1)
        assert p * 2 == LaurentPoly.t_var(1)
        assert 3 * LaurentPoly.const(1, 1) == LaurentPoly.const(1, 3)


class TestFrobenius:
    def test_exponent_scaling(self):
        one = LaurentPoly.const(1, 1)
        t = LaurentPoly.t_var(1)
        z = LaurentPoly.z_var(1, 0)
        zinv = lp(1, z=[-1])
        p = (one - z) * (one - t * zinv)
        expected = (one - z * z) * (one - t * t * lp(1, z=[-2]))
        assert p.frobenius_substitute(2) == expected

    def test_constant_fixed(self):
        assert LaurentPoly.const(3, 5).frobenius_substitute(3) == LaurentPoly.const(3, 5)

    def test_monomial(self):
        p = LaurentPoly.t_var(1) * LaurentPoly.z_var(1, 0)
        assert p.frobenius_substitute(2) == lp(1, t=2, z=[2])

    def test_composition_property(self):
        rng = random.Random(0)
        for _ in range(20):
            g = rng.randint(1, 3)
            p = lp(g, c=rng.randint(-3, 3), t=rng.randint(-2, 2),
                   z=[rng.randint(-2, 2) for _ in range(g)]) + LaurentPoly.const(g, 1)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert p.frobenius_substitute(a * b) == p.frobenius_substitute(a).frobenius_substitute(b)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            LaurentPoly.const(1, 1).frobenius_substitute(0)


class TestInvariance:
    def test_pic_polynomial_invariant(self):
        for g in (1, 2, 3):
            assert pic_polynomial(g).is_weil_invariant()

    def test_single_variable_not_invariant(self):
        assert not LaurentPoly.z_var(2, 0).is_weil_invariant()

    def test_t_invariant(self):
        assert LaurentPoly.t_var(2).is_weil_invariant()

    def test_preserved_by_ring_ops(self):
        rng = random.Random(1)
        for _ in range(10):
            g = rng.randint(1, 3)
            p = weil_symmetrize(lp(g, c=rng.randint(1, 3), t=rng.randint(0, 2),
                                   z=[rng.randint(-1, 1) for _ in range(g)]))
            q = weil_symmetrize(lp(g, c=rng.randint(1, 2), t=rng.randint(0, 1),
                                   z=[rng.randint(-1, 1) for _ in range(g)]))
            assert (p + q).is_weil_invariant()
            assert (p * q).is_weil_invariant()


class TestPositivity:
    @pytest.mark.parametrize("t,z,expect", [
        (1, [-1], True),   # 1 + (-1) = 0
        (0, [-1], False),  # 0 + (-1) < 0
        (2, [-1, -1], True),
    ])
    def test_examples(self, t, z, expect):
        assert lp(len(z), t=t, z=z).satisfies_positivity() is expect

    def test_invariant_under_symmetrization(self):
        rng = random.Random(2)
        for _ in range(20):
            g = rng.randint(1, 3)
            z = [rng.randint(-2, 2) for _ in range(g)]
            t = -sum(min(e, 0) for e in z) + rng.randint(0, 1)
            assert weil_symmetrize(lp(g, t=t, z=z)).satisfies_positivity()


class TestExactDivide:
    def test_linear_factor(self):
        one = LaurentPoly.const(1, 1)
        z = LaurentPoly.z_var(1, 0)
        t = LaurentPoly.t_var(1)
        zinv = lp(1, z=[-1])
        p = (one - z) * (one - t * zinv)
        assert p.exact_divide(one - z) == one - t * zinv

    def test_not_divisible_reports_remainder(self):
        one = LaurentPoly.const(1, 1)
        z = LaurentPoly.z_var(1, 0)
        with pytest.raises(DivisibilityError) as info:
            one.exact_divide(one - z)
        assert not info.value.remainder.is_zero()

    def test_zero_dividend(self):
        z = LaurentPoly.z_var(1, 0)
        assert LaurentPoly.zero(1).exact_divide(z).is_zero()

    def test_random_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            g = rng.randint(1, 2)
            def rand_poly():
                total = LaurentPoly.zero(g)
                for _ in range(rng.randint(1, 3)):
                    total = total + lp(g, c=rng.randint(-3, 3), t=rng.randint(-2, 2),
                                       z=[rng.randint(-2, 2) for _ in range(g)])
                return total
            p, d = rand_poly(), rand_poly()
            if d.is_zero():
                continue
            assert (p * d).exact_divide(d) == p


class TestCurve:
    def test_functional_equation(self):
        assert CURVE.functional_equation_holds()

    def test_graeffe_identity(self):
        assert graeffe_power(CURVE, 1) == [1, 0, 3, 0, 4]

    def test_graeffe_single_root(self):
        c = CurveInput(1, 2, [1, -2, 2])
        # squares of the eigenvalues still multiply in pairs to q^2
        b2 = graeffe_power(c, 2)
        assert b2[0] == 1 and b2[-1] == 4

    def test_graeffe_squares_value(self):
        b2 = graeffe_power(CURVE, 2)
        # value at z=1 is P(1) P(-1) = 8 * 8
        assert sum(b2) == 64

    def test_power_transform_fixes_unit_root(self):
        # the underlying Newton transform sends 1 - z to itself for any power
        from locsys.laurent import _power_sums_from_coeffs
        p = _power_sums_from_coeffs([1, -1], 5)
        assert p[1:] == [1, 1, 1, 1, 1]

    def test_graeffe_against_roots(self):
        import mpmath
        b3 = graeffe_power(CURVE, 3)
        with mpmath.workdps(40):
            roots = mpmath.polyroots([1, 0, 3, 0, 4], maxsteps=100, extraprec=60)
            want = [1]
            poly = [mpmath.mpf(1)]
            for r in roots:
                poly = [a - (r ** 3) * b for a, b in
                        zip(poly + [mpmath.mpf(0)], [mpmath.mpf(0)] + poly)]
            for got, approx in zip(b3, poly):
                assert abs(got - approx) < 1e-20

    def test_graeffe_functional_equation(self):
        for k in (1, 2, 3, 5):
            b = graeffe_power(CURVE, k)
            g, q = CURVE.g, CURVE.q ** k
            assert all(b[2 * g - i] == q ** (g - i) * b[i] for i in range(g + 1))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            CurveInput(2, 6, [1, 0, 3, 0, 4])  # 6 is not a prime power
        with pytest.raises(ValueError):
            CurveInput(2, 2, [2, 0, 3, 0, 4])  # constant term must be 1
        with pytest.raises(ValueError):
            CurveInput(2, 2, [1, 0, 3, 0, 5])  # b_4 must be q^2 b_0

    @pytest.mark.parametrize("g,q,numerator", [
        (1, 2, [1, -3, 2]),   # (1 - z)(1 - 2z): eigenvalues 1 and 2
        (1, 9, [1, 7, 9]),    # real eigenvalues, product 9, moduli != 3
    ])
    def test_weil_modulus_warning(self, g, q, numerator):
        with pytest.warns(UserWarning, match="differs from sqrt"):
            CurveInput(g, q, numerator)

    @pytest.mark.parametrize("g,q,numerator", [
        (2, 2, [1, 0, 3, 0, 4]),
        (2, 2, [1, -4, 8, -8, 4]),  # (1 - 2z + 2z^2)^2: repeated factor
        (1, 4, [1, -4, 4]),         # (1 - 2z)^2: eigenvalue 2 = sqrt(4), doubled
    ])
    def test_weil_curves_do_not_warn(self, g, q, numerator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CurveInput(g, q, numerator)


class TestEvaluate:
    def test_jacobian_counts(self):
        pic = pic_polynomial(2)
        assert evaluate_at_curve(pic, CURVE, 1, 1) == 8
        assert evaluate_at_curve(pic, CURVE, 2, 1) == 64

    def test_plain_t(self):
        assert evaluate_at_curve(LaurentPoly.t_var(2), CURVE, 3, 1) == 8

    def test_against_direct_numerator_value(self):
        # |Pic^0| of the degree-k base change is the transformed numerator at 1
        pic = pic_polynomial(2)
        for k in (1, 2, 3, 4):
            assert evaluate_at_curve(pic, CURVE, k, 1) == sum(graeffe_power(CURVE, k))

    def test_multiplicative(self):
        pic = pic_polynomial(2)
        t = LaurentPoly.t_var(2)
        for k in (1, 2):
            assert (evaluate_at_curve(pic * t, CURVE, k, 1)
                    == evaluate_at_curve(pic, CURVE, k, 1) * evaluate_at_curve(t, CURVE, k, 1))

    def test_non_invariant_rejected(self):
        with pytest.raises(InvarianceError):
            evaluate_at_curve(LaurentPoly.z_var(2, 0), CURVE, 1, 1)

    def test_gamma_substitution(self):
        p = pic_polynomial(2) * LaurentPoly.genus_offset(2)
        assert evaluate_at_curve(p, CURVE, 1, 3) == 24

    def test_genus_one(self):
        c = CurveInput(1, 2, [1, -1, 2])
        assert evaluate_at_curve(pic_polynomial(1), c, 1, 0) == 2

    def test_repeated_eigenvalues(self):
        # numerator (1 + 2 z^2)^2: every Frobenius eigenvalue is doubled
        c = CurveInput(2, 2, [1, 0, 4, 0, 4])
        pic = pic_polynomial(2)
        for k in (1, 2, 3, 4):
            assert evaluate_at_curve(pic, c, k, 1) == sum(graeffe_power(c, k))

    def test_genus_three(self):
        # numerator (1 - z + 2 z^2)^3
        c = CurveInput(3, 2, [1, -3, 9, -13, 18, -12, 8])
        pic = pic_polynomial(3)
        for k in (1, 2):
            assert evaluate_at_curve(pic, c, k, 2) == sum(graeffe_power(c, k))

    def test_non_integer_value_rejected(self):
        with pytest.raises(ValueError):
            evaluate_at_curve(lp(2, t=-1), CURVE, 1, 1)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@functools.lru_cache(maxsize=None)
def _gpow(a, e, norm):
    """a^e in Q(i) for a Gaussian number a of norm `norm`; a^-1 = conj(a)/norm."""
    if e < 0:
        a, e = (Fraction(a[0], norm), Fraction(-a[1], norm)), -e
    out = (1, 0)
    for _ in range(e):
        out = _gmul(out, a)
    return out


def _gaussian_value(p, z_values, tq, gamma):
    """p at t = tq, z_i = z_values[i] by direct substitution in Q(i)."""
    re = im = Fraction(0)
    for (et, ez, ey), c in p.terms.items():
        v = (c * Fraction(tq) ** et * gamma ** ey, 0)
        for z, e in zip(z_values, ez):
            v = _gmul(v, _gpow(z, e, tq))
        re, im = re + v[0], im + v[1]
    assert im == 0
    return re


# Frobenius eigenvalues in Z[i], one from each pair {a, conj(a)} = {a, q/a}.
GAUSSIAN_CURVES = {
    "q2-g1": (2, [(1, 1)]),
    "q2-g2-repeated": (2, [(1, 1), (1, 1)]),
    "q5-g2": (5, [(1, 2), (2, 1)]),
    "q5-g3-repeated": (5, [(1, 2), (1, 2), (2, 1)]),
}


@pytest.mark.parametrize("name", sorted(GAUSSIAN_CURVES))
def test_gaussian_oracle_every_pairing(name):
    """The exact evaluator against substitution of z_i = alpha_i^k for every
    choice of alpha_i or conj(alpha_i) in each Frobenius pair."""
    q, alphas = GAUSSIAN_CURVES[name]
    g = len(alphas)
    numerator = [1]
    for re, _im in alphas:
        factor = [1, -2 * re, q]  # (1 - a z)(1 - conj(a) z)
        numerator = [sum(numerator[i] * factor[j - i] for i in range(len(numerator))
                         if 0 <= j - i < 3) for j in range(len(numerator) + 2)]
    curve = CurveInput(g, q, numerator)
    rng = random.Random(f"gaussian:{name}")
    pic = pic_polynomial(g)
    for _ in range(3):
        base = random_invariant(rng, g)
        gamma = rng.randint(0, 3)
        for p in (base * pic, base + pic):
            for k in (1, 2, 3, 4):
                want = evaluate_at_curve(p, curve, k, gamma)
                for conj in itertools.product((False, True), repeat=g):
                    zs = [_gpow((re, -im if c else im), k, q) for (re, im), c in zip(alphas, conj)]
                    assert _gaussian_value(p, zs, q ** k, gamma) == want


class TestSerialization:
    def test_roundtrip(self):
        p = pic_polynomial(2) + lp(2, c=Fraction(3, 7), t=-1, z=[2, 0])
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_terms_sorted(self):
        p = pic_polynomial(2)
        obj = json.loads(p.to_json())
        keys = [(term["t"], tuple(term["z"]), term["gamma"]) for term in obj["terms"]]
        assert keys == sorted(keys)

    def test_curve_roundtrip(self):
        obj = CURVE.to_obj()
        again = CurveInput.from_obj(obj)
        assert (again.g, again.q, again.numerator) == (CURVE.g, CURVE.q, CURVE.numerator)
