import functools
import itertools
import json
import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import pytest
from counting_refs import (frobenius_substitute, permutation_flip_symmetrize, read_outcome,
                          same_zform_read, satisfies_positivity, swap_flip_invariant)

from locsys import laurent
from locsys.laurent import (
    CurveInput,
    DimensionMismatch,
    DivisibilityError,
    InvarianceError,
    LaurentPoly,
    WeilPoly,
    evaluate_at_curve,
    graeffe_power,
    pic_polynomial,
    weil_symmetrize,
)
from locsys.polyq import power_sums
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

    def test_zero_term_key_is_checked(self):
        with pytest.raises(DimensionMismatch):
            LaurentPoly(2, {(0, (0, 0, 0), 0): 0})
        with pytest.raises(ValueError, match="nonnegative"):
            LaurentPoly(1, {(0, (0,), -1): "0"})
        assert LaurentPoly(1, {(0, (0,), 0): 0, (1, (2,), 0): "0/3"}).is_zero()

    def test_scalar_and_int_coefficients_mix(self):
        p = lp(1, c=Fraction(1, 2), t=1)
        assert p * 2 == LaurentPoly.t_var(1)
        assert 3 * LaurentPoly.const(1, 1) == LaurentPoly.const(1, 3)


class TestFrobenius:
    # the z-form substitution is the test reference for the e-form one
    # (test_weil.test_frobenius_matches_z_form)
    def test_exponent_scaling(self):
        one = LaurentPoly.const(1, 1)
        t = LaurentPoly.t_var(1)
        z = LaurentPoly.z_var(1, 0)
        zinv = lp(1, z=[-1])
        p = (one - z) * (one - t * zinv)
        expected = (one - z * z) * (one - t * t * lp(1, z=[-2]))
        assert frobenius_substitute(p, 2) == expected

    def test_constant_fixed(self):
        assert frobenius_substitute(LaurentPoly.const(3, 5), 3) == LaurentPoly.const(3, 5)

    def test_monomial(self):
        p = LaurentPoly.t_var(1) * LaurentPoly.z_var(1, 0)
        assert frobenius_substitute(p, 2) == lp(1, t=2, z=[2])

    def test_composition_property(self):
        rng = random.Random(0)
        for _ in range(20):
            g = rng.randint(1, 3)
            p = lp(g, c=rng.randint(-3, 3), t=rng.randint(-2, 2),
                   z=[rng.randint(-2, 2) for _ in range(g)]) + LaurentPoly.const(g, 1)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert (frobenius_substitute(p, a * b)
                    == frobenius_substitute(frobenius_substitute(p, a), b))

    def test_bad_power(self):
        with pytest.raises(ValueError):
            WeilPoly.const(1, 1).frobenius_substitute(0)


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

    def test_matches_swap_flip_scan(self):
        """is_weil_invariant (the e-form conversion succeeds) against the
        z-form reference that checks every swap and flip, on invariants and
        on invariants with one term dropped, changed or added."""
        rng = random.Random(11)
        verdicts = []
        for _ in range(120):
            g = rng.randint(1, 3)
            p = random_invariant(rng, g) * random_invariant(rng, g)
            keys = sorted(p.terms)
            key = rng.choice(keys)
            mono = lp(g, t=rng.randint(-1, 2), z=[rng.randint(-2, 2) for _ in range(g)])
            for q in (p, LaurentPoly(g, {k: c for k, c in p.terms.items() if k != key}),
                      p + lp(g, c=p.terms[key], t=key[0], z=key[1]), p + mono):
                verdicts.append(q.is_weil_invariant())
                assert verdicts[-1] == swap_flip_invariant(q)
        assert verdicts.count(True) >= 130 and verdicts.count(False) >= 200


class TestPositivity:
    @pytest.mark.parametrize("t,z,expect", [
        (1, [-1], True),   # 1 + (-1) = 0
        (0, [-1], False),  # 0 + (-1) < 0
        (2, [-1, -1], True),
    ])
    def test_examples(self, t, z, expect):
        assert satisfies_positivity(lp(len(z), t=t, z=z)) is expect

    def test_invariant_under_symmetrization(self):
        rng = random.Random(2)
        for _ in range(20):
            g = rng.randint(1, 3)
            z = [rng.randint(-2, 2) for _ in range(g)]
            t = -sum(min(e, 0) for e in z) + rng.randint(0, 1)
            assert satisfies_positivity(weil_symmetrize(lp(g, t=t, z=z)))


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

    def test_e_form_matches_z_form(self):
        """WeilPoly.exact_divide against the z-form quotient on seeded
        invariants: an exact product, and the product plus an invariant that
        breaks divisibility, which both forms reject."""
        rng = random.Random(12)
        for _ in range(40):
            g = rng.randint(1, 3)
            p, d = random_invariant(rng, g), random_invariant(rng, g) * pic_polynomial(g)
            pw, dw = WeilPoly.from_laurent(p), WeilPoly.from_laurent(d)
            assert (pw * dw).exact_divide(dw).to_laurent() == (p * d).exact_divide(d) == p
            bad = p * d + LaurentPoly.const(g, 1)  # 1 modulo d
            for num, den in ((bad, d), (WeilPoly.from_laurent(bad), dw)):
                with pytest.raises(DivisibilityError) as info:
                    num.exact_divide(den)
                assert not info.value.remainder.is_zero()

    def test_e_j_is_a_polynomial_variable(self):
        # 1 / e_1 is a Laurent monomial in the e_j, but no polynomial of the
        # invariant ring, and 1 / (z1 + t/z1 + z2 + t/z2) is none in the z-form
        g = 2
        e1 = WeilPoly.monomial(g, 1, z=(1, 0))
        with pytest.raises(DivisibilityError):
            WeilPoly.const(g, 1).exact_divide(e1)
        with pytest.raises(DivisibilityError):
            LaurentPoly.const(g, 1).exact_divide(e1.to_laurent())
        assert (e1 * e1).exact_divide(e1) == e1


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
        p = power_sums([1, -1], 5)
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

    @pytest.mark.parametrize("q", [0, 1, -4, 6, 2 ** 39, 999999999989, 2 * 499999999979, 10 ** 12])
    def test_field_size_must_be_a_prime_power(self, q):
        numerator = [1, 0, q]  # 1 + q z^2: w = 0, a Weil curve
        if _is_prime_power_brute(q):
            assert CurveInput(1, q, numerator).q == q
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                CurveInput(1, q, numerator)

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

    def test_repeated_non_weil_factor_warns(self):
        # (1 - 5z + 2z^2)^2: w = 5 > 2 sqrt(2) twice; root-finding does not
        # converge on it, and the root-finding check used to pass it silently
        with pytest.warns(UserWarning, match="differs from sqrt"):
            CurveInput(2, 2, [1, -10, 29, -20, 4])

    @pytest.mark.parametrize("g,q,h,weil", [
        (1, 4, [-4, 1], True),            # w = 2 sqrt(q): the closed end
        (1, 4, [4, 1], True),             # w = -2 sqrt(q)
        (1, 4, [-5, 1], False),
        (2, 2, [0, 0, 1], True),          # w = 0 twice: w^2 = 0 is the other end
        (2, 2, [1, 0, 1], False),         # w = +-i: w^2 = -1 < 0
        (2, 3, [-1, -1, 1], True),        # w = (1 +- sqrt 5) / 2, irrational
        (2, 2, [-9, 0, 1], False),        # w = +-3, 3 > 2 sqrt 2
        (3, 9, [0, -36, 0, 1], True),     # w = 0, +-6: both ends
    ])
    def test_exact_weil_check(self, g, q, h, weil):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert CurveInput(g, q, _numerator_from_real(h, q)).is_weil() is weil


def _is_prime_power_brute(q):
    """Whether q is p^e, e >= 1: its smallest divisor p > 1 is prime, and
    dividing p out must leave 1."""
    if q < 2:
        return False
    p = next(d for d in itertools.count(2) if q % d == 0 or d * d > q)
    if p * p > q:
        return True  # q itself is prime
    while q % p == 0:
        q //= p
    return q == 1


def _numerator_from_real(h, q):
    """prod_i (1 - w_i z + q z^2) = z^g h(1/z + q z) for the real Weil
    polynomial h(s) = prod_i (s - w_i), coefficients constant first."""
    g = len(h) - 1
    out = [0] * (2 * g + 1)
    for j, hj in enumerate(h):
        for i in range(j + 1):
            out[g - j + 2 * i] += hj * math.comb(j, i) * q ** i
    return out


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_numerator(rng, g, q):
    """A zeta numerator whose real Weil polynomial is a product of integer
    linear factors (s - w), |w| at most 2 sqrt(q) + 2, and random monic
    quadratics (complex or real roots); about half of them are not Weil."""
    bound = math.isqrt(4 * q)
    h, degree = [1], 0
    while degree < g:
        if degree + 2 <= g and rng.random() < 0.3:
            factor = [rng.randint(-bound * bound // 2, 2 * q), rng.randint(-bound - 1, bound + 1), 1]
        else:
            factor = [rng.randint(-bound - 2, bound + 2), 1]
        h = _poly_product(h, factor)
        degree += len(factor) - 1
    return _numerator_from_real(h, q)


def _root_finding_is_weil(numerator, q):
    """Reference: the 40-digit root-finding check the exact one replaced.
    None (abstain) when the root finder does not converge."""
    with mpmath.workdps(40):
        try:
            roots = mpmath.polyroots(list(reversed(numerator)), maxsteps=200, extraprec=80)
        except mpmath.libmp.NoConvergence:
            return None
        target = mpmath.sqrt(q)
        return all(abs(abs(1 / r) - target) <= 1e-6 * float(target) for r in roots)


def test_exact_weil_check_against_root_finding():
    rng = random.Random("weil-check")
    outcomes = {True: 0, False: 0, None: 0}
    for _ in range(150):
        g, q = rng.randint(1, 3), rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 25])
        numerator = _random_numerator(rng, g, q)
        want = _root_finding_is_weil(numerator, q)
        outcomes[want] += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curve = CurveInput(g, q, numerator)
        assert bool(caught) is not curve.is_weil()
        if want is not None:
            assert curve.is_weil() is want, numerator
    assert outcomes[True] >= 50 and outcomes[False] >= 50 and outcomes[None] <= 15, outcomes


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
        p = pic_polynomial(2) * LaurentPoly.monomial(2, 1, y=1)
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

    def test_error_order(self):
        # k, then genus, then invariance, then the value's integrality
        bad = LaurentPoly.z_var(3, 0)
        with pytest.raises(ValueError, match="need k >= 1"):
            evaluate_at_curve(bad, CURVE, 0, 1)
        with pytest.raises(DimensionMismatch):
            evaluate_at_curve(bad, CURVE, 1, 1)
        with pytest.raises(InvarianceError):
            evaluate_at_curve(LaurentPoly.z_var(2, 0) * Fraction(1, 3), CURVE, 1, 1)
        with pytest.raises(ValueError, match="value 1/2 at the curve is not an integer"):
            evaluate_at_curve(LaurentPoly.const(2, Fraction(1, 2)), CURVE, 1, 1)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_eform_value_against_zform_substitution(self, g):
        # at t = 12 and z_i dividing 12, each w_i = z_i + 12/z_i is an
        # integer, and so is each e_j; the z-form is summed in Fractions
        rng = random.Random(f"eform-value:{g}")
        divisors = [d * s for d in (1, 2, 3, 4, 6, 12) for s in (1, -1)]
        for _ in range(12):
            terms = {(-rng.randint(1, 3), (0,) * g, rng.randint(0, 2)): Fraction(1, rng.randint(2, 5))}
            for _ in range(rng.randint(0, 5)):
                key = (rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(g)),
                       rng.randint(0, 3))
                terms[key] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
            p = WeilPoly(g, terms)
            z = [rng.choice(divisors) for _ in range(g)]
            w = [zi + 12 // zi for zi in z]
            e = [sum(math.prod(c) for c in itertools.combinations(w, j)) for j in range(1, g + 1)]
            y = rng.randint(-3, 3)
            assert p.value(12, e, y) == p.to_laurent().substitute(12, z, y), (p, z, y)

    def test_eform_value_not_integer_at_curve(self):
        # t^-1 (g-1) / 3 at k = 2 over F_2: T = 4, so the value is 1/12
        p = LaurentPoly.monomial(2, Fraction(1, 3), t=-1, y=1)
        with pytest.raises(ValueError, match="^value 1/12 at the curve is not an integer$"):
            evaluate_at_curve(p, CURVE, 2, 1)


def _f_product(f, h, tq):
    """Product of two combinations {m: c} of F_m = z^m + (T/z)^m, using
    F_a F_b = F_{a+b} + T^b F_{a-b} for a >= b (so F_0 = 2)."""
    out = {}
    for a, c in f.items():
        for b, d in h.items():
            lo, hi = sorted((a, b))
            out[hi + lo] = out.get(hi + lo, 0) + c * d
            out[hi - lo] = out.get(hi - lo, 0) + c * d * tq ** lo
    return out


def _injective_sum(fs, tq, traces):
    """Sum over injective maps s of prod_i f_i(x_{s(i)}), where x_j is one
    eigenvalue from each Frobenius pair {x_j, T/x_j}, each f_i is given in
    the F basis and sum_j F_m(x_j) = traces[m]."""
    if not fs:
        return 1
    first, rest = fs[0], fs[1:]
    total = sum(c * traces[m] for m, c in first.items()) * _injective_sum(rest, tq, traces)
    for i in range(len(rest)):
        merged = rest[:i] + [_f_product(first, rest[i], tq)] + rest[i + 1:]
        total -= _injective_sum(merged, tq, traces)
    return total


def _weyl_average_evaluate(p, curve, k, gamma_value):
    """Reference: the z-form evaluator the e-form one replaced.  Averaging
    c t^a z^e (g-1)^b over the Weil group gives
    c T^(a + sum min(e_i, 0)) gamma^b S / (2^g g!), S a sum over permutations
    of products of F_{|e_i|}, which _injective_sum reduces to power sums."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("need k >= 1")
    if curve.g != p.g:
        raise DimensionMismatch(f"curve genus {curve.g} != polynomial g {p.g}")
    if not p.is_weil_invariant():
        raise InvarianceError("polynomial is not Weil-invariant")
    g = p.g
    tq = curve.q ** k
    top = max((sum(abs(e) for e in ez) for _et, ez, _ey in p.terms), default=0)
    sums = power_sums(curve.numerator, top * k)
    traces = [2 * g] + [int(sums[m * k]) for m in range(1, top + 1)]
    shifts = {key: key[0] + sum(min(e, 0) for e in key[1]) for key in p.terms}
    lo = min(0, min(shifts.values(), default=0))
    denom = math.lcm(*(c.denominator for c in p.terms.values()))
    orbit_sums = {}
    total = 0
    for key, c in p.terms.items():
        degrees = tuple(sorted(abs(e) for e in key[1]))
        if degrees not in orbit_sums:
            orbit_sums[degrees] = _injective_sum([{a: 1} for a in degrees], tq, traces)
        total += (c.numerator * (denom // c.denominator) * tq ** (shifts[key] - lo)
                  * gamma_value ** key[2] * orbit_sums[degrees])
    scale = denom * tq ** -lo * 2 ** g * math.factorial(g)
    if total % scale:
        raise ValueError(f"value {Fraction(total, scale)} at the curve is not an integer")
    return total // scale


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_evaluator_against_weyl_average():
    """The e-form evaluator against the z-form one on seeded Weil curves and
    invariants (with and without a Picard factor, some scaled by t^-1 or 1/2,
    so that some values are not integers) and some non-invariant inputs."""
    rng = random.Random("evaluator")
    errors = 0
    for _ in range(100):
        g, q = rng.randint(1, 3), rng.choice([2, 3, 4, 5, 9])
        bound = math.isqrt(4 * q)
        h = [1]
        for _ in range(g):
            h = _poly_product(h, [rng.randint(-bound, bound), 1])
        curve = CurveInput(g, q, _numerator_from_real(h, q))
        p = random_invariant(rng, g)
        if rng.random() < 0.5:
            p = p * pic_polynomial(g)
        if rng.random() < 0.2:
            p = p * rng.choice([lp(g, t=-1), lp(g, c=Fraction(1, 2))])
        if rng.random() < 0.1:
            p = p + lp(g, z=[1] + [0] * (g - 1))
        gamma = rng.randint(0, 3)
        for k in (1, 2, 3, 4):
            want = _outcome(_weyl_average_evaluate, p, curve, k, gamma)
            assert _outcome(evaluate_at_curve, p, curve, k, gamma) == want
            errors += isinstance(want, tuple)
    assert 20 <= errors <= 120, errors

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

    def test_duplicate_term_rejected(self):
        term = {"c": "1", "t": 0, "z": [0], "gamma": 0}
        with pytest.raises(ValueError, match="malformed polynomial JSON: duplicate term"):
            LaurentPoly.from_obj({"g": 1, "terms": [term, dict(term, c="5")]})

    @pytest.mark.parametrize("obj", [
        {"g": 1, "q": 2, "numerator": [1, -4.9, 2]},
        {"g": 1, "q": 2.0, "numerator": [1, -1, 2]},
        {"g": True, "q": 2, "numerator": [1, -1, 2]},
        {"g": 1, "q": 2, "numerator": [True, -1, 2]},
        {"g": "1", "q": 2, "numerator": [1, -1, 2]},
    ])
    def test_curve_non_integer_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed curve JSON"):
            CurveInput.from_obj(obj)

    @pytest.mark.parametrize("numerator,shown", [("123", "'123'"), ({"1": 2}, "{'1': 2}"),
                                                 (123, "123")],
                             ids=["string", "object", "integer"])
    def test_curve_non_list_numerator_rejected(self, numerator, shown):
        # a string was read a character at a time, an object as its keys
        with pytest.raises(ValueError) as info:
            CurveInput.from_obj({"g": 1, "q": 2, "numerator": numerator})
        assert str(info.value) == f"malformed curve JSON: numerator has non-list {shown}"

    def test_curve_roundtrip(self):
        obj = {"g": CURVE.g, "q": CURVE.q, "numerator": list(CURVE.numerator)}
        again = CurveInput.from_obj(json.loads(json.dumps(obj)))
        assert (again.g, again.q, again.numerator) == (CURVE.g, CURVE.q, CURVE.numerator)


def _two_pass_read(obj):
    """The reader from_obj replaced, kept as the reference: Fraction reads
    every coefficient string and __init__ normalises every term again.
    `terms` and `z` must be lists, as the file format now requires."""
    try:
        g = obj["g"]
        if type(g) is not int:
            raise ValueError(f"malformed polynomial JSON: g has non-integer {g!r}")
        terms = {}
        if type(obj["terms"]) is not list:
            raise ValueError(f"malformed polynomial JSON: terms has non-list {obj['terms']!r}")
        for term in obj["terms"]:
            t, z = term["t"], term["z"]
            if type(z) is not list:
                raise ValueError(f"malformed polynomial JSON: z has non-list {z!r}")
            key = (t, tuple(z), term.get("gamma", 0))
            if (type(key[0]) is not int or type(key[2]) is not int
                    or not all(type(e) is int for e in key[1])):
                raise ValueError(f"malformed polynomial JSON: non-integer exponent in {key}")
            if key in terms:
                raise ValueError(f"malformed polynomial JSON: duplicate term {key}")
            c = term["c"]
            if type(c) is str:
                try:
                    c = Fraction(c)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"malformed polynomial JSON: coefficient {c!r} "
                                     "is not a rational number") from None
            elif type(c) is not int:
                raise ValueError(f"malformed polynomial JSON: coefficient {c!r} "
                                 "is neither a string nor an integer")
            terms[key] = c
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc!r}") from None
    return LaurentPoly(g, terms)


def _same_read(obj):
    """from_obj and the two-pass reader it replaced agree on obj."""
    new = read_outcome(LaurentPoly.from_obj, obj)
    assert new == read_outcome(_two_pass_read, obj), obj
    return new


COEFFICIENT_CORPUS = [
    "3", "-3", "007", "-0", "0", "+3", " 3", "3 ", "1_0", "3/2", "-6/4", "3/1", "0/5", "3/0",
    "--3", "-+3", "-", "", "٣", "-٣", "1e3", "3.0", "0.5", "½", "0x10", "3/-2", "1/2/3",
    "9" * 5000, "-" + "9" * 5000, "9" * 4300, "9" * 4301,
    0, 7, -7, 10 ** 30, True, False, 0.5, 3.0, -0.0, None, [3], {"n": 3},
]


class TestOnePassReader:
    """from_obj reads each term once; the two-pass reader it replaced is the
    reference for every value and message."""

    @pytest.mark.parametrize("c", COEFFICIENT_CORPUS,
                             ids=[repr(c)[:20] for c in COEFFICIENT_CORPUS])
    def test_coefficient_corpus(self, c):
        term = {"c": c, "t": 1, "z": [2], "gamma": 0}
        _same_read({"g": 1, "terms": [term]})
        _same_read({"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": 0}, term]})
        # an invariant term, so that the e-form reads compare values too
        same_zform_read({"g": 1, "terms": [dict(term, z=[0])]})
        same_zform_read({"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": 0},
                                           dict(term, z=[0])]})

    def test_file_form_is_z_form(self):
        obj = json.loads(LaurentPoly.const(1, 3).to_json())
        with pytest.raises(TypeError, match="read a LaurentPoly, not a WeilPoly"):
            WeilPoly.from_obj(obj)

    def test_corpus_values(self):
        def read(c):
            return read_outcome(LaurentPoly.from_obj,
                                {"g": 0, "terms": [{"c": c, "t": 0, "z": []}]})[2]
        key = (0, (), 0)
        assert read("007") == [(key, int, 7)]
        assert read("-6/4") == [(key, Fraction, Fraction(-3, 2))]
        assert read("3/1") == read("3.0") == read("+3") == read("٣") == [(key, int, 3)]
        assert read("-0") == read("0/5") == []

    @pytest.mark.parametrize("obj", [
        # a format error anywhere comes before g < 0 and before any key shape
        {"g": -1, "terms": [{"c": "1", "t": 0, "z": [], "gamma": -1}, {"c": "x", "t": 0, "z": []}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0, 0]}, {"c": "1", "t": 0.5, "z": [0]}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [], "gamma": -1}, {"t": 0, "z": [0]}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0, 0]}, {"c": "2", "t": 0, "z": [0, 0]}]},
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0]}, {"c": 1.5, "t": 1, "z": [0, 0]}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": -1}, 7]},
        {"g": -2, "terms": [{"c": "1", "t": 0, "z": [0]}, {"c": "2", "t": 0, "z": 5}]},
        # g < 0 comes before any key shape
        {"g": -1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": -1}]},
        {"g": -1, "terms": []},
        # the first bad key in file order, length before sign within a term
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": -1},
                           {"c": "1", "t": 1, "z": [0]}]},
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": 0},
                           {"c": "1", "t": 1, "z": [0, 0], "gamma": -3}]},
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": -1}]},
        # zero terms are dropped only after their keys are checked
        {"g": 1, "terms": [{"c": "0", "t": 0, "z": [0, 1]}, {"c": "1", "t": 0, "z": [0]}]},
        {"g": 1, "terms": [{"c": 0, "t": 0, "z": [0], "gamma": -1}]},
        {"g": 1, "terms": [{"c": "-0/7", "t": 0, "z": [0]}, {"c": "0", "t": 0, "z": [0]}]},
        {"g": 1, "terms": [{"c": "0", "t": 0, "z": [0]}, {"c": "3", "t": 1, "z": [0]}]},
        {"g": 0, "terms": [{"c": "0", "t": 0, "z": []}, {"c": "0", "t": 1, "z": [1]}]},
        # the container itself
        {"g": 1}, {"terms": []}, [], {"g": 1, "terms": 3}, {"g": 1, "terms": {"a": 1}},
        {"g": "1", "terms": []}, {"g": True, "terms": []}, {"g": 1, "terms": [{"c": "1"}]},
    ])
    def test_files_with_faults(self, obj):
        _same_read(obj)
        same_zform_read(obj)

    def test_random_faulty_files(self):
        rng = random.Random(16)
        coefficients = [c for c in COEFFICIENT_CORPUS if type(c) is str and len(c) < 10]
        coefficients += [0, 5, -2, True, 0.5]
        seen = set()
        for _ in range(3000):
            g = rng.choice((-1, 0, 1, 2, 3, 1.0))
            width = g if type(g) is int and g >= 0 else 1
            terms = []
            for _ in range(rng.randint(0, 4)):
                term = {"c": rng.choice(coefficients),
                        "t": rng.choice((0, 1, -2, 1.5)) if rng.random() < 0.2 else rng.randint(-2, 2),
                        "z": [rng.randint(-1, 1) for _ in range(width)],
                        "gamma": rng.choice((0, 1, -1, "0"))}
                kind = rng.random()
                if kind < 0.1:
                    term["z"].append(0)
                elif kind < 0.15:
                    del term[rng.choice(("c", "t", "z", "gamma"))]
                elif kind < 0.2 and terms:
                    term.update({k: terms[-1][k] for k in ("t", "z", "gamma") if k in terms[-1]})
                elif kind < 0.25:
                    term["c"] = rng.choice(("0", 0, "-0", "0/3"))
                terms.append(term)
            outcome = _same_read({"g": g, "terms": terms})
            same_zform_read({"g": g, "terms": terms})
            seen.add(outcome[1].split(":")[0] if outcome[0] is not LaurentPoly else "read")
        assert {"read", "need g >= 0", "exponent vector (0, 0, 0) has length != g=2",
                "genus-offset exponent must be nonnegative",
                "malformed polynomial JSON"} <= seen

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_random_invariants(self, g):
        rng = random.Random(g)
        for _ in range(4):
            p = random_invariant(rng, g) * rng.choice((1, -1, Fraction(3, 7), Fraction(-5, 2)))
            obj = json.loads(p.to_json())
            new = _same_read(obj)
            assert new[0] is LaurentPoly and LaurentPoly.from_obj(obj) == p
            assert LaurentPoly.from_obj(obj).to_json() == p.to_json()


def _orbit_terms(c, t=0, gamma=0):
    """The file terms of c t^t (g-1)^gamma (z1 + t/z1 + z2 + t/z2) at g = 2,
    a Weil-invariant polynomial of four terms."""
    return [{"c": c, "t": t + dt, "z": z, "gamma": gamma}
            for dt, z in ((0, [1, 0]), (0, [0, 1]), (1, [-1, 0]), (1, [0, -1]))]


class TestZformReader:
    """LaurentPoly.from_obj checks a plain file a column at a time and
    hands anything else to its per-term read; on every input it agrees with
    that per-term read alone (same_zform_read).  The corpus of
    TestOnePassReader is read through it too."""

    @pytest.mark.parametrize("obj", [
        # the malformed polynomials of the command-line tests
        {"g": 2},
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": 0},
                           {"c": "5", "t": 0, "z": [0, 0], "gamma": 0}]},
        {"g": 1, "terms": [{"c": "1", "t": 1.9, "z": [0], "gamma": 0}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [True], "gamma": 0}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": "1"}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": False}]},
        {"g": 1, "terms": [{"c": "1", "t": 0, "z": "0", "gamma": 0}]},
        {"g": 2.0, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": 0}]},
        {"g": 1, "terms": [{"c": True, "t": 1, "z": [0], "gamma": 0}]},
        {"g": 1, "terms": [{"c": 0.1, "t": 1, "z": [0], "gamma": 0}]},
        {"g": 1, "terms": [{"c": "1/0", "t": 1, "z": [0], "gamma": 0}]},
        {"g": 2, "terms": [{"c": "0", "t": 0, "z": [0, 0, 0], "gamma": -1},
                           {"c": "1", "t": 0, "z": [0, 0], "gamma": 0}]},
        {"g": 2, "terms": [{"c": "0", "t": 0, "z": [0, 0], "gamma": -1},
                           {"c": "1", "t": 0, "z": [0, 0], "gamma": 0}]},
        {"g": 2, "terms": [{"t": 0, "z": [0, 0]}]},
        {"g": 2, "terms": [3]},
        {"g": -1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": 0}]},
        {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": -1},
                           {"c": "x", "t": 1, "z": [0, 0], "gamma": 0}]},
        # lists required: an object or a string is not an empty polynomial
        {"g": 2, "terms": {}}, {"g": 2, "terms": ""}, {"g": 2, "terms": []},
        {"g": 0, "terms": [{"c": "1", "t": 0, "z": {}}]},
        {"g": 0, "terms": [{"c": "1", "t": 0, "z": ""}]},
        {"g": 0, "terms": [{"c": "1", "t": 0, "z": []}]},
        # a float or bool exponent after an int that equals it: a column
        # check per distinct key would take it for the int
        {"g": 1, "terms": [{"c": "1", "t": 1, "z": [0]}, {"c": "1", "t": 1.0, "z": [0]}]},
        {"g": 1, "terms": [{"c": "1", "t": 1, "z": [0]}, {"c": "1", "t": True, "z": [0]}]},
        {"g": 2, "terms": _orbit_terms("2") + [{"c": "2", "t": 0, "z": [1.0, 0]}]},
        {"g": 2, "terms": _orbit_terms("2") + [{"c": "2", "t": 0, "z": [True, 0]}]},
        {"g": 2, "terms": _orbit_terms("2", gamma=1) + [{"c": "2", "t": 0, "z": [1, 0],
                                                        "gamma": True}]},
        # JSON-int, mixed and zero coefficients on invariant polynomials
        {"g": 2, "terms": _orbit_terms(-3)},
        {"g": 2, "terms": _orbit_terms(-3)[:2] + _orbit_terms("-3")[2:]},
        {"g": 2, "terms": _orbit_terms("1") + _orbit_terms("0", t=1)},
        {"g": 2, "terms": _orbit_terms(4) + [{"c": 0, "t": 5, "z": [1, 0]}]},
        {"g": 2, "terms": _orbit_terms("0")},
        {"g": 2, "terms": _orbit_terms("-0")},
        {"g": 2, "terms": _orbit_terms("3/2")},
        {"g": 2, "terms": _orbit_terms("-")},
        {"g": 2, "terms": _orbit_terms("") + [{"c": "1", "t": 0, "z": [0, 0]}]},
        {"g": 2, "terms": _orbit_terms("1-2")},
        # not invariant, with plain coefficients
        {"g": 2, "terms": _orbit_terms("2")[:3]},
        {"g": 2, "terms": _orbit_terms("2")[:3] + [{"c": "3", "t": 1, "z": [0, -1]}]},
        {"g": 2, "terms": _orbit_terms("2")[1:]},
    ])
    def test_same_read(self, obj):
        same_zform_read(obj)

    @pytest.mark.parametrize("c", ["+3", " 3", "1_000", "0.5", "٣", "3/2", "-0", "3 ", "-+3"])
    def test_rare_spellings_take_the_exact_path(self, monkeypatch, c):
        """A coefficient that is not plain decimal digits is read by the
        per-term read, under Fraction's grammar, not by int()."""
        obj = {"g": 2, "terms": _orbit_terms("7") + _orbit_terms(c, t=2)}
        want = read_outcome(LaurentPoly.from_obj, obj)
        reads = []
        exact = laurent._zform_by_term
        monkeypatch.setattr(laurent, "_zform_by_term", lambda o: reads.append(o) or exact(o))
        assert read_outcome(LaurentPoly.from_obj, obj) == want
        assert reads == [obj]

    @pytest.mark.parametrize("c", ["3", "-3", "007", "-12", 5, -5, 10 ** 40])
    def test_plain_files_build_no_z_form(self, monkeypatch, c):
        """A plain file never enters the per-term read."""
        obj = {"g": 2, "terms": _orbit_terms(c) + _orbit_terms(c, t=1, gamma=2)}
        want = same_zform_read(obj)

        def refuse(o):
            raise AssertionError("read term by term")

        monkeypatch.setattr(laurent, "_zform_by_term", refuse)
        assert read_outcome(lambda o: WeilPoly.from_laurent(LaurentPoly.from_obj(o)), obj) == want

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no integer-string limit")
    def test_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        for digits in (limit, limit + 1):
            for c in ("9" * digits, "-" + "9" * digits):
                outcome = same_zform_read({"g": 2, "terms": _orbit_terms(c)})
                assert (outcome[0] is WeilPoly) == (digits == limit)


class TestWeilSymmetrize:
    """weil_symmetrize sends each term to its Weil orbit, with the weight
    g! 2^g / |orbit|; the reference sums all g! 2^g permutation-and-flip
    images."""

    def test_matches_permutation_flip_sum(self):
        rng = random.Random("weil-symmetrize")
        for _ in range(300):
            g = rng.randint(0, 4)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                z = tuple(rng.randint(-3, 3) for _ in range(g))
                c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                terms[(rng.randint(-2, 3), z, rng.randint(0, 2))] = c
            p = LaurentPoly(g, terms)
            got = weil_symmetrize(p)
            assert got == permutation_flip_symmetrize(p), p
            assert got.is_weil_invariant() and swap_flip_invariant(got)

    def test_orbit_weights(self):
        # z^(1,0) has 4 orbit members in genus 2; the group of order 8 hits each twice
        p = weil_symmetrize(lp(2, z=[1, 0]))
        assert p == 2 * (lp(2, z=[1, 0]) + lp(2, z=[0, 1]) + lp(2, t=1, z=[-1, 0])
                         + lp(2, t=1, z=[0, -1]))
        assert weil_symmetrize(LaurentPoly.const(3, 5)) == LaurentPoly.const(3, 5 * 48)
        assert weil_symmetrize(LaurentPoly.zero(2)).is_zero()
