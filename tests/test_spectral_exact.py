"""Differential tests: the exact chamber limits, circle counts and cone
series checks of `locsys.spectral` against the mpmath versions they
replaced (`spectral_refs`)."""

import itertools
import random
from fractions import Fraction

import mpmath
import pytest
import spectral_refs as ref

from locsys import verify
from locsys.spectral import (
    Cyclotomic,
    RationalFunc,
    chamber_limit,
    chamber_limit_exact,
    circle_count_check,
    cone_closed_form,
    cone_degree_one_identity,
    cone_direct_sum,
    cone_fourier_average_check,
    cone_series_check,
    degree_floor_vector,
    oriented_basis_sum,
    roots_in_disc,
    winding_number,
)


def family_func(cs):
    """c(x) = 1 + sum_k c_k (x^k - 1), written as the verify checker and
    acceptance test 13 write it; derivative at 1 is sum_k k c_k."""
    def f(x):
        out = x * 0 + 1
        for k, c in enumerate(cs, start=1):
            if c:
                out = out + (x ** k - 1) * c.numerator / c.denominator
        return out

    return f, sum(k * c for k, c in enumerate(cs, start=1))


def suite_families():
    for seed in range(4):
        for _, inst in verify.suite_gm_family(seed, None):
            if "kind" not in inst:
                yield inst["r"], {tuple(int(x) for x in key.split(",")): [Fraction(c) for c in cs]
                                  for key, cs in inst["coeffs"].items()}


def generated_families(count=90):
    """Families drawn as acceptance test 13 draws them, r = 2, 3, 4 in turn."""
    rng = random.Random(13)
    for idx in range(count):
        r = 2 + idx % 3
        yield r, {(i, j): [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
                  for i in range(r) for j in range(r) if i != j}


class TestChamberLimitsMatchMpmath:
    @pytest.mark.parametrize("source", [suite_families, generated_families])
    def test_limit_is_the_basis_sum(self, source):
        count = 0
        for r, coeffs in source():
            cfuncs, derivs = {}, {}
            for key, cs in coeffs.items():
                cfuncs[key], derivs[key] = family_func(cs)
            limit, basis = chamber_limit_exact(r, cfuncs, derivs)
            assert type(limit) is Fraction
            assert limit == basis == oriented_basis_sum(r, derivs)
            assert abs(ref.chamber_limit(r, cfuncs) - mpmath.mpf(limit.numerator) / limit.denominator) < 1e-6
            count += 1
        assert count == (48 if source is suite_families else 90)

    def test_series_derivatives_match_finite_differences(self):
        for r, coeffs in itertools.islice(generated_families(), 12):
            cfuncs = {key: family_func(cs)[0] for key, cs in coeffs.items()}
            exact = {key: family_func(cs)[1] for key, cs in coeffs.items()}
            limit, basis = chamber_limit_exact(r, cfuncs)
            assert limit == basis == oriented_basis_sum(r, exact)
            for key, f in cfuncs.items():
                assert abs(ref.finite_difference(f) - exact[key]) < 1e-12

    def test_negative_powers(self):
        cfuncs = {(0, 1): lambda x: x ** -2, (1, 0): lambda x: 2 * x ** 3 - x ** -1 / 1}
        limit, basis = chamber_limit_exact(2, cfuncs)
        assert limit == basis == -2 + 7
        assert abs(ref.chamber_limit(2, cfuncs) - 5) < 1e-9

    def test_public_limit_mixes_with_mpf(self):
        cfuncs = {(0, 1): lambda x: x ** 3, (1, 0): lambda x: x ** 2}
        limit, basis = chamber_limit(2, cfuncs, derivs={(0, 1): 3, (1, 0): 2})
        assert type(limit) is float and basis == 5
        assert abs(limit - mpmath.mpf(5)) == 0

    def test_pole_is_a_theorem_violation(self):
        # c_01(1) = 2 breaks c(1) = 1, so the two chambers' poles no longer cancel
        cfuncs = {(0, 1): lambda x: x * 0 + 2, (1, 0): lambda x: x * 0 + 1}
        with pytest.raises(verify.TheoremViolation, match="pole at t = 0"):
            chamber_limit_exact(2, cfuncs)


def circle_grid(count=2000):
    """Seeded rational polynomials of degree <= 7: plain random ones, and
    palindromic, anti-palindromic, reciprocal-pair and squared families."""
    rng = random.Random(2000)

    def rand_poly(deg):
        p = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(deg + 1)]
        p[-1] = p[-1] or Fraction(1)
        return p

    for idx in range(count):
        kind = idx % 6
        if kind <= 1:
            yield rand_poly(rng.randint(0, 7))
        elif kind == 2:
            # palindromic (with or without a middle term) or anti-palindromic
            q = rand_poly(rng.randint(0, 2))
            sign = rng.choice([1, -1])
            mid = [Fraction(rng.randint(-9, 9))] if sign == 1 and rng.random() < 0.7 else []
            yield q + mid + [sign * c for c in reversed(q)]
        elif kind == 3:
            a = Fraction(rng.choice([-1, 1]) * rng.randint(2, 5), rng.randint(1, 3))
            pair = [Fraction(1), -(a + 1 / a), Fraction(1)]
            rest = rand_poly(rng.randint(0, 5))
            yield [sum(pair[i] * rest[k - i] for i in range(3) if 0 <= k - i < len(rest))
                   for k in range(len(rest) + 2)]
        elif kind == 4:
            q = rand_poly(rng.randint(1, 3))
            yield [sum(q[i] * q[k - i] for i in range(len(q)) if 0 <= k - i < len(q))
                   for k in range(2 * len(q) - 1)]
        else:
            yield [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 7))] + [Fraction(1)]


def outcome(count, coeffs):
    try:
        return count(coeffs)
    except ValueError:
        return "on the circle"


class TestCircleCountsMatchMpmath:
    def test_grid(self):
        seen = set()
        for coeffs in circle_grid():
            got = outcome(roots_in_disc, coeffs)
            assert outcome(winding_number, coeffs) == got, coeffs
            moduli = ref.root_moduli(coeffs)
            if got == "on the circle":
                # a multiple root on the circle comes out of polyroots only
                # to about half the working precision
                assert min(abs(m - 1) for m in moduli) < 1e-6, coeffs
            else:
                assert all(abs(m - 1) > 1e-6 for m in moduli), coeffs
                assert got == sum(1 for m in moduli if m < 1), coeffs
            seen.add(got)
        assert {"on the circle", 0, 1, 2, 3, 4, 5} <= seen

    @pytest.mark.parametrize("coeffs", [[2, -3, 1], [1, 1], [1, 0, 1], [1, -1], [1, 1, 1],
                                        [1, 0, 0, 0, 1], [2, -5, 4, -5, 2]])
    def test_circle_root_is_a_value_error(self, coeffs):
        with pytest.raises(ValueError):
            roots_in_disc(coeffs)
        with pytest.raises(ValueError):
            winding_number(coeffs)
        with pytest.raises(ValueError):
            circle_count_check(RationalFunc(coeffs), RationalFunc([1]))
        with pytest.raises(ValueError):
            circle_count_check(RationalFunc([1]), RationalFunc([1], coeffs))

    def test_singular_schur_cohn_steps(self):
        # |p_0| = |p_n| without self-inversion: 1 + 3z + z^3 has one root inside
        assert roots_in_disc([1, 3, 0, 1]) == winding_number([1, 3, 0, 1]) == 1
        # reciprocal pair 2, 1/2 times a root at 1/3, and a double root at 0
        p = [Fraction(1)]
        for root in (2, Fraction(1, 2), Fraction(1, 3), 0, 0):
            p = [a - root * b for a, b in zip([0] + p, p + [0])]
        assert roots_in_disc(p) == winding_number(p) == 4 == ref.roots_inside(p)

    def test_integrals_match_quadrature(self):
        cases = [(RationalFunc(a[0], a[1]), RationalFunc(b[0], b[1]))
                 for a, b in verify._CIRCLE_FAMILIES]
        cases += [(RationalFunc([1], [1, 0, Fraction(-1, 5)]), RationalFunc([1, -2])),
                  (RationalFunc([1, -4]), RationalFunc([1, 4])),
                  (RationalFunc([5, -26, 5], [1]), RationalFunc([1], [5, 26, 5]))]
        for c12, c21 in cases:
            value, count = circle_count_check(c12, c21)
            assert value == count
            assert abs(ref.circle_integral(c12, c21) - value) < 1e-6


def lattice_items(kind):
    for seed in range(4):
        for _, inst in verify.suite_lattice(seed, None):
            if inst["kind"] == kind:
                yield inst


def exact_lam(inst):
    return [(Fraction(re), Fraction(im)) for re, im in inst["lam"]]


def float_lam(inst):
    return [complex(float(Fraction(re)), float(Fraction(im))) for re, im in inst["lam"]]


def mp_direct_sum(sizes, order, e, lam, trunc):
    sign = (-1) ** sum(1 for a, b in zip(order, order[1:]) if a > b)
    total = mpmath.mpc(0)
    for head in itertools.product(range(-trunc, trunc + 1), repeat=len(sizes) - 1):
        H = head + (e - sum(head),)
        if abs(H[-1]) <= trunc and ref.cone_indicator(sizes, order, H):
            term = mpmath.mpf(1)
            for x, h in zip(lam, H):
                term *= mpmath.mpc(x) ** -h
            total += term
    return sign * total


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class TestConeChecksMatchMpmath:
    def test_series(self):
        count = 0
        for inst in lattice_items("series"):
            sizes, order, e = tuple(inst["sizes"]), tuple(inst["order"]), inst["e"]
            lam = float_lam(inst)  # sixty-fourths: exact in binary floating point
            ok, errors, tail = cone_series_check(sizes, order, e, exact_lam(inst))
            h_tilde, _ = degree_floor_vector(sizes, order, e)
            with mpmath.workdps(40):
                sums = [mp_direct_sum(sizes, order, e, lam, t) for t in (6, 10, 14)]
                want, want_tail = ref.cone_series_errors(h_tilde, order, lam, sums)
                closed = ref.cone_closed_form(h_tilde, order, lam)
            assert ok and want[-1] <= want_tail
            assert all(close(a, float(b), 1e-9) for a, b in zip(errors, want))
            assert close(tail, float(want_tail), 1e-6)
            got = cone_closed_form(sizes, order, e, [Cyclotomic.gaussian(4, *x)
                                                     for x in exact_lam(inst)])
            re, im = (Fraction(c, got.den) for c in got.num)
            assert close(complex(re, im), complex(closed), 1e-12)
            count += 1
        assert count == 80

    def test_degree_one(self):
        for inst in lattice_items("degree-one"):
            sizes, order = tuple(inst["sizes"]), tuple(inst["order"])
            h_tilde, _ = degree_floor_vector(sizes, order, -1)
            assert cone_degree_one_identity(sizes, order, exact_lam(inst))
            assert ref.cone_degree_one_identity(h_tilde, order, float_lam(inst))

    def test_fourier(self):
        for inst in lattice_items("fourier"):
            sizes, e = tuple(inst["sizes"]), inst["e"]
            assert cone_fourier_average_check(sizes, e, exact_lam(inst))
            assert ref.cone_fourier_average_check(
                sizes, e, float_lam(inst), lambda o, ep: degree_floor_vector(sizes, o, ep)[0])

    def test_fourier_detects_a_wrong_degree(self):
        # the average isolates degree e: comparing it with degree e + 1 fails
        sizes, lam = (2, 1), [(Fraction(1, 2), Fraction(1, 10)), (Fraction(4, 5), Fraction(1, 5))]
        assert cone_fourier_average_check(sizes, 2, lam)
        n = sum(sizes)
        zeta = Cyclotomic.root(12, 12 // n)
        field = [Cyclotomic.gaussian(12, *x) for x in lam]
        avg = sum(zeta ** (2 * k) * sum(cone_closed_form(sizes, (0, 1), ep, [x * zeta ** k
                                                                            for x in field])
                                        for ep in range(n))
                  for k in range(1, n + 1)) / n
        assert avg == cone_closed_form(sizes, (0, 1), 2, field)
        assert avg != cone_closed_form(sizes, (0, 1), 0, field)

    def test_direct_sums_in_integers_match_fractions(self):
        lam = [(Fraction(3, 8), Fraction(-1, 3)), (Fraction(5, 4), Fraction(2, 7))]
        field = [Cyclotomic.gaussian(4, *x) for x in lam]
        for order in ((0, 1), (1, 0)):
            got = cone_direct_sum((2, 1), order, 1, lam, (2, 4))
            for trunc, value in zip((2, 4), got):
                want = 0
                for h0 in range(-trunc, trunc + 1):
                    H = (h0, 1 - h0)
                    if abs(H[1]) <= trunc and ref.cone_indicator((2, 1), order, H):
                        want = field[0] ** -H[0] * field[1] ** -H[1] + want
                assert value == want * (-1) ** (order == (1, 0))


class TestCyclotomic:
    def test_gaussian_arithmetic(self):
        a = Cyclotomic.gaussian(4, Fraction(1, 2), 3)
        b = Cyclotomic.gaussian(4, -2, Fraction(1, 3))
        assert a * b == Cyclotomic.gaussian(4, -1 - 1, Fraction(1, 6) - 6)
        assert (a / b) * b == a and a * a.inverse() == 1
        assert a.abs2() == Fraction(1, 4) + 9

    @pytest.mark.parametrize("m", [4, 8, 12, 20])
    def test_roots_and_inverses(self, m):
        z = Cyclotomic.root(m, 1)
        assert z ** m == 1 and all(z ** k != 1 for k in range(1, m))
        assert Cyclotomic.root(m, m // 4) ** 2 == -1
        rng = random.Random(m)
        for _ in range(20):
            x = Cyclotomic(m, [rng.randint(-5, 5) for _ in range(m)], rng.randint(1, 4))
            if any(x.num):
                assert x * x.inverse() == 1 and x ** -2 * x ** 3 == x
