import itertools
import random
from fractions import Fraction

import pytest

from locsys.cones import (
    _scaled_point,
    _tau,
    _tau_hat,
    check_composition,
    coarsenings,
    gamma_cone,
    gamma_inversion_check,
    gamma_prime,
    gamma_support_bound_check,
    gamma_support_box,
    grouping_of,
    is_dominant,
    langlands_identity_check,
    project_full_flag,
    truncation_lattice_sum,
)

COMPOSITIONS = {
    2: [(1, 1), (2,)],
    3: [(1, 1, 1), (2, 1), (1, 2), (3,)],
    4: [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2), (3, 1), (1, 3), (4,)],
    5: [(1, 1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1), (3, 1, 1), (1, 1, 3),
        (4, 1), (2, 3), (5,)],
}


# tau and tau_hat take a rational point and check their arguments.  No
# command calls them: the package runs the integer cores _tau and _tau_hat on
# points it has scaled itself.


def _check_grouping(p, grouping):
    if sum(grouping) != len(p):
        raise ValueError("grouping does not match the composition")


def tau(p, grouping, H) -> int:
    """Indicator of the open root cone relative to a coarsening: adjacent
    parts inside a common group must have strictly decreasing slopes."""
    p = check_composition(p)
    _check_grouping(p, grouping)
    H, = _scaled_point(p, H)
    return _tau(p, grouping, H)


def tau_hat(p, grouping, H) -> int:
    """Indicator of the open weight cone: inside each group every proper
    prefix must sit strictly above the group's average slope."""
    p = check_composition(p)
    _check_grouping(p, grouping)
    H, = _scaled_point(p, H)
    return _tau_hat(p, grouping, H)


def dominant_flag(rng, n, bound=9):
    return tuple(sorted((Fraction(rng.randint(-bound, bound)) for _ in range(n)),
                        reverse=True))


class TestProjection:
    # ref_project (below): the Fraction reference the integer cone cores are checked against
    def test_identity(self):
        assert ref_project((1, 2, 3), (1, 1, 1), (1, 1, 1)) == (1, 2, 3)

    def test_total(self):
        assert ref_project((1, 2, 3), (1, 1, 1), (3,)) == (6,)

    def test_partial(self):
        assert ref_project((1, 2, 3), (1, 1, 1), (2, 1)) == (3, 3)

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError):
            grouping_of((2, 2), (3, 1))


class TestTau:
    def test_positive_chamber_point(self):
        assert tau((1, 1), (2,), (1, -1)) == 1
        assert tau_hat((1, 1), (2,), (1, -1)) == 1

    def test_origin_excluded(self):
        assert tau((1, 1), (2,), (0, 0)) == 0
        assert tau_hat((1, 1), (2,), (0, 0)) == 0

    def test_no_conditions_when_levels_match(self):
        assert tau((1, 1), (1, 1), (5, -7)) == 1
        assert tau_hat((1, 1), (1, 1), (5, -7)) == 1

    def test_unequal_block_sizes_use_slopes(self):
        # slopes 4/2 > 1/1 even though the raw coordinates are decreasing
        assert tau((2, 1), (2,), (4, 1)) == 1
        assert tau((2, 1), (2,), (1, 1)) == 0


class TestLanglandsIdentity:
    def test_equal_ends(self):
        assert langlands_identity_check((1, 1), (1, 1), (3, 1))

    def test_sampled(self):
        rng = random.Random(0)
        for n in (2, 3, 4, 5):
            for _ in range(250):
                p = rng.choice(COMPOSITIONS[n])
                grouping = rng.choice(list(coarsenings(p)))
                q = []
                i = 0
                for s in grouping:
                    q.append(sum(p[i:i + s]))
                    i += s
                # denominators 3 and 7 keep slope comparisons tie-free
                h = [Fraction(rng.randint(-40, 40), rng.choice([3, 7])) for _ in p]
                assert langlands_identity_check(p, tuple(q), h)


class TestGamma:
    def test_full_group_constant_one(self):
        assert gamma_cone((3,), (5,), (0,)) == 1
        assert gamma_cone((4,), (-2,), (17,)) == 1

    def test_zero_truncation_empty(self):
        for h1 in range(-5, 6):
            for h2 in range(-5, 6):
                assert gamma_cone((1, 1), (h1, h2), (0, 0)) == 0

    def test_matches_alternating_form_for_dominant_t(self):
        rng = random.Random(1)
        for _ in range(400):
            p = rng.choice([(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)])
            flag = dominant_flag(rng, sum(p))
            t = project_full_flag(flag, p)
            h = [Fraction(rng.randint(-15, 15), rng.choice([2, 3])) for _ in p]
            assert gamma_cone(p, h, t) == gamma_prime(p, h, t)

    def test_inversion(self):
        rng = random.Random(2)
        for _ in range(400):
            p = rng.choice([(1, 1), (2, 1), (1, 1, 1), (3, 1)])
            flag = [Fraction(rng.randint(-8, 8)) for _ in range(sum(p))]
            t = project_full_flag(flag, p)
            h = [Fraction(rng.randint(-12, 12), rng.choice([2, 5])) for _ in p]
            assert gamma_inversion_check(p, h, t)


class TestLatticeSums:
    def test_full_group(self):
        assert truncation_lattice_sum((3,), 2, (2,), (1, 0, 0)) == 1
        assert truncation_lattice_sum((3,), 2, (1,), (1, 0, 0)) == 0

    def test_zero_truncation(self):
        assert truncation_lattice_sum((1, 1), 0, (0, 0), (0, 0)) == 0

    def test_linear_growth(self):
        values = [truncation_lattice_sum((1, 1), 0, (0, 0), (t, -t)) for t in range(21)]
        assert values == list(range(21))
        # closed form: lattice points in the half-open slope interval

    def test_congruence_classes_partition_the_count(self):
        # summing over all residue pairs recovers the unconstrained count
        p = (2, 2)
        flag = (3, 1, -1, -3)
        total = 0
        for r1 in range(2):
            for r2 in range(2):
                total += truncation_lattice_sum(p, 0, (r1, r2), flag)
        free = truncation_lattice_sum((1, 1), 0, (0, 0), project_full_flag(flag, (2, 2)))
        assert total == free

    def test_three_blocks(self):
        p = (1, 1, 1)
        flag = (2, 0, -2)
        value = truncation_lattice_sum(p, 0, (0, 0, 0), flag)
        # brute grid oracle over a generous window
        brute = 0
        for h1 in range(-10, 11):
            for h2 in range(-10, 11):
                h = [Fraction(h1), Fraction(h2), Fraction(-h1 - h2)]
                brute += gamma_prime(p, h, project_full_flag(flag, p))
        assert value == brute

    def test_quasi_polynomial_interpolation(self):
        # spot check: along the progression T = (t, 0, -t) the counts on a
        # fixed parity class are polynomial in t, so high-order finite
        # differences of each parity subsequence vanish
        values = [truncation_lattice_sum((1, 1, 1), 0, (0, 0, 0), (t, 0, -t))
                  for t in range(0, 25)]
        for parity in (0, 1):
            seq = values[parity::2]
            for _ in range(4):
                seq = [b - a for a, b in zip(seq, seq[1:])]
            assert all(v == 0 for v in seq[:4]), values

    def test_dominance_required(self):
        with pytest.raises(ValueError):
            gamma_support_box((1, 1), (-1, 1), 0)


class TestSupportBound:
    def test_small_shapes(self):
        assert gamma_support_bound_check((1, 1), [(2, -2), (5, 1), (0, 0)], e=0)
        assert gamma_support_bound_check((1, 1, 1), [(3, 1, -1)], e=0)
        assert gamma_support_bound_check((2, 1), [(2, 1, -1)], e=1)

    def test_box_grows_with_t(self):
        small = gamma_support_box((1, 1), (1, -1), 0)
        large = gamma_support_box((1, 1), (9, -9), 0)
        assert small[0][1] - small[0][0] < large[0][1] - large[0][0]

    def test_dominance_detector(self):
        assert is_dominant((3, 1, 0))
        assert not is_dominant((0, 1))


# --------------------------------------------------------------------------
# Fraction references: the cone indicators as they were before they ran on
# integer-scaled points, compared with the integer cores below.


def ref_project(H, p, q):
    sizes = grouping_of(p, q)
    out = []
    i = 0
    for s in sizes:
        out.append(sum(H[i:i + s], Fraction(0)))
        i += s
    return tuple(out)


def ref_blocks(grouping):
    out = []
    i = 0
    for s in grouping:
        out.append(list(range(i, i + s)))
        i += s
    return out


def ref_tau(p, grouping, H):
    H = [Fraction(x) for x in H]
    for block in ref_blocks(grouping):
        for a, b in zip(block, block[1:]):
            if not Fraction(H[a], p[a]) - Fraction(H[b], p[b]) > 0:
                return 0
    return 1


def ref_tau_hat(p, grouping, H):
    H = [Fraction(x) for x in H]
    for block in ref_blocks(grouping):
        total_h = sum(H[i] for i in block)
        total_n = sum(p[i] for i in block)
        pre_h = Fraction(0)
        pre_n = 0
        for i in block[:-1]:
            pre_h += H[i]
            pre_n += p[i]
            if not pre_h - Fraction(pre_n, total_n) * total_h > 0:
                return 0
    return 1


def ref_langlands_identity_check(p, q, H):
    outer = grouping_of(p, q)
    total = 0
    per_block = [list(coarsenings([p[i] for i in block])) for block in ref_blocks(outer)]
    for choice in itertools.product(*per_block):
        inner = tuple(s for sizes in choice for s in sizes)
        r_composition = []
        i = 0
        for s in inner:
            r_composition.append(sum(p[i:i + s]))
            i += s
        outer_on_inner = tuple(len(sizes) for sizes in choice)
        sign = (-1) ** (len(p) - len(r_composition))
        t = ref_tau(p, inner, H)
        if t:
            h_r = ref_project(H, p, r_composition)
            total += sign * t * ref_tau_hat(r_composition, outer_on_inner, h_r)
    return total == (1 if len(outer) == len(p) else 0)


def ref_gamma_cone(p, H, T):
    if ref_tau(p, (len(p),), H) == 0:
        return 0
    H = [Fraction(x) for x in H]
    T = [Fraction(x) for x in T]
    n = sum(p)
    total_h, total_t = sum(H), sum(T)
    pre_h = pre_t = Fraction(0)
    pre_n = 0
    for i in range(len(p) - 1):
        pre_h += H[i]
        pre_t += T[i]
        pre_n += p[i]
        w_h = pre_h - Fraction(pre_n, n) * total_h
        w_t = pre_t - Fraction(pre_n, n) * total_t
        if not w_h <= w_t:
            return 0
    return 1


def ref_q_comp(p, grouping):
    q_comp = []
    i = 0
    for s in grouping:
        q_comp.append(sum(p[i:i + s]))
        i += s
    return tuple(q_comp)


def ref_gamma_prime(p, H, T):
    H = [Fraction(x) for x in H]
    T = [Fraction(x) for x in T]
    total = 0
    for grouping in coarsenings(p):
        sign = (-1) ** (len(grouping) - 1)
        t = ref_tau(p, grouping, H)
        if not t:
            continue
        q_comp = ref_q_comp(p, grouping)
        d_q = ref_project([h - t_ for h, t_ in zip(H, T)], p, q_comp)
        total += sign * t * ref_tau_hat(q_comp, (len(q_comp),), d_q)
    return total


def ref_gamma_inversion_check(p, H, T):
    H = [Fraction(x) for x in H]
    T = [Fraction(x) for x in T]
    lhs = ref_tau_hat(p, (len(p),), [h - t_ for h, t_ in zip(H, T)])
    total = 0
    for grouping in coarsenings(p):
        sign = (-1) ** (len(grouping) - 1)
        q_comp = ref_q_comp(p, grouping)
        gp = ref_gamma_prime(q_comp, ref_project(H, p, q_comp), ref_project(T, p, q_comp))
        if gp:
            total += sign * gp * ref_tau_hat(p, grouping, H)
    return total == lhs


# every composition the cones suite draws is among these
ALL_COMPOSITIONS = [(1,)] + [p for n in sorted(COMPOSITIONS) for p in COMPOSITIONS[n]]
DENOMINATORS = (1, 1, 2, 3, 5, 6, 7, 12)


def grid_points(rng, p):
    """Rational points on p: random ones with mixed denominators and zero
    entries, points of equal slopes (H_i a multiple of n_i), and pairs
    (H, T) with T = H + c * p, where every weight value of H equals T's."""
    r = len(p)
    for _ in range(6):
        H = [Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS)) for _ in p]
        if rng.random() < 0.3:
            H[rng.randrange(r)] = Fraction(0)
        T = [Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS)) for _ in p]
        yield H, T
    for _ in range(4):
        slopes = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in p]
        H = [s * n for s, n in zip(slopes, p)]
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 3)))
        yield H, [h + c * n for h, n in zip(H, p)]
    yield [0] * r, [0] * r
    yield [Fraction(1, 7)] * r, list(range(r, 0, -1))


class TestIntegerConesMatchFractionReferences:
    @pytest.mark.parametrize("p", ALL_COMPOSITIONS, ids=str)
    def test_tau_and_tau_hat(self, p):
        rng = random.Random(f"tau {p}")
        for H, _ in grid_points(rng, p):
            for grouping in coarsenings(p):
                assert tau(p, grouping, H) == ref_tau(p, grouping, H), (p, grouping, H)
                assert tau_hat(p, grouping, H) == ref_tau_hat(p, grouping, H), (p, grouping, H)

    @pytest.mark.parametrize("p", ALL_COMPOSITIONS, ids=str)
    def test_gamma(self, p):
        rng = random.Random(f"gamma {p}")
        for H, T in grid_points(rng, p):
            assert gamma_cone(p, H, T) == ref_gamma_cone(p, H, T), (p, H, T)
            assert gamma_prime(p, H, T) == ref_gamma_prime(p, H, T), (p, H, T)
            assert gamma_inversion_check(p, H, T) == ref_gamma_inversion_check(p, H, T)

    @pytest.mark.parametrize("p", ALL_COMPOSITIONS, ids=str)
    def test_langlands(self, p):
        rng = random.Random(f"langlands {p}")
        for H, _ in grid_points(rng, p):
            for grouping in coarsenings(p):
                q = ref_q_comp(p, grouping)
                assert (langlands_identity_check(p, q, H)
                        == ref_langlands_identity_check(p, q, H)), (p, q, H)

    def test_mixed_input_types(self):
        # ints, Fractions and rational strings scale to one common integer point
        p = (2, 1, 1)
        H = [3, Fraction(5, 6), "-7/4"]
        T = ["1/3", 0, Fraction(-2, 9)]
        assert gamma_cone(p, H, T) == ref_gamma_cone(p, H, T)
        assert gamma_prime(p, H, T) == ref_gamma_prime(p, H, T)
        assert tau(p, (3,), H) == ref_tau(p, (3,), H)


class TestBoundaryTies:
    """Points where a comparison is an exact tie: the strict and non-strict
    tests must fall on the side the definitions put them."""

    def test_equal_slopes_are_outside_the_root_cone(self):
        assert tau((1, 1), (2,), (1, 1)) == 0
        assert tau((2, 1), (2,), (2, 1)) == 0
        assert tau((2, 3), (2,), (Fraction(2, 3), 1)) == 0
        assert tau((2, 3), (2,), (Fraction(2, 3) + Fraction(1, 10**9), 1)) == 1

    def test_prefix_on_the_average_is_outside_the_weight_cone(self):
        # w = 0 at the only wall: prefix slope equals the average slope
        assert tau_hat((1, 2), (2,), (1, 2)) == 0
        assert tau_hat((1, 1, 1), (3,), (1, 0, -1)) == 1
        assert tau_hat((1, 1, 1), (3,), (1, -1, 0)) == 0  # second prefix at 0

    def test_truncation_weight_equal_to_t_is_inside(self):
        # w_h = w_t at every wall: gamma_cone's bound is non-strict
        assert gamma_cone((1, 1), (1, -1), (1, -1)) == 1
        assert gamma_cone((1, 1), (Fraction(3, 2), Fraction(-1, 2)), (2, 0)) == 1
        assert gamma_cone((1, 1), (Fraction(3, 2), Fraction(-3, 2)), (1, -1)) == 0
        assert gamma_cone((2, 1, 1), (4, 1, 0), (4, 1, 0)) == 1
        # the same tie in gamma_prime: the one-group coarsening gives 1 and
        # the strict weight test of H - T = 0 removes the finest one
        assert gamma_prime((1, 1), (1, -1), (1, -1)) == 1

    def test_weight_tie_inside_gamma_prime(self):
        # H - T is a multiple of p: every weight value of the difference is 0
        for p in ((1, 1), (2, 1), (1, 1, 1), (2, 1, 1)):
            H = [3 * n for n in p]
            H[0] += 1
            T = [h - 2 * n for h, n in zip(H, p)]
            assert gamma_prime(p, H, T) == ref_gamma_prime(p, H, T)
            assert gamma_inversion_check(p, H, T)


class TestCompositionParts:
    def test_integers_pass(self):
        assert check_composition([2, 1]) == (2, 1)

    @pytest.mark.parametrize("parts", [(1.7, 1), (True, 1), (1, False), ("1", 1), (2.0, 1),
                                       (0, 1), (), (Fraction(2), 1),
                                       5, None, {1: 1}, range(1, 3)])
    def test_rejected(self, parts):
        with pytest.raises(ValueError):
            check_composition(parts)

    def test_point_length_must_match(self):
        with pytest.raises(ValueError):
            gamma_cone((1, 1), (1, 2, 3), (0, 0))
        with pytest.raises(ValueError):
            tau((1, 1), (2,), (1,))
