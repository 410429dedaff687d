import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from spectral_refs import cone_indicator

from locsys import spectral
from locsys.combinat import binom_ring
from locsys.spectral import (
    Block,
    Cyclotomic,
    DiscretePairDatum,
    RationalFunc,
    aggregation_check,
    block_det_identity_check,
    chamber_limit,
    char_poly_coeffs,
    circle_count_check,
    cone_degree_one_identity,
    cone_direct_sum,
    cone_fourier_average_check,
    cone_periodicity_check,
    cone_series_check,
    degree_floor_vector,
    det_slope,
    det_slope_identities_check,
    mat_det,
    orbit_character_sum,
    orbit_character_sum_mobius,
    orbit_character_sum_root,
    pair_closed_form,
    pair_matrix,
    spanning_tree_sum,
    spanning_trees,
    triple_oracle,
    zero_pole_count,
)
from locsys.verify import random_zero_sum_matrix


def random_symmetric_zero_sum(rng, n):
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j]
    for i in range(n):
        rows[i][i] -= sum(rows[i], Fraction(0))
    return rows


def random_datum(rng, max_orbits=5):
    while True:
        blocks = []
        seen = set()
        total = 0
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            nu = rng.randint(1, 3)
            fix = rng.choice([f for f in range(1, d + 1) if d % f == 0])
            if (d, nu, fix) in seen:
                continue
            seen.add((d, nu, fix))
            m = rng.randint(1, 3)
            parts = []
            left = m
            while left:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            blocks.append(Block(d, nu, fix, m, tuple(parts)))
            total += len(parts)
        if blocks and total <= max_orbits:
            return DiscretePairDatum(rng.choice([2, 3]), tuple(blocks))


def gauss_det(rows):
    """Reference determinant: Gaussian elimination over Fraction (the
    elimination `mat_det` used before it became fraction-free)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def det_grid(seed):
    """Seeded matrices of sizes 0..6: rational, integral Fraction, plain int,
    zero-sum (`verify.random_zero_sum_matrix`) and singular ones."""
    rng = random.Random(seed)
    for n in range(7):
        yield [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
               for _ in range(n)]
        yield [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        yield [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if n == 0:
            continue
        yield random_zero_sum_matrix(rng, n, symmetric=rng.random() < 0.5)
        mixed = [[rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-7, 7), 3)])
                  for _ in range(n)] for _ in range(n)]
        yield mixed
        if n >= 2:
            repeated = [list(row) for row in mixed]
            i, j = rng.sample(range(n), 2)
            repeated[j] = list(repeated[i])
            yield repeated
            zero_col = [list(row) for row in mixed]
            c = rng.randrange(n)
            for row in zero_col:
                row[c] = 0
            yield zero_col
            zero_pivot = [list(row) for row in mixed]
            zero_pivot[0][0] = 0
            yield zero_pivot


class TestMatDet:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gaussian_elimination(self, seed):
        for rows in det_grid(seed):
            det = mat_det(rows)
            assert type(det) is Fraction
            assert det == gauss_det(rows), rows

    def test_empty_matrix(self):
        det = mat_det([])
        assert type(det) is Fraction and det == 1

    def test_singular_cases(self):
        row = [Fraction(1, 2), 3, Fraction(-2, 7)]
        assert mat_det([row, [5, 1, 1], list(row)]) == 0
        assert mat_det([[0, 1, 2], [0, 3, 4], [0, Fraction(1, 3), 5]]) == 0
        assert mat_det([[0, 0], [0, 0]]) == 0

    def test_zero_first_pivot(self):
        rows = [[0, 2, 1], [Fraction(1, 2), 1, 0], [3, 0, Fraction(-1, 3)]]
        assert mat_det(rows) == gauss_det(rows) == Fraction(-8, 3)

    def test_row_swap_flips_sign(self):
        rng = random.Random(5)
        for n in range(2, 7):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            swapped = list(rows)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert mat_det(swapped) == -mat_det(rows)


class TestDetSlope:
    def test_zero_matrix(self):
        assert det_slope([[0] * 3 for _ in range(3)]) == 0

    def test_two_by_two(self):
        assert det_slope([[1, -1], [-1, 1]]) == 1

    def test_triangle_kirchhoff(self):
        rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert det_slope(rows) == 3  # Cayley: 3 spanning trees

    def test_nonsingular_rejected(self):
        with pytest.raises(ValueError):
            det_slope([[1, 0], [0, 1]])

    def test_identities_random(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(2, 6)
            rows = random_symmetric_zero_sum(rng, n)
            u = [Fraction(rng.randint(1, 5)) for _ in range(n)]
            v = [Fraction(rng.randint(1, 5)) for _ in range(n)]
            assert det_slope_identities_check(rows, u, v)

    def test_identities_on_zero_matrix(self):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        assert det_slope_identities_check(rows, [1, 1, 1, 1], [1, 2, 3, 4])

    def test_zero_input_vector_rejected(self):
        rows = random_symmetric_zero_sum(random.Random(1), 3)
        with pytest.raises(ValueError):
            det_slope_identities_check(rows, [1, -1, 0], [1, 1, 1])

    @pytest.mark.parametrize("rows", [
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [["1/2", "-1/2", 0, 0], [0, 1, -1, 0], [0, 0, 3, -3], ["-1/2", "-1/2", -2, 3]],
    ], ids=["symmetric", "directed"])
    def test_unequal_cofactors_fail(self, monkeypatch, rows):
        # On a zero-row-and-column-sum matrix all principal cofactors are
        # equal.  Moving two of them by +1 and -1 keeps their sum, and so
        # every other identity, so only the all-equal clause can see it.
        u, v = [1, 2, "1/3", 1][:len(rows)], [2, -1, 1, 1][:len(rows)]
        assert det_slope_identities_check(rows, u, v)
        bareiss = spectral._bareiss
        shifts = iter((1, -1))

        def skewed(a):
            cofactor = len(a) == len(rows) - 1
            return bareiss(a) + (next(shifts, 0) if cofactor else 0)

        monkeypatch.setattr(spectral, "_bareiss", skewed)
        assert not det_slope_identities_check(rows, u, v)
        assert next(shifts, None) is None  # both shifts were applied


def principal_cofactors_reference(rows):
    n = len(rows)
    out = []
    for i in range(n):
        minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        out.append(mat_det(minor) if minor else Fraction(1))
    return out


def det_slope_identities_reference(rows, u, v) -> bool:
    """Reference: `det_slope_identities_check` before it scaled to integers
    once, in Fraction arithmetic with `mat_det` on every minor and bordered
    matrix.  It looks `det_slope` up at call time, like the new version."""
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    base = spectral.det_slope(rows)
    if base != sum(principal_cofactors_reference(rows), Fraction(0)) / n:
        return False
    zero_rows = all(sum(row, Fraction(0)) == 0 for row in rows)
    zero_cols = all(sum(rows[r][c] for r in range(n)) == 0 for c in range(n))
    if zero_rows:
        if sum(u, Fraction(0)) == 0:
            raise ValueError("need a test vector with nonzero sum")
        bordered = [[rows[i][j] + u[j] for j in range(n)] for i in range(n)]
        if mat_det(bordered) != n * sum(u, Fraction(0)) * base:
            return False
    if zero_rows and zero_cols:
        if sum(v, Fraction(0)) == 0:
            raise ValueError("need a test vector with nonzero sum")
        bordered = [[rows[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
        if mat_det(bordered) != sum(u, Fraction(0)) * sum(v, Fraction(0)) * base:
            return False
        cofs = principal_cofactors_reference(rows)
        if any(c != cofs[0] for c in cofs):
            return False
    return True


def _entry(rng, rational):
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def _vector(rng, n, rational, zero_sum):
    vec = [_entry(rng, rational) for _ in range(n)]
    if zero_sum:
        vec[-1] -= sum(vec)
    return vec


def kappa_grid(seed):
    """Seeded (case, rows, u, v) with n = 1..6, integer or rational entries,
    in three cases: zero row sums only, zero row and column sums, and
    neither (a singular matrix, or a nonsingular one now and then).  A test
    vector has zero sum now and then."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for rational in (False, True):
            for case in ("rows", "both", "neither"):
                rows = [[_entry(rng, rational) for _ in range(n)] for _ in range(n)]
                if case == "rows":
                    for row in rows:
                        row[-1] -= sum(row)
                elif case == "both":
                    for row in rows[:-1]:
                        row[-1] -= sum(row)
                    rows[-1] = [-sum(row[c] for row in rows[:-1]) for c in range(n)]
                elif rng.random() < 0.8:
                    rows[-1] = [sum(k * row[c] for k, row in zip(range(1, n), rows))
                                for c in range(n)]
                u = _vector(rng, n, rational and rng.random() < 0.5, rng.random() < 0.2)
                v = _vector(rng, n, rational and rng.random() < 0.5, rng.random() < 0.2)
                yield case, rows, u, v


def _outcome(check, rows, u, v):
    try:
        return check(rows, u, v)
    except ValueError as exc:
        return str(exc)


class TestDetSlopeIdentitiesReference:
    SEEDS = range(12)

    @staticmethod
    def _compare(seeds):
        """Every outcome of the grid, as (case, outcome); a zero-sum error
        is named by the vector that caused it."""
        seen = set()
        for seed in seeds:
            for case, rows, u, v in kappa_grid(seed):
                new = _outcome(det_slope_identities_check, rows, u, v)
                assert new == _outcome(det_slope_identities_reference, rows, u, v), rows
                if new == "need a test vector with nonzero sum":
                    new = "zero-sum u" if sum(u) == 0 else "zero-sum v"
                seen.add((case, new))
        return seen

    def test_matches_fraction_reference(self):
        seen = self._compare(self.SEEDS)
        assert {("rows", True), ("both", True), ("neither", True), ("rows", "zero-sum u"),
                ("both", "zero-sum v"), ("neither", "matrix must be singular")} <= seen

    def test_failures_match_fraction_reference(self, monkeypatch):
        # Doubling the slope breaks each identity whose sides are nonzero,
        # so both versions must return False at the same places.
        slope = spectral.det_slope
        monkeypatch.setattr(spectral, "det_slope", lambda rows: 2 * slope(rows))
        seen = self._compare(self.SEEDS)
        assert {("rows", False), ("both", False), ("neither", False)} <= seen

    def test_empty_matrix(self):
        for check in (det_slope_identities_check, det_slope_identities_reference):
            with pytest.raises(ValueError, match="empty matrix"):
                check([], [], [])

    def test_string_entries(self):
        rows = [["1/2", "-1/2"], ["-1/2", "1/2"]]
        assert det_slope_identities_check(rows, ["1/3", 1], [2, "5/7"])
        assert det_slope_identities_reference(rows, ["1/3", 1], [2, "5/7"])


class TestSpanningTrees:
    def test_two_vertices(self):
        assert spanning_tree_sum(2, {(0, 1): Fraction(7)}) == 7

    def test_cayley_count(self):
        for r in (1, 2, 3, 4, 5):
            weights = {(i, j): 1 for i in range(r) for j in range(i + 1, r)}
            assert spanning_tree_sum(r, weights) == max(r ** (r - 2), 1)

    def test_against_matrix_slope(self):
        rng = random.Random(2)
        for _ in range(40):
            r = rng.randint(1, 6)
            weights = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for i in range(r) for j in range(i + 1, r)}
            rows = [[Fraction(0)] * r for _ in range(r)]
            for (i, j), w in weights.items():
                rows[i][j] = rows[j][i] = -w
            for i in range(r):
                rows[i][i] = -sum(rows[i], Fraction(0))
            assert spanning_tree_sum(r, weights) == det_slope(rows)


def min_scan_spanning_trees(r):
    """Reference enumeration: the Pruefer decoding `spanning_trees` used
    before it became one pass, taking the smallest leaf by a scan over all r
    vertices at every step."""
    if r == 1:
        yield []
        return
    if r == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(r), repeat=r - 2):
        degree = [1] * r
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = min(i for i in range(r) if degree[i] == 1)
            edges.append((min(leaf, x), max(leaf, x)))
            degree[leaf] -= 1
            degree[x] -= 1
        last = [i for i in range(r) if degree[i] == 1]
        edges.append((min(last), max(last)))
        yield edges


def ring_spanning_tree_sum(r, weights):
    """Reference tree sum: the ring-generic product and sum
    `spanning_tree_sum` used before it scaled the weights to integers."""
    total = None
    for edges in min_scan_spanning_trees(r):
        term = 1
        for e in edges:
            term = term * weights[e]
        total = term if total is None else total + term
    return total


def interpolated_char_poly(rows):
    """Reference characteristic polynomial: the Fraction interpolation
    `char_poly_coeffs` used before it ran in integers, here on the Gaussian
    elimination determinant."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[rows[i][j] + (x if i == j else 0) for j in range(n)] for i in range(n)]
        ys.append(gauss_det(shifted))
    coef = list(ys)
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * (n + 1)
    acc = [Fraction(1)]
    for i, c in enumerate(coef):
        for k, v in enumerate(acc):
            poly[k] += c * v
        nxt = [Fraction(0)] * (len(acc) + 1)
        for k, v in enumerate(acc):
            nxt[k] -= xs[i] * v
            nxt[k + 1] += v
        acc = nxt
    return poly


class TestIntegerKernelsMatchReferences:
    @pytest.mark.parametrize("r", range(1, 8))
    def test_spanning_trees_same_trees_same_order(self, r):
        assert list(spanning_trees(r)) == list(min_scan_spanning_trees(r))

    def test_spanning_tree_sum_matches_ring_sum(self):
        rng = random.Random(8)
        for trial in range(320):
            r = 6 if trial % 16 == 0 else rng.randint(1, 5)
            den = rng.choice([1, 2, 3, 4, 6, 12, 35])
            weights = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, den))
                       for i in range(r) for j in range(i + 1, r)}
            if trial % 8 == 0:
                weights = {e: int(w * 6) for e, w in weights.items()}
            tree = spanning_tree_sum(r, weights)
            assert type(tree) is Fraction
            assert tree == ring_spanning_tree_sum(r, weights), (r, weights)

    def test_spanning_tree_sum_scale_exponent(self):
        # only the path 0-1-...-(r-1) has nonzero weight: r - 1 edges of 1/2
        for r in range(2, 7):
            weights = {(i, j): Fraction(1 if j == i + 1 else 0, 2)
                       for i in range(r) for j in range(i + 1, r)}
            assert spanning_tree_sum(r, weights) == Fraction(1, 2 ** (r - 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_char_poly_matches_fraction_interpolation(self, seed):
        rng = random.Random(seed)
        for n in range(1, 7):
            for _ in range(6):
                rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                        for _ in range(n)]
                if rng.random() < 0.3:
                    rows = random_zero_sum_matrix(rng, n, symmetric=rng.random() < 0.5)
                got = char_poly_coeffs(rows)
                assert all(type(c) is Fraction for c in got)
                assert got == interpolated_char_poly(rows)


class TestBlockDet:
    def test_scalar_case(self):
        assert block_det_identity_check([[Fraction(1, 2)]], [[1, 3]])

    def test_zero_vectors(self):
        assert block_det_identity_check([[2, 1], [0, 1]], [[0], [0, 0]])

    def test_random(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 3)
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                 for _ in range(k)]
            us = [[Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                  for _ in range(k)]
            assert block_det_identity_check(a, us)


class TestZeroPoleCount:
    def test_distinct_unit_blocks(self):
        b = Block(1, 1, 1, 1, (1,))
        assert zero_pole_count(b, b, 2, same_inertial=False) == 2

    def test_same_block(self):
        b = Block(2, 1, 2, 1, (1,))
        assert zero_pole_count(b, b, 2, same_inertial=True) == 10

    def test_mixed_speh(self):
        b1 = Block(1, 3, 1, 1, (1,))
        b2 = Block(1, 1, 1, 1, (1,))
        assert zero_pole_count(b1, b2, 3, same_inertial=False) == 4


class TestPairMatrix:
    def test_single_orbit_degenerate(self):
        datum = DiscretePairDatum(2, (Block(1, 1, 1, 1, (1,)),))
        rows = pair_matrix(datum)
        assert rows == [[0]]
        assert det_slope(rows) == 1
        assert pair_closed_form(datum) == 1

    def test_two_identical_orbits(self):
        datum = DiscretePairDatum(2, (Block(1, 1, 1, 2, (1, 1)),))
        rows = pair_matrix(datum)
        assert rows[0][0] == -rows[0][1]
        assert rows[0][0] == rows[1][1]

    def test_zero_sums_random(self):
        rng = random.Random(4)
        for _ in range(30):
            rows = pair_matrix(random_datum(rng))
            n = len(rows)
            assert all(sum(row, Fraction(0)) == 0 for row in rows)
            assert all(sum(rows[i][j] for i in range(n)) == 0 for j in range(n))
            assert all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))

    def test_single_edge_closed_form(self):
        # one block, two orbits: one spanning tree with one edge
        g = 2
        datum = DiscretePairDatum(g, (Block(2, 1, 2, 2, (1, 1)),))
        y = 1 * 1 * ((2 * g - 2) * 4 * 1 + 2)
        assert pair_closed_form(datum) == y

    def test_triple_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            datum = random_datum(rng)
            tree, slope, closed = triple_oracle(datum)
            assert tree == slope == closed


class TestOrbitCharacterSum:
    def test_coprime_case(self):
        assert orbit_character_sum((1,), (1,)) == 1
        # gcd of the l_i fix_i equal to 1 always gives 1
        assert orbit_character_sum((2, 3), (1, 1)) == 1

    def test_single_two_cycle(self):
        assert orbit_character_sum_root((2,), (1,)) == 2
        assert orbit_character_sum_mobius((2,), (1,)) == 2

    def test_pair_of_two_cycles(self):
        assert orbit_character_sum((2, 2), (1, 1)) == 0

    def test_exhaustive_small(self):
        pairs = [(l, f) for l in range(1, 7) for f in range(1, 7)]
        for length in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(pairs, length):
                ls = tuple(p[0] for p in combo)
                fs = tuple(p[1] for p in combo)
                orbit_character_sum(ls, fs)  # raises on mismatch


class TestChamberFamilies:
    def test_two_block_powers(self):
        cfuncs = {(0, 1): lambda x: x ** 3, (1, 0): lambda x: x ** 2}
        limit, basis = chamber_limit(2, cfuncs, derivs={(0, 1): 3, (1, 0): 2})
        assert basis == 5
        assert abs(limit - 5) < 1e-12

    def test_constant_family_vanishes(self):
        cfuncs = {(i, j): (lambda x: x * 0 + 1)
                  for i in range(3) for j in range(3) if i != j}
        limit, basis = chamber_limit(3, cfuncs, derivs={k: 0 for k in cfuncs})
        assert basis == 0
        assert abs(limit) < 1e-12

    def test_finite_difference_derivatives(self):
        cfuncs = {(0, 1): lambda x: x ** 2, (1, 0): lambda x: x ** -1}
        limit, basis = chamber_limit(2, cfuncs)
        assert abs(limit - 1) < 1e-6
        assert abs(basis - 1) < 1e-6

    def test_random_polynomials(self):
        rng = random.Random(6)

        def rand_func():
            cs = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]

            def f(x, cs=cs):
                out = x * 0 + 1
                for k, c in enumerate(cs, start=1):
                    if c:
                        out = out + (x ** k - 1) * c.numerator / c.denominator
                return out

            return f, sum(k * c for k, c in enumerate(cs, start=1))

        for r in (2, 3, 4):
            cfuncs, derivs = {}, {}
            for i in range(r):
                for j in range(r):
                    if i != j:
                        cfuncs[(i, j)], derivs[(i, j)] = rand_func()
            limit, basis = chamber_limit(r, cfuncs, derivs=derivs)
            assert abs(limit - mpmath.mpf(basis.numerator) / basis.denominator) < 1e-6


class TestCircleCounts:
    @pytest.mark.parametrize("c12,c21,expected", [
        (RationalFunc([1, -2]), RationalFunc([1]), 1),
        (RationalFunc([1]), RationalFunc([1]), 0),
        (RationalFunc([1], [1, -3]), RationalFunc([1]), -1),
    ])
    def test_values(self, c12, c21, expected):
        value, count = circle_count_check(c12, c21)
        assert count == expected
        assert abs(value - expected) < 1e-6

    def test_root_on_circle_rejected(self):
        with pytest.raises(ValueError):
            circle_count_check(RationalFunc([2, -3, 1]), RationalFunc([1]))


LAM2 = (0.5, 2.0)


class TestConeSeries:
    def test_floor_vectors(self):
        assert degree_floor_vector((1, 1), (0, 1), -1) == ((1, 0), (1, 1))
        assert degree_floor_vector((1, 1), (0, 1), 0) == ((0, 0), (0, 1))
        h_tilde, _ = degree_floor_vector((2, 3), (1, 0), 5)
        assert sum(h_tilde) == -5 + 0  # floors telescope to -floor(e) = -e
        assert h_tilde == (2, 3) or sum(h_tilde) == -5

    def test_floor_telescope(self):
        rng = random.Random(7)
        for _ in range(40):
            r = rng.randint(1, 4)
            sizes = tuple(rng.randint(1, 3) for _ in range(r))
            order = list(range(r))
            rng.shuffle(order)
            e = rng.randint(-6, 6)
            h_tilde, h_full = degree_floor_vector(sizes, tuple(order), e)
            assert sum(h_tilde) == -e
            assert sum(h_full) == -e + r - 1

    def test_truncated_sum_converges(self):
        for order in ((0, 1), (1, 0)):
            ok, errors, tail = cone_series_check((1, 1), order, -1, LAM2)
            assert ok, (order, errors, tail)

    def test_three_blocks(self):
        lam = (0.3, 0.75, 1.9)
        for order in itertools.permutations(range(3)):
            ok, errors, tail = cone_series_check((1, 1, 1), order, 2, lam,
                                                 truncations=(8, 12, 16))
            assert ok, (order, errors, tail)

    def test_degree_one_collapse(self):
        for sizes in ((1, 1), (2, 1), (1, 1, 2)):
            r = len(sizes)
            lam = tuple(0.4 + 0.5 * i + 0.1j * i for i in range(r))
            for order in itertools.permutations(range(r)):
                assert cone_degree_one_identity(sizes, order, lam)

    def test_degree_one_floor_vector_all_shapes(self):
        # exact form of the collapse: at e = -1 the exponent vector is the
        # unit vector at the chamber-leading block, for every shape n <= 5
        def compositions(n):
            if n == 0:
                yield ()
                return
            for first in range(1, n + 1):
                for rest in compositions(n - first):
                    yield (first,) + rest

        for n in range(1, 6):
            for sizes in compositions(n):
                r = len(sizes)
                for order in itertools.permutations(range(r)):
                    h_tilde, h_full = degree_floor_vector(sizes, order, -1)
                    expected = tuple(1 if i == order[0] else 0 for i in range(r))
                    assert h_tilde == expected
                    assert h_full == tuple(1 for _ in range(r))

    def test_periodicity(self):
        rng = random.Random(8)
        for _ in range(30):
            r = rng.randint(1, 4)
            sizes = tuple(rng.randint(1, 3) for _ in range(r))
            order = list(range(r))
            rng.shuffle(order)
            assert cone_periodicity_check(sizes, tuple(order), rng.randint(-8, 8))

    def test_fourier_average(self):
        assert cone_fourier_average_check((1, 1), -1, LAM2)
        assert cone_fourier_average_check((2, 1), 2, LAM2)
        assert cone_fourier_average_check((1, 1, 1), 1, (0.4, 1.0, 2.5))


def ref_cone_indicator(sizes, order, H):
    """Reference chamber-cone membership: the Fraction weight values
    `cone_indicator` compared before it compared n times them."""
    n = sum(sizes)
    hp = [H[b] for b in order]
    sp = [sizes[b] for b in order]
    total = sum(hp)
    pre_h = pre_s = 0
    for a in range(len(sizes) - 1):
        pre_h += hp[a]
        pre_s += sp[a]
        w = Fraction(pre_h) - Fraction(pre_s, n) * total
        if order[a] < order[a + 1]:
            if not w <= 0:
                return False
        elif not w > 0:
            return False
    return True


def ref_cone_direct_sum(sizes, order, e, lam, trunc, exact=False):
    """Reference truncated sum: one power of each lambda_i per term, in mpmath
    or, with exact=True, in Gaussian rationals."""
    r = len(sizes)
    sign = (-1) ** sum(1 for a in range(r - 1) if order[a] > order[a + 1])
    if exact:
        lam = [Cyclotomic.gaussian(4, Fraction(x.real), Fraction(x.imag)) for x in lam]
    else:
        lam = [mpmath.mpc(x) for x in lam]
    total = 0
    for head in itertools.product(range(-trunc, trunc + 1), repeat=r - 1):
        last = e - sum(head)
        if abs(last) > trunc:
            continue
        H = list(head) + [last]
        if not ref_cone_indicator(sizes, order, H):
            continue
        term = 1
        for i in range(r):
            term = lam[i] ** (-H[i]) * term
        total = term + total
    return total * sign


CONE_SHAPES = [(1,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2),
               (3, 1, 2), (1, 1, 1, 1)]


class TestConeIndicatorMatchesReference:
    @pytest.mark.parametrize("sizes", CONE_SHAPES, ids=str)
    def test_grid(self, sizes):
        rng = random.Random(f"cone {sizes}")
        r = len(sizes)
        for order in itertools.permutations(range(r)):
            for _ in range(40):
                H = [rng.randint(-5, 5) for _ in range(r)]
                if rng.random() < 0.3:
                    H = [Fraction(h, rng.choice((1, 2, 3, 7))) for h in H]
                assert cone_indicator(sizes, order, H) == ref_cone_indicator(sizes, order, H)
            # multiples of the block sizes put every weight value at 0
            for c in (-2, 0, 1):
                H = [c * s for s in sizes]
                got = cone_indicator(sizes, order, H)
                assert got == ref_cone_indicator(sizes, order, H)
                assert got == all(order[a] < order[a + 1] for a in range(r - 1))

    def test_zero_weight_at_ascent_is_in_at_descent_out(self):
        assert cone_indicator((1, 1), (0, 1), (0, 0)) is True
        assert cone_indicator((1, 1), (1, 0), (0, 0)) is False
        assert cone_indicator((2, 1), (0, 1), (2, 1)) is True
        assert cone_indicator((2, 1), (1, 0), (2, 1)) is False
        assert cone_indicator((2, 1), (1, 0), (0, 3)) is True

    @pytest.mark.parametrize("sizes,order,e", [((1, 1), (0, 1), -1), ((2, 1), (1, 0), 2),
                                               ((1, 1, 1), (2, 0, 1), 1)])
    def test_direct_sum_bit_identical(self, sizes, order, e):
        # the float lambdas are read exactly; the integer sums over the
        # largest box equal the per-term Gaussian-rational sums exactly, and
        # the mpmath sums to rounding
        lam = [complex(0.4 + 0.3 * i, 0.1 * (i + 1)) for i in range(len(sizes))]
        sums = cone_direct_sum(sizes, order, e, lam, (3, 6))
        for trunc, got in zip((3, 6), sums, strict=True):
            assert got == ref_cone_direct_sum(sizes, order, e, lam, trunc, exact=True)
            want = ref_cone_direct_sum(sizes, order, e, lam, trunc)
            value = complex(*(float(Fraction(c, got.den)) for c in got.num))
            assert abs(value - complex(want)) <= 1e-12 * abs(complex(want))


def pair_weight(datum: DiscretePairDatum, l: int) -> Fraction:
    """The bracketed per-pair product of the degree-coprime spectral sum:
    prod over blocks of binom(S/xi, m/xi) fix^m (-1)^(m/xi) m!, zero unless
    every xi divides its m."""
    g = datum.genus
    if l < 1 or datum.n % l:
        raise ValueError("l must divide the total rank")
    a = datum.a_table()
    out = Fraction(1)
    for b in datum.blocks:
        xi = l // math.gcd(l, b.fix)
        if b.m % xi:
            return Fraction(0)
        s_top = -Fraction(
            (2 * g - 2) * b.d * sum(av * min(b.nu, nu) for nu, av in a.items()), b.fix
        )
        out *= (
            binom_ring(s_top / xi, b.m // xi)
            * Fraction(b.fix) ** b.m
            * (-1) ** (b.m // xi)
            * math.factorial(b.m)
        )
    return out


class TestPairWeight:
    def test_single_block(self):
        datum = DiscretePairDatum(2, (Block(1, 1, 1, 1, (1,)),))
        assert pair_weight(datum, 1) == 2  # binom(S,1) fix (-1) 1! with S = -2

    def test_xi_obstruction(self):
        # l = 4 divides n = 4 but xi = 4/gcd(4,1) = 4 does not divide m = 2
        datum = DiscretePairDatum(2, (Block(2, 1, 1, 2, (1, 1)),))
        assert pair_weight(datum, 4) == 0

    def test_l_must_divide_rank(self):
        datum = DiscretePairDatum(2, (Block(2, 1, 2, 3, (1, 1, 1)),))
        with pytest.raises(ValueError):
            pair_weight(datum, 4)

    def test_against_direct_formula(self):
        g = 2
        datum = DiscretePairDatum(g, (Block(2, 2, 1, 2, (2,)),))
        a = {2: 4}
        s_top = -Fraction((2 * g - 2) * 2 * (4 * 2), 1)
        expected = (s_top / 1) * (s_top - 1) / 2 * 1 * (-1) ** 2 * 2
        assert pair_weight(datum, 1) == expected


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


class TestWeylSumRegrouping:
    """Brute force over the permutations of the identical block copies: the
    signed, fix-weighted sum of the closed form over cycle profiles must
    collapse to the binomial bracket divided by the global prefactor."""

    def check(self, g, template, l):
        # template: list of (d, nu, fix, m)
        n = sum(d * nu * m for d, nu, fix, m in template)
        assert n % l == 0
        lhs = Fraction(0)
        ranges = [list(itertools.permutations(range(m))) for _, _, _, m in template]
        for choice in itertools.product(*ranges):
            profiles = [cycle_type(p) for p in choice]
            admissible = True
            sign = 1
            fixpow = 1
            size = 1
            for (d, nu, fix, m), profile in zip(template, profiles):
                xi = l // math.gcd(l, fix)
                for length in profile:
                    if (length * fix) % l:
                        admissible = False
                        break
                    sign *= (-1) ** (length // xi - 1)
                    fixpow *= fix ** (length - 1)
                    size *= length
                if not admissible:
                    break
            if not admissible:
                continue
            blocks = tuple(
                Block(d, nu, fix, m, profile)
                for (d, nu, fix, m), profile in zip(template, profiles)
            )
            datum = DiscretePairDatum(g, blocks)
            lhs += Fraction(sign, size) * fixpow * pair_closed_form(datum)
        probe = DiscretePairDatum(
            g, tuple(Block(d, nu, fix, m, (m,)) for d, nu, fix, m in template)
        )
        a_total = sum(probe.a_table().values())
        rhs = pair_weight(probe, l) / ((2 * g - 2) * n * a_total)
        assert lhs == rhs, (template, l, lhs, rhs)

    def test_single_copy(self):
        self.check(2, [(1, 1, 1, 1)], 1)

    def test_single_block_multiplicities(self):
        for m in (2, 3, 4):
            self.check(2, [(1, 1, 1, m)], 1)
            self.check(3, [(2, 1, 2, m)], 1)

    def test_twisted_degrees(self):
        # l > 1 activates the divisibility constraint on cycle lengths
        self.check(2, [(1, 1, 1, 2)], 2)
        self.check(2, [(2, 1, 2, 2)], 2)
        self.check(2, [(2, 1, 2, 3)], 2)
        self.check(2, [(1, 2, 1, 3)], 3)

    def test_several_blocks(self):
        self.check(2, [(1, 1, 1, 2), (1, 2, 1, 2)], 1)
        self.check(3, [(2, 1, 2, 2), (1, 1, 1, 3)], 1)
        self.check(2, [(1, 1, 1, 2), (1, 3, 1, 2)], 2)

    def test_obstructed_profile_gives_zero(self):
        # xi does not divide m: no admissible permutation and a zero bracket
        g, template, l = 2, [(2, 1, 1, 2)], 4
        probe = DiscretePairDatum(g, (Block(2, 1, 1, 2, (2,)),))
        assert pair_weight(probe, l) == 0
        self.check(g, template, l)


class TestCuspidalEnumeration:
    """With integer tables the inertial classes can be enumerated outright:
    choose the distinct factors and their multiplicities, divide by the
    stabilizer, and the weighted total must agree with the generating-series
    coefficient used by the splitting sum."""

    @staticmethod
    def bracket(top, m, xi, d):
        from locsys.combinat import binom_ring
        if m % xi:
            return Fraction(0)
        return binom_ring(top, m // xi) * Fraction(d) ** m * (-1) ** (m // xi) \
            * math.factorial(m)

    def enumerate_total(self, a, l, s, g, dtable):
        from locsys.combinat import binom_ring, multinomial, partitions

        symbols = sorted(dtable)
        totals = Fraction(0)

        def rec(idx, remaining, acc):
            nonlocal totals
            if idx == len(symbols):
                if remaining == 0:
                    totals += acc
                return
            j, d = symbols[idx]
            count = dtable[(j, d)]
            xi = l // math.gcd(l, d)
            top = -Fraction((2 * g - 2) * j, xi * d) * s

            options = [(0, Fraction(1))]
            budget = remaining // j
            for total_mult in range(1, budget + 1):
                for lam in partitions(total_mult):
                    distinct = sum(lam.values())
                    if distinct > count:
                        continue
                    ways = binom_ring(Fraction(count), distinct) * multinomial(
                        list(lam.values())
                    )
                    weight = Fraction(1)
                    for mult, b in lam.items():
                        per = self.bracket(top, mult, xi, d) / (
                            Fraction(d) ** mult * math.factorial(mult)
                        )
                        weight *= per ** b
                    options.append((total_mult * j, ways * weight))
            for used, weight in options:
                if used <= remaining:
                    rec(idx + 1, remaining - used, acc * weight)

        rec(0, a, Fraction(1))
        return totals

    def series_coefficient(self, a, l, s, g, dtable):
        from locsys.combinat import binom_ring

        coeffs = [Fraction(0)] * (a + 1)
        coeffs[0] = Fraction(1)
        for (j, d), count in sorted(dtable.items()):
            xi = l // math.gcd(l, d)
            top = -Fraction((2 * g - 2) * j, xi * d) * s
            step = j * xi
            factor = [Fraction(0)] * (a + 1)
            i = 0
            while i * step <= a:
                factor[i * step] = (-1) ** i * binom_ring(top * count, i)
                i += 1
            new = [Fraction(0)] * (a + 1)
            for u in range(a + 1):
                if coeffs[u]:
                    for v in range(a + 1 - u):
                        if factor[v]:
                            new[u + v] += coeffs[u] * factor[v]
            coeffs = new
        return coeffs[a]

    def test_small_tables(self):
        rng = random.Random(17)
        for _ in range(25):
            a = rng.randint(1, 4)
            l = rng.choice([1, 2])
            g = rng.choice([2, 3])
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            dtable = {}
            for j in range(1, a + 1):
                for d in range(1, j + 1):
                    if j % d == 0:
                        dtable[(j, d)] = rng.randint(0, 3)
            got = self.enumerate_total(a, l, s, g, dtable)
            want = self.series_coefficient(a, l, s, g, dtable)
            assert got == want, (a, l, s, g, dtable, got, want)


class TestAggregation:
    def test_single_coefficient(self):
        assert aggregation_check(1, 1, Fraction(3, 2), 2, {(1, 1): Fraction(5)})

    def test_random_tables(self):
        rng = random.Random(9)
        for _ in range(60):
            a = rng.randint(1, 4)
            l = rng.choice([1, 2])
            g = rng.choice([2, 3])
            dtable = {}
            for j in range(1, a + 1):
                for d in range(1, j + 1):
                    if j % d == 0:
                        dtable[(j, d)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert aggregation_check(a, l, s, g, dtable)
