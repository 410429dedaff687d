"""Spectral-side machinery: cofactor calculus and the matrix-tree theorem,
the Kirchhoff-type matrix attached to a discrete pair with its closed form,
zero/pole counts of normalized L-quotients, character sums over orbit data,
chamber-family limits, and the degree-restricted cone series.

All identity checks are exact in rationals except where a limit or an
integral is intrinsically numeric; those use mpmath with tolerances far
below anything the integer answers could confuse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .combinat import binom_ring, divisors, mobius, partitions


class TheoremViolation(RuntimeError):
    """Two provably-equal computations disagreed."""


class NumericInstability(RuntimeError):
    """A limit or quadrature did not converge to the requested tolerance."""


# --------------------------------------------------------------------------
# Exact matrix helpers


def _integer_rows(rows):
    """The rows scaled to integers, each by the lcm of its denominators, and
    those scales."""
    a = []
    scales = []
    for row in rows:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        m = math.lcm(*[x.denominator for x in row])
        a.append([x.numerator * (m // x.denominator) for x in row])
        scales.append(m)
    return a, scales


def _bareiss(a) -> int:
    """Determinant of the square integer matrix a (overwritten), by Bareiss's
    fraction-free elimination: each step divides exactly by the previous
    pivot, so every intermediate entry is a minor of a."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        akk = top[k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (akk * row[j] - aik * top[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def mat_det(rows) -> Fraction:
    """Fraction determinant: the rows are scaled to integers and the integer
    determinant is divided by the product of the scales."""
    a, scales = _integer_rows(rows)
    return Fraction(_bareiss(a), math.prod(scales))


def char_poly_coeffs(rows):
    """Coefficients c_0..c_n of det(A + x Id), by exact interpolation.

    With the rows scaled to integers (A = S^-1 a, S = diag(scales)),
    f(x) = det(a + x S) = det(S) det(A + x Id) has integer coefficients, so
    its values at x = 0..n, their divided differences (exact `//` by the
    node gap j) and the Newton-form expansion all stay in integers; each
    coefficient is divided by det(S) once at the end.
    """
    n = len(rows)
    a, scales = _integer_rows(rows)
    coef = []
    for x in range(n + 1):
        shifted = [list(row) for row in a]
        for i in range(n):
            shifted[i][i] += x * scales[i]
        coef.append(_bareiss(shifted))
    # Newton's divided differences at the nodes 0..n, then expand.
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) // j
    poly = [0] * (n + 1)
    acc = [1]
    for i, c in enumerate(coef):
        for k, v in enumerate(acc):
            poly[k] += c * v
        nxt = [0] * (len(acc) + 1)
        for k, v in enumerate(acc):
            nxt[k] -= i * v
            nxt[k + 1] += v
        acc = nxt
    scale = math.prod(scales)
    return [Fraction(c, scale) for c in poly]


def det_slope(rows) -> Fraction:
    """Coefficient of x in det(A + x Id), divided by the size.

    Equals the average principal cofactor, and for a Kirchhoff matrix the
    spanning-tree polynomial.  Requires det A = 0.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    poly = char_poly_coeffs(rows)
    if poly[0] != 0:
        raise ValueError("matrix must be singular")
    return poly[1] / n


def principal_cofactors(rows):
    n = len(rows)
    out = []
    for i in range(n):
        minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        out.append(mat_det(minor) if minor else Fraction(1))
    return out


def det_slope_identities_check(rows, u, v) -> bool:
    """The singular-matrix slope equals the cofactor average, and (for zero
    row / zero row+column sums) the two bordered-determinant forms."""
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    base = det_slope(rows)
    if base != sum(principal_cofactors(rows), Fraction(0)) / n:
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
        cofs = principal_cofactors(rows)
        if any(c != cofs[0] for c in cofs):
            return False
    return True


# --------------------------------------------------------------------------
# Spanning trees


def spanning_trees(r: int):
    """Edge sets of all spanning trees of the complete graph on 0..r-1,
    enumerated through Pruefer sequences.

    Each sequence is decoded in one pass: `ptr` walks up to the smallest
    untouched leaf, and a vertex whose last occurrence is just consumed is
    the next leaf at once when it lies below `ptr` (it is then the smallest
    leaf).  The last edge joins the final leaf to r - 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if r == 1:
        yield []
        return
    last = r - 1
    for seq in itertools.product(range(r), repeat=r - 2):
        degree = [1] * r
        for x in seq:
            degree[x] += 1
        ptr = degree.index(1)
        leaf = ptr
        edges = []
        for x in seq:
            edges.append((leaf, x) if leaf < x else (x, leaf))
            degree[x] -= 1
            if degree[x] == 1 and x < ptr:
                leaf = x
            else:
                ptr = degree.index(1, ptr + 1)
                leaf = ptr
        edges.append((leaf, last))
        yield edges


def spanning_tree_sum(r: int, weights) -> Fraction:
    """Sum over spanning trees of the product of edge weights.

    weights maps sorted vertex pairs (i, j), i < j, to ints or Fractions.
    They are scaled to integers by the lcm d of their denominators; each
    tree has r - 1 edges, so the sum is the integer one over d^(r-1).
    """
    if r > 7:
        raise ValueError("tree enumeration capped at 7 vertices")
    d = math.lcm(*[w.denominator for w in weights.values()])
    scaled = {e: w.numerator * (d // w.denominator) for e, w in weights.items()}
    total = 0
    for edges in spanning_trees(r):
        total += math.prod(map(scaled.__getitem__, edges))
    return Fraction(total, d ** (r - 1))


def block_det_identity_check(a, us) -> bool:
    """det(Id_N - (a_ij J) diag(u)) == det(Id_k - (a_ij sum u^j)) by direct
    expansion of both sides."""
    k = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    us = [[Fraction(x) for x in u] for u in us]
    sizes = [len(u) for u in us]
    n_total = sum(sizes)
    flat = [x for u in us for x in u]
    big = [[Fraction(0)] * n_total for _ in range(n_total)]
    row0 = 0
    for i in range(k):
        col0 = 0
        for j in range(k):
            for r in range(sizes[i]):
                for c in range(sizes[j]):
                    big[row0 + r][col0 + c] = a[i][j] * flat[col0 + c]
            col0 += sizes[j]
        row0 += sizes[i]
    lhs = mat_det([[(1 if i == j else 0) - big[i][j] for j in range(n_total)]
                   for i in range(n_total)])
    small = [[(1 if i == j else 0) - a[i][j] * sum(us[j], Fraction(0)) for j in range(k)]
             for i in range(k)]
    return lhs == mat_det(small)


# --------------------------------------------------------------------------
# Discrete pair data


@dataclass(frozen=True)
class Block:
    """One distinct factor of a discrete pair: cuspidal rank d, Speh size nu,
    twist-fixator order fix (divides d), multiplicity m, and the cycle
    lengths of the permutation acting on the m copies."""

    d: int
    nu: int
    fix: int
    m: int
    orbits: tuple

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))
        if min(self.d, self.nu, self.fix, self.m) < 1:
            raise ValueError("block parameters must be positive")
        if self.d % self.fix:
            raise ValueError("fix must divide the cuspidal rank")
        if sum(self.orbits) != self.m or any(l < 1 for l in self.orbits):
            raise ValueError("orbit lengths must be positive and sum to m")

    @property
    def rank(self):
        return self.d * self.nu


@dataclass(frozen=True)
class DiscretePairDatum:
    genus: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.genus < 2:
            raise ValueError("need genus >= 2")
        if not self.blocks:
            raise ValueError("need at least one block")

    @property
    def n(self):
        return sum(b.m * b.d * b.nu for b in self.blocks)

    def a_table(self):
        """a_nu = sum of m*d over the blocks with Speh size nu."""
        out = {}
        for b in self.blocks:
            out[b.nu] = out.get(b.nu, 0) + b.m * b.d
        return out

    def blocks_with_nu(self, nu):
        return [b for b in self.blocks if b.nu == nu]

    def orbit_index(self):
        """Vertices of the associated graph: (block position, orbit position)."""
        return [(i, s) for i, b in enumerate(self.blocks) for s in range(len(b.orbits))]

    def to_obj(self):
        return {
            "g": self.genus,
            "blocks": [
                {"d": b.d, "nu": b.nu, "fix": b.fix, "m": b.m, "orbits": list(b.orbits)}
                for b in self.blocks
            ],
        }

    @classmethod
    def from_obj(cls, obj):
        """Read to_obj's form; every field must be a JSON integer (a float,
        bool or string is rejected, not truncated)."""
        fields = [obj["g"]] + [x for b in obj["blocks"]
                               for x in (b["d"], b["nu"], b["fix"], b["m"], *b["orbits"])]
        bad = [x for x in fields if type(x) is not int]
        if bad:
            raise ValueError(f"discrete pair fields must be JSON integers, not {bad[0]!r}")
        return cls(obj["g"], tuple(Block(b["d"], b["nu"], b["fix"], b["m"], b["orbits"])
                                   for b in obj["blocks"]))


def zero_pole_count(b1: Block, b2: Block, g: int, same_inertial: bool) -> int:
    """N - P of the normalized L-quotient attached to two discrete factors:
    min(nu1, nu2)(2g-2) d1 d2, plus fix1 when the factors coincide."""
    if g < 2:
        raise ValueError("need genus >= 2")
    base = min(b1.nu, b2.nu) * (2 * g - 2) * b1.d * b2.d
    if same_inertial:
        if (b1.d, b1.nu, b1.fix) != (b2.d, b2.nu, b2.fix):
            raise ValueError("same_inertial requires identical parameters")
        base += b1.fix
    return base


def _pair_xy(datum: DiscretePairDatum):
    g = datum.genus
    a = datum.a_table()
    x = {}
    y = {}
    for i, bi in enumerate(datum.blocks):
        for j, bj in enumerate(datum.blocks):
            x[(i, j)] = zero_pole_count(bi, bj, g, i == j)
        y[i] = bi.fix * bi.m + (2 * g - 2) * bi.d * sum(
            av * min(nu, bi.nu) for nu, av in a.items()
        )
    return x, y


def pair_matrix(datum: DiscretePairDatum):
    """The Kirchhoff-type matrix over the orbit vertices; symmetric with zero
    row and column sums (asserted)."""
    idx = datum.orbit_index()
    x, y = _pair_xy(datum)
    size = len(idx)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for p, (i, s) in enumerate(idx):
        ls = datum.blocks[i].orbits[s]
        for q, (j, t) in enumerate(idx):
            lt = datum.blocks[j].orbits[t]
            rows[p][q] = Fraction(-ls * lt * x[(i, j)])
        rows[p][p] += ls * y[i]
    for p in range(size):
        if sum(rows[p], Fraction(0)) != 0:
            raise TheoremViolation("row sums of the pair matrix do not vanish")
        if sum(rows[q][p] for q in range(size)) != 0:
            raise TheoremViolation("column sums of the pair matrix do not vanish")
        for q in range(size):
            if rows[p][q] != rows[q][p]:
                raise TheoremViolation("pair matrix is not symmetric")
    return rows


def pair_tree_weights(datum: DiscretePairDatum):
    """Edge weights over the orbit vertices for the spanning-tree oracle."""
    idx = datum.orbit_index()
    x, _ = _pair_xy(datum)
    weights = {}
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            (i, s), (j, t) = idx[p], idx[q]
            weights[(p, q)] = Fraction(
                datum.blocks[i].orbits[s] * datum.blocks[j].orbits[t] * x[(i, j)]
            )
    return len(idx), weights


def pair_closed_form(datum: DiscretePairDatum) -> Fraction:
    """Closed form of the spanning-tree sum over the orbit vertices."""
    g = datum.genus
    a = datum.a_table()
    n = datum.n
    sum_a = sum(a.values())
    w_abs = 1
    for b in datum.blocks:
        for l in b.orbits:
            w_abs *= l
    value = Fraction(w_abs)
    for b in datum.blocks:
        value *= b.d
    value *= (2 * g - 2) ** (len(datum.blocks) - 1)
    for mu in a:
        i_mu = len(datum.blocks_with_nu(mu))
        value *= Fraction(sum(av * min(mu, nu) for nu, av in a.items())) ** i_mu
    value /= n * sum_a
    _, y = _pair_xy(datum)
    for i, b in enumerate(datum.blocks):
        value *= Fraction(y[i]) ** (len(b.orbits) - 1)
    return value


def triple_oracle(datum: DiscretePairDatum):
    """(spanning-tree sum, matrix slope, closed form) for a discrete pair."""
    r, weights = pair_tree_weights(datum)
    tree = spanning_tree_sum(r, weights)
    slope = det_slope(pair_matrix(datum))
    closed = pair_closed_form(datum)
    return tree, slope, closed


# --------------------------------------------------------------------------
# Character sums over orbit data


def orbit_character_sum_root(lengths, fixes) -> int:
    """Character-sum form: sum over the d-th roots of unity of
    lambda^(1 - sum l_i (l_i - 1) fix_i / 2), d = gcd of the l_i fix_i.
    Computed exactly as d * [d divides the exponent]."""
    d = 0
    for l, f in zip(lengths, fixes):
        d = math.gcd(d, l * f)
    expo = 1 - sum(l * (l - 1) // 2 * f for l, f in zip(lengths, fixes))
    return d if expo % d == 0 else 0


def orbit_character_sum_mobius(lengths, fixes) -> int:
    """Moebius form: sum over l | gcd(l_i fix_i) of
    mu(l) (-1)^(sum_j (l_j + l_j / (l / gcd(l, fix_j))))."""
    d = 0
    for l, f in zip(lengths, fixes):
        d = math.gcd(d, l * f)
    total = 0
    for l in divisors(d):
        mu = mobius(l)
        if mu == 0:
            continue
        expo = 0
        for lj, fj in zip(lengths, fixes):
            step = l // math.gcd(l, fj)
            if lj % step:
                raise ValueError("orbit data violates the divisor structure")
            expo += lj + lj // step
        total += mu * (-1) ** expo
    return total


def orbit_character_sum(lengths, fixes) -> int:
    """Both evaluations, with their agreement asserted."""
    if len(lengths) != len(fixes) or not lengths:
        raise ValueError("need matching nonempty length/fix lists")
    if min(lengths) < 1 or min(fixes) < 1:
        raise ValueError("entries must be positive")
    a = orbit_character_sum_root(lengths, fixes)
    b = orbit_character_sum_mobius(lengths, fixes)
    if a != b:
        raise TheoremViolation(
            f"character sum mismatch for lengths={lengths} fixes={fixes}: {a} vs {b}"
        )
    return a


# --------------------------------------------------------------------------
# Chamber families


def _orderings(r):
    return itertools.permutations(range(r))


def chamber_sum_at(mu_values, cfuncs, r):
    """sum over chamber orderings of theta^{-1} times the product of the
    c-functions over the chamber's positive pairs."""
    total = mpmath.mpf(0)
    for order in _orderings(r):
        theta = mpmath.mpf(1)
        for a in range(r - 1):
            theta *= mu_values[order[a]] - mu_values[order[a + 1]]
        prod = mpmath.mpf(1)
        for a in range(r):
            for b in range(a + 1, r):
                i, j = order[a], order[b]
                prod *= cfuncs[(i, j)](mu_values[i] / mu_values[j])
        total += prod / theta
    return total


def oriented_basis_sum(r, derivs):
    """sum over subsets of roots forming bases of the trace-zero space of the
    product of the derivatives at 1.  Bases = spanning trees of the complete
    graph with an orientation chosen independently on each edge."""
    total = 0
    for edges in spanning_trees(r):
        for orient in itertools.product((0, 1), repeat=len(edges)):
            term = 1
            for (u, v), o in zip(edges, orient):
                term = term * derivs[(u, v) if o == 0 else (v, u)]
            total = total + term
    return total


def chamber_limit(r: int, cfuncs, derivs=None, dps: int = 50):
    """Numeric limit of the chamber sum at 1 vs the oriented-basis sum.

    cfuncs maps ordered pairs (i, j), i != j, to callables with c(1) = 1.
    derivs optionally supplies exact derivatives at 1; otherwise they are
    finite-differenced.  Returns (extrapolated limit, basis sum).
    """
    if r > 5:
        raise ValueError("chamber enumeration capped at r = 5")
    with mpmath.workdps(dps):
        if derivs is None:
            h = mpmath.mpf(10) ** (-dps // 3)
            derivs = {
                key: (f(1 + h) - f(1 - h)) / (2 * h) for key, f in cfuncs.items()
            }
        xi = [mpmath.mpf(2 * k + 1) / (3 * k + 2) for k in range(r)]
        shift = sum(xi) / r
        xi = [x - shift for x in xi]  # trace zero keeps prod(mu_i) ~ 1
        ts = [mpmath.mpf(1) / 2 ** (5 + j) for j in range(6)]
        vals = []
        for t in ts:
            mu = [mpmath.exp(x * t) for x in xi]
            vals.append(chamber_sum_at(mu, cfuncs, r))
        # Neville extrapolation to t = 0; the last-column step estimates the
        # remaining error.
        tbl = list(vals)
        previous = None
        for j in range(1, len(ts)):
            for i in range(len(ts) - 1, j - 1, -1):
                tbl[i] = (tbl[i - 1] * ts[i] - tbl[i] * ts[i - j]) / (ts[i] - ts[i - j])
            previous = tbl[-2]
        limit = tbl[-1]
        scale = max(abs(limit), mpmath.mpf(1))
        if abs(limit - previous) > scale * mpmath.mpf(10) ** -8:
            raise NumericInstability("chamber-limit extrapolation did not settle")
        basis = oriented_basis_sum(r, derivs)
        return limit, basis


class RationalFunc:
    """Rational function with exact integer/rational coefficients, low to
    high degree; used for zero/pole counting and circle integration."""

    def __init__(self, num, den=(1,)):
        self.num = [Fraction(c) for c in num]
        self.den = [Fraction(c) for c in den]

    def __call__(self, z):
        n = sum(c * z ** i for i, c in enumerate(self.num) if c)
        d = sum(c * z ** i for i, c in enumerate(self.den) if c)
        return n / d

    def log_deriv(self, z):
        """f'/f at z."""
        n = sum(c * z ** i for i, c in enumerate(self.num) if c)
        dn = sum(i * c * z ** (i - 1) for i, c in enumerate(self.num) if i and c)
        d = sum(c * z ** i for i, c in enumerate(self.den) if c)
        dd = sum(i * c * z ** (i - 1) for i, c in enumerate(self.den) if i and c)
        return dn / n - dd / d

    def _roots_inside(self, coeffs):
        coeffs = [c for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        deg = len(coeffs) - 1
        if deg < 1:
            return 0
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(coeffs)], maxsteps=200, extraprec=60)
        inside = 0
        for root in roots:
            m = abs(root)
            if abs(m - 1) < 1e-9:
                raise ValueError("root too close to the unit circle")
            if m < 1:
                inside += 1
        return inside

    def zero_pole_difference(self) -> int:
        return self._roots_inside(self.num) - self._roots_inside(self.den)


def circle_count_check(c12: RationalFunc, c21: RationalFunc, tol=1e-6):
    """For a two-block chamber family, the circle integral of the limit
    integrand equals the integer zero/pole count sum.  Returns
    (integral value, exact integer)."""
    expected = c12.zero_pole_difference() + c21.zero_pole_difference()

    def integrand(theta):
        w = mpmath.exp(1j * theta)
        return (c12.log_deriv(w) * w + c21.log_deriv(1 / w) / w).real

    with mpmath.workdps(30):
        val, err = mpmath.quad(integrand, [0, 2 * mpmath.pi], error=True)
        val = val / (2 * mpmath.pi)
        if err > mpmath.mpf(tol) / 10:
            raise NumericInstability(f"quadrature error estimate {err} too large")
    if abs(val - expected) > tol:
        raise TheoremViolation(f"circle integral {val} vs count {expected}")
    return float(val), expected


# --------------------------------------------------------------------------
# Degree-restricted cone series


def degree_floor_vector(sizes, order, e: int):
    """The exponent vectors of the degree-e cone series for the chamber given
    by `order` (a permutation of block positions): the floor-difference
    vector and its shift by the indicator of non-leading positions."""
    r = len(sizes)
    if sorted(order) != list(range(r)):
        raise ValueError("order must be a permutation of the block positions")
    n = sum(sizes)
    prefix = [0]
    for b in order:
        prefix.append(prefix[-1] + sizes[b])
    comp = [
        (e * prefix[a]) // n - (e * prefix[a + 1]) // n
        for a in range(r)
    ]
    h_tilde = [0] * r
    shift = [0] * r
    for a, b in enumerate(order):
        h_tilde[b] = comp[a]
        shift[b] = 0 if a == 0 else 1
    h_full = [h_tilde[i] + shift[i] for i in range(r)]
    return tuple(h_tilde), tuple(h_full)


def cone_descents(order):
    return sum(1 for a in range(len(order) - 1) if order[a] > order[a + 1])


def cone_closed_form(sizes, order, e: int, lam):
    """lambda^{h_tilde} / prod over chamber-adjacent pairs (1 - lam_u/lam_v)."""
    h_tilde, _ = degree_floor_vector(sizes, order, e)
    value = mpmath.mpf(1)
    for i, h in enumerate(h_tilde):
        value = value * mpmath.mpc(lam[i]) ** h
    for a in range(len(order) - 1):
        u, v = order[a], order[a + 1]
        value = value / (1 - mpmath.mpc(lam[u]) / mpmath.mpc(lam[v]))
    return value


def cone_indicator(sizes, order, H) -> bool:
    """Membership of an integer vector in the chamber cone: the dual-basis
    weight values must be <=0 at ascent positions and >0 at descents."""
    return _in_cone(_cone_walls(sizes, order), sum(sizes), order, H)


def _cone_walls(sizes, order):
    """(prefix size, ascent?) at each of the chamber's r - 1 walls."""
    walls = []
    pre_s = 0
    for a in range(len(order) - 1):
        pre_s += sizes[order[a]]
        walls.append((pre_s, order[a] < order[a + 1]))
    return walls


def _in_cone(walls, n, order, H) -> bool:
    # compares n times each weight value pre_h - (pre_s / n) total, which has
    # the same sign and is exact for integer or rational H
    total = sum(H[b] for b in order)
    pre_h = 0
    for (pre_s, ascent), b in zip(walls, order):
        pre_h += H[b]
        nw = pre_h * n - pre_s * total
        if (nw > 0) if ascent else (nw <= 0):
            return False
    return True


def cone_direct_sum(sizes, order, e: int, lam, truncations):
    """Truncated lattice sums (-1)^descents sum over H with sum H = e of
    lambda^{-H} over the cone, one per truncation t: the points with
    max |H_i| <= t.  One pass over the largest box meets the points of each
    smaller box in the same lexicographic order, so each sum adds the same
    terms in the same order as a pass over its own box."""
    r = len(sizes)
    sign = (-1) ** cone_descents(order)
    walls = _cone_walls(sizes, order)
    n = sum(sizes)
    big = max(truncations)
    # lambda_i^{-h} for every coordinate value h the box can hold
    powers = [{h: mpmath.mpc(lam[i]) ** (-h) for h in range(-big, big + 1)}
              for i in range(r)]
    totals = [mpmath.mpc(0)] * len(truncations)
    for head in itertools.product(range(-big, big + 1), repeat=r - 1):
        last = e - sum(head)
        if abs(last) > big:
            continue
        H = head + (last,)
        if not _in_cone(walls, n, order, H):
            continue
        term = mpmath.mpf(1)
        for i in range(r):
            term = term * powers[i][H[i]]
        reach = max(abs(h) for h in H)
        for k, trunc in enumerate(truncations):
            if reach <= trunc:
                totals[k] += term
    return [sign * total for total in totals]


def cone_series_check(sizes, order, e: int, lam, truncations=(6, 10, 14)):
    """Direct sums at growing truncation against the closed form; errors must
    shrink and the last must be inside a geometric tail bound."""
    closed = cone_closed_form(sizes, order, e, lam)
    # Moduli of the geometric steps along the cone generators: each adjacent
    # pair contributes the root direction or its negative depending on the
    # chamber's descent pattern; all must contract inside the region where
    # the earlier-indexed coordinates are smaller in modulus.
    r = len(order)
    ratios = []
    for a in range(r - 1):
        u, v = order[a], order[a + 1]
        q = abs(mpmath.mpc(lam[u]) / mpmath.mpc(lam[v]))
        ratios.append(q if u < v else 1 / q)
    rho = max(ratios) if ratios else mpmath.mpf(0)
    if rho >= 1:
        raise ValueError("sample point outside the convergence region")
    errors = [abs(approx - closed)
              for approx in cone_direct_sum(sizes, order, e, lam, truncations)]
    scale = max(abs(closed), mpmath.mpf(1))
    depth = truncations[-1]
    tail = scale * rho ** depth * depth ** r * 16 / (1 - rho) ** r
    ok = errors[-1] <= tail and all(
        errors[i + 1] <= errors[i] + mpmath.mpf(10) ** -25 for i in range(len(errors) - 1)
    )
    return ok, [float(err) for err in errors], float(tail)


def cone_degree_one_identity(sizes, order, lam) -> bool:
    """For e = -1 the closed form collapses to
    (-1)^(r-1) prod(lam_i) / prod adjacent (lam_u - lam_v)."""
    r = len(order)
    with mpmath.workdps(40):
        closed = cone_closed_form(sizes, order, -1, lam)
        direct = mpmath.mpf(1)
        for x in lam:
            direct = direct * mpmath.mpc(x)
        for a in range(r - 1):
            u, v = order[a], order[a + 1]
            direct = direct / (mpmath.mpc(lam[u]) - mpmath.mpc(lam[v]))
        direct = direct * (-1) ** (r - 1)
        scale = max(abs(closed), abs(direct), mpmath.mpf(1))
        return abs(closed - direct) < scale * mpmath.mpf(10) ** -30


def cone_periodicity_check(sizes, order, e: int) -> bool:
    """Shifting the degree by the total rank shifts the exponent vector down
    by the block sizes, so the series only depends on e mod n on the torus
    where prod lam_i^{n_i} = 1."""
    h1, _ = degree_floor_vector(sizes, order, e)
    h2, _ = degree_floor_vector(sizes, order, e + sum(sizes))
    return all(h1[i] - h2[i] == sizes[i] for i in range(len(sizes)))


def cone_fourier_average_check(sizes, e: int, lam, dps: int = 60) -> bool:
    """Averaging the full cone series against degree characters isolates the
    degree-e part:  (1/n) sum_k zeta^{ek} S(lam * zeta^k) = S_e(lam)."""
    n = sum(sizes)
    r = len(sizes)
    with mpmath.workdps(dps):
        zeta = mpmath.exp(2j * mpmath.pi / n)
        for order in _orderings(r):
            want = cone_closed_form(sizes, order, e % n, lam)
            acc = mpmath.mpc(0)
            for k in range(1, n + 1):
                lam_k = [mpmath.mpc(x) * zeta ** k for x in lam]
                full = sum(
                    cone_closed_form(sizes, order, ep, lam_k) for ep in range(n)
                )
                acc += zeta ** (e * k) * full
            acc /= n
            if abs(acc - want) > mpmath.mpf(10) ** (-dps + 20):
                return False
    return True


# --------------------------------------------------------------------------
# Per-pair weights and the aggregation identity


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


def aggregation_check(a: int, l: int, s, g: int, dtable) -> bool:
    """The partition-indexed splitting sum equals the series coefficient.

    dtable maps (rank j, fixator order d) with d | j to rational weights.
    Left side: partitions (j^{c_j}) of `a`, then splittings of each c_j into
    k_d^j over d | j with xi_d | k_d^j, weighted by signed binomials of
    top(j, d) = -(2g-2) s D_j(d) j / (d xi_d).  Right side: [z^a] of the
    product over (j, d) of sum_i (-1)^i binom(top, i) z^(i j xi_d).
    """
    s = Fraction(s)

    def xi_of(d):
        return l // math.gcd(l, d)

    def top(j, d):
        return -Fraction(2 * g - 2) * s * Fraction(dtable[(j, d)]) * Fraction(
            j, d * xi_of(d)
        )

    # brute-force side
    lhs = Fraction(0)
    for lam in partitions(a):
        per_part = []
        feasible = True
        for j, cj in sorted(lam.mult.items()):
            ds = divisors(j)
            options = []
            for split in _compositions_with_zeros(cj, len(ds)):
                term = Fraction(1)
                ok = True
                for d, k in zip(ds, split):
                    xi = xi_of(d)
                    if k % xi:
                        ok = False
                        break
                    term *= (-1) ** (k // xi) * binom_ring(top(j, d), k // xi)
                if ok:
                    options.append(term)
            if not options:
                feasible = False
                break
            per_part.append(sum(options, Fraction(0)))
        if feasible:
            term = Fraction(1)
            for v in per_part:
                term *= v
            lhs += term

    # series side
    coeffs = [Fraction(0)] * (a + 1)
    coeffs[0] = Fraction(1)
    for j in range(1, a + 1):
        for d in divisors(j):
            xi = xi_of(d)
            step = j * xi
            factor = [Fraction(0)] * (a + 1)
            i = 0
            while i * step <= a:
                factor[i * step] = (-1) ** i * binom_ring(top(j, d), i)
                i += 1
            new = [Fraction(0)] * (a + 1)
            for u in range(a + 1):
                if coeffs[u]:
                    for v in range(a + 1 - u):
                        if factor[v]:
                            new[u + v] += coeffs[u] * factor[v]
            coeffs = new
    return lhs == coeffs[a]


def _compositions_with_zeros(total, slots):
    """All ways to write `total` as an ordered sum of `slots` nonnegative ints."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_with_zeros(total - first, slots - 1):
            yield (first,) + rest
