"""Spectral-side machinery: cofactor calculus and the matrix-tree theorem,
the Kirchhoff-type matrix attached to a discrete pair with its closed form,
zero/pole counts of normalized L-quotients, character sums over orbit data,
chamber-family limits, and the degree-restricted cone series.

Every check is exact.  The quantities that look analytic are algebraic: a
chamber limit is a Laurent coefficient of the chamber sum along an
exponential curve, taken on truncated power series over Q; a circle
integral is a winding number, computed by Cauchy indices and compared with
Schur-Cohn counts of the roots inside the circle; and the cone series
identities are identities of rational functions, checked in Gaussian
rationals and cyclotomic fields.  Their polynomials are `polyq` coefficient
lists, and `polyq` does all their arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import fields, polyq
from .combinat import binom_ring, divisors, mobius_divisors, partitions
from .series import TruncatedSeries


class TheoremViolation(RuntimeError):
    """Two provably-equal computations disagreed."""


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
    # Newton's divided differences at the nodes 0..n, then expand by Horner:
    # f = coef_0 + x (coef_1 + (x - 1) (coef_2 + ...))
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) // j
    poly = coef[n:]
    for i in reversed(range(n)):
        poly = polyq.add([coef[i]], polyq.mul(poly, [-i, 1]))
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


def det_slope_identities_check(rows, u, v) -> bool:
    """The singular-matrix slope equals the cofactor average, and (for zero
    row / zero row+column sums) the two bordered-determinant forms.

    The matrix, u and v are scaled to integers a, uu, vv by one common
    denominator d.  Both sides of each identity are homogeneous in that
    scaling, so with t = n * det_slope(a), the integer x-coefficient of
    det(a + x Id):
      - the principal cofactors of a sum to t;
      - det(a + 1 uu^T) = sum(uu) * t;
      - n * det(d a + uu vv^T) = sum(uu) * sum(vv) * t * d^(n-1).
    Each principal cofactor is one Bareiss pass on an integer minor.
    """
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    d = math.lcm(*[x.denominator for x in itertools.chain(u, v, *rows)])

    def scaled(xs):
        return [x.numerator * (d // x.denominator) for x in xs]

    a, uu, vv = [scaled(row) for row in rows], scaled(u), scaled(v)
    t = (n * det_slope(a)).numerator
    cofs = [_bareiss([[row[c] for c in range(n) if c != i] for r, row in enumerate(a) if r != i])
            for i in range(n)]
    if sum(cofs) != t:
        return False
    zero_rows = all(sum(row) == 0 for row in a)
    zero_cols = all(sum(row[c] for row in a) == 0 for c in range(n))
    if zero_rows:
        su = sum(uu)
        if su == 0:
            raise ValueError("need a test vector with nonzero sum")
        if _bareiss([[x + y for x, y in zip(row, uu)] for row in a]) != su * t:
            return False
    if zero_rows and zero_cols:
        sv = sum(vv)
        if sv == 0:
            raise ValueError("need a test vector with nonzero sum")
        bordered = [[d * x + ui * y for x, y in zip(row, vv)] for row, ui in zip(a, uu)]
        if n * _bareiss(bordered) != su * sv * t * d ** (n - 1):
            return False
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
        obj = _DATUM_FIELDS(obj)
        return cls(obj["g"], tuple(Block(**b) for b in obj["blocks"]))


_PAIR_INT = fields.integer("discrete pair fields")
_DATUM_FIELDS = fields.record({"g": _PAIR_INT, "blocks": fields.list_of(fields.record(
    {"d": _PAIR_INT, "nu": _PAIR_INT, "fix": _PAIR_INT, "m": _PAIR_INT,
     "orbits": fields.list_of(_PAIR_INT)}))})


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
    for l, mu in mobius_divisors(d):
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


def chamber_limit_exact(r: int, cfuncs, derivs=None):
    """Exact limit at 1 of the chamber sum, and the oriented-basis sum.

    cfuncs maps ordered pairs (i, j), i != j, to callables with c(1) = 1 that
    use only +, -, *, integer powers and division by scalars.  Along
    mu_i = exp(xi_i t) (xi rational, trace zero) each callable is evaluated on
    the truncated series of mu_i / mu_j = exp((xi_i - xi_j) t), and the
    chamber sum over the orderings of
        prod_{a<b} c_{order[a], order[b]} / prod_a (mu_{order[a]} - mu_{order[a+1]})
    is a Laurent series in t whose terms t^-(r-1) .. t^-1 must cancel (a
    TheoremViolation otherwise); its t^0 coefficient is the limit.
    derivs optionally supplies the derivatives at 1; otherwise each is the
    t-coefficient of c(exp t).  Returns (limit, basis sum), both exact.
    """
    if r > 5:
        raise ValueError("chamber enumeration capped at r = 5")
    cap = r - 1

    def exp_xt(x, top):
        """exp(x t) truncated after t^top: the coefficients x^k / k!."""
        return TruncatedSeries(top, [Fraction(x) ** k / math.factorial(k) for k in range(top + 1)])

    if derivs is None:
        exp_t = exp_xt(1, 1)
        derivs = {key: f(exp_t).coeff(1) for key, f in cfuncs.items()}
    xi = [Fraction(2 * k + 1, 3 * k + 2) for k in range(r)]
    shift = sum(xi) / r
    xi = [x - shift for x in xi]  # trace zero keeps prod(mu_i) = 1
    # the c-functions on the chamber's positive pairs, each pair evaluated once
    c_values = {(i, j): f(exp_xt(xi[i] - xi[j], cap)) for (i, j), f in cfuncs.items()}
    # 1 / ((mu_u - mu_v) / t) per ordered pair: each theta factor is t times a unit
    mu = [exp_xt(x, r) for x in xi]
    inv_steps = {}
    for u in range(r):
        for v in range(r):
            if u != v:
                step = (mu[u] - mu[v]).coeffs[1:]
                inv_steps[(u, v)] = TruncatedSeries(cap, step).inverse()
    # t^(r-1) times the chamber sum
    total = TruncatedSeries.from_terms(cap, (), Fraction(0))
    for order in _orderings(r):
        term = math.prod((inv_steps[pair] for pair in zip(order, order[1:])), start=1)
        for pair in itertools.combinations(order, 2):
            term = term * c_values[pair]
        total = total + term
    singular = total.coeffs[:cap]
    if any(singular):
        raise TheoremViolation(
            f"chamber sum has a pole at t = 0: coefficients {[str(c) for c in singular]} "
            f"of t^-{cap}..t^-1")
    return total.coeffs[cap], oriented_basis_sum(r, derivs)


def chamber_limit(r: int, cfuncs, derivs=None):
    """`chamber_limit_exact` with the limit as a float, so that it mixes with
    other numeric types; the basis sum stays exact."""
    limit, basis = chamber_limit_exact(r, cfuncs, derivs)
    return float(limit), basis


# --------------------------------------------------------------------------
# Zero/pole counts inside the unit circle


def _self_inversive_circle_root(g) -> bool:
    """Whether the real self-inversive g (reversed g = +-g) has a root on the
    unit circle.  Anti-palindromic g vanishes at 1 and palindromic g of odd
    degree at -1; a palindromic g of degree 2m is z^m R(z + 1/z), whose circle
    roots are the roots of R in [-2, 2] (Sturm)."""
    n = len(g) - 1
    if g[::-1] == [-c for c in g] or n % 2:
        return True
    if g[::-1] != g:
        raise ArithmeticError("gcd(p, p*) is not self-inversive")
    m = n // 2
    # z^k + z^-k = V_k(x), x = z + 1/z:  V_0 = 2, V_1 = x, V_k+1 = x V_k - V_k-1
    r_poly = [g[m]]
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        r_poly = polyq.add(r_poly, [g[m + k] * c for c in cur])
        prev, cur = cur, polyq.add([0] + cur, [-c for c in prev])
    return polyq.real_roots(polyq.squarefree(r_poly), -2, 2) > 0


def _schur_cohn(p):
    """Roots inside the unit circle of an integer polynomial p with none on
    it, by the Schur-Cohn recursion, or None where the recursion is singular.

    T p = p_0 p - p_n p* has degree < n and, by Rouche on |z| = 1 where
    |p*| = |p|, as many roots inside as p when |p_0| > |p_n| and as many as
    p* (n minus those of p) when |p_0| < |p_n|.  If T p vanishes, p is
    self-inversive: its roots pair as r, 1/conj(r), half of them inside.
    """
    n = len(p) - 1
    if n == 0:
        return 0
    a0, an = p[0], p[-1]
    t = polyq.trim([a0 * p[k] - an * p[n - k] for k in range(n)])
    if not t:
        return n // 2
    if not t[0]:
        return None
    inside = _schur_cohn(polyq.primitive(t))
    if inside is None:
        return None
    return inside if a0 * a0 > an * an else n - inside


# disc automorphisms z -> (z + a)/(1 + a z), a = u/v, tried until the
# Schur-Cohn recursion is regular; a = 0 is the identity
_DISC_SHIFTS = ((0, 1), (1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3), (1, 4), (-1, 4),
                (3, 4), (-3, 4), (1, 5), (-1, 5), (2, 5), (-2, 5))


def roots_in_disc(coeffs) -> int:
    """Roots (with multiplicity) of a nonzero rational polynomial strictly
    inside the unit circle; a root on the circle is a ValueError.

    The roots shared with the reciprocal polynomial p* = z^n p(1/z) are the
    circle roots and the pairs r, 1/conj(r): their product gcd(p, p*) is
    self-inversive, is checked for circle roots, and has half its roots
    inside.  The rest goes through the Schur-Cohn recursion, after a disc
    automorphism (which keeps the count) where the recursion is singular.
    """
    p = polyq.primitive(polyq.trim(coeffs))
    if not p:
        raise ValueError("the zero polynomial has no root count")
    inside = 0
    common = polyq.gcd(p, polyq.trim(p[::-1]))
    if len(common) > 1:
        if _self_inversive_circle_root(common):
            raise ValueError("root on the unit circle")
        inside = (len(common) - 1) // 2
        p = polyq.exact_quotient(p, common)
    for u, v in _DISC_SHIFTS:
        shifted = polyq.mobius_image(p, [u, v], [v, u]) if u else p
        count = _schur_cohn(polyq.primitive(polyq.trim(shifted)))
        if count is not None:
            return inside + count
    raise ArithmeticError(f"Schur-Cohn recursion singular for {p} under every disc shift")


def winding_number(coeffs) -> int:
    """Winding number about 0 of theta -> p(e^{i theta}), i.e.
    (1/2 pi i) times the integral of p'/p over the unit circle, for a nonzero
    rational polynomial; a root on the circle is a ValueError.

    Along z = (1 + iy)/(1 - iy), y real, the circle minus -1 is traversed
    once, and Q(iy) = (1 - iy)^n p(z) = A(y) + i B(y) has real A, B.  The
    argument of p changes by that of Q plus n pi, and the argument of Q by
    -pi Ind(B/A) (or pi Ind(A/B) when deg B > deg A), a Cauchy index.
    """
    p = polyq.primitive(polyq.trim(coeffs))  # a positive scale keeps the winding number
    n = len(p) - 1
    if n < 0:
        raise ValueError("the zero polynomial has no winding number")
    if n == 0:
        return 0
    if polyq.value(p, -1) == 0:
        raise ValueError("root on the unit circle")
    q = polyq.mobius_image(p, [1, 1], [1, -1])  # (1 - s)^n p((1 + s)/(1 - s))
    a = polyq.trim([c * (-1) ** (k // 2) if k % 2 == 0 else 0 for k, c in enumerate(q)])
    b = polyq.trim([c * (-1) ** (k // 2) if k % 2 else 0 for k, c in enumerate(q)])
    common = polyq.gcd(a, b)
    if len(common) > 1 and polyq.real_roots(polyq.squarefree(common), -math.inf, math.inf):
        raise ValueError("root on the unit circle")
    f0, f1, sign = (a, b, -1) if len(a) > len(b) else (b, a, 1)
    half_turns = sign * polyq.cauchy_index(f0, f1, -math.inf, math.inf)
    return (half_turns + n) // 2


class RationalFunc:
    """Rational function with exact integer/rational coefficients, low to
    high degree; used for zero/pole counting and the circle integral."""

    def __init__(self, num, den=(1,)):
        self.num = [Fraction(c) for c in num]
        self.den = [Fraction(c) for c in den]
        if not any(self.num) or not any(self.den):
            raise ValueError("numerator and denominator must be nonzero polynomials")

    def zero_pole_difference(self) -> int:
        """Zeros minus poles inside the unit circle, by Schur-Cohn counts."""
        return roots_in_disc(self.num) - roots_in_disc(self.den)


def circle_count_check(c12: RationalFunc, c21: RationalFunc):
    """For a two-block chamber family, the circle integral of the limit
    integrand, (1/2 pi) int Re(w c12'/c12(w) + c21'(1/w)/(w c21(1/w))) dtheta
    at w = e^{i theta}, equals the integer zero/pole count sum.  The integral
    is the winding number of c12 plus that of c21 (the substitution
    theta -> -theta turns the second term into c21's own), computed by
    Cauchy indices; the count is Schur-Cohn's.  Returns (integral, count)."""
    expected = c12.zero_pole_difference() + c21.zero_pole_difference()
    integral = sum(winding_number(f.num) - winding_number(f.den) for f in (c12, c21))
    if integral != expected:
        raise TheoremViolation(f"circle integral {integral} vs count {expected}")
    return integral, expected


# --------------------------------------------------------------------------
# Cyclotomic numbers


@functools.cache
def _cyclotomic_poly(m):
    """Integer coefficients of the m-th cyclotomic polynomial, low to high."""
    f = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d < m:
            f = polyq.exact_quotient(f, _cyclotomic_poly(d))
    return tuple(f)


class Cyclotomic:
    """An element (c_0 + c_1 z + ...) / den of Q(z), z = exp(2 pi i / m),
    with integer c_k held modulo the m-th cyclotomic polynomial and in lowest
    terms.  With m divisible by 4, i is z^(m/4); m = 4 gives the Gaussian
    rationals (c_0 + c_1 i) / den."""

    __slots__ = ("m", "num", "den", "_inverse")

    def __init__(self, m, num, den=1):
        num = polyq.rem_monic(num, _cyclotomic_poly(m))
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        self.m = m
        self.num = tuple(c // g for c in num)
        self.den = den // g
        self._inverse = None

    @classmethod
    def gaussian(cls, m, re, im):
        if m % 4:
            raise ValueError("i lies in Q(exp(2 pi i / m)) only for m divisible by 4")
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        return cls(m, [int(re * den)] + [0] * (m // 4 - 1) + [int(im * den)], den)

    @classmethod
    def root(cls, m, k):
        """z^k."""
        return cls(m, [0] * (k % m) + [1])

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic fields")
            return other
        other = Fraction(other)
        return Cyclotomic(self.m, [other.numerator], other.denominator)

    def __add__(self, other):
        other = self._lift(other)
        return Cyclotomic(self.m, [a * other.den + b * self.den
                                   for a, b in zip(self.num, other.num)],
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.m, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._lift(other)
        return Cyclotomic(self.m, polyq.mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def _conjugate(self, j):
        """The Galois conjugate z -> z^j, j prime to m."""
        out = [0] * self.m
        for k, c in enumerate(self.num):
            out[k * j % self.m] += c
        return Cyclotomic(self.m, out, self.den)

    def inverse(self):
        """The product of the other Galois conjugates over the norm, which is
        the rational self times all of them (computed once per element)."""
        if self._inverse is None:
            if not any(self.num):
                raise ZeroDivisionError("inverse of zero")
            rest = Cyclotomic(self.m, [1])
            for j in range(2, self.m):
                if math.gcd(j, self.m) == 1:
                    rest = rest * self._conjugate(j)
            norm = self * rest
            self._inverse = Cyclotomic(self.m, [c * norm.den for c in rest.num],
                                       rest.den * norm.num[0])
        return self._inverse

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = Cyclotomic(self.m, [1])
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.m, self.num, self.den) == (other.m, other.num, other.den)

    def abs2(self) -> Fraction:
        """Squared modulus of a Gaussian rational (m = 4)."""
        if self.m != 4:
            raise ValueError("abs2 is defined for Gaussian rationals only")
        re, im = self.num
        return Fraction(re * re + im * im, self.den * self.den)

    def __repr__(self):
        return f"Cyclotomic({self.m}, {list(self.num)}, {self.den})"


def _gaussian_parts(x):
    """(re, im) of a complex or real number, a Gaussian `Cyclotomic`, or a
    pair of rationals, as exact Fractions (a float is read exactly)."""
    if isinstance(x, Cyclotomic):
        if x.m != 4:
            raise ValueError("expected a Gaussian rational")
        return Fraction(x.num[0], x.den), Fraction(x.num[1], x.den)
    if isinstance(x, (tuple, list)):
        re, im = x
        return Fraction(re), Fraction(im)
    if isinstance(x, complex):
        return Fraction(x.real), Fraction(x.imag)
    return Fraction(x), Fraction(0)


def _gaussians(lam, m=4):
    out = [Cyclotomic.gaussian(m, *_gaussian_parts(x)) for x in lam]
    if any(not any(x.num) for x in out):
        raise ValueError("lambda entries must be nonzero")
    return out


def _sqrt_up(q) -> Fraction:
    """A rational upper bound, within 2^-32, of the square root of q >= 0."""
    q = Fraction(q)
    s = 1 << 32
    return Fraction(math.isqrt(q.numerator * q.denominator * s * s) + 1, q.denominator * s)


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


def _chamber_denominator(order, lam):
    """prod over chamber-adjacent pairs (1 - lam_u/lam_v)."""
    return math.prod((1 - lam[u] / lam[v] for u, v in zip(order, order[1:])), start=1)


def _floor_monomial(sizes, order, e: int, lam):
    """lambda^{h_tilde}."""
    h_tilde, _ = degree_floor_vector(sizes, order, e)
    return math.prod((x ** h for x, h in zip(lam, h_tilde)), start=1)


def cone_closed_form(sizes, order, e: int, lam):
    """lambda^{h_tilde} / prod over chamber-adjacent pairs (1 - lam_u/lam_v),
    exact; lam holds `Cyclotomic` numbers of one field."""
    return _floor_monomial(sizes, order, e, lam) / _chamber_denominator(order, lam)


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


def _scaled_inverse_powers(x, big):
    """Gaussian integers X_h, |h| <= big, with lambda^-h = X_h / (D N)^big,
    where lambda = p / D, p a Gaussian integer and N = |p|^2."""
    (pr, pi), d = x.num, x.den
    norm = pr * pr + pi * pi
    out = {}
    up = (1, 0)  # p^k
    down = (1, 0)  # conj(p)^k
    for k in range(big + 1):
        # lambda^k = p^k / D^k and lambda^-k = D^k conj(p)^k / N^k
        s = d ** (big - k) * norm ** big
        out[-k] = (up[0] * s, up[1] * s)
        s = d ** (big + k) * norm ** (big - k)
        out[k] = (down[0] * s, down[1] * s)
        up = (up[0] * pr - up[1] * pi, up[0] * pi + up[1] * pr)
        down = (down[0] * pr + down[1] * pi, down[1] * pr - down[0] * pi)
    return out, d * norm


def cone_direct_sum(sizes, order, e: int, lam, truncations):
    """Truncated lattice sums (-1)^descents sum over H with sum H = e of
    lambda^{-H} over the cone, one per truncation t: the points with
    max |H_i| <= t, as exact Gaussian `Cyclotomic` numbers.  Each lambda_i^-h
    is a Gaussian integer over the common scale (D_i N_i)^big, so one pass
    over the largest box sums in integers."""
    r = len(sizes)
    lam = _gaussians(lam)
    sign = (-1) ** cone_descents(order)
    walls = _cone_walls(sizes, order)
    n = sum(sizes)
    big = max(truncations)
    powers = []
    scale = 1
    for x in lam:
        table, base = _scaled_inverse_powers(x, big)
        powers.append(table)
        scale *= base ** big
    totals = [[0, 0] for _ in truncations]
    for head in itertools.product(range(-big, big + 1), repeat=r - 1):
        last = e - sum(head)
        if abs(last) > big:
            continue
        H = head + (last,)
        if not _in_cone(walls, n, order, H):
            continue
        tr, ti = 1, 0
        for i in range(r):
            xr, xi = powers[i][H[i]]
            tr, ti = tr * xr - ti * xi, tr * xi + ti * xr
        reach = max(abs(h) for h in H)
        for k, trunc in enumerate(truncations):
            if reach <= trunc:
                totals[k][0] += tr
                totals[k][1] += ti
    return [Cyclotomic(4, [sign * tr, sign * ti], scale) for tr, ti in totals]


def cone_series_check(sizes, order, e: int, lam, truncations=(6, 10, 14)):
    """Direct sums at growing truncation against the closed form, exactly:
    the errors' moduli must not grow and the last must be inside a geometric
    tail bound.  Moduli are compared squared, and the bound uses rational
    upper bounds of the contraction ratio rho and of |closed form|.  Returns
    (ok, error moduli as floats, tail bound as a float)."""
    lam = _gaussians(lam)
    closed = cone_closed_form(sizes, order, e, lam)
    # Squared moduli of the geometric steps along the cone generators: each
    # adjacent pair contributes the root direction or its negative depending
    # on the chamber's descent pattern; all must contract inside the region
    # where the earlier-indexed coordinates are smaller in modulus.
    r = len(order)
    ratios = []
    for a in range(r - 1):
        u, v = order[a], order[a + 1]
        q = lam[u].abs2() / lam[v].abs2()
        ratios.append(q if u < v else 1 / q)
    rho2 = max(ratios, default=Fraction(0))
    rho = _sqrt_up(rho2)
    if rho2 >= 1 or rho >= 1:
        raise ValueError("sample point outside the convergence region")
    errors = [(approx - closed).abs2()
              for approx in cone_direct_sum(sizes, order, e, lam, truncations)]
    scale = max(_sqrt_up(closed.abs2()), Fraction(1))
    depth = truncations[-1]
    tail = scale * rho ** depth * depth ** r * 16 / (1 - rho) ** r
    ok = errors[-1] <= tail * tail and all(
        errors[i + 1] <= errors[i] for i in range(len(errors) - 1)
    )
    return ok, [math.sqrt(err) for err in errors], float(tail)


def cone_degree_one_identity(sizes, order, lam) -> bool:
    """For e = -1 the closed form collapses to
    (-1)^(r-1) prod(lam_i) / prod adjacent (lam_u - lam_v); exact."""
    r = len(order)
    lam = _gaussians(lam)
    closed = cone_closed_form(sizes, order, -1, lam)
    direct = math.prod(lam)
    for a in range(r - 1):
        u, v = order[a], order[a + 1]
        direct = direct / (lam[u] - lam[v])
    return closed == direct * (-1) ** (r - 1)


def cone_periodicity_check(sizes, order, e: int) -> bool:
    """Shifting the degree by the total rank shifts the exponent vector down
    by the block sizes, so the series only depends on e mod n on the torus
    where prod lam_i^{n_i} = 1."""
    h1, _ = degree_floor_vector(sizes, order, e)
    h2, _ = degree_floor_vector(sizes, order, e + sum(sizes))
    return all(h1[i] - h2[i] == sizes[i] for i in range(len(sizes)))


def cone_fourier_average_check(sizes, e: int, lam) -> bool:
    """Averaging the full cone series against degree characters isolates the
    degree-e part:  (1/n) sum_k zeta^{ek} S(lam * zeta^k) = S_e(lam), exactly
    in Q(i, zeta_n) = Q(zeta_m), m = lcm(4, n)."""
    n = sum(sizes)
    r = len(sizes)
    m = math.lcm(4, n)
    lam = _gaussians(lam, m)
    zeta = Cyclotomic.root(m, m // n)
    # per k: lam * zeta^k and the character value zeta^(e k)
    twists = [([x * zeta ** k for x in lam], zeta ** (e * k)) for k in range(1, n + 1)]
    for order in _orderings(r):
        want = cone_closed_form(sizes, order, e % n, lam)
        acc = 0
        for lam_k, character in twists:
            # the closed forms of all degrees share their denominator
            full = sum(_floor_monomial(sizes, order, ep, lam_k) for ep in range(n))
            acc = character * full / _chamber_denominator(order, lam_k) + acc
        if acc / n != want:
            return False
    return True


# --------------------------------------------------------------------------
# The aggregation identity


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
        for j, cj in lam.items():
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
    coeffs = [1] + [0] * a
    for j in range(1, a + 1):
        for d in divisors(j):
            step = j * xi_of(d)
            factor = [0] * (a + 1)
            for i in range(a // step + 1):
                factor[i * step] = (-1) ** i * binom_ring(top(j, d), i)
            # the sparse factor first: polyq.mul skips its zeros
            coeffs = polyq.mul(factor, coeffs, a + 1)
    return lhs == coeffs[a]


def _compositions_with_zeros(total, slots):
    """All ways to write `total` as an ordered sum of `slots` nonnegative ints."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_with_zeros(total - first, slots - 1):
            yield (first,) + rest
