"""Combinatorial cone functions on the root data of block upper-triangular
subgroups: the simple-root and fundamental-weight indicators, the truncation
kernel built from them, and lattice sums of the kernel over degree-congruence
classes.

A standard block subgroup is encoded by the composition of n it cuts out; a
coarsening is a composition of the number of parts.  Points live in the dual
basis of the block-determinant characters, i.e. H_i is the value on the i-th
block, and a root pairs with H as H_i/n_i - H_j/n_j.

The arithmetic is exact and runs in integers.  Every indicator is the sign of
a rational expression that is homogeneous of degree one in the point H (and
the truncation point T): a slope difference H_a/n_a - H_b/n_b, or a weight
value pre_h - (pre_n/n) total_h.  Multiplying all of H and T by one positive
number d multiplies each such expression by d and leaves its sign alone, and
multiplying a comparison through by the positive block sizes does too.  So
each public entry point scales H and T once by the lcm of all their
denominators and the private cores (`_tau`, `_tau_hat`, `_gamma_cone`,
`_gamma_prime`) compare cross-multiplied integers, with no Fraction per
comparison.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def check_composition(parts, n=None):
    if type(parts) is not list and type(parts) is not tuple:
        raise ValueError(f"a composition must be a list of parts, not {parts!r}")
    parts = tuple(parts)
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"composition parts must be positive integers, not {parts!r}")
    if n is not None and sum(parts) != n:
        raise ValueError(f"composition must sum to {n}")
    return parts


def grouping_of(p, q):
    """Express the coarsening q of p as consecutive group sizes, or raise."""
    p = check_composition(p)
    q = check_composition(q, sum(p))
    sizes = []
    i = 0
    for part in q:
        total = 0
        count = 0
        while total < part:
            if i >= len(p):
                raise ValueError("not nested")
            total += p[i]
            i += 1
            count += 1
        if total != part:
            raise ValueError(f"{q} does not coarsen {p}")
        sizes.append(count)
    return tuple(sizes)


def coarsenings(p):
    """All compositions of n that p refines, as groupings of p's parts."""
    r = len(p)
    for cuts in itertools.product((False, True), repeat=r - 1):
        sizes = []
        run = 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield tuple(sizes)


def _block_sums(v, grouping):
    out = []
    i = 0
    for s in grouping:
        out.append(sum(v[i:i + s]))
        i += s
    return out


def _scaled_point(p, *points):
    """The points (one coordinate per part of p) times the lcm of all their
    denominators, as lists of ints: one positive scale shared by all."""
    points = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
              for v in points]
    if any(len(v) != len(p) for v in points):
        raise ValueError("point does not match the composition")
    d = math.lcm(*(x.denominator for v in points for x in v))
    return [[x.numerator * (d // x.denominator) for x in v] for v in points]


def _tau(p, grouping, H) -> int:
    """Indicator of the open root cone relative to a coarsening, at an
    integer point H: adjacent parts inside a common group must have strictly
    decreasing slopes."""
    # H_a/n_a > H_b/n_b  <=>  H_a n_b > H_b n_a
    start = 0
    for s in grouping:
        for a in range(start, start + s - 1):
            if H[a] * p[a + 1] <= H[a + 1] * p[a]:
                return 0
        start += s
    return 1


def _tau_hat(p, grouping, H) -> int:
    """Indicator of the open weight cone, at an integer point H: inside each
    group every proper prefix must sit strictly above the group's average
    slope."""
    # pre_h - (pre_n / total_n) total_h > 0  <=>  pre_h total_n > pre_n total_h
    start = 0
    for s in grouping:
        end = start + s
        total_h = sum(H[start:end])
        total_n = sum(p[start:end])
        pre_h = pre_n = 0
        for i in range(start, end - 1):
            pre_h += H[i]
            pre_n += p[i]
            if pre_h * total_n <= pre_n * total_h:
                return 0
        start = end
    return 1


def langlands_identity_check(p, q, H) -> bool:
    """Alternating sum over intermediate coarsenings of tau * tau_hat is 1
    exactly when the two ends coincide."""
    p = check_composition(p)
    outer = grouping_of(p, q)
    H, = _scaled_point(p, H)
    total = 0
    # intermediate coarsenings: independently regroup inside each outer block
    per_block = []
    start = 0
    for s in outer:
        per_block.append(list(coarsenings(p[start:start + s])))
        start += s
    for choice in itertools.product(*per_block):
        inner = tuple(s for sizes in choice for s in sizes)
        if not _tau(p, inner, H):
            continue
        # the composition of n cut out by the inner grouping, and the
        # grouping of it induced by the outer one
        r_composition = _block_sums(p, inner)
        outer_on_inner = tuple(len(sizes) for sizes in choice)
        sign = (-1) ** (len(p) - len(r_composition))
        total += sign * _tau_hat(r_composition, outer_on_inner, _block_sums(H, inner))
    expected = 1 if len(outer) == len(p) else 0
    return total == expected


def gamma_cone(p, H, T) -> int:
    """Indicator of the truncation cone: all simple-root values positive and
    every fundamental-weight value bounded by its value on T (non-strict)."""
    p = check_composition(p)
    H, T = _scaled_point(p, H, T)
    return _gamma_cone(p, H, T)


def _gamma_cone(p, H, T) -> int:
    if not _tau(p, (len(p),), H):
        return 0
    n = sum(p)
    total_h, total_t = sum(H), sum(T)
    pre_h = pre_t = pre_n = 0
    for i in range(len(p) - 1):
        pre_h += H[i]
        pre_t += T[i]
        pre_n += p[i]
        # the two weight values, each times n
        if pre_h * n - pre_n * total_h > pre_t * n - pre_n * total_t:
            return 0
    return 1


def gamma_prime(p, H, T) -> int:
    """Alternating combination sum over coarsenings q of
    tau (relative to q) times the weight indicator of H - T at level q."""
    p = check_composition(p)
    H, T = _scaled_point(p, H, T)
    return _gamma_prime(p, H, T)


def _gamma_prime(p, H, T) -> int:
    diff = [h - t for h, t in zip(H, T)]
    total = 0
    for grouping in coarsenings(p):
        if not _tau(p, grouping, H):
            continue
        q_comp = _block_sums(p, grouping)
        if _tau_hat(q_comp, (len(q_comp),), _block_sums(diff, grouping)):
            total += (-1) ** (len(grouping) - 1)
    return total


def gamma_inversion_check(p, H, T) -> bool:
    """tau_hat(H - T) recovered from the truncation kernels of the
    coarsenings:  sum over q >= p of (-1)^(len(q)-1) Gamma'_q tau_hat^q."""
    p = check_composition(p)
    H, T = _scaled_point(p, H, T)
    diff = [h - t for h, t in zip(H, T)]
    lhs = _tau_hat(p, (len(p),), diff)
    total = 0
    for grouping in coarsenings(p):
        gp = _gamma_prime(_block_sums(p, grouping), _block_sums(H, grouping),
                          _block_sums(T, grouping))
        if gp:
            total += (-1) ** (len(grouping) - 1) * gp * _tau_hat(p, grouping, H)
    return total == lhs


def is_dominant(T) -> bool:
    return all(Fraction(T[i]) >= Fraction(T[i + 1]) for i in range(len(T) - 1))


def project_full_flag(T, p):
    """Block sums of a full-flag point along the composition p."""
    p = check_composition(p)
    if len(T) != sum(p):
        raise ValueError("need one coordinate per column")
    return tuple(_block_sums([Fraction(x) for x in T], p))


def gamma_support_box(p, T, e):
    """Certified per-prefix integer bounds for the support of the truncation
    cone on the slice sum H = e, for a dominant full-flag T.

    Decreasing slopes force every prefix above the average line, and the
    weight conditions bound it from above, so prefix_i ranges over an
    explicit integer interval.
    """
    p = check_composition(p)
    if not is_dominant(T):
        raise ValueError("certified bounds need a dominant truncation point")
    T_p = project_full_flag(T, p)
    n = sum(p)
    r = len(p)
    total_t = sum(T_p)
    bounds = []
    pre_n = 0
    pre_t = Fraction(0)
    for i in range(r - 1):
        pre_n += p[i]
        pre_t += T_p[i]
        low = Fraction(pre_n * e, n)
        w_t = pre_t - Fraction(pre_n, n) * total_t
        high = w_t + Fraction(pre_n * e, n)
        lo_int = -(-low.numerator // low.denominator)  # ceil
        hi_int = high.numerator // high.denominator  # floor
        bounds.append((lo_int, hi_int))
    return bounds


def _prefix_point(prefix, e):
    """The point H whose running sums are prefix, then e in all."""
    return [x - prev for x, prev in zip([*prefix, e], [0, *prefix])]


def truncation_lattice_sum(p, e: int, residues, T) -> int:
    """Finite sum of the truncation kernel over the lattice points with total
    degree e and prescribed residues mod the block sizes.

    T is a dominant full-flag point, so the kernel agrees with the explicit
    cone and the enumeration box is certified.
    """
    p = check_composition(p)
    r = len(p)
    if len(residues) != r:
        raise ValueError("need one residue per block")
    T_p = project_full_flag(T, p)
    if r == 1:
        return 1 if e % p[0] == residues[0] % p[0] else 0
    bounds = gamma_support_box(p, T, e)
    total = 0
    for prefix in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds]):
        H = _prefix_point(prefix, e)
        if any((h - res) % size for h, res, size in zip(H, residues, p)):
            continue
        total += gamma_prime(p, H, T_p)
    return total


def gamma_support_bound_check(p, T_samples, e: int = 0) -> bool:
    """Scan a grid 6 wider than the certified box on each side and confirm
    the kernel vanishes outside the box for every sampled dominant T."""
    p = check_composition(p)
    r = len(p)
    if r == 1:
        return True
    for T in T_samples:
        if not is_dominant(T):
            raise ValueError("samples must be dominant")
        T_p = project_full_flag(T, p)
        bounds = gamma_support_box(p, T, e)
        wide = [(lo - 6, hi + 6) for lo, hi in bounds]
        for prefix in itertools.product(*[range(lo, hi + 1) for lo, hi in wide]):
            inside = all(lo <= x <= hi for x, (lo, hi) in zip(prefix, bounds))
            if inside:
                continue
            if gamma_prime(p, _prefix_point(prefix, e), T_p) != 0:
                return False
    return True
