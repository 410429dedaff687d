"""Combinatorial cone functions on the root data of block upper-triangular
subgroups: the simple-root and fundamental-weight indicators, the truncation
kernel built from them, and lattice sums of the kernel over degree-congruence
classes.  Everything is exact rational arithmetic.

A standard block subgroup is encoded by the composition of n it cuts out; a
coarsening is a composition of the number of parts.  Points live in the dual
basis of the block-determinant characters, i.e. H_i is the value on the i-th
block, and a root pairs with H as H_i/n_i - H_j/n_j.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def check_composition(parts, n=None):
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("composition parts must be positive")
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


def project(H, p, q):
    """Block sums of H along the coarsening q of p."""
    p = check_composition(p)
    if len(H) != len(p):
        raise ValueError("point does not match the composition")
    sizes = grouping_of(p, q)
    out = []
    i = 0
    for s in sizes:
        out.append(sum(H[i:i + s], Fraction(0)))
        i += s
    return tuple(out)


def _blocks_from_grouping(grouping):
    out = []
    i = 0
    for s in grouping:
        out.append(list(range(i, i + s)))
        i += s
    return out


def tau(p, grouping, H) -> int:
    """Indicator of the open root cone relative to a coarsening: adjacent
    parts inside a common group must have strictly decreasing slopes."""
    p = check_composition(p)
    if sum(grouping) != len(p):
        raise ValueError("grouping does not match the composition")
    H = [Fraction(x) for x in H]
    for block in _blocks_from_grouping(grouping):
        for a, b in zip(block, block[1:]):
            if not Fraction(H[a], p[a]) - Fraction(H[b], p[b]) > 0:
                return 0
    return 1


def tau_hat(p, grouping, H) -> int:
    """Indicator of the open weight cone: inside each group every proper
    prefix must sit strictly above the group's average slope."""
    p = check_composition(p)
    if sum(grouping) != len(p):
        raise ValueError("grouping does not match the composition")
    H = [Fraction(x) for x in H]
    for block in _blocks_from_grouping(grouping):
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


def langlands_identity_check(p, q, H) -> bool:
    """Alternating sum over intermediate coarsenings of tau * tau_hat is 1
    exactly when the two ends coincide."""
    p = check_composition(p)
    outer = grouping_of(p, q)
    total = 0
    blocks = _blocks_from_grouping(outer)
    # intermediate coarsenings: independently regroup inside each outer block
    per_block = []
    for block in blocks:
        per_block.append(list(coarsenings([p[i] for i in block])))
    for choice in itertools.product(*per_block):
        inner = tuple(s for sizes in choice for s in sizes)
        # composition of n determined by the inner grouping
        r_composition = []
        i = 0
        for s in inner:
            r_composition.append(sum(p[i:i + s]))
            i += s
        # grouping of the inner composition induced by the outer one
        outer_on_inner = []
        for sizes in choice:
            outer_on_inner.append(len(sizes))
        sign = (-1) ** (len(p) - len(r_composition))
        t = tau(p, inner, H)
        if t:
            h_r = project(H, p, r_composition)
            t_hat = tau_hat(r_composition, tuple(outer_on_inner), h_r)
            total += sign * t * t_hat
    expected = 1 if len(outer) == len(p) else 0
    return total == expected


def full_grouping(p):
    """The trivial coarsening collapsing everything to one group."""
    return (len(check_composition(p)),)


def gamma_cone(p, H, T) -> int:
    """Indicator of the truncation cone: all simple-root values positive and
    every fundamental-weight value bounded by its value on T (non-strict)."""
    p = check_composition(p)
    if tau(p, full_grouping(p), H) == 0:
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


def gamma_prime(p, H, T) -> int:
    """Alternating combination sum over coarsenings q of
    tau (relative to q) times the weight indicator of H - T at level q."""
    p = check_composition(p)
    H = [Fraction(x) for x in H]
    T = [Fraction(x) for x in T]
    total = 0
    for grouping in coarsenings(p):
        sign = (-1) ** (len(grouping) - 1)
        t = tau(p, grouping, H)
        if not t:
            continue
        q_comp = []
        i = 0
        for s in grouping:
            q_comp.append(sum(p[i:i + s]))
            i += s
        diff = [h - t_ for h, t_ in zip(H, T)]
        d_q = project(diff, p, q_comp)
        t_hat = tau_hat(tuple(q_comp), full_grouping(q_comp), d_q)
        total += sign * t * t_hat
    return total


def gamma_inversion_check(p, H, T) -> bool:
    """tau_hat(H - T) recovered from the truncation kernels of the
    coarsenings:  sum over q >= p of (-1)^(len(q)-1) Gamma'_q tau_hat^q."""
    p = check_composition(p)
    H = [Fraction(x) for x in H]
    T = [Fraction(x) for x in T]
    diff = [h - t_ for h, t_ in zip(H, T)]
    lhs = tau_hat(p, full_grouping(p), diff)
    total = 0
    for grouping in coarsenings(p):
        sign = (-1) ** (len(grouping) - 1)
        q_comp = []
        i = 0
        for s in grouping:
            q_comp.append(sum(p[i:i + s]))
            i += s
        h_q = project(H, p, q_comp)
        t_q = project(T, p, q_comp)
        gp = gamma_prime(tuple(q_comp), h_q, t_q)
        if gp:
            total += sign * gp * tau_hat(p, grouping, H)
    return total == lhs


def is_dominant(T) -> bool:
    return all(Fraction(T[i]) >= Fraction(T[i + 1]) for i in range(len(T) - 1))


def project_full_flag(T, p):
    """Block sums of a full-flag point along the composition p."""
    p = check_composition(p)
    if len(T) != sum(p):
        raise ValueError("need one coordinate per column")
    out = []
    i = 0
    for s in p:
        out.append(sum(Fraction(x) for x in T[i:i + s]))
        i += s
    return tuple(out)


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
        H = []
        prev = 0
        for x in prefix:
            H.append(x - prev)
            prev = x
        H.append(e - prev)
        if any((h - res) % size for h, res, size in zip(H, residues, p)):
            continue
        total += gamma_prime(p, H, T_p)
    return total


def gamma_support_bound_check(p, T_samples, e: int = 0, extra: int = 6) -> bool:
    """Scan a grid strictly larger than the certified box and confirm the
    kernel vanishes outside the box for every sampled dominant T."""
    p = check_composition(p)
    r = len(p)
    if r == 1:
        return True
    for T in T_samples:
        if not is_dominant(T):
            raise ValueError("samples must be dominant")
        T_p = project_full_flag(T, p)
        bounds = gamma_support_box(p, T, e)
        wide = [(lo - extra, hi + extra) for lo, hi in bounds]
        for prefix in itertools.product(*[range(lo, hi + 1) for lo, hi in wide]):
            inside = all(lo <= x <= hi for x, (lo, hi) in zip(prefix, bounds))
            if inside:
                continue
            H = []
            prev = 0
            for x in prefix:
                H.append(x - prev)
                prev = x
            H.append(e - prev)
            if gamma_prime(p, H, T_p) != 0:
                return False
    return True
