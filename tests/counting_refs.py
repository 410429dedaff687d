"""References for the counting engine that the package itself no longer
needs: evaluating a FreePoly at ring values, the oracle the symbolic and
concrete master formulas are compared through; the master formula on
WeilPoly's and FreePoly's tuple keys, which the packed one replaced, with
the exp recurrence and the partition sum built product by product, which
the fused multiply-accumulate replaced; that multiply-accumulate on packed
keys decoded into exponent vectors; the Euler characteristic summed over
every divisor; the z-form
`pgn`/`qgn` report that the e-form report replaced, with the z-form scans it
runs on; the z-form Frobenius substitution and Weil symmetrization, the
references for WeilPoly.frobenius_substitute and for the orbit-based
laurent.weil_symmetrize; the z-form to e-form conversion that counts
every orbit's members, the reference for WeilPoly.from_laurent; the
e-form to z-form conversion by one heap-ordered solve per call, the
reference for WeilPoly.to_laurent's cached rows; the differential check
of LaurentPoly.from_obj's column read against its per-term read; the
A-table reader as it was before it read entries straight into e-form,
the reference for ATable.from_obj; the partition weight s_weight of the master formula,
which the package computes inline; and FreePoly.render on FreePoly's tuple
keys, with its own sign rule, the reference for the one renderer of packed
fields (counting.PackedPoly.render); and the exact division of a packed
polynomial as a pass of its own, the reference for the division that
PackedPoly.unpack makes as it reads.  Nothing in the package imports this
module."""

import heapq
import itertools
import math
from fractions import Fraction

from locsys import fields
from locsys.combinat import divisors, mobius, partitions
from locsys.counting import GAMMA_ATOM, CTable, FreePoly, count_exponent
from locsys.laurent import (
    DivisibilityError,
    IntegralityError,
    InvarianceError,
    LaurentPoly,
    WeilPoly,
    _orbit,
    _orbit_rep,
    _orbit_sum,
    _partition,
    _solve_order,
    _zform_by_term,
    pic_polynomial,
)


def free_render(p):
    """FreePoly.render as it was before it packed its keys: monomials by
    decreasing top C-symbol (largest s*k, then s), then by C-degree and key,
    with the genus offset, last in a sorted key, printed first; the signed
    sum joined as laurent.render_terms joins it."""
    keyed = []
    for mono, c in p.terms.items():
        cdeg, top = 0, (0, 0)
        for a, e in mono:
            if a[0] == "C":
                cdeg += e
                top = max(top, (a[1] * a[2], a[1]))
        keyed.append(((-top[0], -top[1], cdeg, mono), c))
    keyed.sort()
    chunks = []
    for (_, _, _, mono), c in keyed:
        if mono and mono[-1][0] == GAMMA_ATOM:
            mono = mono[-1:] + mono[:-1]
        body = "*".join(("(g-1)" if a == GAMMA_ATOM else f"C[{a[1]},{a[2]}]")
                        + ("" if e == 1 else f"^{e}") for a, e in mono)
        if not body:
            chunks.append(str(c))
        elif c == 1:
            chunks.append(body)
        elif c == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{c}*{body}")
    if not chunks:
        return "0"
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


def free_substitute(p, values, const):
    """Evaluate the FreePoly p with atom -> value (values may live in any
    ring); `const` embeds rationals into that ring."""
    total = const(0)
    for m, c in p.terms.items():
        v = const(c)
        for a, e in m:
            v = v * (values[a] ** e)
        total = total + v
    return total


def exp_coeff_concrete(exponent, alpha, a):
    """counting._exp_coeff_concrete as it was before the fused
    multiply-accumulate: the same recurrence, with each f_m built as a
    running sum of scaled copies times products, one step per k."""
    zero = exponent.coeff(0)
    scaled = []
    denom = 1
    for m in range(1, a + 1):
        em = exponent.coeff(m) * alpha
        scaled.append(em)
        for c in em.terms.values():
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ms = [zero] + [em * denom for em in scaled]
    f = [zero + 1] + [zero] * a
    for n in range(1, a + 1):
        acc = zero
        for k in range(1, n + 1):
            if ms[k].is_zero() or f[n - k].is_zero():
                continue
            factor = k * (math.factorial(n - 1) // math.factorial(n - k)) * denom ** (k - 1)
            acc = acc + (ms[k] * factor) * f[n - k]
        f[n] = acc
    return [(f[m], Fraction(1, math.factorial(m) * denom ** m)) for m in range(a + 1)]


def s_weight(lam, j):
    """sum over the parts nu of the partition lam (a multiplicity map
    {part: count}) of min(nu, j), counted with multiplicity."""
    return sum(a * min(nu, j) for nu, a in lam.items())


def _partition_sum(n, ctable, chi):
    """(numerator, common) of the rank-n master formula on the table's own
    keys: the partition terms weighted against their common denominator and
    added product by product, with one exp recurrence (exp_coeff_concrete)
    per factor key (l, a_j, w); the formula is numerator / (common * n * chi)."""
    factors = {}
    scaled_terms = []
    for l in divisors(n):
        mu = mobius(l)
        if mu == 0:
            continue
        for lam in partitions(n):
            if any(a % l for a in lam.values()):
                continue
            keys = []
            scale = Fraction(mu, sum(lam.values()))
            for j, aj in lam.items():
                key = (l, aj, s_weight(lam, j))
                if key not in factors:
                    factors[key] = exp_coeff_concrete(count_exponent(ctable, l, aj),
                                                      chi * Fraction(key[2], l), aj)[aj]
                keys.append(key)
                scale *= factors[key][1]
            scaled_terms.append((keys, scale))
    common = math.lcm(*(scale.denominator for _, scale in scaled_terms))
    numerator = ctable.zero()
    for keys, scale in scaled_terms:
        term = factors[keys[0]][0] * (scale.numerator * (common // scale.denominator))
        for key in keys[1:]:
            term = term * factors[key][0]
        numerator = numerator + term
    return numerator, common


def weil_a_from_c(n, genus, ctable):
    """a_from_c on a concrete table with every product on WeilPoly's tuple
    keys (t, (a_1..a_g), y): the same partition sum, without packing, and one
    exp recurrence per factor key (l, a_j, w), the per-key reference for the
    grouped recurrences of a_from_c."""
    if n == 1:
        p = ctable.entry(1, 1)
        return p.to_laurent() if ctable.z_form else p
    numerator, common = _partition_sum(n, ctable, Fraction(2 * genus - 2))
    result = numerator * Fraction(1, common * n * (2 * genus - 2))
    return result.to_laurent() if ctable.z_form else result


def free_a_from_c(n):
    """a_from_c(n, None, CTable.symbolic()) on FreePoly's tuple keys: the
    partition sum of weil_a_from_c with chi = 2 (g-1), then one factor
    (g-1) taken off every monomial."""
    table = CTable.symbolic()
    if n == 1:
        return table.entry(1, 1)
    numerator, common = _partition_sum(n, table, FreePoly.gamma(2))
    terms = {}
    for mono, c in numerator.terms.items():
        exps = dict(mono)
        exps[GAMMA_ATOM] = exps.get(GAMMA_ATOM, 0) - 1
        if exps[GAMMA_ATOM] < 0:
            raise ArithmeticError("a monomial without the genus offset")
        terms[tuple(exps.items())] = Fraction(c, 2 * n * common)
    return FreePoly(terms)


def packed_add_products(acc, triples):
    """acc.add_products(triples) for a PackedPoly kind, on each key decoded
    into (t-exponent, field values): a product adds the vectors, and any
    field of any product of two monomials past its width raises
    OverflowError, whether or not the sum cancels that term.  A zero scale
    contributes nothing."""
    kind = type(acc)

    def decode(key):
        return key >> kind.top, tuple(key >> shift & (1 << width) - 1
                                      for shift, width in zip(kind.shifts, kind.widths))

    terms = {decode(k): c for k, c in acc.terms.items()}
    for a, b, scale in triples:
        if not scale:
            continue
        for k1, c1 in a.terms.items():
            t1, f1 = decode(k1)
            for k2, c2 in b.terms.items():
                t2, f2 = decode(k2)
                fields = tuple(x + y for x, y in zip(f1, f2))
                if any(x >> width for x, width in zip(fields, kind.widths)):
                    raise OverflowError("an exponent overflowed its field")
                key = (t1 + t2, fields)
                terms[key] = terms.get(key, 0) + Fraction(scale) * c1 * c2
    return kind({(t << kind.top) + sum(x << shift for x, shift in zip(fields, kind.shifts)): c
                 for (t, fields), c in terms.items() if c})


def ref_divide_exact(p, scalar, gamma_power=0):
    """The PackedPoly p divided by scalar * gamma^gamma_power, in its own
    kind; every monomial must carry the power.  The genus offset is the
    lowest field, so dividing by its power is a subtraction."""
    mask = (1 << p.widths[0]) - 1
    terms = {}
    for key, c in p.terms.items():
        if key & mask < gamma_power:
            raise IntegralityError("sum is not divisible by the genus factor")
        q, r = divmod(c, scalar)
        terms[key - gamma_power] = Fraction(c, scalar) if r else q
    return p._new(terms)


def euler_characteristic(n, g):
    """sum over l | n of mu(l) mu(n/l) l^{2g-3}, every divisor's power taken."""
    return sum(mobius(l) * mobius(n // l) * l ** (2 * g - 3) for l in divisors(n))


def frobenius_substitute(p, k):
    """The z-form p with t -> t^k and z_i -> z_i^k; the genus-offset
    exponent is untouched."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("need k >= 1")
    return LaurentPoly(p.g, {(et * k, tuple(e * k for e in ez), ey): c
                             for (et, ez, ey), c in p.terms.items()})


def flip(p, i):
    """The z-form p with z_i -> t z_i^{-1}."""
    terms = {}
    for (et, ez, ey), c in p.terms.items():
        z = list(ez)
        e = z[i]
        z[i] = -e
        k = (et + e, tuple(z), ey)
        terms[k] = terms.get(k, 0) + c
    return LaurentPoly(p.g, terms)


def permutation_flip_symmetrize(mono):
    """The sum of mono's images under every z-permutation and every set of
    z_i -> t z_i^{-1} flips, g! 2^g images in all."""
    g = mono.g
    total = LaurentPoly.zero(g)
    for perm in itertools.permutations(range(g)):
        base = LaurentPoly(g, {(et, tuple(ez[perm[i]] for i in range(g)), ey): c
                               for (et, ez, ey), c in mono.terms.items()})
        for flips in itertools.product((False, True), repeat=g):
            q = base
            for i, do in enumerate(flips):
                if do:
                    q = flip(q, i)
            total = total + q
    return total


def from_laurent(p):
    """WeilPoly.from_laurent as it was before it checked invariance by
    orbit sizes: count each representative's members, then add
    t^a y^b M_mu per distinct mu into a running sum."""
    if type(p) is not LaurentPoly:
        raise TypeError("need a z-form LaurentPoly")
    g, terms = p.g, p.terms
    members = {}
    shapes = {}
    for (et, ez, ey), c in terms.items():
        shape = shapes.get(ez)
        if shape is None:
            shape = shapes[ez] = _orbit_rep(ez)
        mu, dt = shape
        rep = (et + dt, mu, ey)
        if terms.get(rep) != c:
            raise InvarianceError("polynomial is not Weil-invariant")
        members[rep] = members.get(rep, 0) + 1
    by_mu = {}
    for rep, count in members.items():
        et, mu, ey = rep
        if count != len(_orbit(mu)):
            raise InvarianceError("polynomial is not Weil-invariant")
        by_mu.setdefault(mu, {})[(et, (0,) * g, ey)] = terms[rep]
    out = WeilPoly.zero(g)
    for mu, coeffs in by_mu.items():
        out = out + WeilPoly(g, coeffs) * _orbit_sum(g, mu)
    return out


def to_laurent(w):
    """WeilPoly.to_laurent as it was before it cached one row per
    e-monomial: a heap-ordered unitriangular solve over the whole
    polynomial on every call.

    With lambda_j = a_j + ... + a_g, M_lambda is e^a plus e-monomials
    that come later in the order of (|lambda|, lambda) descending; so
    taking the e-monomials in that order (by a heap) and subtracting
    c t^i y^b M_lambda from the rest is a unitriangular solve for the
    orbit coefficients."""
    g = w.g
    rest = dict(w.terms)
    heap = [(_solve_order(a), (et, a, ey)) for et, a, ey in rest]
    heapq.heapify(heap)
    terms = {}
    while heap:
        key = heapq.heappop(heap)[1]
        c = rest.pop(key, 0)
        if not c:
            continue
        et, a, ey = key
        lam = _partition(a)
        for dt, z in _orbit(lam):
            terms[(et + dt, z, ey)] = c
        for (mt, ma, my), mc in _orbit_sum(g, lam).terms.items():
            k = (et + mt, ma, ey + my)
            if k == key:
                continue  # the leading term e^a, coefficient 1
            v = rest.get(k, 0) - c * mc
            if k not in rest:
                heapq.heappush(heap, (_solve_order(ma), k))
            if v:
                rest[k] = v
            else:
                del rest[k]
    out = LaurentPoly(g)
    out.terms = terms
    return out


def read_outcome(read, obj):
    """What read(obj) gives, as (class, g, terms in order with their
    coefficient types), or the ValueError it raises, as (class, text)."""
    try:
        p = read(obj)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(p), p.g, [(k, type(c), c) for k, c in p.terms.items()]


def same_zform_read(obj):
    """LaurentPoly.from_obj agrees on obj with its per-term read alone
    (laurent._zform_by_term), which it skips for a plain file: the same
    polynomial, term order and coefficient types included, or the same
    error class and message.  A read's e-form is also the value of the
    member-counting from_laurent above, which shares no code with the
    package's scan.  Returns the outcome of the read followed by
    WeilPoly.from_laurent."""
    new = read_outcome(LaurentPoly.from_obj, obj)
    assert new == read_outcome(_zform_by_term, obj), obj
    if new[0] is not LaurentPoly:
        return new
    p = LaurentPoly.from_obj(obj)
    eform = read_outcome(WeilPoly.from_laurent, p)
    if eform[0] is WeilPoly:
        assert dict((k, c) for k, _t, c in eform[2]) == from_laurent(p).terms
    return eform


def atable_from_obj(obj, g):
    """ATable.from_obj as it was before it read entries straight into
    e-form, with the member-counting from_laurent above: every entry's
    format faults in file order (rank key, then laurent._zform_by_term);
    then, entry by entry, a wrong g, Weil invariance and positivity, the
    first of these held until every entry is read.  Returns the e-form
    entries {rank: WeilPoly}."""
    try:
        entries = obj["entries"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed bundle-count table JSON: {exc!r}") from None
    weil = {}
    fault = None
    for key, p in entries:
        n = fields.canonical_int(key)
        if n is None:
            raise ValueError(f"malformed bundle-count table JSON: rank key {key!r} "
                             "is not a canonical integer")
        if n < 2:
            raise ValueError(f"malformed bundle-count table JSON: rank key {key!r} "
                             "is below 2 (rank 1 is the built-in Picard polynomial)")
        poly = _zform_by_term(p)
        if fault is not None:
            continue
        if poly.g != g:
            fault = ValueError(f"entry {n} has wrong number of z-variables")
            continue
        try:
            poly = from_laurent(poly)
        except InvarianceError:
            fault = ValueError(f"A-table entry {n} is not Weil-invariant")
            continue
        if any(et < 0 for et, _a, _ey in poly.terms):
            fault = ValueError(f"A-table entry {n} violates positivity")
            continue
        weil[n] = poly
    if fault is not None:
        raise fault
    return weil


def swap(p, i, j):
    """The z-form p with z_i and z_j exchanged."""
    terms = {}
    for (et, ez, ey), c in p.terms.items():
        z = list(ez)
        z[i], z[j] = z[j], z[i]
        terms[(et, tuple(z), ey)] = c
    return LaurentPoly(p.g, terms)


def swap_flip_invariant(p):
    """Fixed by every z_i <-> z_{i+1} swap and every z_i -> t z_i^{-1} flip."""
    return (all(swap(p, i, i + 1) == p for i in range(p.g - 1))
            and all(flip(p, i) == p for i in range(p.g)))


def satisfies_positivity(p):
    """Every z-form monomial t^m z^n has m + sum_i min(n_i, 0) >= 0."""
    return all(et + sum(min(e, 0) for e in ez) >= 0 for et, ez, _ey in p.terms)


def weight(p):
    """Top weight of the z-form p for deg t = 2, deg z_i = 1, and the sorted
    list of its top terms."""
    if p.is_zero():
        return None, []
    best = max(2 * et + sum(ez) for et, ez, _ey in p.terms)
    return best, sorted(k for k in p.terms if 2 * k[0] + sum(k[1]) == best)


def zform_pgn_report(n, g, p):
    """The `pgn`/`qgn` report and quotient, scanned in the z-form."""
    report = {}
    report["weil_invariant"] = swap_flip_invariant(p)
    report["positivity"] = satisfies_positivity(p)
    w, tops = weight(p)
    expected_top = (g - 1) * n * n + 1
    report["dominant_term"] = (
        w == 2 * expected_top
        and tops == [(expected_top, (0,) * g, 0)]
        and p.terms[tops[0]] == 1
    )
    try:
        q = p if p.is_zero() else p.exact_divide(pic_polynomial(g))
        report["pic_divisible"] = True
    except DivisibilityError:
        q = None
        report["pic_divisible"] = False
    if q is not None:
        chi = euler_characteristic(n, g) if g >= 2 else 1
        value = q.substitute(1, [1] * g, g - 1)
        report["euler_value"] = str(value)
        report["euler_matches"] = value == chi
    else:
        report["euler_matches"] = False
    return report, q
