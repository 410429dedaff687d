"""The counting engine.

Two tables drive everything: a C-table holding, for each rank s and field
extension degree k, the number C[s,k] of Frobenius^k-fixed irreducible rank-s
local systems (as an e-form polynomial or as a free symbol), and an A-table
holding the counts of geometrically indecomposable rank-n degree-coprime
vector bundles.  The master formula expresses A_n in terms of the C[s,k]
with s*k <= n; inverting it rank by rank recovers the C's, hence the
polynomials whose curve values are the counts.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from . import fields
from .combinat import divisors, mobius_divisors, partitions, prime_factors
from .laurent import (DivisibilityError, EntryMissing, IntegralityError, InvarianceError,
                      LaurentPoly, WeilPoly, pic_eform, render_terms)
from .series import TruncatedSeries

GAMMA_ATOM = ("y",)


class ConsistencyError(RuntimeError):
    """The unknown top-rank symbol did not enter with coefficient one."""


@dataclass(frozen=True, order=True)
class CSymbol:
    """Free symbol for the count of rank-s systems over the degree-k extension."""

    s: int
    k: int

    def __post_init__(self):
        if self.s < 1 or self.k < 1:
            raise ValueError("need s, k >= 1")

    @property
    def atom(self):
        return ("C", self.s, self.k)


class FreePoly(LaurentPoly):
    """Polynomial over Q in the genus-offset variable and the C-symbols.

    It runs on LaurentPoly's kernel; a monomial key is a sorted tuple of
    (atom, exponent) pairs with positive exponents, the atoms being
    GAMMA_ATOM and CSymbol.atom.  It has no z-variables (g = 0) and the
    z-form methods do not apply to it.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(0, terms)

    @staticmethod
    def _key(mono):
        return tuple(sorted((a, e) for a, e in mono if e))

    def _unit(self):
        return ()

    @staticmethod
    def _mono_row(a, keys):
        base = dict(a)
        out = []
        for b in keys:
            d = base.copy()
            for x, e in b:
                d[x] = d.get(x, 0) + e
            out.append(tuple(sorted(d.items())))
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def atom(cls, a, coeff=1):
        return cls({((a, 1),): coeff})

    @classmethod
    def gamma(cls, coeff=1):
        return cls.atom(GAMMA_ATOM, coeff=coeff)

    @classmethod
    def symbol(cls, s, k):
        return cls.atom(CSymbol(s, k).atom)

    def c_degree_part(self, degree: int) -> "FreePoly":
        """Sum of the monomials of total degree `degree` in the C-symbols."""
        return self._new({
            m: c
            for m, c in self.terms.items()
            if sum(e for a, e in m if a[0] == "C") == degree
        })

    @staticmethod
    def _atom_label(a):
        if a == GAMMA_ATOM:
            return "(g-1)"
        return f"C[{a[1]},{a[2]}]"

    def render(self) -> str:
        """Monomials by decreasing top C-symbol (largest s*k, then s), then
        by C-degree and key; the genus offset prints first in a monomial.
        The polynomial is packed into fields that fit its atoms and
        exponents, and `_render_fields` prints it, as it prints the packed
        symbolic master formula."""
        atoms = [GAMMA_ATOM] + sorted({a for mono in self.terms for a, _ in mono} - {GAMMA_ATOM})
        index = {a: i for i, a in enumerate(atoms)}
        widths = [0] * len(atoms)
        for mono in self.terms:
            for a, e in mono:
                if e < 0:
                    raise ValueError(f"cannot render the exponent {e}")
                widths[index[a]] = max(widths[index[a]], e.bit_length())
        shifts = [0]
        for width in widths[:-1]:
            shifts.append(shifts[-1] + width)
        terms = {sum(e << shifts[index[a]] for a, e in mono): c for mono, c in self.terms.items()}
        return _render_fields(terms, atoms, shifts, widths)

    def __repr__(self):
        return f"FreePoly({self.render()})"


def _render_fields(terms, atoms, shifts, widths, divisor=1, gamma_power=0) -> str:
    """FreePoly.render's text of the sum of c m / (divisor gamma^gamma_power)
    over `terms`, {packed key m: int or Fraction c}, whose field i holds the
    exponent of atoms[i] in widths[i] bits from bit shifts[i]; field 0 is
    the genus offset, and the C-symbols follow in (s, k) order.  Every
    monomial must carry gamma^gamma_power.

    One walk over a key's nonzero C fields, lowest first, gives its factor
    texts (after the genus offset's), its C-degree, its top symbol by
    (s*k, s), and one integer that orders it as FreePoly's sorted key
    tuple of (atom, exponent) pairs would: the C-symbols, then the genus
    offset, each a digit i*B + e + 1 for digit index i and exponent e < B,
    padded with zero digits on the right to one length for every key, so
    that a key whose pairs are a prefix of another's sorts first.  What a
    field value gives is worked out once per value.  A coefficient's text
    is str(Fraction(c, divisor)), from one gcd."""
    radix = 1 << max(widths)  # B, above every exponent
    digit_bits = ((len(atoms) + 1) * radix).bit_length()
    length = digit_bits * len(atoms)  # the bits of a padded digit string
    ranks = {sk: r for r, sk in enumerate(sorted((a[1] * a[2], a[1]) for a in atoms[1:]), 1)}
    owner = [0] * (shifts[-1] + widths[-1])  # bit -> the mask of its C field
    labels = {}  # C field mask -> its digit index, shift, rank and label
    for i, (a, shift, width) in enumerate(zip(atoms, shifts, widths)):
        if i:
            mask = (1 << width) - 1 << shift
            owner[shift:shift + width] = [mask] * width
            labels[mask] = (i, shift, ranks[a[1] * a[2], a[1]], FreePoly._atom_label(a))
    gamma, gamma_label = (1 << widths[0]) - 1, FreePoly._atom_label(atoms[0])
    seen = {}  # C field value -> (factor text, exponent, rank, digit)
    gammas = {}  # genus-offset exponent -> its factor text
    rows = []
    for key, c in terms.items():
        ey = (key & gamma) - gamma_power
        if ey < 0:
            raise IntegralityError("sum is not divisible by the genus factor")
        factors, cdeg, top, order, pad = [], 0, 0, 0, length
        if ey:
            text = gammas.get(ey)
            if text is None:
                text = gammas[ey] = gamma_label if ey == 1 else f"{gamma_label}^{ey}"
            factors.append(text)
        rest = key & ~gamma
        while rest:
            value = rest & owner[(rest & -rest).bit_length() - 1]
            rest ^= value
            field = seen.get(value)
            if field is None:
                i, shift, rank, label = labels[owner[(value & -value).bit_length() - 1]]
                e = value >> shift
                field = seen[value] = (label if e == 1 else f"{label}^{e}", e, rank, i * radix + e + 1)
            text, e, rank, digit = field
            factors.append(text)
            cdeg += e
            if rank > top:
                top = rank
            order = order << digit_bits | digit
            pad -= digit_bits
        if ey:
            order = order << digit_bits | len(atoms) * radix + ey + 1
            pad -= digit_bits
        if type(c) is int:
            num, den = c, divisor
        else:
            num, den = c.numerator, c.denominator * divisor
        g = math.gcd(num, den)
        rows.append((-top, cdeg, order << pad, "*".join(factors),
                     str(num // g) if den == g else f"{num // g}/{den // g}"))
    rows.sort()
    return render_terms((body, text) for _, _, _, body, text in rows)


class PackedPoly(LaurentPoly):
    """A monomial kind whose key is one int, so that the product of two
    monomials is one integer addition.  The master formula runs on it in
    both modes; FreePoly and WeilPoly are what callers see.

    `packed_kind(name, widths, atoms)` makes the class of a layout.  Field i
    holds an exponent in widths[i] bits with one guard bit above it, field 0
    (the lowest) is the genus offset, and the t-exponent, signed and
    unbounded, sits above every field.  The sum of two fields with clear
    guard bits cannot carry into the next field, and it sets its guard bit
    exactly when it overflows; a sum of fields never reaches the t-exponent,
    and `>>` decodes a negative one exactly.  So the kernel checks every
    product key once, before zero terms are dropped, and raises
    OverflowError rather than return a wrong polynomial.  Two layouts are
    two classes, so their operands never mix.

    Only `pack` and `unpack` depend on the mode, and only a symbolic layout
    has `render`.  A symbolic layout names the FreePoly atom of each field
    (`atoms`) and keeps the t-exponent 0; an e-form layout has no atoms, and
    its fields are y, e_1..e_g of a WeilPoly of genus len(widths) - 1.
    """

    __slots__ = ()
    widths = ()  # the bits of each field, genus offset first
    shifts = ()  # the lowest bit of each field
    atoms = {}   # symbolic: the FreePoly atom of each field -> its index
    guard = 0    # every guard bit
    top = 0      # the lowest bit of the t-exponent

    def __init__(self, terms=None):
        super().__init__(0, terms)

    def _key(self, key):
        if type(key) is not int or key & self.guard or (self.atoms and key >> self.top):
            raise ValueError(f"{key!r} is not a packed monomial of {type(self).__name__}")
        return key

    def _unit(self):
        return 0

    @staticmethod
    def _mono_row(a, keys):
        return [a + b for b in keys]

    def _built(self, terms):
        # every product key, before the zero terms go: a sum that cancels
        # does not hide an overflow
        if any(map(self.guard.__and__, terms)):
            raise OverflowError(f"an exponent overflowed its field in {type(self).__name__}")
        return LaurentPoly._built(self, terms)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def pack(cls, p) -> "PackedPoly":
        """p, a FreePoly over `atoms` or a WeilPoly of the layout's genus, in
        this kind."""
        if cls.atoms:
            if type(p) is not FreePoly:
                raise TypeError(f"need a FreePoly for {cls.__name__}")
            monomials = []
            for mono, c in p.terms.items():
                exps = [0] * len(cls.widths)
                for a, e in mono:
                    if a not in cls.atoms:
                        raise ValueError(f"{FreePoly._atom_label(a)} is not in {cls.__name__}")
                    exps[cls.atoms[a]] = e
                monomials.append((0, exps, c))
        else:
            if type(p) is not WeilPoly or p.g != len(cls.widths) - 1:
                raise TypeError(f"need a genus-{len(cls.widths) - 1} WeilPoly")
            monomials = [(et, (ey,) + a, c) for (et, a, ey), c in p.terms.items()]
        terms = {}
        for et, exps, c in monomials:
            key = et << cls.top
            for e, shift, width in zip(exps, cls.shifts, cls.widths):
                if not 0 <= e < 1 << width:
                    raise OverflowError(f"exponent {e} does not fit in {cls.__name__}")
                key += e << shift
            terms[key] = c
        return cls()._new(terms)

    def unpack(self):
        """The same polynomial as a FreePoly or a WeilPoly, for a caller
        that computes with it (`render` prints a symbolic one without it).
        Symbolic keys are read by their nonzero fields, lowest first: the
        C-symbols come out in (s, k) order and the genus offset, field 0,
        goes last, which is the sorted order of FreePoly's keys."""
        masks = [(1 << width) - 1 for width in self.widths]
        gamma, top, terms = masks[0], self.top, {}
        if not self.atoms:
            low = (1 << top) - 1
            fields = list(zip(self.shifts[1:], masks[1:]))  # e_1..e_g
            for key, c in self.terms.items():
                f = key & low
                terms[(key >> top, tuple(f >> o & m for o, m in fields), f & gamma)] = c
            return WeilPoly(len(self.widths) - 1)._new(terms)
        owner = [None] * top  # bit -> (atom, shift, mask) of its field
        for a, shift, width, mask in zip(self.atoms, self.shifts, self.widths, masks):
            owner[shift:shift + width] = [(a, shift, mask)] * width
        for key, c in self.terms.items():
            mono = []
            rest = key & ~gamma
            while rest:
                a, shift, mask = owner[(rest & -rest).bit_length() - 1]
                mono.append((a, rest >> shift & mask))
                rest &= ~(mask << shift)
            if key & gamma:
                mono.append((GAMMA_ATOM, key & gamma))
            terms[tuple(mono)] = c
        return FreePoly()._new(terms)

    def divide_exact(self, scalar, gamma_power: int = 0) -> "PackedPoly":
        """Divide by scalar * gamma^power; every monomial must carry the
        power.  The genus offset is the lowest field, so dividing by its
        power is a subtraction."""
        mask = (1 << self.widths[0]) - 1
        terms = {}
        for key, c in self.terms.items():
            if key & mask < gamma_power:
                raise IntegralityError("sum is not divisible by the genus factor")
            q, r = divmod(c, scalar)
            terms[key - gamma_power] = Fraction(c, scalar) if r else q
        return self._new(terms)

    def render(self, divisor: int = 1, gamma_power: int = 0) -> str:
        """The text of self.divide_exact(divisor, gamma_power).unpack(), a
        symbolic layout's FreePoly, as FreePoly.render prints it, read off
        the packed keys and the integer coefficients with no quotient
        built; divisor > 0."""
        if not self.atoms:
            raise TypeError(f"{type(self).__name__} is not a symbolic layout")
        return _render_fields(self.terms, list(self.atoms), self.shifts, self.widths,
                              divisor, gamma_power)


@functools.cache  # one class per layout, so that equal layouts are one type
def packed_kind(name: str, widths: tuple, atoms: tuple = ()) -> type:
    """The PackedPoly subclass with these field widths, and the FreePoly atom
    of each field for a symbolic layout."""
    shifts, top = [], 0
    for width in widths:
        shifts.append(top)
        top += width + 1
    return type(name, (PackedPoly,), {
        "__slots__": (), "widths": widths, "shifts": tuple(shifts), "top": top,
        "atoms": {a: i for i, a in enumerate(atoms)},
        "guard": sum(1 << (shift + width) for shift, width in zip(shifts, widths))})


def _symbol_kind(n: int) -> type:
    """The kind whose fields hold every monomial of the rank-n symbolic
    master formula: the genus offset, then C[s,k] for s*k <= n in (s, k)
    order, as wide as n and n // (s*k)."""
    atoms = [GAMMA_ATOM] + [CSymbol(s, k).atom
                            for s in range(1, n + 1) for k in range(1, n // s + 1)]
    widths = [n.bit_length()] + [(n // (a[1] * a[2])).bit_length() for a in atoms[1:]]
    return packed_kind(f"PackedPoly{n}", tuple(widths), tuple(atoms))


def _field_width(n: int, ctable: "CTable") -> int:
    """Bits enough for every y- and e-exponent of the rank-n master formula
    on the e-form table ctable: those of n R, where R = max_s max(E_s, Y_s)/s
    over the entries C_s, s <= n, with E_s the largest e-weight
    sum_j j a_j of C_s and Y_s its largest y-exponent.

    Frobenius k maps e_j to M_(k^j), whose e-terms have weight
    jk - 2 deg_t <= jk (every t-exponent is >= 0), so it at most multiplies
    the e-weight by k and keeps the y-exponent.  C[s,k'] with s k' = m
    therefore has e-weight at most m E_s / s <= m R and y-exponent at most
    Y_s <= m R: the z^m coefficient of count_exponent has both at most m R,
    and so does [z^a] of its exp (a sum of products of coefficients of
    z^m_i with sum m_i = a).  A partition term multiplies the [z^(a_j)] of
    one exp per distinct part j, where the multiplicities a_j add up to the
    number of parts, at most n.  Every single exponent is at most the
    weight, so n R bounds each field.  (A wrong bound could only raise
    OverflowError: every product checks its guard bits.)
    """
    bound = 0
    for s, p in ctable.weil.items():
        if s <= n:
            for _et, a, ey in p.terms:
                bound = max(bound, n * max(ey, sum(j * e for j, e in enumerate(a, 1))) // s)
    return bound.bit_length()


# --------------------------------------------------------------------------
# Tables


class CTable:
    """Counts C[s,k].  Symbolic mode hands out free symbols; concrete mode
    keeps the rank-s polynomial for k=1 in e-form (`weil`), as ATable does,
    and derives every other k by the Frobenius substitution, so the
    compatibility C[s,k] = C[s,1](t^k, z^k) holds by construction.
    `concrete` converts z-form entries once; `z_form` says it was given
    them.  `base` and `to_obj` render the z-form and keep no copy of it."""

    def __init__(self, mode, g=None, weil=None, z_form=False):
        if mode not in ("symbolic", "concrete"):
            raise ValueError("mode must be 'symbolic' or 'concrete'")
        self.mode = mode
        self.g = g
        self.weil = dict(weil or {})
        self.z_form = z_form
        self._cache = {}

    @classmethod
    def symbolic(cls):
        return cls("symbolic")

    @classmethod
    def concrete(cls, g, base):
        for s, poly in base.items():
            if poly.g != g:
                raise ValueError(f"entry {s} has wrong number of z-variables")
        forms = {type(p) for p in base.values()}
        if len(forms) > 1:
            raise ValueError("mixed z-form and e-form entries")
        if forms == {LaurentPoly}:
            return cls("concrete", g, {s: WeilPoly.from_laurent(p) for s, p in base.items()}, True)
        return cls("concrete", g, base)

    def with_entry(self, s, poly):
        out = CTable("concrete", self.g, {**self.weil, s: poly}, self.z_form)
        out._cache = {key: v for key, v in self._cache.items() if key[0] != s}
        return out

    @property
    def base(self):
        """The entries in z-form, each converted when it is read."""
        return _ZForm(self.weil)

    def zero(self):
        return FreePoly.zero() if self.mode == "symbolic" else WeilPoly.zero(self.g)

    def entry(self, s: int, k: int):
        if self.mode == "symbolic":
            return FreePoly.symbol(s, k)
        if s not in self.weil:
            raise EntryMissing(f"no C-table entry for rank s={s}, extension k={k}")
        if (s, k) not in self._cache:
            self._cache[(s, k)] = self.weil[s].frobenius_substitute(k)
        return self._cache[(s, k)]

    def to_obj(self):
        """The JSON form, with z-form entries."""
        return {"entries": {str(s): p.to_laurent().to_obj() for s, p in sorted(self.weil.items())}}


class _ZForm(Mapping):
    """A read-only z-form view of e-form entries."""

    def __init__(self, weil):
        self._weil = weil

    def __getitem__(self, s):
        return self._weil[s].to_laurent()

    def __iter__(self):
        return iter(self._weil)

    def __len__(self):
        return len(self._weil)


class ATable:
    """Indecomposable-bundle counts for ranks >= 2 (rank 1 is the built-in
    Picard polynomial).  Entries are validated to be Weil-invariant and to
    satisfy the positivity constraint on load, and the table keeps only
    their e-form (`weil`), which the inversion reads.  An entry is given as
    a WeilPoly, or as a z-form LaurentPoly whose Weil check is its
    conversion to e-form (WeilPoly.from_laurent).

    Positivity (every z-form term t^m z^n has v = m + sum_i min(n_i, 0) >= 0)
    is read off the e-form: it holds exactly when every e-form t-exponent is
    >= 0.  The span P of the terms with v >= 0 is a subring (v of a product
    is at least the sum of the v's), and it holds t and every e_j (each term
    of w_i = z_i + t/z_i has v = 0); so an e-form with t-exponents >= 0 is
    positive.  Conversely, v is constant on a Weil orbit and is the
    t-exponent of the orbit's representative, so a positive p is a sum of
    c t^a y^b M_mu with a >= 0.  Each M_lambda lies in Q[t, y][e], by
    induction in the solve order of to_laurent's rows (laurent._eform_row):
    e^a (lambda_j = a_j + ... + a_g) lies in P and is M_lambda plus orbit
    sums t^m M_nu with m >= 0 that come earlier in that order.
    """

    def __init__(self, g, entries):
        self.g = g
        self.weil = {int(n): self._checked(g, int(n), poly) for n, poly in entries.items()}

    @staticmethod
    def _checked(g, n, poly):
        """The e-form of entry n; checks its g, Weil invariance, positivity."""
        if poly.g != g:
            raise ValueError(f"entry {n} has wrong number of z-variables")
        if not isinstance(poly, WeilPoly):
            try:
                poly = WeilPoly.from_laurent(poly)
            except InvarianceError:
                raise ValueError(f"A-table entry {n} is not Weil-invariant") from None
        if any(et < 0 for et, _a, _ey in poly.terms):
            raise ValueError(f"A-table entry {n} violates positivity")
        return poly

    @classmethod
    def from_obj(cls, obj, g):
        """The table of a file object.  The faults come in this order: every
        entry's format faults (a rank key, then the polynomial's own, in
        LaurentPoly.from_obj's order), in file order; then, entry by entry
        in file order, a wrong g, a Weil-invariance failure and positivity.
        Each entry is checked when read, so that one z-form is held at a
        time, and its fault is held until the later entries are read."""
        try:
            entries = obj["entries"].items()
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed bundle-count table JSON: {exc!r}") from None
        weil = {}
        fault = None
        for key, p in entries:
            # a canonical key is the only spelling of its rank, so no two
            # keys can name the same rank
            n = fields.canonical_int(key)
            if n is None:
                raise ValueError(f"malformed bundle-count table JSON: rank key {key!r} "
                                 "is not a canonical integer")
            if n < 2:
                raise ValueError(f"malformed bundle-count table JSON: rank key {key!r} "
                                 "is below 2 (rank 1 is the built-in Picard polynomial)")
            poly = LaurentPoly.from_obj(p)
            if fault is None:
                try:
                    weil[n] = cls._checked(g, n, poly)
                except ValueError as exc:
                    fault = exc
            del poly  # let this z-form go before the next read
        if fault is not None:
            raise fault
        return cls(g, weil)

    @classmethod
    def from_json(cls, text, g):
        return cls.from_obj(json.loads(text), g)


# --------------------------------------------------------------------------
# The master formula


def count_exponent(ctable: CTable, l: int, cap: int) -> TruncatedSeries:
    """sum over s,k >= 1 with s*k*l <= cap of (s/k) C[s,kl] z^{skl}."""
    zero = ctable.zero()
    terms = []
    for s in range(1, cap + 1):
        for k in range(1, cap // (s * l) + 1):
            terms.append((s * k * l, ctable.entry(s, k * l) * Fraction(s, k)))
    return TruncatedSeries.from_terms(cap, terms, zero)


def _exp_coeff_concrete(exponent, alpha, a: int):
    """[z^0..z^a] of exp(alpha * exponent) for polynomial coefficients, from
    one recurrence: a list whose entry m is (integer polynomial, rational
    scale) with value polynomial * scale.  It serves both modes of the
    master formula: alpha is rational for a concrete table (or a symbolic
    one at a fixed genus) and a packed polynomial, 2 (g-1) times a
    rational, in the symbolic genus offset.

    Denominators are cleared up front so the polynomial convolutions run in
    pure integer arithmetic: with M_m = D alpha E_m integral, the scaled
    coefficients f_m = m! D^m e_m satisfy
    f_m = sum_k k M_k f_{m-k} (m-1)!/(m-k)! D^{k-1}, and the scale of f_m is
    1/(m! D^m).  Entry m depends on E_1..E_m alone, and D only on how it is
    written, so a recurrence run to a larger `a` (a larger D, or E truncated
    later) gives each lower coefficient the same value.  Each f_m is one
    fused multiply-accumulate (LaurentPoly.add_products) over its k.
    """
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
        f[n] = zero.add_products(
            (ms[k], f[n - k], k * (math.factorial(n - 1) // math.factorial(n - k)) * denom ** (k - 1))
            for k in range(1, n + 1) if ms[k] and f[n - k])
    return [(f[m], Fraction(1, math.factorial(m) * denom ** m)) for m in range(a + 1)]


def _graded(p: PackedPoly, w: int) -> PackedPoly:
    """p with each monomial's coefficient times w^(its genus-offset
    exponent)."""
    mask = (1 << p.widths[0]) - 1
    return p._new({key: c * w ** (key & mask) for key, c in p.terms.items()})


def _exp_factors(keys, source, chi, graded: bool):
    """The exp factor [z^a] exp(chi w/l E_l) of each key (l, a, w), as
    (integer polynomial, scale), where E_l = count_exponent(source, l, .).

    One `_exp_coeff_concrete` recurrence per group, run to the largest a
    the group needs, gives every factor of the group, since its lower
    coefficients keep their values; one E_l, truncated at the largest a of
    any group of that l, serves all of them, since a longer truncation
    leaves the lower coefficients alone.  A group is one (l, w), or with
    `graded` one l: then chi is 2 gamma (the symbolic genus offset) and the
    factor for w is the w = 1 factor graded by gamma.  Proof:
    [z^a] exp(x E_l) = sum_k x^k/k! [z^a] E_l^k, and each coefficient of
    E_l is linear in the C-symbols and free of gamma, so each monomial of
    the k-th summand has C-degree k.  With x = 2 gamma w/l it carries
    gamma^k w^k: its gamma exponent is k, and summands of different k share
    no monomial.  So multiplying each monomial of the w = 1 factor by
    w^(its gamma exponent) gives the w factor; w is an integer, so the
    polynomial stays integral under the same scale.
    """
    caps = {}  # group -> the largest a it needs
    for l, a, w in keys:
        group = l if graded else (l, w)
        caps[group] = max(caps.get(group, 0), a)
    tops = {}  # l -> the largest a of any group of that l
    for group, cap in caps.items():
        l = group if graded else group[0]
        tops[l] = max(tops.get(l, 0), cap)
    series = {l: count_exponent(source, l, cap) for l, cap in tops.items()}
    runs = {}
    for group, cap in caps.items():
        l, w = (group, 1) if graded else group
        runs[group] = _exp_coeff_concrete(series[l], chi * Fraction(w, l), cap)
    factors = {}
    for l, a, w in keys:
        if graded:
            poly, scale = runs[l][a]
            factors[(l, a, w)] = (_graded(poly, w), scale)
        else:
            factors[(l, a, w)] = runs[(l, w)][a]
    return factors


def a_from_c(n: int, genus, ctable: CTable):
    """Number of geometrically indecomposable bundles of rank n (for degrees
    coprime to n) as a polynomial in the counts C[s,k], s*k <= n.

    genus is an integer >= 2 for the concrete evaluation, or None for the
    symbolic genus-offset variable.  For n = 1 the value is C[1,1] itself
    and any genus >= 1 is accepted.  Both modes run the same code on
    packed monomials, one int each (PackedPoly), and convert only on the
    way in and out: each entry the formula reads is packed once per call,
    and `_master_sum`'s integer sum is divided once and unpacked.  A
    symbolic table's symbols are packed into `_symbol_kind(n)` and the
    result comes out as a FreePoly (`a_symbolic_text` prints the same
    polynomial from the packed sum, without it).  A concrete table's e-form
    Frobenius images are packed into fields of the width `_field_width`
    gives, and the result comes out as a WeilPoly; no table is converted
    here, and only a table made from z-form entries gets its result back in
    z-form.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        p = ctable.entry(1, 1)
        return p.to_laurent() if ctable.z_form else p
    if genus is not None and genus < 2:
        raise ValueError("need genus >= 2 for ranks >= 2")
    numerator, divisor, gamma_power = _master_sum(n, genus, ctable)
    result = numerator.divide_exact(divisor, gamma_power).unpack()
    return result.to_laurent() if ctable.z_form else result


def a_symbolic_text(n: int) -> str:
    """a_from_c(n, None, CTable.symbolic()).render(), which `a-symbolic`
    prints; from rank 2 on it is rendered straight from `_master_sum`'s
    packed integer sum and its divisor."""
    if n < 2:
        return a_from_c(n, None, CTable.symbolic()).render()
    numerator, divisor, gamma_power = _master_sum(n, None, CTable.symbolic())
    return numerator.render(divisor, gamma_power)


def _master_sum(n: int, genus, ctable: CTable):
    """(numerator, divisor, gamma_power) with A_n = numerator / (divisor
    gamma^gamma_power) for n >= 2 and a_from_c's genus: the partition sum in
    integers on packed monomials, before its one division.

    The partition terms are listed first; a partition is a multiplicity map
    {part j: count a_j}.  Part j has the exp factor [z^(a_j)]
    exp((2g-2) w/l E_l), with w the sum of min(nu, j) over all parts nu, and
    `_exp_factors` computes every factor the terms need, one recurrence per
    (l, w), or per l in the genus offset.  The terms are added up in
    integers, each weighted against the common denominator of their
    scales, in one fused multiply-accumulate (LaurentPoly.add_products) that
    also multiplies in each term's last factor.
    """
    if ctable.mode == "symbolic":
        kind = _symbol_kind(n)
    else:
        width = _field_width(n, ctable)
        kind = packed_kind(f"PackedWeilPoly{ctable.g}w{width}", (width,) * (ctable.g + 1))
    # the table as count_exponent reads it: each entry packed once per call
    source = SimpleNamespace(zero=kind.zero,
                             entry=functools.cache(lambda s, k: kind.pack(ctable.entry(s, k))))
    if genus is None:  # chi = 2 (g-1), and the result is divided by 2n (g-1)
        chi, scalar, gamma_power = kind.pack(FreePoly.gamma(coeff=2)), 2 * n, 1
    else:
        chi, scalar, gamma_power = Fraction(2 * genus - 2), n * (2 * genus - 2), 0
    plan = []  # (mu(l) / number of parts, factor keys (l, a_j, w)) per term
    for l, mu in mobius_divisors(n):
        for lam in partitions(n):
            if any(a % l for a in lam.values()):
                continue  # the z^{a_j} coefficient vanishes when l does not divide a_j
            plan.append((Fraction(mu, sum(lam.values())),
                         [(l, aj, sum(a * min(nu, j) for nu, a in lam.items()))
                          for j, aj in lam.items()]))
    keys = dict.fromkeys(key for _, term_keys in plan for key in term_keys)
    factors = _exp_factors(keys, source, chi, graded=genus is None)
    scaled_terms = []
    for scale, term_keys in plan:
        for key in term_keys:
            scale *= factors[key][1]
        scaled_terms.append((term_keys, scale))
    common = math.lcm(*(scale.denominator for _, scale in scaled_terms))
    unit = source.zero() + 1
    products = []  # (the product of all factors but the last, the last, weight)
    for keys, scale in scaled_terms:
        polys = [factors[key][0] for key in keys]
        head = unit if len(polys) == 1 else polys[0]
        for poly in polys[1:-1]:
            head = head * poly
        products.append((head, polys[-1], scale.numerator * (common // scale.denominator)))
    return source.zero().add_products(products), scalar * common, gamma_power


def c_from_a(n: int, g: int, atable: ATable) -> CTable:
    """The C-table through rank n, by inverting the master formula rank by
    rank; it keeps e-form entries (`base` and `to_obj` render the z-form).
    The genus rule is a_from_c's: g >= 2 for ranks >= 2, and g >= 1 at
    rank 1, whose entry is the built-in Picard polynomial.

    Every monomial of the z^m coefficient of the rank-s formula has total
    weight m <= s in the (rank * extension) grading, so the unknown C[s,1]
    (weight s) can only enter linearly and never multiplied by another count.
    Its coefficient is measured at runtime by evaluating the formula on a
    table that is zero except for C[s,1] = 1, and must come out as exactly 1.
    Then C_s = A_s - (formula with the unknown set to zero).

    The inversion runs in e-form, where every entry is Weil-invariant by
    construction; the change of basis to the z-form is unitriangular over Z,
    so C_s is integral in one form exactly when it is in the other.
    """
    least = 2 if n >= 2 else 1
    if g < least:
        raise ValueError(f"need genus >= {least}")
    table = CTable.concrete(g, {1: pic_eform(g)})
    zero, one = WeilPoly.zero(g), WeilPoly.const(g, 1)
    for s in range(2, n + 1):
        if s not in atable.weil:
            raise EntryMissing(f"no A-table entry for rank {s}")
        zeros = CTable.concrete(g, {r: zero for r in range(1, s)})
        probe = a_from_c(s, g, zeros.with_entry(s, one))
        if probe != one:
            raise ConsistencyError(
                f"rank-{s} unknown has coefficient {probe.to_laurent().render()}, expected 1"
            )
        v0 = a_from_c(s, g, table.with_entry(s, zero))
        c_s = atable.weil[s] - v0
        if any(c.denominator != 1 for c in c_s.terms.values()):
            raise IntegralityError(f"rank-{s} count polynomial is not integral")
        table = table.with_entry(s, c_s)
    return table


def pic_quotient(p: WeilPoly, g: int) -> WeilPoly:
    """Exact quotient of the e-form p by the Picard polynomial, pic_eform(g)."""
    if p.is_zero():
        return p
    return p.exact_divide(pic_eform(g))


def pgn_report(n: int, g: int, p: WeilPoly):
    """The `pgn`/`qgn` report on the e-form P = C_n, and the quotient
    Q = P / Pic in e-form (None when Pic does not divide P).

    Every verdict is read off the e-form.  P is Weil-invariant because it is
    built in the invariant ring.  Positivity is ATable's rule: every
    t-exponent is >= 0.  With deg t = 2 and deg z_i = 1, each w_i has weight
    1 and e_j weight j; the change of basis keeps weight, so the top-weight
    z-part is t^((g-1)n^2+1) exactly when the top-weight e-part is.  Q lies
    in the invariant ring whenever it exists (P and Pic are invariant), so Pic
    divides P in one form exactly when it does in the other.  The Euler value
    is Q at t = z_i = 1 and y = g - 1, where w_i = 2 and e_j = C(g, j) 2^j,
    from WeilPoly.value, the evaluator that `eval` uses at a curve.
    """
    top = (g - 1) * n * n + 1
    weights = {key: 2 * key[0] + sum(j * a for j, a in enumerate(key[1], 1))
               for key in p.terms}
    w = max(weights.values(), default=None)
    tops = [key for key, v in weights.items() if v == w]
    report = {
        "weil_invariant": True,
        "positivity": all(et >= 0 for et, _a, _ey in p.terms),
        "dominant_term": (w == 2 * top and tops == [(top, (0,) * g, 0)]
                          and p.terms[tops[0]] == 1),
    }
    try:
        q = pic_quotient(p, g)
    except DivisibilityError:
        q = None
    report["pic_divisible"] = q is not None
    report["euler_matches"] = False
    if q is not None:
        value = q.value(1, [math.comb(g, j) * 2 ** j for j in range(1, g + 1)], g - 1)
        report["euler_value"] = str(value)
        report["euler_matches"] = value == (euler_characteristic(n, g) if g >= 2 else 1)
    return report, q


def euler_characteristic(n: int, g: int) -> int:
    """sum over l | n of mu(l) mu(n/l) l^{2g-3}, from one factorization of n.

    The sum is multiplicative in n.  At a prime power p^e it is
    -(1 + p^(2g-3)) for e = 1 (l = 1 and l = p), p^(2g-3) for e = 2 (only
    l = p leaves both l and n/l squarefree) and 0 for e >= 3, where the
    factorization stops."""
    if n < 1 or g < 2:
        raise ValueError("need n >= 1 and g >= 2")
    total = 1
    for p, e in prime_factors(n):
        if e > 2:
            return 0
        power = p ** (2 * g - 3)
        total *= -(1 + power) if e == 1 else power
    return total


def linear_part_check(n: int) -> bool:
    """The part of the rank-n master formula that is linear in the C-symbols
    equals sum over d | n of C[d,1] (with no genus dependence)."""
    full = a_from_c(n, None, CTable.symbolic())
    linear = full.c_degree_part(1)
    expected = FreePoly.zero()
    for d in divisors(n):
        expected = expected + FreePoly.symbol(d, 1)
    return linear == expected


def inertial_class_count(n: int, d: int, table):
    """Number of inertial classes of rank-n systems whose twist-fixator has
    order exactly d:  (1/d) * sum over l | d of mu(l) C[n/d, d/l].

    `table` is a CTable, or any object with its `entry(s, k)`.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n % d:
        raise ValueError("d must divide n")
    total = None
    for l, mu in mobius_divisors(d):
        piece = table.entry(n // d, d // l) * Fraction(mu, d)
        total = piece if total is None else total + piece
    return total

