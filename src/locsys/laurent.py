"""Exact sparse Laurent polynomials carrying the Weil symmetry, plus curves
over finite fields and exact integer evaluation at their Frobenius
eigenvalues.

A polynomial lives in Q[t^{+-1}, z_1^{+-1}, ..., z_g^{+-1}][y] where y is an
auxiliary nonnegative-power variable reserved for the genus offset g-1 (the
CLI renders it as ``(g-1)``).  Term keys are ``(t_exp, z_exps, y_exp)`` and
the canonical term order is lexicographic on the key, which makes rendering
and JSON serialization byte-reproducible.

LaurentPoly's ring structure is the package's one sparse-polynomial kernel;
the e-form (WeilPoly, below), the free symbols of the master formula
(counting.FreePoly) and the packed kind the master formula multiplies in
both modes (counting.PackedPoly, one int per monomial) are subclasses that
differ only in their monomial keys.  Its one product loop is a fused
multiply-accumulate, add_products, which adds scale * a * b for many pairs
into one dict; a product a * b is that loop with a single pair.

A curve is its integer zeta numerator.  Its Frobenius power sums give, in
integers, the power sums of w_i = a_i^k + q^k/a_i^k over the g Frobenius
pairs, and one object serves two uses: the exact Weil check (a Sturm chain
decides whether every |a_i| = sqrt(q)) and evaluation, where the e-form's
e_j become the elementary symmetric functions of the w_i.  No root is found
anywhere in this module.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import warnings
from fractions import Fraction
from operator import itemgetter

from . import polyq


class DimensionMismatch(ValueError):
    """Operands built over a different number of z-variables."""


class DivisibilityError(ArithmeticError):
    """Exact division failed; carries the offending remainder."""

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


# the counting engine's two errors live here, so that the command line can
# catch them without importing locsys.counting
class EntryMissing(LookupError):
    """A required C-table entry is absent."""


class IntegralityError(ArithmeticError):
    """A count polynomial came out with non-integer coefficients."""


class InvarianceError(ValueError):
    """A Weil-invariant polynomial was required."""


def _coeff(c):
    """Normalize to int when integral, Fraction otherwise; the two mix freely
    in arithmetic and integers keep the hot loops fast."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, str):
        return _coeff(Fraction(c))
    raise TypeError(f"unsupported coefficient {c!r}")


def render_terms(pairs):
    """The signed sum of (monomial text, coefficient) pairs, in the given
    order; empty text is the constant monomial and no pairs render as 0.
    A coefficient is an int or Fraction, or already its str."""
    chunks = []
    for body, c in pairs:
        c = str(c)
        if not body:
            chunks.append(c)
        elif c == "1":
            chunks.append(body)
        elif c == "-1":
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{c}*{body}")
    if not chunks:
        return "0"
    return chunks[0] + "".join(" - " + chunk[1:] if chunk[0] == "-" else " + " + chunk
                               for chunk in chunks[1:])


class LaurentPoly:
    """Sparse exact Laurent polynomial in t, z_1..z_g and the genus-offset
    variable.  Immutable by convention: no method mutates ``terms``.

    The ring structure below is the one polynomial kernel of the package: a
    dict from monomial keys to int/Fraction coefficients, normalised through
    _coeff, with +, -, *, powers, equality and hashing.  Every product runs
    through one loop, the fused multiply-accumulate add_products: a sum of
    scaled products goes into one dict and builds one polynomial, and * is
    the same loop with one pair and scale 1.  Four monomial kinds
    run on it: the z-form here and the e-form (WeilPoly), the free symbols of
    the master formula as tuples (counting.FreePoly), and the symbols or the
    e-form with each monomial packed into one int (counting.PackedPoly,
    which the master formula multiplies).  Each class supplies only its key
    validation (_key), monomial product (_mono_row), unit key (_unit) and
    how one monomial renders (PackedPoly also checks the keys a product
    builds, _built); operands of different classes never mix.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms=None):
        if g < 0:
            raise ValueError("need g >= 0")
        self.g = g
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _coeff(c)
                k = self._key(key)
                if c == 0:
                    continue
                clean[k] = clean.get(k, 0) + c
                if clean[k] == 0:
                    del clean[k]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g):
        return cls(g)

    @classmethod
    def const(cls, g, c):
        return cls(g, {(0, (0,) * g, 0): _coeff(c)})

    @classmethod
    def monomial(cls, g, c, t=0, z=None, y=0):
        z = tuple(z) if z is not None else (0,) * g
        return cls(g, {(t, z, y): _coeff(c)})

    @classmethod
    def t_var(cls, g):
        return cls.monomial(g, 1, t=1)

    @classmethod
    def z_var(cls, g, i):
        z = [0] * g
        z[i] = 1
        return cls.monomial(g, 1, z=z)

    # -- monomial kind: keys (t_exp, z_exps, y_exp) --------------------------

    def _key(self, key):
        et, ez, ey = key
        ez = tuple(ez)
        if len(ez) != self.g:
            raise DimensionMismatch(f"exponent vector {ez} has length != g={self.g}")
        if ey < 0:
            raise ValueError("genus-offset exponent must be nonnegative")
        return (et, ez, ey)

    def _unit(self):
        return (0, (0,) * self.g, 0)

    @staticmethod
    def _mono_row(a, keys):
        """The product of the monomial a with each of keys, in order (a whole
        row per call keeps the product loop free of per-pair calls)."""
        t, z, y = a
        return [(t + t2, tuple(map(int.__add__, z, z2)), y + y2) for t2, z2, y2 in keys]

    # -- ring structure ----------------------------------------------------

    def _new(self, terms):
        """A polynomial of this class and g whose terms are already clean."""
        out = object.__new__(type(self))
        out.g = self.g
        out.terms = terms
        return out

    def _scalar(self, c):
        c = _coeff(c)
        return self._new({self._unit(): c} if c else {})

    def _check(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot mix {type(self).__name__} and {type(other).__name__}")
        if self.g != other.g:
            raise DimensionMismatch(f"mixed g: {self.g} vs {other.g}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 0:
                return self._new({})
            return self._new({k: _coeff(v * c) for k, v in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return self._accumulate({}, ((self, other, 1),))

    __rmul__ = __mul__

    def add_products(self, triples):
        """self + sum of scale * a * b over the (a, b, scale) in triples, the
        operands of self's class and g and each scale an int or Fraction:
        the fused multiply-accumulate.  Every product goes into one dict and
        one polynomial is built at the end, where a chain of * and + builds
        a scaled copy, a product and a running sum per step."""
        triples = list(triples)
        for a, b, _scale in triples:
            self._check(a)
            self._check(b)
        return self._accumulate(dict(self.terms), triples)

    def _accumulate(self, terms, triples):
        """The kernel's one product loop: add each scale * a * b into terms,
        then build the polynomial (_built)."""
        get = terms.get
        row = self._mono_row
        for a, b, scale in triples:
            if not scale:
                continue
            keys, coeffs = list(b.terms), list(b.terms.values())
            for k1, c1 in a.terms.items():
                c1 = c1 * scale
                for k, c2 in zip(row(k1, keys), coeffs):
                    terms[k] = get(k, 0) + c1 * c2
        return self._built(terms)

    def _built(self, terms):
        """The polynomial of accumulated terms, zero coefficients dropped."""
        return self._new({k: c for k, c in terms.items() if c != 0})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self._scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if type(self) is not type(other):
            raise TypeError(f"cannot compare {type(self).__name__} and {type(other).__name__}")
        return self.g == other.g and self.terms == other.terms

    def __hash__(self):
        return hash((self.g, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure maps ----------------------------------------------------

    def is_weil_invariant(self) -> bool:
        """Fixed by every z_i <-> z_j swap and every z_i -> t z_i^{-1} flip,
        that is, the conversion to e-form succeeds."""
        try:
            WeilPoly.from_laurent(self)
        except InvarianceError:
            return False
        return True

    # -- division ----------------------------------------------------------

    def _valuations(self):
        """Componentwise minimum exponents over the support (exact per-variable
        valuations, since the coefficient field makes this ring a domain)."""
        keys = list(self.terms)
        vt = min(k[0] for k in keys)
        vz = tuple(min(k[1][i] for k in keys) for i in range(self.g))
        vy = min(k[2] for k in keys)
        return vt, vz, vy

    def _shift(self, dt, dz, dy):
        return self._new({
            (et + dt, tuple(a + b for a, b in zip(ez, dz)), ey + dy): c
            for (et, ez, ey), c in self.terms.items()
        })

    def exact_divide(self, d: "LaurentPoly") -> "LaurentPoly":
        """Quotient q with q*d == self, or DivisibilityError with remainder.

        Valuations of exact products add per variable, so both operands are
        shifted into the polynomial cone and reduced there; lex order on the
        cone is a well-order, so the reduction terminates.
        """
        if not isinstance(d, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.zero(self.g)

        pt, pz, py = self._valuations()
        dt, dz, dy = d._valuations()
        if py - dy < 0:
            raise DivisibilityError("quotient needs a negative genus-offset power", self)
        num = self._shift(-pt, tuple(-v for v in pz), -py)
        den = d._shift(-dt, tuple(-v for v in dz), -dy)

        lt_d = max(den.terms)
        cd = den.terms[lt_d]
        quotient = self.zero(self.g)
        rem = num
        while not rem.is_zero():
            lt_r = max(rem.terms)
            et = lt_r[0] - lt_d[0]
            ez = tuple(a - b for a, b in zip(lt_r[1], lt_d[1]))
            ey = lt_r[2] - lt_d[2]
            if et < 0 or ey < 0 or any(e < 0 for e in ez):
                raise DivisibilityError("not exactly divisible", rem)
            ratio = Fraction(rem.terms[lt_r]) / cd
            mono = self.monomial(self.g, ratio, t=et, z=ez, y=ey)
            quotient = quotient + mono
            rem = rem - mono * den
        return quotient._shift(pt - dt, tuple(a - b for a, b in zip(pz, dz)), py - dy)

    # -- evaluation --------------------------------------------------------

    def substitute(self, t_value, z_values, y_value) -> Fraction:
        """Exact evaluation at rational points (used for values like t=z=1)."""
        t_value = Fraction(t_value)
        z_values = [Fraction(v) for v in z_values]
        if len(z_values) != self.g:
            raise DimensionMismatch("wrong number of z values")
        y_value = Fraction(y_value)
        total = Fraction(0)
        for (et, ez, ey), c in self.terms.items():
            v = c * t_value ** et * y_value ** ey
            for zv, e in zip(z_values, ez):
                v *= zv ** e
            total += v
        return total

    # -- serialization -----------------------------------------------------

    def to_obj(self):
        return {
            "g": self.g,
            "terms": [
                {"c": str(c), "t": k[0], "z": list(k[1]), "gamma": k[2]}
                for k, c in sorted(self.terms.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj):
        """Read to_obj's form, a z-form LaurentPoly; g and every exponent
        must be a JSON integer (a float, bool or string is rejected, not
        truncated), and a coefficient a rational string such as "3/2",
        read under Fraction's grammar, or a JSON integer.  Past the
        interpreter's digit limit a string is rejected.

        `terms` and each `z` must be JSON lists (an object or a string
        there is a format error, not an empty or a per-character read).

        A plain file (_plain_zform) is checked a whole column at a time.
        Anything else goes to the exact per-term read (_zform_by_term): a
        format fault, g < 0, a bad key shape, a zero term, or a coefficient
        that is not plain decimal digits ("+3", " 3", "1_0", "3.0", digits
        of other scripts).  The errors come in the order of a read followed
        by __init__: format errors in file order, then g >= 0, then the
        first term whose key has the wrong shape (zero terms included)."""
        if cls is not LaurentPoly:
            raise TypeError(f"the file form is the z-form; read a LaurentPoly, not a {cls.__name__}")
        poly = _plain_zform(obj)
        return _zform_by_term(obj) if poly is None else poly

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))

    def render(self) -> str:
        pairs = []
        for (et, ez, ey), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if et:
                factors.append("t" if et == 1 else f"t^{et}")
            for i, e in enumerate(ez):
                if e:
                    name = f"z{i + 1}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            if ey:
                factors.append("(g-1)" if ey == 1 else f"(g-1)^{ey}")
            pairs.append(("*".join(factors), c))
        return render_terms(pairs)

    def __repr__(self):
        return f"LaurentPoly(g={self.g}, {self.render()})"


def pic_polynomial(g: int) -> LaurentPoly:
    """prod_i (1 - z_i)(1 - t z_i^{-1}); its curve values are |Pic^0|."""
    p = LaurentPoly.const(g, 1)
    one = LaurentPoly.const(g, 1)
    t = LaurentPoly.t_var(g)
    for i in range(g):
        zi = LaurentPoly.z_var(g, i)
        zi_inv = LaurentPoly.monomial(g, 1, z=[-1 if j == i else 0 for j in range(g)])
        p = p * (one - zi) * (one - t * zi_inv)
    return p


def pic_eform(g: int) -> "WeilPoly":
    """pic_polynomial(g) in e-form, without its 4^g z-form terms: since
    (1 - z)(1 - t/z) = 1 + t - w, it is sum_j (-1)^j e_j (1+t)^(g-j)."""
    e = [(0,) * g] + [tuple(int(i == j) for i in range(g)) for j in range(g)]
    return WeilPoly(g, {(i, e[j], 0): (-1) ** j * math.comb(g - j, i)
                        for j in range(g + 1) for i in range(g - j + 1)})


def weil_symmetrize(mono: LaurentPoly) -> LaurentPoly:
    """Group-average of a polynomial over all z-swaps and z_i -> t z_i^{-1}
    flips, without the 1/(g! 2^g) to stay integral: each term goes to every
    member of its Weil orbit g! 2^g / |orbit| times."""
    g = mono.g
    order = math.factorial(g) * 2 ** g
    terms = {}
    for (et, ez, ey), c in mono.terms.items():
        mu, dt = _orbit_rep(ez)
        members = _orbit(mu)
        c = c * (order // len(members))
        for shift, z in members:
            key = (et + dt + shift, z, ey)
            terms[key] = terms.get(key, 0) + c
    return LaurentPoly(g, terms)


# --------------------------------------------------------------------------
# Weil-invariant coordinates


class WeilPoly(LaurentPoly):
    """A Weil-invariant polynomial written in Weil-invariant coordinates.

    The invariant ring is Q[t^{+-1}, y][e_1..e_g], where e_j is the j-th
    elementary symmetric function of w_i = z_i + t/z_i: a plain polynomial
    ring, so products here have far fewer terms than in the z-form.  Keys are
    ``(t_exp, e_exps, y_exp)`` and the arithmetic, exact division included,
    is LaurentPoly's kernel; mixing the two forms raises TypeError.  The
    z-specific methods (Weil check, substitute, render, JSON) apply to the
    z-form only: convert with to_laurent first.  The file form is the
    z-form's: read it with LaurentPoly.from_obj and convert with
    from_laurent.
    """

    __slots__ = ()

    def _valuations(self):
        # the e_j are polynomial variables, so exact division never shifts them
        vt, _ve, vy = LaurentPoly._valuations(self)
        return vt, (0,) * self.g, vy

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "WeilPoly":
        """The e-form of a Weil-invariant z-form polynomial.

        Each Weil orbit has one member with all z-exponents >= 0 sorted in
        descending order (mu), its representative; the orbit sum of
        t^a z^mu y^b is t^a y^b M_mu.  Raises InvarianceError when some orbit
        has a member that is missing or carries a different coefficient.

        One scan checks this.  A term that is not a representative needs its
        representative present with the same coefficient (one lookup), and a
        representative adds its orbit size to a running total.  That is
        enough: the terms are distinct keys, each lies in the orbit of exactly
        one present representative, and an orbit holds at most |orbit| of them;
        so the terms number at most the total, with equality exactly when every
        orbit is full.  The e-form is then c t^a y^b M_mu summed over the
        representatives into one dict.  Each z-exponent vector's shape comes
        from _ZSHAPES, worked out once per process.
        """
        if type(p) is not LaurentPoly:
            raise TypeError("need a z-form LaurentPoly")
        g, terms = p.g, p.terms
        get = terms.get
        shapes = _ZSHAPES.get
        reps = []
        covered = 0
        for (et, ez, ey), c in terms.items():
            mu, dt, size, orbit_terms = shapes(ez) or _zshape(ez)
            if size:
                covered += size
                reps.append((et, ey, c, orbit_terms))
            elif get((et + dt, mu, ey)) != c:
                raise InvarianceError("polynomial is not Weil-invariant")
        if covered != len(terms):
            raise InvarianceError("polynomial is not Weil-invariant")
        acc = {}
        acc_get = acc.get
        for et, ey, c, orbit_terms in reps:
            for (mt, ma, my), mc in orbit_terms:
                k = (et + mt, ma, ey + my)
                acc[k] = acc_get(k, 0) + c * mc
        out = cls(g)
        out.terms = {k: c for k, c in acc.items() if c}
        return out

    def to_laurent(self) -> LaurentPoly:
        """The canonical z-form, the mirror of from_laurent: each term
        c t^i e^a y^b adds c times the row of e^a (_eform_row, its orbit
        coefficients) into one dict of orbits, and each nonzero orbit
        coefficient then goes to every member of its orbit."""
        g = self.g
        orbits = {}
        get = orbits.get
        for (et, a, ey), c in self.terms.items():
            for (dt, lam, dy), rc in _eform_row(g, a):
                k = (et + dt, lam, ey + dy)
                orbits[k] = get(k, 0) + c * rc
        terms = {}
        for (et, lam, ey), c in orbits.items():
            if c:
                for dt, z in _orbit(lam):
                    terms[(et + dt, z, ey)] = c
        out = LaurentPoly(g)
        out.terms = terms
        return out

    def value(self, t: int, e, y: int) -> Fraction:
        """The exact value at integers t, e_1..e_g (the list e) and y; t is
        nonzero when some t-exponent is negative.  The sum runs in integers,
        scaled by t^-lo (lo the least t-exponent, or 0) and by the lcm of the
        coefficient denominators, and is divided once at the end."""
        lo = min(0, min((et for et, _a, _ey in self.terms), default=0))
        denom = math.lcm(*(c.denominator for c in self.terms.values()))
        total = 0
        for (et, a, ey), c in self.terms.items():
            total += (c.numerator * (denom // c.denominator) * t ** (et - lo)
                      * y ** ey * math.prod(map(pow, e, a)))
        return Fraction(total, denom * t ** -lo)

    def frobenius_substitute(self, k: int) -> "WeilPoly":
        """t -> t^k, z_i -> z_i^k: here e_j -> e_j(D_k(w_1, t), ..., D_k(w_g, t)),
        the orbit sum M_(k,..,k,0,..,0) with j parts k."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("need k >= 1")
        g = self.g
        if k == 1:
            return self
        images = [_orbit_sum(g, (k,) * j + (0,) * (g - j)) for j in range(1, g + 1)]
        powers = {(0,) * g: self.const(g, 1)}
        by_a = {}
        for (et, a, ey), c in self.terms.items():
            by_a.setdefault(a, {})[(et * k, (0,) * g, ey)] = c
        return self.zero(g).add_products((WeilPoly(g, coeffs), _composed(images, powers, a), 1)
                                         for a, coeffs in by_a.items())

    def __repr__(self):
        return f"WeilPoly(g={self.g}, {self.terms})"


def _plain_zform(obj):
    """The LaurentPoly of a z-form polynomial object that _zform_by_term
    reads with no fault and no zero term, with every coefficient a JSON
    integer or a plain decimal integer string (ASCII digits after at most
    one "-", which int() reads as Fraction would), its terms in file order;
    None for any other object.

    Each check runs over a whole column (the per-term bytecode of
    _zform_by_term is most of its cost).  type() is compared exactly, so a
    bool, which is an int to isinstance, is not plain, and the exponents
    are checked term by term, not per distinct key (True == 1 == 1.0).  A
    string column is plain when its concatenation is ASCII digits and "-"
    and int() reads every string, which leaves exactly one "-" or none, in
    front; an int() past the interpreter's digit limit is not plain either."""
    try:
        g, items = obj["g"], obj["terms"]
        if type(g) is not int or g < 0 or type(items) is not list:
            return None
        ts = list(map(itemgetter("t"), items))
        zs = list(map(itemgetter("z"), items))
        ys = list(map(dict.get, items, itertools.repeat("gamma"), itertools.repeat(0)))
        cs = list(map(itemgetter("c"), items))
    except (KeyError, TypeError):
        return None
    if not (set(map(type, zs)) <= {list} and set(map(len, zs)) <= {g}
            and set(map(type, itertools.chain(ts, ys, itertools.chain.from_iterable(zs)))) <= {int}
            and min(ys, default=0) >= 0):
        return None
    kinds = set(map(type, cs))
    if kinds == {str}:
        digits = "".join(cs)
        if not (digits.isascii() and digits.replace("-", "").isdigit()):
            return None
        cs = map(int, cs)
    elif not kinds <= {int}:
        return None
    try:
        terms = dict(zip(zip(ts, map(tuple, zs), ys), cs))
    except ValueError:  # an empty string, a stray "-" or past the digit limit
        return None
    if len(terms) != len(items) or not all(terms.values()):  # a duplicate or a zero term
        return None
    poly = LaurentPoly(g)
    poly.terms = terms
    return poly


def _zform_by_term(obj):
    """LaurentPoly.from_obj for an object that _plain_zform refuses: each
    term is checked and converted once, in file order, and the terms go to
    the polynomial without a second normalisation."""
    try:
        g = obj["g"]
        if type(g) is not int:
            raise ValueError(f"malformed polynomial JSON: g has non-integer {g!r}")
        items = obj["terms"]
        if type(items) is not list:
            raise ValueError(f"malformed polynomial JSON: terms has non-list {items!r}")
        terms = {}
        zeros = False
        bad_key = None
        for term in items:
            t, z = term["t"], term["z"]
            if type(z) is not list:
                raise ValueError(f"malformed polynomial JSON: z has non-list {z!r}")
            key = (t, tuple(z), term.get("gamma", 0))
            t, z, gamma = key
            if type(t) is not int or type(gamma) is not int or [e for e in z if type(e) is not int]:
                raise ValueError(f"malformed polynomial JSON: non-integer exponent in {key}")
            if key in terms:
                raise ValueError(f"malformed polynomial JSON: duplicate term {key}")
            c = term["c"]
            if type(c) is str:
                try:
                    c = _coeff(Fraction(c))
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"malformed polynomial JSON: coefficient {c!r} "
                                     "is not a rational number") from None
            elif type(c) is not int:
                raise ValueError(f"malformed polynomial JSON: coefficient {c!r} "
                                 "is neither a string nor an integer")
            if bad_key is None and (len(z) != g or gamma < 0):
                bad_key = key
            terms[key] = c
            zeros = zeros or not c
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc!r}") from None
    poly = LaurentPoly(g)  # need g >= 0
    if bad_key is not None:
        poly._key(bad_key)  # raises __init__'s error for this key
    # the duplicate check above needs the zero terms' keys; the polynomial does not
    poly.terms = {k: c for k, c in terms.items() if c} if zeros else terms
    return poly


def _partition(a):
    """lambda_j = a_j + ... + a_g: the e-monomial e^a leads M_lambda."""
    return tuple(itertools.accumulate(reversed(a)))[::-1]


def _solve_order(a):
    """Heap key of the e-monomial e^a: (|lambda|, lambda) descending."""
    lam = _partition(a)
    return (-sum(lam), tuple(-x for x in lam))


def _composed(images, powers, a):
    """prod_j images[j]^a_j, memoized in `powers` through a with its last
    nonzero entry lowered."""
    if a not in powers:
        j = max(i for i, e in enumerate(a) if e)
        powers[a] = _composed(images, powers, a[:j] + (a[j] - 1,) + a[j + 1:]) * images[j]
    return powers[a]


def _orbit_rep(ez):
    """(mu, dt): t^a z^ez is in the Weil orbit of t^(a + dt) z^mu, with mu
    the |e_i| sorted descending."""
    mu = tuple(sorted(map(abs, ez), reverse=True))
    return mu, (sum(ez) - sum(mu)) // 2  # the t-shift: sum of min(e_i, 0)


# The caches below fill lazily, per genus and exponent shape, so importing
# the module does no work; their values are tuples (or lists and
# polynomials that nothing mutates), shared by every caller.

# z-exponent vector (its length is the genus) -> (mu, t-shift, orbit size,
# M_mu's terms as a tuple) for a representative, (mu, t-shift, 0, None) for
# any other member of its orbit: from_laurent's view of one term.
_ZSHAPES = {}


def _zshape(ez):
    """The _ZSHAPES entry of the z-vector ez, made and stored on a miss; the
    members of an orbit share its representative's mu."""
    mu, dt = _orbit_rep(ez)
    if ez == mu:
        shape = (mu, 0, len(_orbit(mu)), tuple(_orbit_sum(len(ez), mu).terms.items()))
    else:
        shape = ((_ZSHAPES.get(mu) or _zshape(mu))[0], dt, 0, None)
    _ZSHAPES[ez] = shape
    return shape


@functools.cache
def _eform_row(g, a):
    """The e-monomial e^a as orbit sums: the ((dt, lambda, dy), c) with
    e^a = sum c t^dt y^dy M_lambda, in solve order.

    With lambda_j = a_j + ... + a_g, M_lambda is e^a plus e-monomials that
    come later in the order of (|lambda|, lambda) descending; so taking the
    e-monomials in that order (by a heap) and subtracting c t^i y^b M_lambda
    from the rest is a unitriangular solve for the orbit coefficients (the
    elementary-to-monomial transition, with the t-twist of w = z + t/z).
    """
    key = (0, a, 0)
    rest = {key: 1}
    heap = [(_solve_order(a), key)]
    row = []
    while heap:
        key = heapq.heappop(heap)[1]
        c = rest.pop(key, 0)
        if not c:
            continue
        et, b, ey = key
        lam = _partition(b)
        row.append(((et, lam, ey), c))
        for (mt, ma, my), mc in _orbit_sum(g, lam).terms.items():
            k = (et + mt, ma, ey + my)
            if k == key:
                continue  # the leading term e^b, coefficient 1
            v = rest.get(k, 0) - c * mc
            if k not in rest:
                heapq.heappush(heap, (_solve_order(ma), k))
            if v:
                rest[k] = v
            else:
                del rest[k]
    return tuple(row)


@functools.cache
def _orbit(mu):
    """(t shift, z exponents) of each member of the Weil orbit of z^mu, for
    mu >= 0 sorted descending: t^a z^mu runs over t^(a + shift) z^e."""
    members = []
    for perm in sorted(set(itertools.permutations(mu))):
        choices = [((0, e),) if e == 0 else ((0, e), (e, -e)) for e in perm]
        for combo in itertools.product(*choices):
            members.append((sum(dt for dt, _ in combo), tuple(e for _, e in combo)))
    return members


@functools.cache
def _dickson_trace(g, m):
    """T_m = sum_i z_i^m + (t/z_i)^m in e-form (T_0 = 2g).

    The z_i and t/z_i are the reciprocal roots of
    prod_i (1 - w_i x + t x^2) = sum_k b_k x^k with
    b_k = sum_{i + 2l = k} (-1)^i C(g-i, l) t^l e_i, and Newton's identities
    give T_m = -(m b_m + sum_{0<i<m} b_i T_{m-i}).
    """
    if m == 0:
        return WeilPoly.const(g, 2 * g)

    def b(k):
        terms = {}
        for i in range(k % 2, min(k, g) + 1, 2):
            e = tuple(1 if j == i - 1 else 0 for j in range(g))
            terms[((k - i) // 2, e, 0)] = (-1) ** i * math.comb(g - i, (k - i) // 2)
        return WeilPoly(g, terms)

    acc = b(m) * m
    for i in range(1, min(m - 1, 2 * g) + 1):
        acc = acc + b(i) * _dickson_trace(g, m - i)
    return -acc


@functools.cache
def _augmented_sum(g, parts):
    """sum over injective s of prod_i D_{parts_i}(w_s(i), t) in e-form, for
    positive parts sorted descending, where D_m(w, t) = z^m + (t/z)^m.

    Taking b = parts[-1] out: the product of the sum over the other parts
    with T_b counts every injective placement of all parts once, plus the
    placements where b lands on the variable of some other part a, and there
    D_a D_b = D_{a+b} + t^b D_{a-b} (D_0 = 2, on a variable left free).
    """
    if len(parts) > g:
        return WeilPoly.zero(g)
    if len(parts) <= 1:
        return _dickson_trace(g, parts[0]) if parts else WeilPoly.const(g, 1)
    rest, b = parts[:-1], parts[-1]
    out = _augmented_sum(g, rest) * _dickson_trace(g, b)
    tb = WeilPoly.monomial(g, 1, t=b)
    for i, a in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        out = out - _augmented_sum(g, tuple(sorted(others + (a + b,), reverse=True)))
        if a == b:
            out = out - tb * _augmented_sum(g, others) * (2 * (g - len(others)))
        else:
            out = out - tb * _augmented_sum(g, tuple(sorted(others + (a - b,), reverse=True)))
    return out


@functools.cache
def _orbit_sum(g, mu):
    """M_mu: the e-form of the orbit sum of z^mu, for mu >= 0 sorted
    descending; the augmented sum counts each member prod_v mult_v! times."""
    parts = tuple(e for e in mu if e)
    repeats = math.prod(math.factorial(parts.count(v)) for v in set(parts))
    return _augmented_sum(g, parts) * Fraction(1, repeats)


# --------------------------------------------------------------------------
# Curves over finite fields


class CurveInput:
    """A curve given by genus, field size, and the integer numerator
    coefficients b_0..b_{2g} of its zeta function, P(z) = prod (1 - a_i z)."""

    def __init__(self, g: int, q: int, numerator):
        from .combinat import prime_factors  # here, so that importing the CLI skips combinat

        if g < 1:
            raise ValueError("need genus >= 1")
        if q < 2 or pow(*next(prime_factors(q))) != q:
            raise ValueError(f"q={q} is not a prime power >= 2")
        numerator = [int(b) for b in numerator]
        if len(numerator) != 2 * g + 1:
            raise ValueError("numerator must have 2g+1 coefficients")
        if numerator[0] != 1:
            raise ValueError("numerator must have constant term 1")
        self.g = g
        self.q = q
        self.numerator = numerator
        if not self.functional_equation_holds():
            raise ValueError("numerator violates the functional equation "
                             "b_{2g-k} = q^(g-k) b_k")
        if not self.is_weil():
            warnings.warn(
                f"some Frobenius eigenvalue modulus differs from sqrt(q) = sqrt({q})",
                stacklevel=2,
            )

    def functional_equation_holds(self) -> bool:
        b, g, q = self.numerator, self.g, self.q
        return all(b[2 * g - k] == q ** (g - k) * b[k] for k in range(0, g + 1))

    def is_weil(self) -> bool:
        """Whether every Frobenius eigenvalue a_i has modulus sqrt(q), decided
        exactly (the standard test for Weil polynomials; Kedlaya, "Search
        techniques for root-unitary polynomials", 2008).

        By the functional equation P(z) = prod_i (1 - w_i z + q z^2), and both
        roots of x^2 - w x + q have modulus sqrt(q) exactly when w is real with
        |w| <= 2 sqrt(q), i.e. when w^2 is real and in [0, 4q].  So the test is
        whether every root of prod_i (y - w_i^2) is real and in [0, 4q]: a
        Sturm chain on its squarefree part counts the distinct roots there.
        """
        e = polyq.elementary(_real_weil_sums(self, 1, 2 * self.g)[::2])
        f = polyq.squarefree([(-1) ** j * c for j, c in enumerate(e)][::-1])
        return polyq.real_roots(f, 0, 4 * self.q) == len(f) - 1

    @classmethod
    def from_obj(cls, obj):
        try:
            g, q, numerator = obj["g"], obj["q"], obj["numerator"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curve JSON: {exc!r}") from None
        for name, value in [("g", g), ("q", q)]:
            if type(value) is not int:
                raise ValueError(f"malformed curve JSON: {name} has non-integer {value!r}")
        if type(numerator) is not list:
            raise ValueError(f"malformed curve JSON: numerator has non-list {numerator!r}")
        for b in numerator:
            if type(b) is not int:
                raise ValueError(f"malformed curve JSON: numerator has non-integer {b!r}")
        return cls(g, q, list(numerator))

    def __repr__(self):
        return f"CurveInput(g={self.g}, q={self.q}, numerator={self.numerator})"


def _real_weil_sums(curve: CurveInput, k: int, count: int):
    """S_0..S_count: power sums of w_i = a_i^k + T/a_i^k, T = q^k, one a_i from
    each of the g Frobenius pairs {a, q/a}.  Expanding w^m and pairing the
    terms r and m - r gives
    S_m = sum_{2r < m} C(m, r) T^r p_{(m-2r)k} + [m even] C(m, m/2) T^(m/2) g.
    """
    p = polyq.power_sums(curve.numerator, count * k)
    tq, g = curve.q ** k, curve.g
    sums = [g]
    for m in range(1, count + 1):
        s = sum(math.comb(m, r) * tq ** r * p[(m - 2 * r) * k] for r in range((m + 1) // 2))
        if m % 2 == 0:
            s += math.comb(m, m // 2) * tq ** (m // 2) * g
        sums.append(s)
    return sums


def graeffe_power(curve: CurveInput, k: int):
    """Integer coefficients of prod_i (1 - a_i^k z), computed exactly through
    Newton's identities on power sums."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("need k >= 1")
    deg = 2 * curve.g
    p = polyq.power_sums(curve.numerator, deg * k)
    e = polyq.elementary(p[::k])
    return [(-1) ** j * c for j, c in enumerate(e)]


def evaluate_at_curve(p: LaurentPoly, curve: CurveInput, k: int, gamma_value: int) -> int:
    """Value of a Weil-invariant p, z-form or e-form, at t = q^k, z_i = sigma_i^k.

    The sigma_i^k are one eigenvalue from each Frobenius pair of the base
    change; Weil invariance makes the value independent of which one.  The
    value is computed exactly in Weil-invariant coordinates: the e-form of p
    is a sum of c t^a (g-1)^b prod_j e_j^(n_j), and at the curve e_j is the
    integer elementary symmetric function of the w_i = sigma_i^k +
    T/sigma_i^k, T = q^k, read off the power sums of the zeta numerator
    (_real_weil_sums), and WeilPoly.value sums the terms.  A value that is
    not an integer raises ValueError.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("need k >= 1")
    if curve.g != p.g:
        raise DimensionMismatch(f"curve genus {curve.g} != polynomial g {p.g}")
    form = p if isinstance(p, WeilPoly) else WeilPoly.from_laurent(p)

    e = polyq.elementary(_real_weil_sums(curve, k, p.g))[1:]
    value = form.value(curve.q ** k, e, gamma_value)
    if value.denominator != 1:
        raise ValueError(f"value {value} at the curve is not an integer")
    return value.numerator
