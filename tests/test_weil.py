"""The e-form (Weil-invariant coordinates) against the z-form it replaces in
the counting engine."""

import json
import random
from fractions import Fraction

import pytest
from counting_refs import (
    free_substitute,
    from_laurent,
    frobenius_substitute,
    same_zform_read,
    satisfies_positivity,
    swap_flip_invariant,
    to_laurent,
)
from master_cells import master_entries, master_tables

from locsys.counting import ATable, CTable, FreePoly, a_from_c
from locsys.laurent import (
    InvarianceError,
    LaurentPoly,
    WeilPoly,
    pic_eform,
    pic_polynomial,
    weil_symmetrize,
)
from locsys.verify import random_invariant


def _invariants(g, seed):
    """Seeded invariants of three kinds: random_invariant, a symmetrized
    monomial with larger exponents, and a Picard product."""
    rng = random.Random(f"weil:{g}:{seed}")
    z = [rng.randint(-2, 2) for _ in range(g)]
    mono = LaurentPoly.monomial(g, rng.randint(-3, 3) or 1, t=rng.randint(-1, 2), z=z,
                                y=rng.randint(0, 1))
    return [random_invariant(rng, g), weil_symmetrize(mono),
            pic_polynomial(g) * random_invariant(rng, g)]


def _elementary_w(g):
    """e_0..e_g of w_i = z_i + t/z_i, expanded directly in the z-form."""
    table = [LaurentPoly.const(g, 1)] + [LaurentPoly.zero(g)] * g
    for i in range(g):
        inverse = [-1 if k == i else 0 for k in range(g)]
        w = LaurentPoly.z_var(g, i) + LaurentPoly.monomial(g, 1, t=1, z=inverse)
        for j in range(g, 0, -1):
            table[j] = table[j] + w * table[j - 1]
    return table


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_roundtrip_and_products(g):
    polys = [p for seed in range(2) for p in _invariants(g, seed)]
    weil = [WeilPoly.from_laurent(p) for p in polys]
    for p, w in zip(polys, weil):
        assert w.to_laurent() == p
    # the conversion is a ring map: products agree in both forms
    assert WeilPoly.from_laurent(polys[0] * polys[1]) == weil[0] * weil[1]
    assert (weil[2] * weil[3] + weil[4]).to_laurent() == polys[2] * polys[3] + polys[4]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_e_monomials_expand_to_products_of_w(g):
    """to_laurent of e^a is the product of the directly expanded e_j(w)."""
    rng = random.Random(g)
    elementary = _elementary_w(g)
    for _ in range(3):
        a = tuple(rng.randint(0, 2 if g < 4 else 1) for _ in range(g))
        want = LaurentPoly.const(g, 1)
        for j, e in enumerate(a):
            want = want * elementary[j + 1] ** e
        assert WeilPoly.monomial(g, 1, t=1, z=a).to_laurent() == want * LaurentPoly.t_var(g)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_picard_closed_form(g):
    """prod (1 - z_i)(1 - t/z_i) = prod (1 + t - w_i) = sum_j (-1)^j e_j (1+t)^(g-j),
    which pic_eform builds without the 4^g-term z-form."""
    want = WeilPoly.zero(g)
    one_plus_t = WeilPoly.const(g, 1) + WeilPoly.monomial(g, 1, t=1)
    for j in range(g + 1):
        e = tuple(1 if i == j - 1 else 0 for i in range(g))
        want = want + WeilPoly.monomial(g, (-1) ** j, z=e) * one_plus_t ** (g - j)
    assert WeilPoly.from_laurent(pic_polynomial(g)) == want
    assert pic_eform(g) == want and pic_eform(g).to_laurent() == pic_polynomial(g)


def test_non_invariant_input_rejected():
    g = 2
    pic = pic_polynomial(g)
    missing = LaurentPoly(g, {k: c for k, c in pic.terms.items() if k != (1, (-1, 0), 0)})
    changed = pic + LaurentPoly.monomial(g, 1, t=1, z=[-1, 0])
    for bad in (LaurentPoly.z_var(g, 0), missing, changed):
        assert not bad.is_weil_invariant()
        with pytest.raises(InvarianceError):
            WeilPoly.from_laurent(bad)


def test_forms_do_not_mix():
    g = 2
    with pytest.raises(TypeError):
        LaurentPoly.const(g, 1) + WeilPoly.const(g, 1)
    with pytest.raises(TypeError):
        WeilPoly.const(g, 1) * LaurentPoly.const(g, 1)
    free = FreePoly.const(1)
    for poly in (LaurentPoly.const(g, 1), WeilPoly.const(g, 1)):
        with pytest.raises(TypeError):
            free + poly
        with pytest.raises(TypeError):
            poly * free
        with pytest.raises(TypeError):
            free == poly


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_frobenius_matches_z_form(g):
    for p in _invariants(g, 0)[:2]:
        w = WeilPoly.from_laurent(p)
        for k in (1, 2, 3, 4):
            assert w.frobenius_substitute(k).to_laurent() == frobenius_substitute(p, k)


def _point_value(symbolic, planted, g, t, z):
    """The symbolic master formula at C[s,k] = C_s(t^k, z^k), (g-1) = g-1."""
    values = {("y",): Fraction(g - 1)}
    for s, poly in planted.items():
        for k in range(1, 5):
            values[("C", s, k)] = poly.substitute(t ** k, [v ** k for v in z], 0)
    return free_substitute(symbolic, values, Fraction)


@pytest.mark.parametrize("g,n", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_concrete_master_formula_matches_symbolic(g, n):
    """The e-form engine against the symbolic formula, at seeded rational
    points (t, z)."""
    rng = random.Random(f"master:{g}:{n}")
    planted = {1: pic_polynomial(g)}
    for s in range(2, n + 1):
        planted[s] = random_invariant(rng, g)
    direct = a_from_c(n, g, CTable.concrete(g, planted))
    symbolic = a_from_c(n, None, CTable.symbolic())
    for _ in range(2):
        t = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        z = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(g)]
        assert direct.substitute(t, z, 0) == _point_value(symbolic, planted, g, t, z)


def _signed_invariant(rng, g, zmax):
    """One to three Weil orbits whose representatives carry t-exponents from
    -2 to 2, so that most sums violate positivity."""
    total = LaurentPoly.zero(g)
    for _ in range(rng.randint(1, 3)):
        z = [rng.randint(-zmax, zmax) for _ in range(g)]
        t = rng.randint(-2, 2) - sum(min(e, 0) for e in z)
        mono = LaurentPoly.monomial(g, rng.choice((-2, -1, 1, 3)), t=t, z=z,
                                    y=rng.randint(0, 1))
        total = total + weil_symmetrize(mono)
    return total


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_positivity_read_from_e_form(g):
    """ATable reads positivity off the e-form (every t-exponent >= 0); it
    must agree with the z-form scan satisfies_positivity on seeded
    invariants, alone and times the Picard polynomial."""
    rng = random.Random(f"positivity:{g}")
    pic = pic_polynomial(g)
    verdicts = []
    for case in range(150):
        # at g = 4, z-exponents up to 1 keep the orbits (and the test) small
        p = _signed_invariant(rng, g, zmax=2 if g < 4 else 1)
        if case % 2:
            p = p * pic
        try:
            ATable(g, {2: p})
            accepted = True
        except ValueError as exc:
            assert str(exc) == "A-table entry 2 violates positivity"
            accepted = False
        assert accepted == satisfies_positivity(p)
        verdicts.append(accepted)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 75


# --------------------------------------------------------------------------
# WeilPoly.from_laurent against the member-counting reference


def _symmetrized(rng, g):
    """One to three Weil orbits with Fraction or integer coefficients,
    t-shifts and y-exponents."""
    zmax = 2 if g < 5 else 1  # genus-5 orbits of larger exponents are slow to sum
    total = LaurentPoly.zero(g)
    for _ in range(rng.randint(1, 3)):
        z = [rng.randint(-zmax, zmax) for _ in range(g)]
        c = rng.choice([rng.randint(-4, 4) or 1, Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 6))])
        mono = LaurentPoly.monomial(g, c, t=rng.randint(-2, 3), z=z, y=rng.randint(0, 2))
        total = total + weil_symmetrize(mono)
    return total


def _mutants(rng, p):
    """p with one coefficient bumped, with one term dropped and with one term
    shifted by t; a mutant can stay invariant (an orbit of one member)."""
    keys = sorted(p.terms)
    if not keys:
        return []
    bump, drop, shift = (rng.choice(keys) for _ in range(3))
    bumped = dict(p.terms)
    bumped[bump] += 1
    dropped = {k: c for k, c in p.terms.items() if k != drop}
    shifted = LaurentPoly(p.g, {k: c for k, c in p.terms.items() if k != shift})
    shifted = shifted + LaurentPoly(p.g, {(shift[0] + 1, shift[1], shift[2]): p.terms[shift]})
    return [LaurentPoly(p.g, bumped), LaurentPoly(p.g, dropped), shifted]


def _verdict(convert, p):
    try:
        return convert(p)
    except InvarianceError as exc:
        assert str(exc) == "polynomial is not Weil-invariant"
        return None


class TestFromLaurentAgainstReference:
    """The orbit-size check and the one-dict assembly against the reference
    that counts each orbit's members and sums one product per mu: the same
    e-form, the same verdict, and the verdict of the swap-and-flip scan.
    The file form of each polynomial reads the same through the column
    check as term by term."""

    def _agree(self, p, verdicts):
        want = _verdict(from_laurent, p)
        got = _verdict(WeilPoly.from_laurent, p)
        assert (got is None) == (want is None) == (not swap_flip_invariant(p))
        if got is not None:
            assert type(got) is WeilPoly and got == want
            assert got.to_laurent() == p
        read = same_zform_read(json.loads(p.to_json()))
        assert (read[0] is WeilPoly) == (got is not None)
        verdicts.append(got is not None)

    def test_symmetrized_and_picard_grid(self):
        rng = random.Random("from-laurent")
        verdicts = []
        for g in range(6):
            polys = [pic_polynomial(g)] + [_symmetrized(rng, g) for _ in range(12 if g < 5 else 4)]
            for p in polys:
                for q in [p] + _mutants(rng, p):
                    self._agree(q, verdicts)
        assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60

    @pytest.mark.parametrize("seed", range(4))
    def test_master_entries(self, seed):
        rng = random.Random(f"from-laurent:master:{seed}")
        verdicts = []
        for p in master_entries(seed):
            for q in [p] + _mutants(rng, p):
                self._agree(q, verdicts)
        assert verdicts.count(True) >= 18 and verdicts.count(False) >= 36

    def test_zero_and_constants(self):
        for g in range(4):
            for p in (LaurentPoly.zero(g), LaurentPoly.const(g, Fraction(-3, 4))):
                assert WeilPoly.from_laurent(p) == from_laurent(p)
                assert WeilPoly.from_laurent(p).to_laurent() == p

    def test_only_z_form_input(self):
        for p in (WeilPoly.const(2, 1), FreePoly.const(1)):
            with pytest.raises(TypeError, match="need a z-form LaurentPoly"):
                WeilPoly.from_laurent(p)


# --------------------------------------------------------------------------
# The cached conversions against the per-call references


def _random_eform(rng, g):
    """One to six e-monomials of e-degree up to 3 (2 at g = 5), with
    Fraction or integer coefficients, t-exponents from -3 to 3 and
    y-exponents up to 2."""
    top = 3 if g < 5 else 2
    terms = {}
    for _ in range(rng.randint(1, 6)):
        a = [0] * g
        for _ in range(rng.randint(0, top) if g else 0):
            a[rng.randrange(g)] += 1
        c = rng.choice([rng.randint(-6, 6) or 1, Fraction(rng.randint(-7, 7) or 1, rng.randint(2, 5))])
        terms[(rng.randint(-3, 3), tuple(a), rng.randint(0, 2))] = c
    return WeilPoly(g, terms)


class TestConversionsAgainstReference:
    """WeilPoly.to_laurent's cached rows against the heap solve it replaced,
    and from_laurent's cached z-vector shapes against the member-counting
    reference.  Every polynomial is converted twice and once scaled, so
    that a cache entry filled by one call and changed by it, or read back
    wrong by a later one, shows."""

    def _agree_e(self, w):
        want = to_laurent(w)
        for _ in range(2):
            got = w.to_laurent()
            assert type(got) is LaurentPoly and got == want
            assert WeilPoly.from_laurent(got) == from_laurent(want) == w
        assert (w * 3).to_laurent() == to_laurent(w * 3) == want * 3

    def _agree_z(self, p):
        want = from_laurent(p)
        for _ in range(2):
            got = WeilPoly.from_laurent(p)
            assert type(got) is WeilPoly and got == want
            assert got.to_laurent() == to_laurent(want) == p
        assert WeilPoly.from_laurent(p * 3) == want * 3

    @pytest.mark.parametrize("g", range(6))
    def test_random_eforms(self, g):
        """e -> z -> e on random e-form polynomials."""
        rng = random.Random(f"to-laurent:{g}")
        for _ in range(12 if g < 5 else 6):
            self._agree_e(_random_eform(rng, g))

    @pytest.mark.parametrize("g", range(6))
    def test_symmetrized_monomials(self, g):
        """z -> e -> z on sums of weil_symmetrize images."""
        rng = random.Random(f"from-laurent:symmetrized:{g}")
        for _ in range(8 if g < 5 else 4):
            self._agree_z(_symmetrized(rng, g))

    @pytest.mark.parametrize("seed", range(4))
    def test_master_results(self, seed):
        """The master formula's e-form results on the benchmark's planted
        C-tables, and their z-form (master_entries)."""
        entries = iter(master_entries(seed))
        for g, n, table in master_tables(seed):
            eform = CTable.concrete(g, dict(table.weil))
            for r in range(2, n + 1):
                w = a_from_c(r, g, eform)
                assert type(w) is WeilPoly
                assert w.to_laurent() == to_laurent(w) == next(entries)
