"""The fused multiply-accumulate, LaurentPoly.add_products, and its two
callers in the master formula (the exp recurrence and the partition sum)
against references built product by product (counting_refs)."""

import random
from fractions import Fraction

import pytest
from counting_refs import free_a_from_c, packed_add_products, weil_a_from_c
from master_cells import master_tables

from locsys.counting import CTable, FreePoly, PackedPoly, _symbol_kind, a_from_c, packed_kind
from locsys.laurent import LaurentPoly, WeilPoly


def _kinds():
    """Symbolic layouts of three ranks and e-form layouts of three genera."""
    return [_symbol_kind(n) for n in (3, 6, 10)] + [
        packed_kind(f"PackedWeilPoly{g}w{w}", (w,) * (g + 1)) for g, w in ((0, 3), (2, 2), (3, 4))]


def _random_packed(rng, kind, full):
    """A random polynomial of `kind` with Fraction and integer coefficients;
    its fields are full range when `full` (so products often overflow), and
    at most half their range otherwise (so products of two always fit)."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = rng.randint(-3, 3) << kind.top if not kind.atoms else 0
        for shift, width in zip(kind.shifts, kind.widths):
            if rng.random() < 0.6:
                top = (1 << width) - 1 if full else ((1 << width) - 1) // 2
                key += rng.randint(0, top) << shift
        terms[key] = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
    return kind(terms)


def _random_triples(rng, kind, full):
    """Triples (a, b, scale) with int, Fraction and zero scales; some of them
    cancel another triple's products exactly."""
    triples = []
    for _ in range(rng.randint(0, 5)):
        a, b = _random_packed(rng, kind, full), _random_packed(rng, kind, full)
        scale = rng.choice([1, 0, rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 5))])
        triples.append((a, b, scale))
        if rng.random() < 0.4:  # the same products with the opposite sign
            triples.append(rng.choice([(a, b, -scale), (-a, b, scale), (b, a * -1, scale)]))
    rng.shuffle(triples)
    return triples


def _chain(acc, triples):
    """The sum as a chain of scaled copies, products and running sums."""
    for a, b, scale in triples:
        acc = acc + (a * scale) * b
    return acc


class TestAgainstDecodedReference:
    """add_products on packed kinds against packed_add_products, which works
    on decoded exponent vectors and knows nothing of guard bits."""

    @pytest.mark.parametrize("full", [False, True])
    def test_random_packed(self, full):
        rng = random.Random(f"fused:{full}")
        raised = agreed = 0
        for kind in _kinds():
            for _ in range(150):
                acc = _random_packed(rng, kind, full=False)
                triples = _random_triples(rng, kind, full)
                try:
                    expected = packed_add_products(acc, triples)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        acc.add_products(triples)
                    raised += 1
                    continue
                got = acc.add_products(triples)
                assert got == expected and type(got) is kind
                assert got == _chain(acc, triples)
                agreed += 1
        # both outcomes occur on the grid
        assert agreed > 100 and (raised > 100 if full else raised == 0)

    def test_cancelling_sum_is_zero(self):
        kind = _symbol_kind(6)
        rng = random.Random("fused:cancel")
        for _ in range(50):
            a, b = _random_packed(rng, kind, False), _random_packed(rng, kind, False)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            out = kind.zero().add_products([(a, b, scale), (b, a, -scale)])
            assert out.is_zero() and out.terms == {}
            assert a.add_products([(a, b, scale), (-a, b, scale)]) == a

    @pytest.mark.parametrize("make", [
        lambda rng: LaurentPoly(2, {(rng.randint(-2, 2), (rng.randint(-2, 2), rng.randint(-2, 2)),
                                     rng.randint(0, 2)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(rng.randint(0, 4))}),
        lambda rng: WeilPoly(3, {(rng.randint(-2, 2), tuple(rng.randint(0, 2) for _ in range(3)),
                                  rng.randint(0, 2)): rng.randint(-4, 4)
                                 for _ in range(rng.randint(0, 4))}),
        lambda rng: FreePoly({tuple((("C", s, 1), rng.randint(1, 2)) for s in rng.sample((1, 2, 3), 2)):
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 4))}),
    ])
    def test_every_kind_matches_the_chain(self, make):
        """The unpacked kinds run the same loop: the sum equals the chain of
        products, and a * b is one pair of it."""
        rng = random.Random("fused:kinds")
        for _ in range(80):
            acc = make(rng)
            triples = [(make(rng), make(rng), rng.choice([1, -2, Fraction(3, 4), 0]))
                       for _ in range(rng.randint(0, 4))]
            assert acc.add_products(triples) == _chain(acc, triples)
            a, b = make(rng), make(rng)
            assert a * b == (a * 0).add_products([(a, b, 1)])

    def test_operands_must_match(self):
        kind = _symbol_kind(4)
        x = kind.pack(FreePoly.symbol(1, 1))
        with pytest.raises(TypeError):
            kind.zero().add_products([(x, _symbol_kind(5).pack(FreePoly.symbol(1, 1)), 1)])
        with pytest.raises(TypeError):
            WeilPoly.zero(2).add_products([(WeilPoly.const(2, 1), LaurentPoly.const(2, 1), 1)])


class TestGuardBits:
    """The fused sum raises OverflowError wherever a single product would,
    and is silent at the top of a field.  At the widths _field_width gives,
    the master formula runs silent on the `master` cells below and on
    test_counting's table at the bound, where one bit fewer raises."""

    def _overflowing_pairs(self):
        kind = packed_kind("PackedWeilPoly2w3", (3, 3, 3))  # exponents up to 7
        pairs = []
        for key in ((0, (4, 0), 0), (-3, (0, 7), 0), (2, (0, 0), 4)):
            x = kind.pack(WeilPoly(2, {key: 1}))
            pairs.append((x, x))
        symbolic = _symbol_kind(4)  # C[1,1] has 3 bits: x^4 * x^4 overflows
        x = symbolic.pack(FreePoly.symbol(1, 1))
        x4 = (x * x) * (x * x)
        pairs.append((x4, x4 + 1))
        return pairs

    def test_raises_where_one_product_does(self):
        for a, b in self._overflowing_pairs():
            with pytest.raises(OverflowError):
                a * b
            fits = type(a).zero() + 3
            for triples in ([(a, b, 1)], [(fits, fits, 2), (a, b, Fraction(1, 3))],
                            [(b, a, -1), (fits, fits, 1)]):
                with pytest.raises(OverflowError):
                    type(a).zero().add_products(triples)

    def test_raises_when_the_overflow_cancels(self):
        for a, b in self._overflowing_pairs():
            for triples in ([(a, b, 1), (a, b, -1)], [(a, b, 2), (-a, b, 2)],
                            [(a, b, Fraction(1, 2)), (b, a, Fraction(-1, 2))]):
                with pytest.raises(OverflowError):
                    type(a).zero().add_products(triples)
            # a zero scale multiplies nothing and raises nothing, as (a * 0) * b
            assert type(a).zero().add_products([(a, b, 0)]).is_zero()

    def test_silent_at_the_top_of_a_field(self):
        kind = packed_kind("PackedWeilPoly2w3", (3, 3, 3))
        a = kind.pack(WeilPoly(2, {(-1, (3, 4), 7): 1, (2, (0, 0), 0): 3}))
        b = kind.pack(WeilPoly(2, {(-4, (4, 3), 0): 1}))
        got = kind.zero().add_products([(a, b, 2), (a, b, -1)])
        assert got.unpack() == WeilPoly(2, {(-5, (7, 7), 7): 1, (-2, (4, 3), 0): 3})


class TestMasterFormulaAgainstReference:
    """The master formula, whose exp recurrence and partition sum run on the
    fused sum, against the product-by-product references."""

    def test_symbolic_ranks(self):
        for n in range(1, 15):
            got = a_from_c(n, None, CTable.symbolic())
            assert type(got) is FreePoly
            assert got == free_a_from_c(n), n

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_master_cells(self, seed):
        for g, n, table in master_tables(seed):
            for r in range(2, n + 1):
                got = a_from_c(r, g, table)
                assert type(got) is LaurentPoly
                assert got == weil_a_from_c(r, g, table), (seed, g, n, r)


def test_packed_kinds_have_no_product_of_their_own():
    """One product loop: * on every kind is LaurentPoly's, and the packed
    kind adds only its key check."""
    for kind in (WeilPoly, FreePoly, PackedPoly, *_kinds()):
        assert kind.__mul__ is LaurentPoly.__mul__
        assert kind.add_products is LaurentPoly.add_products
