"""Every theorem check can say FAIL.

A check that no input can make fail guards nothing.  Each test below makes
one verdict fail: where the checked statement is a theorem for every valid
input, by perturbing one of its two independent sides with monkeypatch;
then it reads the verdict where a user would, through `verify --replay` or
`verify <suite>`, and asserts FAIL with exit code 1.  The power transform,
which no suite runs, is read where `eval` calls it.
"""

import json
from fractions import Fraction

import pytest

from locsys import cli, cones, counting, integrality, polyq, spectral, verify
from locsys.counting import ATable, CTable, ConsistencyError, a_from_c, c_from_a
from locsys.laurent import CurveInput, evaluate_at_curve, graeffe_power, pic_polynomial
from locsys.spectral import DiscretePairDatum, TheoremViolation, det_slope_identities_check


def replay(capsys, tmp_path, checker, instance):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"checker": checker, "instance": instance}))
    code = cli.main(["verify", checker, "--replay", str(path)])
    return code, capsys.readouterr().out


def shifted(monkeypatch, owner, name, when=lambda *args: True):
    """Replace owner.name by the original plus 1 on the calls `when` picks."""
    original = getattr(owner, name)

    def plus_one(*args):
        return original(*args) + (1 if when(*args) else 0)

    monkeypatch.setattr(owner, name, plus_one)


class TestIntegrality:
    # modulus chi * S_m * sum(a) = 2 * 2 * 2 = 8
    INSTANCE = {"a": [2], "nu": [1], "chi": 2, "k": [[[0, 1, 1], 2]], "eps": [[[0, 1, 1], 1]]}

    def test_sum_off_by_one_fails(self, capsys, tmp_path, monkeypatch):
        assert replay(capsys, tmp_path, "integrality", self.INSTANCE) == (
            0, "replay integrality: PASS\n")
        shifted(monkeypatch, integrality, "alternating_binomial_sum")
        inst = integrality.DivisibilityInstance.from_obj(self.INSTANCE)
        with pytest.raises(integrality.DivisibilityFailure, match="not divisible by 8"):
            integrality.divisibility_check(inst)
        assert replay(capsys, tmp_path, "integrality", self.INSTANCE) == (
            1, "replay integrality: FAIL\n")


    def test_non_integer_sum_fails(self, capsys, tmp_path, monkeypatch):
        # a half added to the first binomial only: the l = 1 and l = 2 terms
        # no longer add up to an integer
        binom_ring, calls = integrality.binom_ring, []

        def first_plus_half(top, k):
            calls.append(k)
            return binom_ring(top, k) + (Fraction(1, 2) if len(calls) == 1 else 0)

        monkeypatch.setattr(integrality, "binom_ring", first_plus_half)
        inst = integrality.DivisibilityInstance.from_obj(self.INSTANCE)
        with pytest.raises(integrality.DivisibilityFailure, match="not an integer"):
            integrality.alternating_binomial_sum(inst)
        calls.clear()
        assert replay(capsys, tmp_path, "integrality", self.INSTANCE) == (
            1, "replay integrality: FAIL\n")


class TestOrbitCharacterSum:
    def test_mobius_side_off_by_one_fails(self, capsys, tmp_path, monkeypatch):
        instance = {"lengths": [2, 3], "fixes": [1, 2]}
        assert replay(capsys, tmp_path, "delta", instance)[0] == 0
        shifted(monkeypatch, spectral, "orbit_character_sum_mobius")
        with pytest.raises(TheoremViolation, match="character sum mismatch"):
            spectral.orbit_character_sum(instance["lengths"], instance["fixes"])
        assert replay(capsys, tmp_path, "delta", instance) == (1, "replay delta: FAIL\n")


class TestCircleCount:
    def test_count_off_by_one_fails(self, capsys, tmp_path, monkeypatch):
        instance = {"kind": "circle", "c12": {"num": ["1", "-3"], "den": ["1"]},
                    "c21": {"num": ["1"], "den": ["2", "-1"]}}
        assert replay(capsys, tmp_path, "gm-family", instance)[0] == 0
        shifted(monkeypatch, spectral.RationalFunc, "zero_pole_difference")
        with pytest.raises(TheoremViolation, match="circle integral"):
            spectral.circle_count_check(spectral.RationalFunc([1, -3]),
                                        spectral.RationalFunc([1], [2, -1]))
        assert replay(capsys, tmp_path, "gm-family", instance) == (
            1, "replay gm-family: FAIL\n")


class TestDetSlopeIdentities:
    """The two bordered-determinant identities, each alone.  On a 3x3
    matrix det_slope interpolates det(a + x Id) from four full-size
    determinants and the cofactors are three 2x2 ones; a full-size
    determinant taken after them, off by one, moves one identity only."""

    @staticmethod
    def late_full_size(monkeypatch, which):
        """Shift the `which`-th 3x3 determinant after the first cofactor."""
        sizes = []

        def when(a):
            sizes.append(len(a))
            late = sizes[sizes.index(2):] if 2 in sizes else []
            return len(a) == 3 and late.count(3) == which

        shifted(monkeypatch, spectral, "_bareiss", when)
        return sizes

    def test_zero_row_sum_identity_fails(self, capsys, tmp_path, monkeypatch):
        # zero row sums, nonzero column sums: only det(a + 1 u^T) is checked
        instance = {"matrix": [["1", "-1", "0"], ["2", "-3", "1"], ["0", "4", "-4"]],
                    "u": ["1", "2", "1/3"], "v": ["2", "-1", "1"]}
        assert replay(capsys, tmp_path, "kappa", instance) == (0, "replay kappa: PASS\n")
        sizes = self.late_full_size(monkeypatch, 1)
        assert not det_slope_identities_check(instance["matrix"], instance["u"],
                                              instance["v"])
        assert sizes == [3, 3, 3, 3, 2, 2, 2, 3]
        sizes.clear()
        assert replay(capsys, tmp_path, "kappa", instance) == (1, "replay kappa: FAIL\n")

    def test_bordered_identity_fails(self, capsys, tmp_path, monkeypatch):
        # zero row and column sums: the second late determinant is
        # n det(d a + u v^T)
        instance = {"matrix": [["3", "-1", "-2"], ["-1", "2", "-1"], ["-2", "-1", "3"]],
                    "u": ["1", "2", "1/3"], "v": ["2", "-1", "1"]}
        assert replay(capsys, tmp_path, "kappa", instance) == (0, "replay kappa: PASS\n")
        sizes = self.late_full_size(monkeypatch, 2)
        assert not det_slope_identities_check(instance["matrix"], instance["u"],
                                              instance["v"])
        assert sizes == [3, 3, 3, 3, 2, 2, 2, 3, 3]
        sizes.clear()
        assert replay(capsys, tmp_path, "kappa", instance) == (1, "replay kappa: FAIL\n")


class TestPairMatrix:
    INSTANCE = {"g": 2, "blocks": [{"d": 2, "nu": 1, "fix": 2, "m": 2, "orbits": [1, 1]}]}

    def test_row_sums_checked(self, capsys, tmp_path, monkeypatch):
        datum = DiscretePairDatum.from_obj(self.INSTANCE)
        spectral.pair_matrix(datum)
        pair_xy = spectral._pair_xy

        def moved_diagonal(d):
            x, y = pair_xy(d)
            return x, {i: v + 1 for i, v in y.items()}

        monkeypatch.setattr(spectral, "_pair_xy", moved_diagonal)
        # the diagonal moves row and column sums alike; rows are checked first
        with pytest.raises(TheoremViolation, match="row sums"):
            spectral.pair_matrix(datum)
        assert replay(capsys, tmp_path, "matr", self.INSTANCE) == (
            1, "replay matr: FAIL\n  error: TheoremViolation: row sums of the pair matrix "
               "do not vanish\n")


    @staticmethod
    def moved_x(monkeypatch, moves, diagonal=None):
        """Add moves[(i, j)] to the zero-pole count of blocks i, j, and
        diagonal[i] to the diagonal term of block i."""
        pair_xy = spectral._pair_xy

        def moved(d):
            x, y = pair_xy(d)
            return ({key: v + moves.get(key, 0) for key, v in x.items()},
                    {i: v + (diagonal or {}).get(i, 0) for i, v in y.items()})

        monkeypatch.setattr(spectral, "_pair_xy", moved)

    # one orbit of length 1 per block, so vertex i is block i
    BLOCKS = [{"d": 1, "nu": 1, "fix": 1, "m": 1, "orbits": [1]},
              {"d": 1, "nu": 2, "fix": 1, "m": 1, "orbits": [1]},
              {"d": 2, "nu": 1, "fix": 2, "m": 1, "orbits": [1]}]

    def test_column_sums_checked(self, capsys, tmp_path, monkeypatch):
        instance = {"g": 2, "blocks": self.BLOCKS[:2]}
        assert replay(capsys, tmp_path, "matr", instance) == (0, "replay matr: PASS\n")
        # entry (0, 1) and the diagonal of row 0 move together: every row
        # still sums to zero, columns 0 and 1 do not
        self.moved_x(monkeypatch, {(0, 1): 1}, {0: 1})
        with pytest.raises(TheoremViolation, match="column sums"):
            spectral.pair_matrix(DiscretePairDatum.from_obj(instance))
        assert replay(capsys, tmp_path, "matr", instance) == (
            1, "replay matr: FAIL\n  error: TheoremViolation: column sums of the pair matrix "
               "do not vanish\n")

    def test_symmetry_checked(self, capsys, tmp_path, monkeypatch):
        instance = {"g": 2, "blocks": self.BLOCKS}
        assert replay(capsys, tmp_path, "matr", instance) == (0, "replay matr: PASS\n")
        # a 3-cycle: +1 on (0, 1), (1, 2), (2, 0) and -1 on the transposes
        # keeps every row and column sum, and breaks the symmetry
        self.moved_x(monkeypatch, {(0, 1): 1, (1, 2): 1, (2, 0): 1,
                                   (1, 0): -1, (2, 1): -1, (0, 2): -1})
        with pytest.raises(TheoremViolation, match="not symmetric"):
            spectral.pair_matrix(DiscretePairDatum.from_obj(instance))
        assert replay(capsys, tmp_path, "matr", instance) == (
            1, "replay matr: FAIL\n  error: TheoremViolation: pair matrix is not symmetric\n")


class TestConeSupport:
    INSTANCE = {"kind": "support", "p": [1, 1], "T": [[2, -2], [5, 1]], "e": 0}

    def test_kernel_outside_a_shrunk_box_fails(self, capsys, tmp_path, monkeypatch):
        assert replay(capsys, tmp_path, "cones", self.INSTANCE) == (0, "replay cones: PASS\n")
        # the certified box one short at the top: its top row is scanned as
        # outside, and the kernel does not vanish there
        box = cones.gamma_support_box
        monkeypatch.setattr(cones, "gamma_support_box",
                            lambda p, T, e=0: [(lo, hi - 1) for lo, hi in box(p, T, e)])
        assert not cones.gamma_support_bound_check([1, 1], self.INSTANCE["T"])
        assert replay(capsys, tmp_path, "cones", self.INSTANCE) == (1, "replay cones: FAIL\n")


class TestConeFourierAverage:
    INSTANCE = {"kind": "fourier", "sizes": [1, 1], "e": 0, "lam": [["2", "1"], ["1", "-3"]]}

    def test_closed_form_off_by_one_fails(self, capsys, tmp_path, monkeypatch):
        assert replay(capsys, tmp_path, "lattice", self.INSTANCE) == (
            0, "replay lattice: PASS\n")
        # the closed form is the degree-e side only; the average is built
        # from the floor monomials
        shifted(monkeypatch, spectral, "cone_closed_form")
        assert not spectral.cone_fourier_average_check([1, 1], 0, self.INSTANCE["lam"])
        assert replay(capsys, tmp_path, "lattice", self.INSTANCE) == (
            1, "replay lattice: FAIL\n")


class TestPowerTransform:
    def test_non_integer_power_transform_raises(self, monkeypatch):
        """Newton's identities divide by m; a power sum p_2 off by one makes
        e_2 a half-integer, which raises rather than round.  Both callers
        that `eval` runs, the curve evaluation and the power transform, say
        so."""
        curve = CurveInput(2, 2, [1, 0, 3, 0, 4])
        poly = pic_polynomial(2)
        assert graeffe_power(curve, 1) == curve.numerator
        assert evaluate_at_curve(poly, curve, 1, 1) == sum(curve.numerator)
        power_sums = polyq.power_sums

        def p2_plus_one(b, count):
            p = power_sums(b, count)
            p[2] += 1
            return p

        monkeypatch.setattr(polyq, "power_sums", p2_plus_one)
        with pytest.raises(ArithmeticError, match="power transform produced a non-integer"):
            graeffe_power(curve, 1)
        with pytest.raises(ArithmeticError, match="power transform produced a non-integer"):
            evaluate_at_curve(poly, curve, 1, 1)


class TestInversion:
    def test_probe_off_by_one_is_a_consistency_error(self, monkeypatch):
        g = 2
        table = CTable.concrete(g, {1: pic_polynomial(g), 2: pic_polynomial(g) * 3})
        atable = ATable(g, {2: a_from_c(2, g, table)})
        assert c_from_a(2, g, atable).base[2] == pic_polynomial(g) * 3
        doubled = counting.a_from_c
        monkeypatch.setattr(counting, "a_from_c", lambda n, genus, t: doubled(n, genus, t) * 2)
        with pytest.raises(ConsistencyError, match="rank-2 unknown has coefficient 2, expected 1"):
            c_from_a(2, g, atable)

    def test_roundtrip_with_one_entry_off_fails(self, capsys, monkeypatch):
        """`verify roundtrip` compares recovered and planted entries in
        e-form; one recovered entry moved by 1 is a FAIL with exit 1."""
        inverse = verify.c_from_a

        def perturbed(n, g, atable):
            table = inverse(n, g, atable)
            return table.with_entry(n, table.weil[n] + 1)

        monkeypatch.setattr(verify, "c_from_a", perturbed)
        code = cli.main(["verify", "roundtrip", "--seed", "0", "--iterations", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("roundtrip: FAIL (1 checks)\n  counterexample: ")
        report = verify.run_suite("roundtrip", seed=0, iterations=1)
        planted = report["counterexample"]["instance"]["planted"]
        assert report["passed"] is False and "error" not in report and len(planted) >= 2
        monkeypatch.setattr(verify, "c_from_a", inverse)
        assert verify.run_suite("roundtrip", seed=0, iterations=1)["passed"] is True


class TestSuiteCounterexampleReplays:
    """Per suite with shrinking moves, through the command line: one side of
    the checked statement is perturbed on the instances `when` picks, the
    suite reports FAIL with exit code 1, and its shrunk counterexample
    replays as FAIL through `verify --replay` (and as PASS once the
    perturbation is gone)."""

    @pytest.mark.parametrize("suite,owner,name,when,checks,shrunk", [
        ("matr", spectral, "pair_closed_form",
         lambda datum: any(b.nu >= 2 for b in datum.blocks), 2,
         {"g": 3, "blocks": [{"d": 1, "nu": 2, "fix": 1, "m": 1, "orbits": [1]}]}),
        ("delta", spectral, "orbit_character_sum_mobius",
         lambda lengths, fixes: sum(lengths) >= 5, 25, {"lengths": [5], "fixes": [1]}),
        ("integrality", integrality, "alternating_binomial_sum", lambda inst: True, 1,
         {"a": [2], "nu": [-3], "chi": 2, "k": [[[0, 3, 2], 1]], "eps": [[[0, 3, 2], -1]]}),
    ], ids=["matr", "delta", "integrality"])
    def test_shrunk_counterexample_replays_as_fail(self, capsys, tmp_path, monkeypatch, suite,
                                                   owner, name, when, checks, shrunk):
        shifted(monkeypatch, owner, name, when)
        code = cli.main(["--json", "verify", suite])
        report = json.loads(capsys.readouterr().out)["suites"][0]
        assert code == 1 and report["passed"] is False and "error" not in report
        assert report["checks"] == checks
        counterexample = report["counterexample"]
        assert counterexample == {"suite": suite, "checker": suite, "instance": shrunk}
        code = cli.main(["verify", suite])
        assert code == 1 and capsys.readouterr().out.splitlines() == [
            f"{suite}: FAIL ({checks} checks)",
            f"  counterexample: {json.dumps(counterexample, sort_keys=True)}"]
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(counterexample))
        code = cli.main(["verify", suite, "--replay", str(path)])
        assert code == 1 and capsys.readouterr().out == f"replay {suite}: FAIL\n"
        monkeypatch.undo()
        code = cli.main(["verify", suite, "--replay", str(path)])
        assert code == 0 and capsys.readouterr().out == f"replay {suite}: PASS\n"
