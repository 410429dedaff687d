import json
import multiprocessing

import pytest

from locsys import cli
from locsys.counting import ATable, CTable, a_from_c
from locsys.laurent import LaurentPoly, pic_polynomial
from locsys.verify import _shrink, replay


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"g": 2, "q": 2, "numerator": [1, 0, 3, 0, 4]}))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def consistent_fixture(tmp_path):
    """A rank-2 fixture engineered so every pipeline check passes: the
    planted count is the Picard polynomial times t^3 - 4t, which has the
    right dominant weight and Euler value -3."""
    g = 2
    t = LaurentPoly.t_var(g)
    planted = pic_polynomial(g) * (t * t * t - 4 * t)
    table = CTable.concrete(g, {1: pic_polynomial(g), 2: planted})
    atable = ATable(g, {2: a_from_c(2, g, table)})
    path = tmp_path / "atable.json"
    path.write_text(atable.to_json())
    return str(path), planted


class TestSymbolicCommands:
    def test_rank_one(self, capsys):
        code, out, _ = run(capsys, "a-symbolic", "--n", "1")
        assert code == 0
        assert out.strip() == "A[1] = C[1,1]"

    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "a-symbolic", "--n", "2")
        assert code == 0
        assert out.strip() == "A[2] = C[2,1] + C[1,1] + (g-1)*C[1,1]^2"

    def test_rank_three_terms(self, capsys):
        code, out, _ = run(capsys, "a-symbolic", "--n", "3")
        assert code == 0
        for piece in ("C[3,1]", "4*(g-1)*C[1,1]*C[2,1]", "(g-1)*C[1,1]*C[1,2]",
                      "2*(g-1)^2*C[1,1]^3", "2*(g-1)*C[1,1]^2"):
            assert piece in out

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "2", "--g", "2")
        assert code == 0 and "= -3" in out

    def test_d_count(self, capsys):
        code, out, _ = run(capsys, "d-count", "--n", "4", "--d", "2")
        assert code == 0
        assert out.strip() == "D[4](2) = 1/2*C[2,2] - 1/2*C[2,1]"

    def test_d_count_usage_error(self, capsys):
        code, _, err = run(capsys, "d-count", "--n", "4", "--d", "3")
        assert code == 2


class TestEval:
    def test_rank_one_counts(self, capsys, curve_file):
        code, out, _ = run(capsys, "eval", "--curve", curve_file, "--n", "1", "--k", "1")
        assert code == 0 and "= 8" in out
        code, out, _ = run(capsys, "eval", "--curve", curve_file, "--n", "1", "--k", "2")
        assert code == 0 and "= 64" in out

    def test_genus_one(self, capsys, tmp_path):
        path = tmp_path / "g1.json"
        path.write_text(json.dumps({"g": 1, "q": 2, "numerator": [1, -1, 2]}))
        code, out, _ = run(capsys, "eval", "--curve", str(path), "--n", "1", "--k", "1")
        assert code == 0 and "= 2" in out

    def test_rank_two_needs_polynomial(self, capsys, curve_file):
        code, _, err = run(capsys, "eval", "--curve", curve_file, "--n", "2", "--k", "1")
        assert code == 2 and "pgn" in err

    def test_rank_two_with_polynomial(self, capsys, curve_file, tmp_path):
        _, planted = consistent_fixture(tmp_path)
        poly_file = tmp_path / "p2.json"
        poly_file.write_text(planted.to_json())
        code, out, _ = run(capsys, "eval", "--curve", curve_file, "--n", "2", "--k", "1",
                           "--pgn", str(poly_file))
        assert code == 0
        # oracle: P(1) * (q^3 - 4q) at the curve point t=2
        # planted = pic * (t^3 - 4t) evaluates at (q, sigma) to 8 * (8 - 8) = 0
        assert "= 0" in out

    def test_functional_equation_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"g": 2, "q": 2, "numerator": [1, 0, 3, 0, 5]}))
        code, _, err = run(capsys, "eval", "--curve", str(path), "--n", "1", "--k", "1")
        assert code == 2 and "functional equation" in err

    def test_non_integer_value_is_usage_error(self, capsys, curve_file, tmp_path):
        poly_file = tmp_path / "tinv.json"
        poly_file.write_text(LaurentPoly.monomial(2, 1, t=-1).to_json())
        code, _, err = run(capsys, "eval", "--curve", curve_file, "--n", "2", "--k", "1",
                           "--pgn", str(poly_file))
        assert code == 2 and "not an integer" in err


class TestMalformedInput:
    """Bad input files end in exit 2 with a one-line message, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--curve", "{missing}", "--n", "1", "--k", "1"),
        ("eval", "--curve", "{curve}", "--n", "2", "--k", "1", "--pgn", "{missing}"),
        ("pgn", "--n", "2", "--g", "2", "--a-table", "{missing}"),
        ("verify", "matr", "--replay", "{missing}"),
    ], ids=["curve", "pgn", "a-table", "replay"])
    def test_missing_file(self, capsys, curve_file, tmp_path, argv):
        missing = str(tmp_path / "absent.json")
        argv = [a.format(missing=missing, curve=curve_file) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "absent.json" in err

    @pytest.mark.parametrize("flag,obj", [
        ("--curve", {"g": 2, "q": 2}),
        ("--pgn", {"g": 2}),
        ("--a-table", {"tables": {}}),
    ], ids=["curve", "pgn", "a-table"])
    def test_missing_key(self, capsys, curve_file, tmp_path, flag, obj):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(obj))
        argv = {"--curve": ("eval", "--curve", str(path), "--n", "1", "--k", "1"),
                "--pgn": ("eval", "--curve", curve_file, "--n", "2", "--k", "1",
                          "--pgn", str(path)),
                "--a-table": ("pgn", "--n", "2", "--g", "2", "--a-table", str(path))}[flag]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("checker", ["nope", ["matr"]])
    def test_unknown_checker(self, capsys, tmp_path, checker):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"suite": "matr", "checker": checker, "instance": {}}))
        code, _, err = run(capsys, "verify", "matr", "--replay", str(path))
        assert code == 2 and "unknown checker" in err


class TestPipeline:
    def test_rank_one_builtin(self, capsys):
        code, out, _ = run(capsys, "--json", "pgn", "--n", "1", "--g", "2")
        assert code == 0
        obj = json.loads(out)
        assert all(obj["report"][key] for key in
                   ("weil_invariant", "positivity", "dominant_term",
                    "pic_divisible", "euler_matches"))

    def test_rank_one_genus_one(self, capsys):
        code, out, _ = run(capsys, "pgn", "--n", "1", "--g", "1")
        assert code == 0

    def test_requires_fixture(self, capsys):
        code, _, err = run(capsys, "pgn", "--n", "2", "--g", "2")
        assert code == 2 and "a-table" in err

    def test_rank_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "pgn", "--n", "0", "--g", "2")
        assert code == 2 and out == "" and "n >= 1" in err

    def test_consistent_fixture_passes(self, capsys, tmp_path):
        path, planted = consistent_fixture(tmp_path)
        code, out, _ = run(capsys, "--json", "pgn", "--n", "2", "--g", "2",
                           "--a-table", path)
        assert code == 0
        obj = json.loads(out)
        assert LaurentPoly.from_obj(obj["P"]) == planted

    def test_quotient_output(self, capsys, tmp_path):
        path, planted = consistent_fixture(tmp_path)
        code, out, _ = run(capsys, "--json", "qgn", "--n", "2", "--g", "2",
                           "--a-table", path)
        assert code == 0
        obj = json.loads(out)
        t = LaurentPoly.t_var(2)
        assert LaurentPoly.from_obj(obj["Q"]) == t * t * t - 4 * t

    def test_generic_fixture_fails_dominant_term(self, capsys, tmp_path):
        g = 2
        table = CTable.concrete(g, {1: pic_polynomial(g),
                                    2: pic_polynomial(g) * 3})
        atable = ATable(g, {2: a_from_c(2, g, table)})
        path = tmp_path / "bad.json"
        path.write_text(atable.to_json())
        code, _, err = run(capsys, "pgn", "--n", "2", "--g", "2", "--a-table", str(path))
        assert code == 1


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "aggregation", "--seed", "1",
                           "--iterations", "5")
        assert code == 0
        assert "aggregation: PASS" in out

    def test_deterministic_bytes(self, capsys):
        args = ("--json", "verify", "matrix-tree", "--seed", "3", "--iterations", "20")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parallel_matches_sequential(self, capsys):
        base = ("--json", "verify", "kappa", "--seed", "5", "--iterations", "30")
        _, seq, _ = run(capsys, *base)
        _, par, _ = run(capsys, *base, "--jobs", "2")
        assert seq == par

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_nonpositive_iterations_rejected(self, capsys, iterations):
        code, out, err = run(capsys, "verify", "matr", "--iterations", iterations)
        assert code == 2 and out == "" and "iterations" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_rejected(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        code, out, err = run(capsys, "verify", "matr", "--iterations", "2", "--jobs", jobs)
        assert code == 2 and out == "" and "jobs" in err

    def test_different_seeds_differ(self, capsys):
        # the reports coincide structurally but instances differ, so at least
        # the run must stay green for both
        for seed in ("1", "2"):
            code, out, _ = run(capsys, "verify", "delta", "--seed", seed,
                               "--iterations", "4")
            assert code == 0

    def test_replay_roundtrip(self, capsys, tmp_path):
        payload = {
            "suite": "matr",
            "checker": "matr",
            "instance": {"g": 2, "blocks": [
                {"d": 2, "nu": 1, "fix": 2, "m": 2, "orbits": [1, 1]}]},
        }
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "matr", "--replay", str(path))
        assert code == 0 and "PASS" in out

    def test_shrinker_minimizes(self):
        # drive the generic shrinker with a synthetic failure predicate
        from locsys.verify import _moves_delta
        instance = {"lengths": [4, 2, 5], "fixes": [3, 1, 2]}
        fails = lambda obj: 2 in obj["lengths"]
        shrunk = _shrink(instance, fails, _moves_delta)
        assert fails(shrunk)
        assert sum(shrunk["lengths"]) + sum(shrunk["fixes"]) <= 5


class TestReplayHelpers:
    def test_replay_reports_pass(self):
        payload = {"suite": "delta", "checker": "delta",
                   "instance": {"lengths": [2], "fixes": [1]}}
        assert replay(payload)["passed"] is True
