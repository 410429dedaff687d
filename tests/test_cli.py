import errno
import gc
import hashlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from master_cells import MASTER_CELLS, master_entries

from locsys import cli, cones, laurent, spectral, verify
from locsys.counting import ATable, CTable, a_from_c, c_from_a, euler_characteristic
from locsys.laurent import CurveInput, LaurentPoly, graeffe_power, pic_polynomial, weil_symmetrize
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


def write_atable(path, entries):
    """Write the bundle-count table file of the z-form entries {rank: poly}."""
    obj = {"entries": {str(n): p.to_obj() for n, p in sorted(entries.items())}}
    path.write_text(json.dumps(obj, separators=(",", ":")))


def consistent_fixture(tmp_path):
    """A rank-2 fixture engineered so every pipeline check passes: the
    planted count is the Picard polynomial times t^3 - 4t, which has the
    right dominant weight and Euler value -3."""
    g = 2
    t = LaurentPoly.t_var(g)
    planted = pic_polynomial(g) * (t * t * t - 4 * t)
    table = CTable.concrete(g, {1: pic_polynomial(g), 2: planted})
    path = tmp_path / "atable.json"
    write_atable(path, {2: a_from_c(2, g, table)})
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

    def test_rank_is_capped(self, capsys):
        code, out, err = run(capsys, "a-symbolic", "--n", str(cli.A_SYMBOLIC_MAX_RANK + 1))
        assert code == 2 and out == ""
        assert err == (f"usage error: a-symbolic takes --n up to {cli.A_SYMBOLIC_MAX_RANK}, "
                       f"not {cli.A_SYMBOLIC_MAX_RANK + 1}\n")
        code, out, err = run(capsys, "--json", "a-symbolic", "--n", "60")
        assert code == 2 and out == "" and err.count("\n") == 1

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "2", "--g", "2")
        assert code == 0 and "= -3" in out

    def test_euler_genus_is_capped(self, capsys, monkeypatch):
        import locsys.counting

        def unreachable(n, g):
            raise AssertionError("the cap is checked before any work")

        monkeypatch.setattr(locsys.counting, "euler_characteristic", unreachable)
        for prefix in ([], ["--json"]):
            code, out, err = run(capsys, *prefix, "euler", "--n", "6", "--g",
                                 str(cli.EULER_MAX_GENUS + 1))
            assert code == 2 and out == ""
            assert err == (f"usage error: euler takes --g up to {cli.EULER_MAX_GENUS}, "
                           f"not {cli.EULER_MAX_GENUS + 1}\n")

    def test_euler_n_is_capped(self, capsys, monkeypatch):
        import locsys.counting

        def unreachable(n, g):
            raise AssertionError("the cap is checked before any work")

        monkeypatch.setattr(locsys.counting, "euler_characteristic", unreachable)
        for prefix in ([], ["--json"]):
            code, out, err = run(capsys, *prefix, "euler", "--n", str(cli.DIVISOR_MAX + 1),
                                 "--g", "2")
            assert code == 2 and out == ""
            assert err == (f"usage error: euler takes --n up to {cli.DIVISOR_MAX}, "
                           f"not {cli.DIVISOR_MAX + 1}\n")

    def test_d_count_n_and_d_are_capped(self, capsys, monkeypatch):
        import locsys.counting

        def unreachable(n, d, table):
            raise AssertionError("the cap is checked before any work")

        monkeypatch.setattr(locsys.counting, "inertial_class_count", unreachable)
        over = str(cli.DIVISOR_MAX + 1)
        for flag, argv in (("n", ["--n", over, "--d", "1"]), ("d", ["--n", "12", "--d", over]),
                           ("n", ["--n", over, "--d", over])):
            for prefix in ([], ["--json"]):
                code, out, err = run(capsys, *prefix, "d-count", *argv)
                assert code == 2 and out == ""
                assert err == (f"usage error: d-count takes --{flag} up to {cli.DIVISOR_MAX}, "
                               f"not {cli.DIVISOR_MAX + 1}\n")

    def test_d_count(self, capsys):
        code, out, _ = run(capsys, "d-count", "--n", "4", "--d", "2")
        assert code == 0
        assert out.strip() == "D[4](2) = 1/2*C[2,2] - 1/2*C[2,1]"

    def test_d_count_usage_error(self, capsys):
        for d in ("3", "0", "-2"):
            code, out, err = run(capsys, "d-count", "--n", "4", "--d", d)
            assert code == 2
            assert out == ""
            assert err.startswith("usage error: ") and err.count("\n") == 1


# sha256 of stdout, recorded before FreePoly moved onto LaurentPoly's kernel
# and the symbolic master formula onto _exp_coeff_concrete (ranks 11-14:
# before the master formula memoized its exp factors and summed in integers;
# ranks 15-16: before the symbolic master formula ran on packed monomials;
# ranks 17-20, the widest packed layouts, one form each: before the symbolic
# and e-form packed kinds became one)
PINNED_STDOUT = {
    "a-symbolic --n 1":
        "d2e4284bd50d82a733fab8da140315e19297e93970982729b92210fc722f9eee",
    "--json a-symbolic --n 1":
        "57103e78ccb0a5287ef45e501a3c37e47cf02aba6f9b6a9835fa379ddf08d872",
    "a-symbolic --n 2":
        "6bba6aa452fdb7bb23b9ead9bd06e84c71407e731f29431952f80feb70fc7275",
    "--json a-symbolic --n 2":
        "549792f7f136b7017a67d0c08ebbe2a36609a7489413e8303b1451db6050499c",
    "a-symbolic --n 3":
        "f0743ddfbcc880e2ff5d00afe5a47701a7f38c3eb771b75546249cdf21ba1647",
    "--json a-symbolic --n 3":
        "7033bfac20b25f864742e776d746cfde79d162bb72b350ad1b061e0344c78911",
    "a-symbolic --n 4":
        "3df9e4b57b3b8640863869755e95b65547d004531590956b860122898d51a2c5",
    "--json a-symbolic --n 4":
        "faebd423f609435cfb64c33343e50b0300646c8e3c6fe48f8ed4a30476a8ee70",
    "a-symbolic --n 5":
        "193349d0fdcda187b775e417a94f0fb31d25c0deb8d1a73f3cd27842ac7827ce",
    "--json a-symbolic --n 5":
        "109cec28056c7431bce81fb74ae0ee5839b5b69a4e5d4aad276c31f0bff48c1d",
    "a-symbolic --n 6":
        "70cc170e8c6ca3ff1cc129b62bc6b10b53e6040b71fb4c92b6b6b5e81c65f830",
    "--json a-symbolic --n 6":
        "004f363c217bbc2694d428853e68513046a6427f82999ab18ec09e727c9a8147",
    "a-symbolic --n 7":
        "859ed0926fa1ce182be0b3a8a74a93860ca7ddb1e2aab1914b4f956ccf51f806",
    "--json a-symbolic --n 7":
        "397bf1f3362a357c27c040412f349d354a59176469fd6cafe04acd164302ee56",
    "a-symbolic --n 8":
        "a0837c9511275800869d7fe9b92d15afb830460c27b76ba0a3721e930401e108",
    "--json a-symbolic --n 8":
        "1337a12fe2ff2d5432501928adb6be817eacb2b35861909a5049e1e6cb4495cb",
    "a-symbolic --n 9":
        "fcc929afd22802a288282e74bc3312570773940c6cc0262941b1e4dcb6a5cae3",
    "--json a-symbolic --n 9":
        "7ca32724236510139650af108957b05e48030333c468bfe5eff6b14e458ef51a",
    "a-symbolic --n 10":
        "863d1ded613874ef308715ccb290f53364977c8e050edec4abd3ddb97205727a",
    "--json a-symbolic --n 10":
        "a9a22b7ba0f3d255ac45f4b2e646e128952efa16cb753d59c70d67d432034b8a",
    "a-symbolic --n 11":
        "6ebee280964793a67e1e751fa42d030f651016459247795eec6dcaae4900923c",
    "--json a-symbolic --n 11":
        "7ae4cf9fc23d84766848d0663ded16a8d6eb06e1c7c07ee08dd7711ea79efe48",
    "a-symbolic --n 12":
        "2eddfcb3b680fe6ebdb490d94d30b4c44a62122dd089cd7d5a15d8e4935b0504",
    "--json a-symbolic --n 12":
        "859b8ec660894a0e44df3efd553d58d83719ffeb5154c5c3b48474cf56318c4e",
    "a-symbolic --n 13":
        "4baf357257ec221e2effac3ad7b405a3a9497d33f4333b587acac0302208351d",
    "--json a-symbolic --n 13":
        "ca79081151c48b21afc2be48418b5709865a554df044e16ab150d505b67cd8aa",
    "a-symbolic --n 14":
        "0aad85dcd3017df975a0548478b0e43996f3fa08ea1e66f708266d42f61f7a95",
    "--json a-symbolic --n 14":
        "85fc71a79c3cfe30b5e6a076992356cfe91f634d01845d55c85870f8c758355f",
    "a-symbolic --n 15":
        "fb11dedbce043b5acf0741807a977855772249a0f0d59a1347a1a5b0188a1fbd",
    "--json a-symbolic --n 15":
        "43e2d99f278609e315234914ea88bf90978fff2312f19869b4044efd5ec556b6",
    "a-symbolic --n 16":
        "67961af4ccdd535a12916a3bc6bcdc8ff06a2996138330da4a9bd6ae391b6092",
    "--json a-symbolic --n 16":
        "57a1236b5602000d59307adfbf21b624eb662bd5116632fed4386de20bb78339",
    "a-symbolic --n 17":
        "043e0645e9498bed0c30633d96794c72f4a075835f5c7c5736196dae40082863",
    "--json a-symbolic --n 18":
        "d055ef0a3ba869a1d1d786c861593f72a559b0c439508d43e53918b7d05c5995",
    "a-symbolic --n 19":
        "2566681b72d4b3d517b7c3bb24cc7ebf194bf0241848b3940d792a465d929c09",
    "--json a-symbolic --n 20":
        "4494534e939afab004c90750406009e6eecdb46c1e0e1c0b5142db8af4aba035",
    "d-count --n 4 --d 2":
        "42d364bb87fd3d5c1a39354eb701aae8affdab842f54ef1800a47a310fc74076",
    "--json d-count --n 4 --d 2":
        "c84fdeb6505b67bf4a4be4013e2cf5bcdad86159eb35be2dae9b1babfef07bf1",
    "d-count --n 6 --d 3":
        "1637a78e7649fe1cd3c56c419e232c6c91f2194588ae6bb16139a8e594cda042",
    "--json d-count --n 6 --d 3":
        "ac9df4f3d6dfac1be02b64cd84ee8f075a47ad26957d9d27bccf6306fb7523bf",
    "d-count --n 8 --d 4":
        "447258a385c6d53bc4f488c35356217a3dc9e7708c2b4319bc01a9602502f4a9",
    "--json d-count --n 8 --d 4":
        "66d0058c38eabbed23d4197bbe46d55bf4e4be8e08b42a31eac59a05044ff984",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_symbolic_output_bytes_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def planted_entries(g, n):
    """A-table entries whose qgn report passes: ranks 2..n-1 of the C-table are
    seeded `verify.random_invariant`s, and the top rank is the Picard
    polynomial times t^((g-1)n^2+1-g) + R + c, with R random and c chosen
    for the Euler value."""
    rng = random.Random(f"pinned:{g}:{n}")
    planted = {1: pic_polynomial(g)}
    for s in range(2, n):
        planted[s] = verify.random_invariant(rng, g)
    rest = verify.random_invariant(rng, g)
    top = (g - 1) * n * n + 1
    chi = euler_characteristic(n, g)
    cofactor = (LaurentPoly.monomial(g, 1, t=top - g) + rest
                + (chi - 1 - rest.substitute(1, [1] * g, g - 1)))
    planted[n] = pic_polynomial(g) * cofactor
    table = CTable.concrete(g, planted)
    return {r: a_from_c(r, g, table) for r in range(2, n + 1)}


# sha256 of `qgn --json` stdout and of its --emit-ctable file, recorded before
# the master formula memoized its exp factors and summed in integers (cells
# (4, 3) and (3, 5), a genus-4 and a rank-5 e-form layout: before the
# symbolic and e-form packed kinds became one; cell (4, 4), a 3.3 MB table:
# before WeilPoly.from_laurent checked invariance by orbit sizes)
PINNED_QGN = {
    (2, 5): ("612a0268e38a746e0713ac9d5dee6d4cb0e1460fad7f9cf0d39661bd8400ede5",
             "351fcef429e6cba3ea526f039f02401fe2092c86b8db393905f51e57008e5cfb"),
    (3, 4): ("99d7555913f1c444699ab68df7c6103e4f8e2710ca9f8e5952ed612b1f3a51ec",
             "f96d29afc5906314bcab1a85ba10bda8bcfc80a1d323a453973b2db0170c366a"),
    (4, 3): ("35e844fe0d900bd927e3eabcb5097e2b051cd415e5d8cfddc193e8ebbc587487",
             "4a21770ef7f37b058bce4cc2fc1b3fbcc5ae90113faa78eff3a148e31df58b0c"),
    (3, 5): ("4172bc61badf86681a4d0d94db978903e960a1323cf59bf14bbb8536a751ab51",
             "7931b80e66346de14c3250998fbf8d02d7d8504dbcaf2429dfb6354e0d528f92"),
    (4, 4): ("136ad227af9364de1118bb70de8eec0279c4c4efccb41e4773c44acb85c7cc21",
             "613912afc07c40ec9230a161656c9f5ebd3f3ce309c4baedde9b146178f230a6"),
}

# sha256 of the sorted compact JSON of planted_entries(g, n)'s to_obj(), the
# z-form results of a_from_c on a z-form CTable.concrete, recorded before
# WeilPoly.from_laurent checked invariance by orbit sizes
PINNED_ENTRIES = {
    (4, 3): "b7260a1ec18f566ffdd046ad66360fb9b9ea9161755904ec67c1ec1b9bba08dd",
    (3, 5): "7d8c51c9621872876269ad721b7844243a4fa05c0bc2e2d1736913c884219574",
}


@pytest.mark.parametrize("cell", list(PINNED_ENTRIES), ids=lambda c: f"g{c[0]}n{c[1]}")
def test_planted_entries_bytes_pinned(cell):
    entries = planted_entries(*cell)
    blob = json.dumps({str(r): p.to_obj() for r, p in sorted(entries.items())},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_ENTRIES[cell]


def test_eval_pgn_bytes_pinned(capsys, tmp_path):
    # sha256 of `--json eval --n 4 --k 1 --pgn` on A[3,4] at a genus-3 curve
    # (traces 4, 2, -4 over F_5), recorded before WeilPoly.from_laurent
    # checked invariance by orbit sizes
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"g": 3, "q": 5, "numerator": [1, -2, -1, 12, -5, -50, 125]}))
    pgn = tmp_path / "a34.json"
    pgn.write_text(planted_entries(3, 4)[4].to_json())
    code, out, _ = run(capsys, "--json", "eval", "--curve", str(curve), "--n", "4", "--k", "1",
                       "--pgn", str(pgn))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd8b81538359a375e11769c9ca539004eedcc4976f5a06c1706d1806e26eda7b")


def test_reads_build_no_z_form(capsys, tmp_path, monkeypatch):
    """The A-table and the --pgn file never enter the per-term read: with
    it refusing, qgn on a benchmark cell and eval keep their pinned
    bytes."""
    def refuse(obj):
        raise AssertionError("read term by term")

    monkeypatch.setattr(laurent, "_zform_by_term", refuse)
    test_qgn_output_bytes_pinned(capsys, tmp_path, (3, 5))
    test_eval_pgn_bytes_pinned(capsys, tmp_path)


@pytest.mark.parametrize("seed", range(4))
def test_written_files_read_by_column(capsys, tmp_path, monkeypatch, seed):
    """Every polynomial the package writes reads through the column check:
    with the per-term read refusing, the `master` entries' to_obj, the P
    and Q objects of `pgn`/`qgn --json` on them and the `--emit-ctable`
    entries all read back."""
    def refuse(obj):
        raise AssertionError("read term by term")

    entries = master_entries(seed)
    monkeypatch.setattr(laurent, "_zform_by_term", refuse)
    written = []
    for g, n in MASTER_CELLS:
        cell, entries = entries[:n - 1], entries[n - 1:]
        for p in cell:
            assert LaurentPoly.from_obj(p.to_obj()) == p
        atable, ctable = tmp_path / "atable.json", tmp_path / "ctable.json"
        write_atable(atable, dict(zip(range(2, n + 1), cell)))
        for command, label in (("pgn", "P"), ("qgn", "Q")):
            code, out, _ = run(capsys, "--json", command, "--n", str(n), "--g", str(g),
                               "--a-table", str(atable), "--emit-ctable", str(ctable))
            assert code == 0
            written.append(json.loads(out)[label])
            written += json.loads(ctable.read_text())["entries"].values()
    assert entries == [] and len(written) == 2 * sum(n + 1 for _g, n in MASTER_CELLS)
    for obj in written:
        assert LaurentPoly.from_obj(obj).to_obj() == obj


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_reads_restore_the_collector(capsys, curve_file, tmp_path, monkeypatch, enabled):
    """The cyclic collector is paused while a polynomial file is read and is
    left as the caller had it, after a read that succeeds, one that is a
    usage error and a report that fails."""
    paused = []
    read = LaurentPoly.from_obj.__func__
    monkeypatch.setattr(LaurentPoly, "from_obj",
                        classmethod(lambda cls, obj: paused.append(not gc.isenabled())
                                    or read(cls, obj)))
    good, bad, table = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "atable.json"
    good.write_text(json.dumps({"g": 2, "terms": [{"c": "3", "t": 1, "z": [0, 0]}]}))
    bad.write_text(json.dumps({"g": 2, "terms": [{"c": "3", "t": 1, "z": [0, 1.5]}]}))
    write_atable(table, failing_entries("wrong-top"))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, argv in ((0, ("eval", "--curve", curve_file, "--n", "2", "--k", "1",
                                "--pgn", str(good))),
                           (2, ("eval", "--curve", curve_file, "--n", "2", "--k", "1",
                                "--pgn", str(bad))),
                           (1, ("qgn", "--n", "2", "--g", "2", "--a-table", str(table)))):
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True, True, True]


def test_emit_ctable_bytes_match_json_dump(capsys, tmp_path):
    g, n = 2, 5
    entries = planted_entries(g, n)
    path = tmp_path / "atable.json"
    write_atable(path, entries)
    ctable = tmp_path / "ctable.json"
    code, _, _ = run(capsys, "--json", "qgn", "--n", str(n), "--g", str(g),
                     "--a-table", str(path), "--emit-ctable", str(ctable))
    assert code == 0
    expected = io.StringIO()
    json.dump(c_from_a(n, g, ATable(g, entries)).to_obj(), expected, sort_keys=True,
              separators=(",", ":"))
    assert ctable.read_text(encoding="utf-8") == expected.getvalue()


@pytest.mark.parametrize("cell", list(PINNED_QGN), ids=lambda c: f"g{c[0]}n{c[1]}")
def test_qgn_output_bytes_pinned(capsys, tmp_path, cell):
    g, n = cell
    atable = tmp_path / "atable.json"
    write_atable(atable, planted_entries(g, n))
    ctable = tmp_path / "ctable.json"
    code, out, _ = run(capsys, "--json", "qgn", "--n", str(n), "--g", str(g),
                       "--a-table", str(atable), "--emit-ctable", str(ctable))
    assert code == 0
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(ctable.read_bytes()).hexdigest())
    assert digests == PINNED_QGN[cell]


def failing_entries(case):
    """Rank-2 A-table entries (g = 2) whose report fails.  "wrong-top"
    plants the Picard polynomial times 2t^3 + 2(z1 + t/z1 + z2 + t/z2) + 1,
    which fails dominant_term and euler_matches; "not-divisible" plants the
    Picard polynomial times t^3 - 4t, plus t, which fails pic_divisible and
    euler_matches."""
    g = 2
    t, pic = LaurentPoly.t_var(g), pic_polynomial(g)
    planted = {"wrong-top": pic * (2 * t ** 3 + weil_symmetrize(LaurentPoly.z_var(g, 0)) + 1),
               "not-divisible": pic * (t ** 3 - 4 * t) + t}[case]
    table = CTable.concrete(g, {1: pic, 2: planted})
    return {2: a_from_c(2, g, table)}


# sha256 of stdout and the stderr line of a failing report, recorded while
# the report still scanned the z-form
PINNED_FAILING = {
    ("wrong-top", "pgn", "text"): (
        "0161850864a888bca9a8f7ac721cc153678a9b46ec7016f9243ff27891e7619f",
        "error: pipeline report contains failing checks\n"),
    ("wrong-top", "pgn", "json"): (
        "c78c2dac4794dcd4548a9e8129892f829c7d243913a6cac0ce263d468073c641",
        "error: pipeline report contains failing checks\n"),
    ("wrong-top", "qgn", "text"): (
        "0a9219978096f4cba50dc27b866b12c43a35a44957f3daa74e4117e27911858a",
        "error: pipeline report contains failing checks\n"),
    ("wrong-top", "qgn", "json"): (
        "f2c248fc395d9f74020030b14708725ad2d6fe69e08facad336a19a4bf65e49a",
        "error: pipeline report contains failing checks\n"),
    ("not-divisible", "pgn", "text"): (
        "818f73de5783ca12247c3c80150b89cb8f4835454d19cbd2bcf0cb3b1c4dc6e2",
        "error: pipeline report contains failing checks\n"),
    ("not-divisible", "pgn", "json"): (
        "549516b13345df4098ca077b6c1a587d1a7a146c761c2f3868a9314bdae7e233",
        "error: pipeline report contains failing checks\n"),
    ("not-divisible", "qgn", "text"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: quotient unavailable: Picard divisibility failed\n"),
    ("not-divisible", "qgn", "json"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: quotient unavailable: Picard divisibility failed\n"),
}


@pytest.mark.parametrize("key", list(PINNED_FAILING), ids=lambda k: "-".join(k))
def test_failing_report_bytes_pinned(capsys, tmp_path, key):
    case, command, form = key
    path = tmp_path / "atable.json"
    write_atable(path, failing_entries(case))
    argv = (["--json"] if form == "json" else []) + [command, "--n", "2", "--g", "2",
                                                     "--a-table", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == PINNED_FAILING[key]


class TestEval:
    def test_k_is_capped(self, capsys, curve_file, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the cap is checked before any work")

        monkeypatch.setattr(cli, "evaluate_at_curve", unreachable)
        for n in ("1", "2"):
            code, out, err = run(capsys, "eval", "--curve", curve_file, "--n", n, "--k",
                                 str(cli.EVAL_MAX_K + 1))
            assert code == 2 and out == ""
            assert err == (f"usage error: eval takes --k up to {cli.EVAL_MAX_K}, "
                           f"not {cli.EVAL_MAX_K + 1}\n")

    @pytest.mark.parametrize("field", ["g", "q"])
    def test_curve_size_is_capped(self, capsys, tmp_path, monkeypatch, field):
        """A curve's g and q are capped before the curve is checked: at its
        cap a field reaches the (stubbed) check, above it it is a usage
        error."""
        def unreachable(*args):
            raise AssertionError("the curve check was reached")

        monkeypatch.setattr(CurveInput, "__init__", unreachable)
        cap = {"g": cli.CURVE_MAX_GENUS, "q": cli.DIVISOR_MAX}[field]
        path = tmp_path / "curve.json"
        argv = ("eval", "--curve", str(path), "--n", "1", "--k", "1")
        path.write_text(json.dumps({"g": 2, "q": 2, "numerator": [1, 0, 3, 0, 4], field: cap}))
        with pytest.raises(AssertionError, match="check was reached"):
            run(capsys, *argv)
        path.write_text(json.dumps({"g": 2, "q": 2, "numerator": [1, 0, 3, 0, 4], field: cap + 1}))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"usage error: eval takes a curve with {field} up to {cap}, not {cap + 1}\n"

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

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_rank_below_one_rejected(self, capsys, curve_file, tmp_path, n):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(pic_polynomial(2).to_json())
        for extra in ((), ("--pgn", str(poly_file))):
            code, out, err = run(capsys, "eval", "--curve", curve_file, "--n", n, "--k", "1",
                                 *extra)
            assert (code, out, err) == (2, "", "usage error: need n >= 1\n")

    def test_rank_one_takes_no_polynomial(self, capsys, curve_file, tmp_path):
        """The rank-1 polynomial is built in, so a --pgn file with --n 1 is
        refused rather than ignored."""
        poly_file = tmp_path / "p.json"
        poly_file.write_text(pic_polynomial(2).to_json())
        code, out, err = run(capsys, "eval", "--curve", curve_file, "--n", "1", "--k", "1",
                             "--pgn", str(poly_file))
        assert (code, out) == (2, "")
        assert err == ("usage error: eval --n 1 takes no --pgn: "
                       "the rank-1 polynomial is built in\n")

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

    def test_exact_results_past_the_digit_limit(self, capsys, tmp_path):
        """eval and euler print exact integers of any size, as text and as
        JSON, and the interpreter's int-to-str digit limit stays on for the
        readers.  The rank-1 count is prod(1 - alpha_i^k), the sum of
        graeffe_power's coefficients."""
        curve = {"g": 2, "q": 5, "numerator": [1, -2, 2, -10, 25]}
        path = tmp_path / "g2q5.json"
        path.write_text(json.dumps(curve))
        cases = [(("eval", "--curve", str(path), "--n", "1", "--k", "8000"), "count[n=1,k=8000]",
                  "count", sum(graeffe_power(CurveInput.from_obj(curve), 8000))),
                 (("euler", "--n", "3", "--g", "5000"), "euler[g=5000,n=3]",
                  "euler", euler_characteristic(3, 5000))]
        outputs = [(run(capsys, *argv), run(capsys, "--json", *argv)) for argv, *_ in cases]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert limit == DIGIT_LIMIT
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            for (text, as_json), (_argv, label, key, value) in zip(outputs, cases):
                assert abs(value) > 10 ** 4300
                assert text == (0, f"{label} = {value}\n", "")
                assert as_json[0] == 0 and json.loads(as_json[1])[key] == value
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

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
        ("qgn", "--n", "1", "--g", "2", "--emit-ctable", "{missing}/ctable.json"),
    ], ids=["curve", "pgn", "a-table", "replay", "emit-ctable"])
    def test_missing_file(self, capsys, curve_file, tmp_path, argv):
        missing = str(tmp_path / "absent.json")
        argv = [a.format(missing=missing, curve=curve_file) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "absent.json" in err

    def test_emit_ctable_to_a_directory(self, capsys, tmp_path):
        # an output path that cannot be written used to end in a traceback
        # with exit 1 (test_missing_file has one in a missing directory)
        code, out, err = run(capsys, "qgn", "--n", "1", "--g", "2", "--emit-ctable", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"usage error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"

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

    @pytest.mark.parametrize("flag,obj", [
        ("--curve", {"g": 1, "q": 2, "numerator": [1, -4.9, 2]}),
        ("--curve", {"g": 2.5, "q": 2, "numerator": [1, 0, 3, 0, 4]}),
        ("--curve", {"g": 2, "q": 2, "numerator": [True, 0, 3, 0, 4]}),
        ("--pgn", {"g": 2, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": 0},
                                     {"c": "5", "t": 0, "z": [0, 0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1", "t": 1.9, "z": [0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1", "t": 0, "z": [True], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": "1"}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1", "t": 0, "z": [0], "gamma": False}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1", "t": 0, "z": "0", "gamma": 0}]}),
        ("--pgn", {"g": 2.0, "terms": [{"c": "1", "t": 0, "z": [0, 0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": True, "t": 1, "z": [0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": 0.1, "t": 1, "z": [0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "1/0", "t": 1, "z": [0], "gamma": 0}]}),
        ("--pgn", {"g": 1, "terms": [{"c": "one", "t": 1, "z": [0], "gamma": 0}]}),
        ("--pgn", {"g": 2, "terms": {}}),
        ("--pgn", {"g": 2, "terms": ""}),
        ("--pgn", {"g": 2, "terms": [{"c": "1", "t": 0, "z": {}, "gamma": 0}]}),
        ("--pgn", {"g": 2, "terms": [{"c": "1", "t": 0, "z": "", "gamma": 0}]}),
        ("--a-table", {"entries": {"2": {"g": 2, "terms": {}}}}),
    ], ids=["float-coefficient", "float-genus", "bool-coefficient", "duplicate-term",
            "float-t", "bool-z", "string-gamma", "bool-gamma", "string-z", "float-pgn-genus",
            "bool-c", "float-c", "zero-denominator-c", "word-c", "object-terms", "string-terms",
            "object-z", "empty-string-z", "object-table-terms"])
    def test_rejected_where_it_enters(self, capsys, curve_file, tmp_path, flag, obj):
        # each of these used to be read as some other input and exit 0 (a
        # table entry read as zero made a failing report, exit 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        argv = {"--curve": ("eval", "--curve", str(path), "--n", "1", "--k", "1"),
                "--pgn": ("eval", "--curve", curve_file, "--n", "2", "--k", "1",
                          "--pgn", str(path)),
                "--a-table": ("qgn", "--n", "2", "--g", "2", "--a-table", str(path))}[flag]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed") and err.count("\n") == 1

    @pytest.mark.parametrize("term,message", [
        ({"c": "0", "t": 0, "z": [0, 0, 0], "gamma": -1}, "has length != g=2"),
        ({"c": "0", "t": 0, "z": [0, 0], "gamma": -1}, "must be nonnegative"),
    ], ids=["z-length", "negative-gamma"])
    @pytest.mark.parametrize("flag", ["--pgn", "--a-table"])
    def test_zero_term_key_is_checked(self, capsys, curve_file, tmp_path, flag, term, message):
        # a zero coefficient used to drop its term before the key was checked
        poly = {"g": 2, "terms": [term, {"c": "1", "t": 0, "z": [0, 0], "gamma": 0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(poly if flag == "--pgn" else {"entries": {"2": poly}}))
        argv = {"--pgn": ("eval", "--curve", curve_file, "--n", "2", "--k", "1",
                          "--pgn", str(path)),
                "--a-table": ("pgn", "--n", "2", "--g", "2", "--a-table", str(path))}[flag]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and message in err and err.count("\n") == 1

    def test_integer_coefficient_reads_like_its_string(self, capsys, curve_file, tmp_path):
        outs = []
        for c in (-3, "-3"):
            path = tmp_path / "pgn.json"
            path.write_text(json.dumps({"g": 2, "terms": [{"c": c, "t": 1, "z": [0, 0],
                                                           "gamma": 0}]}))
            code, out, _ = run(capsys, "eval", "--curve", curve_file, "--n", "2", "--k", "1",
                               "--pgn", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("keys", [("2", "02"), ("02",), ("+2",), (" 2",), ("2.0",), ("two",)])
    def test_rank_key_must_be_canonical(self, capsys, tmp_path, keys):
        # "02" used to be read as rank 2, and the last of "2" and "02" won
        entry = LaurentPoly.monomial(2, 1, t=3).to_obj()
        path = tmp_path / "atable.json"
        path.write_text(json.dumps({"entries": {key: entry for key in keys}}))
        code, out, err = run(capsys, "qgn", "--n", "2", "--g", "2", "--a-table", str(path))
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed bundle-count table JSON: rank key")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["-1", "0", "1"])
    def test_rank_key_below_two_is_rejected(self, capsys, tmp_path, key):
        # rank 1 is the built-in Picard polynomial: a rank-1 entry that
        # contradicts it must not load and be ignored
        entries = {key: LaurentPoly.monomial(2, 1, t=3).to_obj(),
                   "2": a_from_c(2, 2, CTable.concrete(2, {1: pic_polynomial(2),
                                                          2: LaurentPoly.zero(2)})).to_obj()}
        path = tmp_path / "atable.json"
        path.write_text(json.dumps({"entries": entries}))
        for command in ("pgn", "qgn"):
            code, out, err = run(capsys, command, "--n", "2", "--g", "2", "--a-table", str(path))
            assert code == 2 and out == ""
            assert err == (f"usage error: malformed bundle-count table JSON: rank key {key!r} "
                           "is below 2 (rank 1 is the built-in Picard polynomial)\n")

    @pytest.mark.parametrize("checker", ["nope", ["matr"]])
    def test_unknown_checker(self, capsys, tmp_path, checker):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"suite": "matr", "checker": checker, "instance": {}}))
        code, _, err = run(capsys, "verify", "matr", "--replay", str(path))
        assert code == 2 and "unknown checker" in err


def test_parser_is_not_held_while_the_command_runs(monkeypatch):
    """main keeps no reference to its argparse parser, so the collector can
    free the parser's reference cycles while the command runs."""
    refs = []
    build = cli.build_parser

    def spy():
        parser = build()
        refs.append(weakref.ref(parser))
        return parser

    def probe(args):
        gc.collect()
        assert refs and refs[0]() is None
        return 0

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "cmd_euler", probe)
    assert cli.main(["euler", "--n", "2", "--g", "2"]) == 0


def test_parser_is_freed_before_the_command_runs(monkeypatch):
    """main frees its parser's reference cycles itself: no parser or
    subparser is left when the command starts, with no collection by the
    caller or the command (the collection before main leaves the young
    generation empty, so none starts while the parser is being built)."""
    import argparse

    def probe(args):
        assert not [o for o in gc.get_objects()
                    if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("locsys")]
        return 0

    monkeypatch.setattr(cli, "cmd_euler", probe)
    gc.collect()
    assert cli.main(["euler", "--n", "2", "--g", "2"]) == 0


def _fresh_python(*args, code=None):
    """Run a fresh interpreter on the package's source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [sys.executable] + (["-c", code] if code is not None else []) + list(args)
    return subprocess.run(argv, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)


# CPython's limit on the digits of an integer string (0: no limit, or none
# before 3.10.7); a coefficient string past it is refused like "x"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestTableReadMatchesPgnRead:
    """`--a-table` entries and `eval --pgn` read a polynomial through the
    same reader; a bad polynomial gives the same one-line usage error on
    both."""

    TERM = {"c": "1", "t": 0, "z": [0, 0], "gamma": 0}

    @pytest.mark.parametrize("poly,message", [
        ({"g": 2, "terms": [{"t": 0, "z": [0, 0]}]}, "malformed polynomial JSON: KeyError('c')"),
        ({"g": 2, "terms": [3]}, "malformed polynomial JSON: "
                                 "TypeError(\"'int' object is not subscriptable\")"),
        ({"g": 2.0, "terms": []}, "malformed polynomial JSON: g has non-integer 2.0"),
        ({"g": 2, "terms": [dict(TERM, t=1.5)]},
         "malformed polynomial JSON: non-integer exponent in (1.5, (0, 0), 0)"),
        ({"g": 2, "terms": [TERM, dict(TERM, c="2")]},
         "malformed polynomial JSON: duplicate term (0, (0, 0), 0)"),
        ({"g": 2, "terms": [dict(TERM, c="1/0")]},
         "malformed polynomial JSON: coefficient '1/0' is not a rational number"),
        pytest.param({"g": 2, "terms": [dict(TERM, c="9" * (DIGIT_LIMIT + 1))]},
                     f"malformed polynomial JSON: coefficient '{'9' * (DIGIT_LIMIT + 1)}' "
                     "is not a rational number",
                     marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer-string limit")),
        ({"g": 2, "terms": [dict(TERM, c=0.5)]},
         "malformed polynomial JSON: coefficient 0.5 is neither a string nor an integer"),
        ({"g": 2, "terms": [dict(TERM, c=True)]},
         "malformed polynomial JSON: coefficient True is neither a string nor an integer"),
        ({"g": -1, "terms": [dict(TERM, z=[0])]}, "need g >= 0"),
        ({"g": 2, "terms": [dict(TERM, c="0", z=[0]), dict(TERM, gamma=-1)]},
         "exponent vector (0,) has length != g=2"),
        ({"g": 2, "terms": [dict(TERM, gamma=-1), dict(TERM, c="x", t=1)]},
         "malformed polynomial JSON: coefficient 'x' is not a rational number"),
        ({"g": 2, "terms": [dict(TERM, gamma=-1)]}, "genus-offset exponent must be nonnegative"),
    ], ids=["missing-c", "term-not-object", "float-g", "float-t", "duplicate", "zero-denominator",
            "over-digit-limit", "float-c", "bool-c", "negative-g", "zero-term-z-length",
            "coefficient-before-key", "negative-gamma"])
    def test_same_usage_error(self, capsys, curve_file, tmp_path, poly, message):
        pgn, table = tmp_path / "pgn.json", tmp_path / "atable.json"
        pgn.write_text(json.dumps(poly))
        table.write_text(json.dumps({"entries": {"2": poly}}))
        for argv in (("eval", "--curve", curve_file, "--n", "2", "--k", "1", "--pgn", str(pgn)),
                     ("qgn", "--n", "2", "--g", "2", "--a-table", str(table))):
            assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


class TestStartup:
    """Each command loads only what it runs."""

    def test_cli_import_loads_neither_verify_nor_counting(self):
        done = _fresh_python(code="import sys, locsys.cli\n"
                                  "locsys.cli.build_parser()\n"
                                  "print(' '.join(sorted(sys.modules)))\n")
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "locsys.cli" in loaded
        assert not loaded & {"locsys.verify", "locsys.counting"}

    def test_suite_names_are_the_suites(self):
        assert cli.SUITE_NAMES == tuple(verify.SUITES)

    def test_counting_reexports_resolve_on_use(self):
        import locsys
        from locsys import ATable as reexported
        from locsys import counting

        assert reexported is counting.ATable
        assert locsys.c_from_a is counting.c_from_a
        namespace = {}
        exec("from locsys import *", namespace)
        assert set(locsys.__all__) <= namespace.keys()

    def test_unknown_attribute_is_attribute_error(self):
        import locsys

        with pytest.raises(AttributeError, match="'nope'"):
            locsys.nope

    def test_counting_errors_are_the_laurent_classes(self):
        from locsys import counting, laurent

        assert counting.EntryMissing is laurent.EntryMissing
        assert counting.IntegralityError is laurent.IntegralityError

    def test_python_dash_m(self):
        done = _fresh_python("-m", "locsys", "euler", "--n", "2", "--g", "2")
        assert (done.returncode, done.stdout, done.stderr) == (0, "euler[g=2,n=2] = -3\n", "")
        done = _fresh_python("-m", "locsys", "verify", "nosuch")
        assert done.returncode == 2 and "invalid choice: 'nosuch'" in done.stderr


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

    def test_genus_is_capped(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the cap is checked before any work")

        monkeypatch.setattr(cli, "_build_pipeline", unreachable)
        above = str(cli.PGN_MAX_GENUS + 1)
        for command in ("pgn", "qgn"):
            for prefix in ([], ["--json"]):
                code, out, err = run(capsys, *prefix, command, "--n", "1", "--g", above)
                assert code == 2 and out == ""
                assert err == (f"usage error: {command} takes --g up to {cli.PGN_MAX_GENUS}, "
                               f"not {above}\n")

    def test_requires_fixture(self, capsys):
        code, _, err = run(capsys, "pgn", "--n", "2", "--g", "2")
        assert code == 2 and "a-table" in err

    def test_rank_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "pgn", "--n", "0", "--g", "2")
        assert code == 2 and out == "" and "n >= 1" in err

    def test_non_integral_table_is_theorem_failure(self, capsys, tmp_path):
        # Weil-invariant and positive, but C_2 = A_2 - (formula) is not integral
        path = tmp_path / "atable.json"
        path.write_text(json.dumps({"entries": {"2": {"g": 2, "terms": [
            {"c": "1/2", "t": 0, "z": [0, 0], "gamma": 0}]}}}))
        code, out, err = run(capsys, "qgn", "--n", "2", "--g", "2", "--a-table", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: rank-2 count polynomial is not integral\n"

    def test_non_invariant_table_is_usage_error(self, capsys, tmp_path):
        """An entry with an orbit member missing, bumped or shifted in t
        fails the invariance check that its conversion to e-form makes."""
        entries = planted_entries(2, 3)
        top = entries[3]
        key = max(k for k in top.terms if k[1] != (0, 0))  # not an orbit of one
        dropped = LaurentPoly(2, {k: c for k, c in top.terms.items() if k != key})
        bumped = top + LaurentPoly(2, {key: 1})
        shifted = dropped + LaurentPoly(2, {(key[0] + 1, key[1], key[2]): top.terms[key]})
        path = tmp_path / "atable.json"
        for bad in (dropped, bumped, shifted):
            write_atable(path, {2: entries[2], 3: bad})
            code, out, err = run(capsys, "qgn", "--n", "3", "--g", "2", "--a-table", str(path))
            assert (code, out, err) == (2, "", "usage error: A-table entry 3 is not Weil-invariant\n")

    @pytest.mark.parametrize("entries,message", [
        ({"2": "not-invariant", "3": "float-t"},
         "malformed polynomial JSON: non-integer exponent in (1.5, (0, 0), 0)"),
        ({"2": "negative-t", "3": "not-invariant"}, "A-table entry 2 violates positivity"),
        ({"2": "genus-3", "3": "not-invariant"}, "entry 2 has wrong number of z-variables"),
        ({"2": "not-invariant", "3": "genus-3"}, "A-table entry 2 is not Weil-invariant"),
    ], ids=["format-first", "positivity-in-entry-order", "genus-before-invariance",
            "invariance-in-entry-order"])
    def test_table_error_order(self, capsys, tmp_path, entries, message):
        """Every entry's format faults come first, in file order; then, entry
        by entry in file order, a wrong g, a Weil-invariance failure and
        positivity."""
        polys = {
            "not-invariant": {"g": 2, "terms": [{"c": "1", "t": 0, "z": [1, 0]}]},
            "float-t": {"g": 2, "terms": [{"c": "1", "t": 1.5, "z": [0, 0]}]},
            "negative-t": {"g": 2, "terms": [{"c": "1", "t": -1, "z": [0, 0]}]},
            "genus-3": {"g": 3, "terms": [{"c": "1", "t": 2, "z": [0, 0, 0]}]},
        }
        path = tmp_path / "atable.json"
        path.write_text(json.dumps({"entries": {n: polys[kind] for n, kind in entries.items()}}))
        code, out, err = run(capsys, "qgn", "--n", "3", "--g", "2", "--a-table", str(path))
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

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

    def test_table_without_a_needed_rank_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # a missing rank is bad input, not a theorem failure; it used to exit 1.
        # It is found before the master formula runs at that rank.
        from locsys import counting

        ranks = []
        forward = counting.a_from_c
        monkeypatch.setattr(counting, "a_from_c",
                            lambda s, g, table: ranks.append(s) or forward(s, g, table))
        path = tmp_path / "atable.json"
        write_atable(path, planted_entries(2, 3))
        code, out, err = run(capsys, "qgn", "--n", "4", "--g", "2", "--a-table", str(path))
        assert (code, out, err) == (2, "", "usage error: no A-table entry for rank 4\n")
        assert ranks == [2, 2, 3, 3]

    def test_generic_fixture_fails_dominant_term(self, capsys, tmp_path):
        g = 2
        table = CTable.concrete(g, {1: pic_polynomial(g),
                                    2: pic_polynomial(g) * 3})
        path = tmp_path / "bad.json"
        write_atable(path, {2: a_from_c(2, g, table)})
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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_all_suites_bytes_pinned(self, capsys, jobs):
        # sha256 of `--json verify all --seed 0 --jobs 1` stdout, recorded
        # before the verify kernels moved to integers; the worker pool
        # must give the same bytes
        code, out, _ = run(capsys, "--json", "verify", "all", "--seed", "0", "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1c956a789b6e9839a0b143edb3c586f7093449f8170cf313484c2d34de7b92ed")

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

    @pytest.mark.parametrize("jobs", [str(verify.MAX_JOBS + 1), "5000"])
    def test_jobs_above_the_cap_rejected(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        for suite in ("matr", "all"):
            code, out, err = run(capsys, "verify", suite, "--iterations", "2", "--jobs", jobs)
            assert (code, out) == (2, "")
            assert err == (f"usage error: need 1 <= jobs <= {verify.MAX_JOBS}, "
                           f"got {jobs}\n")

    def test_pool_has_no_more_workers_than_items(self, capsys, monkeypatch):
        """A pool is sized min(jobs, items); the stub pool runs the items in
        this process, so no worker starts whatever size is asked."""
        sizes = []

        class StubPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=StubPool))
        base = ("--json", "verify", "kappa", "--seed", "5", "--iterations", "3")
        items = len(list(verify.SUITES["kappa"](5, 3)))
        assert 1 < items < verify.MAX_JOBS
        _, seq, _ = run(capsys, *base)
        for jobs, size in ((2, 2), (verify.MAX_JOBS, items)):
            sizes.clear()
            code, par, _ = run(capsys, *base, "--jobs", str(jobs))
            assert code == 0 and par == seq
            assert sizes == [size]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crashing_checker_is_an_error(self, capsys, monkeypatch, jobs):
        def crashing(obj):
            if len(obj["lengths"]) == 2:
                raise ZeroDivisionError("boom")
            return True

        monkeypatch.setitem(verify.CHECKERS, "delta", crashing)
        base = ("verify", "delta", "--iterations", "2", "--jobs", jobs)
        code, out, _ = run(capsys, *base)
        first = {"lengths": [1, 1], "fixes": [1, 1]}
        counterexample = {"suite": "delta", "checker": "delta", "instance": first}
        assert code == 1
        assert out.splitlines() == [
            "delta: FAIL (5 checks)",
            "  error: ZeroDivisionError: boom",
            f"  counterexample: {json.dumps(counterexample, sort_keys=True)}",
        ]
        code, out, _ = run(capsys, "--json", *base)
        report = json.loads(out)["suites"][0]
        assert code == 1
        assert report["error"] == "ZeroDivisionError: boom"
        assert report["counterexample"] == counterexample

    def test_crashing_checker_is_not_shrunk(self, monkeypatch):
        instance = {"lengths": [3, 2], "fixes": [1, 1]}

        def crashing(obj):
            if obj == instance:
                raise KeyError("lengths")
            return False  # every shrinking candidate would count as a failure

        monkeypatch.setitem(verify.CHECKERS, "delta", crashing)
        report = verify._finish("delta", [("delta", dict(instance))])
        assert report["error"] == "KeyError: 'lengths'"
        assert report["counterexample"]["instance"] == instance
        monkeypatch.setitem(verify.CHECKERS, "delta", lambda obj: False)
        report = verify._finish("delta", [("delta", dict(instance))])
        assert "error" not in report
        assert report["counterexample"]["instance"] == {"lengths": [1], "fixes": [1]}

    def test_crashing_subcheck_error_reaches_suite_report(self, monkeypatch):
        def crashing(obj):
            raise ValueError("bad block")

        monkeypatch.setitem(verify.CHECKERS, "block-det", crashing)
        report = verify.run_suite("kappa", seed=0, iterations=2)
        assert not report["passed"]
        assert report["error"] == "ValueError: bad block"
        assert report["checks"] == 3
        assert report["counterexample"]["checker"] == "block-det"

    @pytest.mark.parametrize("suite,module,name,kind", [
        ("gm-family", spectral, "circle_count_check", "circle"),
        ("cones", cones, "gamma_support_bound_check", "support"),
        ("integrality", verify, "coprime_factorial_congruence_check", "congruence"),
        ("integrality", verify, "binomial_gcd_divisibility_check", "binom"),
    ], ids=["gm-family", "cones", "integrality-congruence", "integrality-binom"])
    def test_crashing_extra_check_is_an_error(self, capsys, monkeypatch, tmp_path, suite,
                                              module, name, kind):
        """The checks a suite draws after its random instances end in an
        error report, not a traceback, and their counterexample replays."""
        def crashing(*args, **kwargs):
            raise ArithmeticError("boom")

        monkeypatch.setattr(module, name, crashing)
        base = ("verify", suite, "--iterations", "1")
        code, out, _ = run(capsys, *base)
        lines = out.splitlines()
        assert code == 1
        assert lines[0].startswith(f"{suite}: FAIL (")
        assert lines[1] == "  error: ArithmeticError: boom"
        code, out, _ = run(capsys, "--json", *base)
        report = json.loads(out)["suites"][0]
        assert code == 1 and report["passed"] is False
        assert report["error"] == "ArithmeticError: boom"
        counterexample = report["counterexample"]
        assert counterexample["suite"] == counterexample["checker"] == suite
        assert counterexample["instance"]["kind"] == kind
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(counterexample))
        code, out, _ = run(capsys, "verify", suite, "--replay", str(path))
        assert code == 1
        assert out == f"replay {suite}: FAIL\n  error: ArithmeticError: boom\n"
        monkeypatch.undo()
        code, out, _ = run(capsys, "verify", suite, "--replay", str(path))
        assert code == 0 and out == f"replay {suite}: PASS\n"

    def test_extra_check_violation_is_a_theorem_failure(self, capsys, monkeypatch, tmp_path):
        def violated(*args, **kwargs):
            raise spectral.TheoremViolation("circle integral 1 vs count 0")

        monkeypatch.setattr(spectral, "circle_count_check", violated)
        code, out, _ = run(capsys, "--json", "verify", "gm-family", "--iterations", "1")
        report = json.loads(out)["suites"][0]
        assert code == 1 and report["passed"] is False and "error" not in report
        assert report["checks"] == 2
        assert report["counterexample"]["instance"] == {
            "kind": "circle", "c12": {"num": [1, -2], "den": [1]},
            "c21": {"num": [1], "den": [1]}}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(report["counterexample"]))
        code, out, _ = run(capsys, "verify", "gm-family", "--replay", str(path))
        assert code == 1 and out == "replay gm-family: FAIL\n"
        monkeypatch.undo()
        code, out, _ = run(capsys, "verify", "gm-family", "--replay", str(path))
        assert code == 0 and out == "replay gm-family: PASS\n"

    @pytest.mark.parametrize("name,kind,checks", [
        ("coprime_factorial_congruence_check", "congruence", 2),
        ("binomial_gcd_divisibility_check", "binom", 602),
    ])
    def test_integrality_extra_violation_is_not_shrunk(self, capsys, monkeypatch, name,
                                                       kind, checks):
        # the divisibility shrinking moves do not apply to these items
        monkeypatch.setattr(verify, name, lambda *args: False)
        code, out, _ = run(capsys, "--json", "verify", "integrality", "--iterations", "1")
        report = json.loads(out)["suites"][0]
        assert code == 1 and "error" not in report
        assert report["checks"] == checks
        assert report["counterexample"]["instance"]["kind"] == kind

    @pytest.mark.parametrize("suite,module,name,exc", [
        ("gm-family", spectral, "circle_count_check", spectral.TheoremViolation),
        ("cones", cones, "gamma_support_bound_check", ArithmeticError),
    ], ids=["circle-violation", "support-error"])
    def test_failing_extra_item_same_with_pool(self, capsys, monkeypatch, suite, module,
                                               name, exc):
        def failing(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(module, name, failing)
        for flag in ((), ("--json",)):
            base = (*flag, "verify", suite, "--iterations", "2")
            seq = run(capsys, *base, "--jobs", "1")
            par = run(capsys, *base, "--jobs", "2")
            assert seq[0] == 1 and seq == par

    def test_every_suite_item_replays(self):
        """Each item a suite draws survives a JSON round trip and passes
        through replay, so any counterexample it reports can be rerun."""
        for name, suite in verify.SUITES.items():
            for checker, instance in suite(0, 1):
                payload = json.loads(json.dumps({"checker": checker, "instance": instance}))
                assert replay(payload) == {"suite": checker, "passed": True}, (name, instance)

    @pytest.mark.parametrize("flag", [False, True], ids=["text", "json"])
    def test_replay_crashing_checker_is_an_error(self, capsys, tmp_path, flag):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "delta", "instance": {"lengths": [2]}}))
        argv = (("--json",) if flag else ()) + ("verify", "delta", "--replay", str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 1
        if flag:
            assert out == '{"error":"KeyError: \'fixes\'","passed":false,"suite":"delta"}\n'
        else:
            assert out == "replay delta: FAIL\n  error: KeyError: 'fixes'\n"

    @pytest.mark.parametrize("part", [1.7, True], ids=["float", "bool"])
    def test_replay_cones_rejects_non_integer_part(self, capsys, tmp_path, part):
        # [1.7, 1] and [true, 1] used to be truncated to (1, 1) and pass
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "cones", "instance": {
            "kind": "zero", "p": [part, 1], "H": ["0", "0"]}}))
        code, out, _ = run(capsys, "verify", "cones", "--replay", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "replay cones: FAIL"
        assert lines[1].startswith("  error: ValueError: composition parts must be "
                                   "positive integers")
        assert len(lines) == 2

    @pytest.mark.parametrize("instance", [
        {"g": 2.9, "blocks": [{"d": 2, "nu": 1, "fix": 2.5, "m": 2, "orbits": [1, 1]}]},
        {"g": 2, "blocks": [{"d": 2, "nu": 1, "fix": True, "m": 2, "orbits": [1, 1]}]},
        {"g": 2, "blocks": [{"d": 2, "nu": 1, "fix": 2, "m": 2, "orbits": ["1", 1]}]},
    ], ids=["float", "bool", "string"])
    def test_replay_matr_rejects_non_integer_field(self, capsys, tmp_path, instance):
        # "g": 2.9, "fix": 2.5 used to be truncated to (2, 2) and pass
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "matr", "instance": instance}))
        code, out, _ = run(capsys, "verify", "matr", "--replay", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "replay matr: FAIL"
        assert lines[1].startswith("  error: ValueError: discrete pair fields must be "
                                   "JSON integers")
        assert len(lines) == 2

    @pytest.mark.parametrize("chi", [2.9, "4", True], ids=["float", "string", "bool"])
    def test_replay_integrality_rejects_non_integer_chi(self, capsys, tmp_path, chi):
        # "chi": 2.9 and "chi": "4" used to be read as 2 and 4 and pass
        instance = {**verify.random_instance(random.Random(0)).to_obj(), "chi": chi}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "integrality", "instance": instance}))
        code, out, _ = run(capsys, "verify", "integrality", "--replay", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "replay integrality: FAIL"
        assert lines[1].startswith("  error: ValueError: divisibility fields must be "
                                   "JSON integers")
        assert len(lines) == 2

    @pytest.mark.parametrize("checker,instance,bad", [
        ("kappa", {"matrix": [[True, -1], [-1, 1]], "u": [1.5, "1"], "v": ["1", "1"]}, "True"),
        ("kappa", {"matrix": [["1", -1], [-1, 1]], "u": [1.5, "1"], "v": ["1", "1"]}, "1.5"),
        ("gm-family", {"kind": "circle", "c12": {"num": [True, -2], "den": [1]},
                       "c21": {"num": [1], "den": [1]}}, "True"),
        ("gm-family", {"kind": "circle", "c12": {"num": [1, -2], "den": [1]},
                       "c21": {"num": [1], "den": [1.0]}}, "1.0"),
        ("matrix-tree", {"r": 2, "weights": {"0,1": 0.5}}, "0.5"),
        ("aggregation", {"a": 1, "l": 1, "g": 2, "S": False, "dtable": {"1,1": "1"}}, "False"),
    ], ids=["kappa-bool", "kappa-float", "circle-bool", "circle-float", "tree-float",
            "aggregation-bool"])
    def test_replay_rejects_bool_and_float_rationals(self, capsys, tmp_path, checker,
                                                     instance, bad):
        # these replays used to read true as 1 and 1.5 as 3/2 and pass
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": checker, "instance": instance}))
        code, out, _ = run(capsys, "verify", checker, "--replay", str(path))
        assert code == 1
        assert out.splitlines() == [
            f"replay {checker}: FAIL",
            f"  error: ValueError: rational fields must be strings or JSON integers, not {bad}"]

    @pytest.mark.parametrize("r,keys,message", [
        (2, ["0,1", "1,0", "01,0"], "chamber coeffs must have exactly the keys"),
        (2, ["0,1", " 1,0"], "chamber coeffs must have exactly the keys"),
        (2, ["0,1", "1,0", "0,5"], "chamber coeffs must have exactly the keys"),
        (2, ["0,1"], "chamber coeffs must have exactly the keys"),
        (3, ["0,1", "1,0", "0,2", "2,0", "1,2", "2,1", "1,1"],
         "chamber coeffs must have exactly the keys"),
        (True, [], "chamber r must be a JSON integer in 2..5, not True"),
        (2.0, ["0,1", "1,0"], "chamber r must be a JSON integer in 2..5, not 2.0"),
        (6, [], "chamber r must be a JSON integer in 2..5, not 6"),
        (1, [], "chamber r must be a JSON integer in 2..5, not 1"),
    ], ids=["leading-zero", "space", "out-of-range", "missing", "diagonal", "bool-r",
            "float-r", "large-r", "small-r"])
    def test_replay_chamber_rejects_malformed_family(self, capsys, tmp_path, r, keys, message):
        # "01,0" and " 1,0" used to overwrite the pair (1, 0), "0,5" was
        # ignored and "r": true passed with no chamber at all
        instance = {"r": r, "coeffs": {key: ["1"] for key in keys}}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "gm-family", "instance": instance}))
        code, out, _ = run(capsys, "verify", "gm-family", "--replay", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "replay gm-family: FAIL"
        assert lines[1].startswith(f"  error: ValueError: {message}")
        assert len(lines) == 2

    def test_replay_chamber_exact_limit(self, capsys, tmp_path):
        instance = {"r": 2, "coeffs": {"0,1": ["1", "1/2"], "1,0": ["-2"]}}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "gm-family", "instance": instance}))
        code, out, _ = run(capsys, "verify", "gm-family", "--replay", str(path))
        assert code == 0 and out == "replay gm-family: PASS\n"

    @pytest.mark.parametrize("instance,message", [
        ({"kind": "fourier", "sizes": [1, 1], "e": 0.5, "lam": [["1/2", "0"], ["2", "0"]]},
         "lattice e must be JSON integers, not 0.5"),
        ({"kind": "periodicity", "sizes": [1, 1], "order": [0, 1], "e": 0.5},
         "lattice e must be JSON integers, not 0.5"),
        ({"kind": "periodicity", "sizes": [1, 1], "order": [0.0, 1], "e": 1},
         "lattice order must be JSON integers, not 0.0"),
        ({"kind": "growth", "sizes": [1, 1], "tmax": -1},
         "lattice tmax must be JSON integers >= 1, not -1"),
        ({"kind": "growth", "sizes": [1, 1], "tmax": 0},
         "lattice tmax must be JSON integers >= 1, not 0"),
        ({"kind": "growth", "sizes": [1, 1], "tmax": "20"},
         "lattice tmax must be JSON integers >= 1, not '20'"),
        ({"kind": "periodicity", "sizes": [1.0, 1], "order": [0, 1], "e": 1},
         "lattice sizes must be JSON integers >= 1, not 1.0"),
        ({"kind": "degree-one", "sizes": [1, 1], "order": [0, 1], "lam": [["1/2", "0"]]},
         "lam must be a list of 2 [re, im] pairs"),
        ({"kind": "degree-one", "sizes": [1, 1], "order": [0, 1],
          "lam": [["1/2", "0", "1"], ["2", "0"]]}, "lam entries must be [re, im] pairs"),
        # a counterexample file from before lambda was drawn as rationals
        ({"kind": "series", "sizes": [1, 1], "order": [0, 1], "e": 1,
          "lam": [[0.3821, 0.1182], [0.3241, 0.5047]]},
         "rational fields must be strings or JSON integers, not 0.3821"),
    ], ids=["fourier-e", "periodicity-e", "order", "tmax-negative", "tmax-zero",
            "tmax-string", "sizes", "lam-length", "lam-pair", "float-lam"])
    def test_replay_lattice_rejects_malformed_fields(self, capsys, tmp_path, instance,
                                                     message):
        # "e": 0.5 used to report a theorem failure (fourier) or pass
        # (periodicity), and "tmax": -1 passed with no comparison at all
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": "lattice", "instance": instance}))
        code, out, _ = run(capsys, "verify", "lattice", "--replay", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "replay lattice: FAIL"
        assert lines[1].startswith(f"  error: ValueError: {message}")
        assert len(lines) == 2

    def test_verify_runs_without_mpmath(self):
        # mpmath is a test dependency only: the CLI imports and `verify all`
        # reports the pinned bytes with the module blocked
        code = ("import hashlib, io, sys, contextlib\n"
                "sys.modules['mpmath'] = None\n"
                "import locsys.cli\n"
                "out = io.StringIO()\n"
                "with contextlib.redirect_stdout(out):\n"
                "    rc = locsys.cli.main(['--json', 'verify', 'all', '--seed', '0'])\n"
                "print(rc, hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [
            "0", "1c956a789b6e9839a0b143edb3c586f7093449f8170cf313484c2d34de7b92ed"]

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


def _suite_instances(seeds):
    """(checker, instance) items of every suite at --iterations 1."""
    return [item for seed in seeds for suite in verify.SUITES.values()
            for item in suite(seed, 1)]


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _with(obj, path, value):
    obj = json.loads(json.dumps(obj))
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def _mutants(instance):
    """Malformed copies of one suite instance: every single-leaf type
    mutation, an unknown field, each field missing, each field replaced whole
    by a value of another shape, and pair or rank keys that respell an
    entry."""
    planted = instance.get("planted", {})
    for path, value in _leaves(instance):
        if path == ("kind",) or (path[0] == "planted" and path[1:4] != ("1", "terms", 0)):
            continue  # one term of a polynomial; TestMalformedInput covers the rest
        if type(value) is int:
            yield _with(instance, path, float(value))
            yield _with(instance, path, bool(value))
            if path[0] not in ("c12", "c21"):
                # the circle polynomials are rational fields drawn as JSON
                # integers, so "1" is another spelling there, not a mutation
                yield _with(instance, path, str(value))
        else:
            yield _with(instance, path, float(Fraction(value)))
    yield {**instance, "extra": 0}
    for name in instance:
        yield {key: value for key, value in instance.items() if key != name}
    for name, old in instance.items():
        if name == "kind":
            continue
        for value in (5, "x", {}, None, [], [[]]):
            # a JSON integer is a valid value of an integer or rational field
            if not (value == 5 and type(old) in (int, str)):
                yield {**instance, name: value}
    for name in ("weights", "dtable"):
        if name in instance:
            for key in ("00,1", "1,01", " 1,0"):
                yield {**instance, name: {**instance[name], key: "1"}}
    if "2" in planted:
        yield {**instance, "planted": {**planted, "02": planted["2"]}}


def _staged(stages=1, per=1, s=1, k=1, nu=1, chi=2):
    """A divisibility instance with `per` entries of part s and exponent k
    in each stage; it holds (and replays as PASS) within the caps."""
    keys = [[i, j, s] for i in range(stages) for j in range(per)]
    return {"a": [per * s * k] * stages, "nu": [nu] * stages, "chi": chi,
            "k": [[key, k] for key in keys], "eps": [[key, 1] for key in keys]}


class TestReplayFuzz:
    # replays that printed PASS or never ended before every instance went
    # through one field table, or before size fields had caps (n = 200 is
    # about 4e12 partitions; the integrality instance took 11.5 s to PASS)
    FOUND = [
        ("combinat", {"kind": "partition-count", "n": 2.5}),
        ("combinat", {"kind": "partition-count", "n": 200}),
        ("integrality", {"a": [100000], "nu": [-3], "chi": 2,
                         "k": [[[0, 1, 1], 100000]], "eps": [[[0, 1, 1], -1]]}),
        ("combinat", {"kind": "mobius-divisor", "t": True, "l": 1, "L": 1}),
        ("matrix-tree", {"r": 2, "weights": {"0,1": "1", "00,1": "2"}}),
        ("aggregation", {"a": 1, "l": 1, "g": 2, "S": "1",
                         "dtable": {"1,1": "1", "01,1": "1/2", "1,01": "3"}}),
    ]

    def test_every_mutant_is_one_error_line(self):
        samples = {}
        for checker, instance in _suite_instances([0]):
            samples.setdefault((checker, instance.get("kind")), instance)
        mutants = [(checker, mutant) for (checker, _), instance in samples.items()
                   for mutant in _mutants(instance)] + self.FOUND
        assert len(mutants) > 500
        for checker, mutant in mutants:
            result = replay(json.loads(json.dumps({"checker": checker, "instance": mutant})))
            assert result["passed"] is False, (checker, mutant)
            assert result["error"].startswith(("ValueError: ", "KeyError: ")), (
                checker, mutant, result["error"])

    @pytest.mark.parametrize("checker,instance", FOUND,
                             ids=["partition-count", "partition-count-200",
                                  "integrality-a-100000", "mobius-divisor",
                                  "tree-keys", "aggregation-keys"])
    def test_found_replays_end_in_an_error_line(self, capsys, tmp_path, checker, instance):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"checker": checker, "instance": instance}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", checker, "--replay", str(path))
        assert time.perf_counter() - start < 1.0
        lines = out.splitlines()
        assert code == 1 and len(lines) == 2
        assert lines[0] == f"replay {checker}: FAIL"
        assert lines[1].startswith("  error: ValueError: ")

    @pytest.mark.parametrize("checker,instance,label", [
        ("matrix-tree", {"r": 2, "weights": {"0,1": "1", "1,0": "2"}}, "matrix-tree weights"),
        ("aggregation", {"a": 1, "l": 1, "g": 2, "S": "1", "dtable": {"1,1": "1", "2,1": "1"}},
         "aggregation dtable"),
        ("roundtrip", {"g": 2, "n": 2, "planted": {"1": pic_polynomial(2).to_obj()}},
         "roundtrip planted"),
    ], ids=["tree-reversed-pair", "aggregation-extra-rank", "roundtrip-missing-rank"])
    def test_keys_fixed_by_another_field(self, checker, instance, label):
        # a reversed tree edge used to count in the matrix but not in the
        # tree sum, and an extra dtable entry was ignored
        result = replay({"checker": checker, "instance": instance})
        assert result["passed"] is False
        assert result["error"].startswith(f"ValueError: {label} must have exactly the keys ")

    @pytest.mark.parametrize("checker,instance,message", [
        ("kappa", {"matrix": [["1", "-1"], ["-1", "1"]], "u": ["1"], "v": ["1", "2"]},
         "kappa u and v must have 2 entries each"),
        ("kappa", {"matrix": [["1", "-1"]], "u": ["1"], "v": ["1"]},
         "kappa matrix must be a non-empty square matrix"),
        ("block-det", {"a": [["1", "0"], ["0", "1"]], "us": [["1"]]},
         "block-det us must be 2 lists"),
        ("block-det", {"a": [["1"]], "us": [[]]}, "expected a non-empty list"),
        ("cones", {"kind": "support", "p": [2, 1], "T": [[3, 1]], "e": 0},
         "cones support T must be a non-empty list of points with 3 coordinates"),
        ("cones", {"kind": "support", "p": [1], "T": [], "e": 0},
         "cones support T must be a non-empty list"),
        ("cones", {"kind": "zero", "p": 5, "H": ["1"]}, "a composition must be a list"),
        ("lattice", {"kind": "growth", "sizes": [2, 1], "tmax": 3},
         "lattice growth counts the sizes [1, 1]"),
    ], ids=["kappa-vector-length", "kappa-not-square", "block-det-us-count",
            "block-det-empty-block", "support-sample-length", "support-no-sample",
            "composition-not-a-list", "growth-sizes"])
    def test_shapes_are_checked(self, checker, instance, message):
        result = replay({"checker": checker, "instance": instance})
        assert result["passed"] is False
        assert result["error"].startswith(f"ValueError: {message}")

    # (checker, instance at the cap, field, cap): one above the cap is an
    # error line before any work is done
    CAPPED = [
        ("combinat", {"kind": "partition-count", "n": 50}, "n", 50),
        ("combinat", {"kind": "mobius-sum", "n": 10 ** 6}, "n", 10 ** 6),
        ("combinat", {"kind": "cycle", "m": 30, "xi": 5, "S": "1/2"}, "m", 30),
        ("combinat", {"kind": "convolution", "k": 30, "xi": 5, "S": "1/2", "D": "2"}, "k", 30),
        ("combinat", {"kind": "mobius-divisor", "t": 10 ** 6, "l": 3, "L": 1}, "t", 10 ** 6),
        ("aggregation", {"a": 12, "l": 1, "g": 2, "S": "1", "dtable": {}}, "a", 12),
        ("lattice", {"kind": "growth", "sizes": [1, 1], "tmax": 100}, "tmax", 100),
        ("integrality", {"kind": "binom", "n": 10 ** 6, "m": 7}, "n", 10 ** 6),
        ("integrality", {"kind": "binom", "n": 5, "m": 10 ** 4}, "m", 10 ** 4),
        ("integrality", {"kind": "congruence", "p": 13, "alpha": 1, "n": 2}, "p", 13),
        ("integrality", {"kind": "congruence", "p": 3, "alpha": 3, "n": 2}, "alpha", 3),
        ("integrality", {"kind": "congruence", "p": 3, "alpha": 1, "n": 1000}, "n", 1000),
        ("roundtrip", {"g": 2, "n": 5, "planted": {}}, "n", 5),
        ("roundtrip", {"g": 3, "n": 2, "planted": {}}, "g", 3),
        ("integrality", _staged(chi=100), "chi", 100),
    ]

    @pytest.mark.parametrize("checker,instance,field,cap", CAPPED,
                             ids=[f"{c}-{i.get('kind', c)}-{f}" for c, i, f, _ in CAPPED])
    def test_size_fields_are_capped(self, checker, instance, field, cap):
        result = replay({"checker": checker, "instance": instance})
        assert "must be at most" not in result.get("error", "")
        start = time.perf_counter()
        result = replay({"checker": checker, "instance": {**instance, field: cap + 1}})
        assert time.perf_counter() - start < 1.0
        assert result["passed"] is False
        assert result["error"].endswith(f" must be at most {cap}, not {cap + 1}")

    # (label, cap, instance at the cap, instance one above it) for the
    # fields inside a divisibility instance's lists
    DIVISIBILITY_CAPS = [
        ("divisibility a", 100, _staged(k=100), {**_staged(k=100), "a": [101]}),
        ("divisibility nu", 100, _staged(nu=100), {**_staged(), "nu": [101]}),
        ("divisibility k exponent", 100, _staged(k=100), {**_staged(k=101), "a": [1]}),
        ("divisibility part s", 100, _staged(s=100), {**_staged(s=101), "a": [1]}),
        ("divisibility stage i", 9, _staged(stages=10),
         {**_staged(stages=11), "a": [1] * 10, "nu": [1] * 10}),
        ("divisibility a length", 10, _staged(stages=10), _staged(stages=11)),
        ("divisibility nu length", 10, _staged(stages=10),
         {**_staged(stages=10), "nu": [1] * 11}),
        ("divisibility k length", 30, _staged(stages=10, per=3),
         {**_staged(stages=10, per=3), "k": _staged(stages=10, per=3)["k"] + [[[0, 3, 1], 1]]}),
        ("divisibility eps length", 30, _staged(stages=10, per=3),
         {**_staged(stages=10, per=3),
          "eps": _staged(stages=10, per=3)["eps"] + [[[0, 3, 1], 1]]}),
    ]

    @pytest.mark.parametrize("label,cap,at_cap,above", DIVISIBILITY_CAPS,
                             ids=[label.split(" ", 1)[1].replace(" ", "-")
                                  for label, *_ in DIVISIBILITY_CAPS])
    def test_divisibility_fields_are_capped(self, label, cap, at_cap, above):
        start = time.perf_counter()
        assert replay({"checker": "integrality", "instance": at_cap}) == {
            "suite": "integrality", "passed": True}
        result = replay({"checker": "integrality", "instance": above})
        assert time.perf_counter() - start < 1.0
        assert result["passed"] is False
        assert result["error"] == f"ValueError: {label} must be at most {cap}, not {cap + 1}"

    def test_table_matches_suites_and_moves(self):
        """The (checker, kind) pairs the suites draw are the table's keys,
        and every shrinking move yields an instance the table reads."""
        items = _suite_instances(range(4))
        assert {(checker, inst.get("kind")) for checker, inst in items} == set(verify.KINDS)
        moved = 0
        for checker, instance in items:
            for move in verify._MOVES.get(checker, lambda obj: ())(instance):
                spec, _ = verify.KINDS[checker, move.get("kind")]
                spec(move)
                moved += 1
        assert moved > 0


class TestIterationsCap:
    """--iterations is capped at verify.MAX_ITERATIONS, checked before any
    suite builds an item."""

    @pytest.fixture()
    def no_items(self, monkeypatch):
        def refuse(seed, iterations):
            raise AssertionError("a suite built its items")

        monkeypatch.setattr(verify, "SUITES", {name: refuse for name in verify.SUITES})

    @pytest.mark.parametrize("suite", ["roundtrip", "all"])
    def test_above_the_cap_rejected(self, capsys, no_items, suite):
        above = str(verify.MAX_ITERATIONS + 1)
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *flags, "verify", suite, "--iterations", above)
            assert (code, out) == (2, "")
            assert err == (f"usage error: need iterations <= {verify.MAX_ITERATIONS}, "
                           f"got {above}\n")

    def test_cap_in_run_suite(self, no_items):
        with pytest.raises(ValueError, match=f"<= {verify.MAX_ITERATIONS},"):
            verify.run_suite("matr", iterations=verify.MAX_ITERATIONS + 1)

    def test_delta_reads_iterations_as_an_entry_bound(self):
        """delta's --iterations bounds each orbit length and fix, capped at
        8: 8 and 9 build the same items (the lists only, no check runs)."""
        at_cap = list(verify.suite_delta(0, 8))
        assert list(verify.suite_delta(0, 9)) == at_cap and len(at_cap) == 47904
        assert max(max(f["lengths"] + f["fixes"]) for _, f in at_cap) == 8
        assert list(verify.suite_delta(0, 1)) == list(verify.suite_delta(0, 2))
        assert len(list(verify.suite_delta(0, None))) == 9138

    def test_combinat_repeats_random_items_per_ten_iterations(self):
        """combinat draws its random cycle/convolution items N // 10 times
        (at least once) beside its fixed items: 1 and 19 build the same
        items, and 20 draws a second round (the lists only, no check runs)."""
        low = list(verify.suite_combinat(0, 1))
        assert list(verify.suite_combinat(0, 19)) == low and len(low) == 2622
        assert list(verify.suite_combinat(0, 20)) != low
        assert len(list(verify.suite_combinat(0, 20))) == 2692


class TestStreaming:
    """Each suite is a generator that run_suite consumes as it checks."""

    # sha256 of json.dumps(list(suite(0, None)), sort_keys=True), recorded
    # when every suite still built its items as a list
    ITEMS_SEED_0 = {
        "kappa": (400, "999034f646f5a4b53a327263e1273f8602cc825fbe5c461cc7a367f71547a418"),
        "matrix-tree": (100, "cc723dac96528ada7c18c02872c6b4782636d183ac72850a72dae02c76675f14"),
        "matr": (100, "38e1c66e39dadb8f45a47f448426882ed406b3ea2acdd7f5e5c1ab7051410ad7"),
        "delta": (9138, "fb3d827fbd188e2b2a0d440d2c9d75009f9ffa2204995a94d34b2a44bd366feb"),
        "gm-family": (16, "ebd91089e4584ba0334d689095c21068d966039dac37902b00b68b28f7e27c22"),
        "cones": (833, "00dc7e49b9e56ded2704eb3ad90483964401e2032c909a66465a3815247bfebb"),
        "lattice": (65, "4fa35e422d2a80aba9f83ee88fac0ed2dcd57b3e8849919b052d184cb09a3359"),
        "integrality": (1300,
                        "568556302678e614be5dc14588d201c6a14f7ed21faabeba84bd831a3a0b7b08"),
        "combinat": (2902, "7593b7c53547150d6598788e9f6a4ebaef61375bb5afa29123e57e7f81545202"),
        "aggregation": (50, "f724551d0bd30af3931bd90aad75618be6153e5fc02121ded15c3852091e9fdd"),
        "roundtrip": (6, "4f2c0fe9889c2b67fbc572c3dcad1a8800b6fc438e8bdaa0757e9ef3a60b9ba1"),
    }

    def test_every_suite_is_an_iterator_of_the_pinned_items(self):
        assert sorted(self.ITEMS_SEED_0) == sorted(verify.SUITES)
        for name, suite in verify.SUITES.items():
            items = suite(0, None)
            assert iter(items) is items, name
            items = list(items)
            digest = hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
            assert (len(items), digest) == self.ITEMS_SEED_0[name], name

    def test_serial_run_pulls_no_item_past_the_first_failure(self, monkeypatch):
        def suite(seed, iterations):
            yield "delta", {"lengths": [1], "fixes": [1]}
            yield "delta", {"lengths": [2], "fixes": [1]}
            raise AssertionError("an item past the first failure was pulled")

        monkeypatch.setitem(verify.SUITES, "delta", suite)
        monkeypatch.setitem(verify.CHECKERS, "delta", lambda obj: obj["lengths"] == [1])
        report = verify.run_suite("delta", jobs=1)
        assert (report["passed"], report["checks"]) == (False, 2)
        assert report["counterexample"]["instance"] == {"lengths": [2], "fixes": [1]}

    def test_delta_at_the_cap_holds_no_item_list(self, monkeypatch):
        """The 47,904 items of `delta --iterations 8` took 20.3 MB as a list;
        streamed, the peak is one item and the suite's own state."""
        import tracemalloc

        monkeypatch.setitem(verify.CHECKERS, "delta", lambda obj: True)
        tracemalloc.start()
        try:
            report = verify.run_suite("delta", 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == {"suite": "delta", "passed": True, "checks": 47904,
                          "counterexample": None}
        assert peak < 100_000


class TestPipelineInversion:
    def test_every_rank_runs_c_from_a(self, capsys, monkeypatch, tmp_path):
        """`pgn`/`qgn` run the one inversion, c_from_a, at rank 1 too."""
        from locsys import counting

        calls = []
        inverse = counting.c_from_a

        def recorded(n, g, atable):
            calls.append((n, g, sorted(atable.weil)))
            return inverse(n, g, atable)

        monkeypatch.setattr(counting, "c_from_a", recorded)
        for g in ("1", "2"):
            code, _, _ = run(capsys, "pgn", "--n", "1", "--g", g)
            assert code == 0
        path, _ = consistent_fixture(tmp_path)
        code, _, _ = run(capsys, "qgn", "--n", "2", "--g", "2", "--a-table", path)
        assert code == 0
        assert calls == [(1, 1, []), (1, 2, []), (2, 2, [2])]
