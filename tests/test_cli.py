import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcube.base
import qcube.cli
import qcube.closed
import qcube.core
import qcube.faces
import qcube.families
import qcube.identities
import qcube.sweep
import qcube.writer
from qcube.cli import main
from qcube.core import CubeError, CubeParams, SizeGuardError, decimal, parse_pointset
from qcube.faces import faces_containing_bruteforce, total_faces
from qcube.families import (
    check_chu_vandermonde_generalized,
    check_vandermonde,
    face_spec,
    gen_even_weight,
    gen_face_subset,
    gen_random_subset,
)
from qcube.identities import IdentityReport, _subset_rank_histogram
from qcube.writer import serialize_pointset

EW3 = "000\n011\n101\n110\n"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **options):
    """Run `python -m qcube` in a child that imports this same qcube,
    whether or not PYTHONPATH is set; options go to subprocess.run."""
    src = str(Path(qcube.cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "qcube", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        **options,
    )


# sha256 of `qcube [SUBCOMMAND] --help` at 80 columns, as Python 3.11's
# argparse lays it out.
HELP_SHA256 = {
    "": "47c0114a8cea5ce395809cbba2a0c3ab16227958ad547a61ab4d109f876362c5",
    "rank": "206ef4e8e7ad8ec4d2ebc9d0bb7019bce7617337e495190afaef12997723925c",
    "bounds": "8289a6085f797371684fea4f2084c1a478b3b95dbb3e6fe7813881f732d633ad",
    "distribution": "374766a8a63b1d695222c02463dd6907dad1157eabf82f12113d8b7b459902ea",
    "verify": "53d4a8278ad10e068f037794ecf8bba9ed394451e2ef93ac678962a5c5ad19ad",
    "gen": "184a4ffd36db61b9863a73aa75d47caff0dde4473c346e5af43066fc538f1231",
    "sweep": "067c5f5af25e19a55e9f826f61cb1a65319662e580e88d240c59f2cc491a779a",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout varies by version")
@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "qcube")
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_SHA256[command]


class TestRank:
    def test_human_output(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "000\n011\n101\n")
        code, out, err = run(capsys, "rank", path)
        assert code == 0
        assert "m: 3" in out
        assert "rank: 3" in out
        assert "distance_sum: 6" in out
        assert "bounds: [3, 3]" in out
        assert "closed_form_rank: 3" in out

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "000\n011\n101\n")
        code, out, err = run(capsys, "rank", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 3 and payload["rank"] == 3
        assert payload["distance_sum"] == "6"
        assert payload["bounds"] == {"lower": "3", "upper": "3"}
        assert payload["closed_form_rank"] == 3

    def test_duplicates_noted_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "01\n01\n10\n")
        code, out, err = run(capsys, "rank", path)
        assert code == 0
        assert "dropped 1 duplicate" in err
        assert "m: 2" in out

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "00\n02\n")
        code, out, err = run(capsys, "rank", path)
        assert code == 2
        assert "line 2" in err

    def test_comma_fields_are_ascii_digits(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "0,\u0663\n1_0,0\n")
        code, out, err = run(capsys, "rank", path, "--q", "12")
        assert code == 2
        assert out == ""
        assert "line 1: not an integer: '\u0663'" in err

    def test_long_comma_field_is_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "0,0\n0," + "1" * 5000 + "\n")
        code, out, err = run(capsys, "rank", path, "--q", "12")
        assert code == 2
        assert out == ""
        assert err == "error: line 2: coordinate 11111111… (5000 digits) out of range for q=12\n"

    def test_q3_omits_binary_extras(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "012\n120\n")
        code, out, err = run(capsys, "rank", path, "--q", "3")
        assert code == 0
        assert "rank: 3" in out
        assert "bounds" not in out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "rank", "/nonexistent/pts.txt")
        assert code == 2
        assert err.startswith("error:")

    def test_each_quantity_computed_once(self, tmp_path, capsys, monkeypatch):
        totals = count_calls(monkeypatch, "qcube.rank", "distance_total")
        ranks = count_calls(monkeypatch, "qcube.rank", "rank")
        row_ranks = count_calls(monkeypatch, "qcube.rank", "rank_rows")
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "rank", path)
        assert code == 0
        assert "rank: 3" in out and "distance_sum: 12" in out and "bounds: [3, 4]" in out
        assert len(totals) == 1
        assert len(ranks) + len(row_ranks) == 1


def count_calls(monkeypatch, module, name):
    """Wrap the function `name` of the named module under every qcube module
    attribute bound to it; return the positional arguments of each call."""
    original = getattr(sys.modules[module], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.startswith("qcube")]:
        for alias, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, alias, counting)
    return calls


class TestBounds:
    def test_pair(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "0000\n0111\n")
        code, out, err = run(capsys, "bounds", path)
        assert code == 0
        assert "lower: 3" in out and "upper: 3" in out and "rank: 3" in out

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "000\n011\n101\n110\n")
        code, out, err = run(capsys, "bounds", path, "--json")
        payload = json.loads(out)
        assert payload["lower"] == "3" and payload["upper"] == "4"
        assert payload["rank"] == 3

    def test_rejects_nonbinary(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "01\n12\n")
        code, out, err = run(capsys, "bounds", path, "--q", "3")
        assert code == 2

    @pytest.mark.parametrize("guard, code", [(8, 0), (7, 3)], ids=["exact", "one-under"])
    def test_sweep_row_guarded_by_n_times_m(self, tmp_path, capsys, guard, code):
        write(tmp_path, "pair.txt", "0000\n0111\n")  # n * m = 8
        config = {"identities": ["bounds"], "q": [2], "n": [4, 4], "guard": guard,
                  "family": {"kind": "file", "path": str(tmp_path / "pair.txt")}}
        got, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        row, summary = map(json.loads, out.splitlines())
        assert got == code
        assert row["params"] == {"q": 2, "n": 4, "m": 2}
        if code:
            assert row == {"identity": "bounds", "params": row["params"], "passed": False,
                           "status": "error", "error": "instance too large: about 8 elementary "
                           "operations, guard is 7"}
        else:
            assert (row["status"], row["rank"]) == ("pass", "3")
        assert summary["summary"]["total"] == 1


@pytest.mark.parametrize("command", ["rank", "bounds"])
class TestColumnScanGuard:
    """rank and bounds scan n columns of m rows; n * m is checked first."""

    def test_refuses_over_budget(self, tmp_path, capsys, command):
        path = write(tmp_path, "a.txt", "00\n01\n10\n11\n")
        code, out, err = run(capsys, command, path, "--guard", "1")
        assert code == 3
        assert out == ""
        assert "about 8 elementary operations, guard is 1" in err

    def test_admits_exact_budget(self, tmp_path, capsys, command):
        path = write(tmp_path, "a.txt", "00\n01\n10\n11\n")
        code, out, err = run(capsys, command, path, "--guard", "8")
        assert code == 0
        assert "rank: 2" in out


class TestGuardOption:
    """--guard below 1 is a usage error, refused before any input is read, as
    `"guard": 0` in a sweep config is refused."""

    @pytest.mark.parametrize("guard", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("rank", "a.txt"),
            ("rank", "missing.txt"),
            ("rank", "-"),
            ("gen", "--family", "face", "--n", "3", "--nu", "1"),
            ("gen", "--family", "random", "--n", "3", "--m", "2", "-o", "out.txt"),
            ("sweep", "closed.json"),
            ("sweep", "missing.json"),
            ("sweep", "-"),
        ],
        ids=["rank", "rank-missing", "rank-stdin", "gen", "gen-output", "sweep", "sweep-missing", "sweep-stdin"],
    )
    def test_below_one_is_refused_first(self, tmp_path, capsys, monkeypatch, argv, guard):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "a.txt", EW3)
        write(tmp_path, "closed.json", json.dumps({"identities": ["vandermonde"], "n": [0, 3]}))
        stdin = io.StringIO(EW3)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, *argv, "--guard", guard)
        assert (code, out, err) == (2, "", f"error: --guard must be a positive integer, got {guard}\n")
        assert stdin.tell() == 0
        assert not (tmp_path / "out.txt").exists()

    def test_one_is_a_guard(self, tmp_path, capsys):
        # The smallest guard it takes refuses every cell but n = 0's.
        cfg = write(tmp_path, "closed.json", json.dumps({"identities": ["vandermonde"], "n": [0, 1]}))
        code, out, err = run(capsys, "sweep", cfg, "--guard", "1")
        assert code == 3
        assert json.loads(out.splitlines()[-1])["summary"] == {
            "error": 4, "fail": 0, "known_erratum": 0, "pass": 1, "total": 5
        }


class TestDistribution:
    def test_human_lines(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "distribution", path, "-k", "2")
        assert code == 0
        assert "e=2: 6" in out
        assert "e=0: 0" in out
        assert "total faces: 6 ✓" in out

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "distribution", path, "-k", "2", "--json")
        payload = json.loads(out)
        assert payload["counts"] == {"0": "0", "2": "6"}
        assert payload["total_faces"] == "6"

    def test_csv_file(self, tmp_path, capsys):
        pts = write(tmp_path, "a.txt", EW3)
        out_csv = tmp_path / "dist.csv"
        code, out, err = run(capsys, "distribution", pts, "-k", "2", "--csv", str(out_csv))
        assert code == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["e", "count"], ["0", "0"], ["2", "6"]]

    def test_counts_of_any_size_print_in_full(self, tmp_path, capsys):
        # 2^15000 - 1 empty 0-faces: 4516 digits, above str()'s default limit.
        path = write(tmp_path, "a.txt", "0" * 15000 + "\n")
        out_csv = tmp_path / "dist.csv"
        code, out, err = run(capsys, "distribution", path, "-k", "0", "--json", "--csv", str(out_csv))
        assert code == 0
        payload = json.loads(out)
        empty, total = decimal(2**15000 - 1), decimal(2**15000)  # see TestDecimal
        assert payload["counts"] == {"0": empty, "1": "1"}
        assert payload["total_faces"] == total
        assert out_csv.read_bytes().decode() == f"e,count\r\n0,{empty}\r\n1,1\r\n"
        code, out, err = run(capsys, "distribution", path, "-k", "0")
        assert out == f"e=0: {empty}\ne=1: 1\ntotal faces: {total} ✓\n"

    def test_k_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "00\n11\n")
        code, out, err = run(capsys, "distribution", path, "-k", "5")
        assert code == 2

    def test_guard_refusal(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "distribution", path, "-k", "2", "--guard", "3")
        assert code == 3
        assert err.startswith("error:")

    def test_guard_refuses_an_estimate_of_any_size(self, tmp_path, capsys):
        # C(15000, 7500) projections, about 10^4513.3: more digits than str() converts.
        path = write(tmp_path, "a.txt", "0" * 15000 + "\n")
        code, out, err = run(capsys, "distribution", path, "-k", "7500")
        assert (code, out) == (3, "")
        assert err == "error: instance too large: more than 10^4513 elementary operations, guard is 10000000\n"


class TestVerify:
    def test_equal_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "2")
        assert code == 0
        assert "lhs: 6" in out and "rhs: 6" in out
        assert "equal: yes" in out

    def test_s_one_below_m(self, tmp_path, capsys):
        # The right side walks the one point left out, not 1 198 levels deep.
        path = str(tmp_path / "big.txt")
        assert run(capsys, "gen", "--family", "random", "--n", "11", "--m", "1200", "--seed", "1", "-o", path)[0] == 0
        code, out, err = run(capsys, "verify", path, "-k", "11", "-s", "1199")
        assert (code, err) == (0, "")
        assert "lhs: 1200\nrhs: 1200\nequal: yes\n" in out

    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "2", "--json")
        payload = json.loads(out)
        assert payload["identity"] == "main"
        assert payload["params"] == {"q": 2, "n": 3, "k": 2, "s": 2, "m": 4}
        assert payload["lhs"] == "6" and payload["rhs"] == "6"
        assert payload["equal"] is True
        assert "terms" not in payload

    def test_breakdown_terms(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "2", "--breakdown")
        assert code == 0
        assert "  lhs e=2: 6" in out
        assert "  rhs B=(0, 1): 1" in out
        code, out, err = run(
            capsys, "verify", path, "-k", "2", "-s", "2", "--breakdown", "--json"
        )
        payload = json.loads(out)
        lhs_total = sum(int(t["value"]) for t in payload["terms"] if t["side"] == "lhs")
        rhs_total = sum(int(t["value"]) for t in payload["terms"] if t["side"] == "rhs")
        assert lhs_total == rhs_total == 6

    def test_breakdown_guard_refuses_at_once(self, tmp_path, capsys, monkeypatch):
        # binom(200, 3)·3·20 row reads; the walk alone (binom(200, 3)) fits.
        A = gen_random_subset(CubeParams(2, 20), 200, 0)
        path = write(tmp_path, "a.txt", serialize_pointset(A))
        lhs = count_calls(monkeypatch, "qcube.faces", "distribution")
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "3", "--breakdown")
        assert code == 3
        assert out == ""
        assert err == "error: instance too large: about 78804000 elementary operations, guard is 10000000\n"
        assert lhs == []

    def test_invalid_s(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "9")
        assert code == 2

    @pytest.mark.parametrize("k", [-2, -70, 4, 9])
    @pytest.mark.parametrize("s", [1, 9])
    def test_k_out_of_range_is_named_before_s(self, tmp_path, capsys, k, s):
        # k is checked before s, whose bound min(m, q**k) is a float at a negative k.
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", str(k), "-s", str(s))
        assert (code, out, err) == (2, "", f"error: k must be in [0, 3], got {k}\n")

    def test_unequal_exits_one(self, tmp_path, capsys, monkeypatch):
        # force a mismatch to pin the exit code and the NO marker
        def fake(A, k, s, guard, include_terms=False):
            return IdentityReport.of("main", {"q": 2}, 5, 6, proven=True)

        monkeypatch.setattr(qcube.identities, "verify_main", fake)
        path = write(tmp_path, "a.txt", EW3)
        code, out, err = run(capsys, "verify", path, "-k", "2", "-s", "2")
        assert code == 1
        assert "equal: NO" in out
        assert "note: " in out and "defect" in out


class TestGen:
    def test_family_choices_follow_the_kinds(self):
        # The choices are a literal, so that the commands that do not
        # generate never execute qcube.families; every generated kind is one.
        sub = next(a for a in qcube.cli.build_parser()._actions if a.dest == "command")
        family = next(a for a in sub.choices["gen"]._actions if a.dest == "family")
        assert list(family.choices) == [k.replace("_", "-") for k in qcube.families.KINDS if k != "file"]

    def test_even_weight_bytes(self, tmp_path, capsys):
        out_path = tmp_path / "ew.txt"
        code, out, err = run(
            capsys, "gen", "--family", "even-weight", "--n", "3", "-o", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == EW3

    def test_even_weight_stdout(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "even-weight", "--n", "2")
        assert code == 0
        assert out == "00\n11\n"

    def test_face_free_positions(self, capsys):
        code, out, err = run(
            capsys, "gen", "--family", "face", "--n", "3", "--free", "2"
        )
        assert code == 0
        assert out == "000\n001\n"

    def test_face_fixed_values(self, capsys):
        code, out, err = run(
            capsys,
            "gen", "--family", "face", "--n", "3", "--nu", "1", "--fixed", "1,0",
        )
        assert code == 0
        # free position 0, positions 1 and 2 fixed to 1 and 0
        assert out == "010\n110\n"

    def test_random_deterministic(self, capsys):
        argv = ("gen", "--family", "random", "--n", "4", "--m", "5", "--seed", "9")
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 5

    def test_random_needs_m(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "random", "--n", "3")
        assert code == 2

    def test_random_cube_beyond_sys_maxsize_refused(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "random", "--n", "63", "--m", "3")
        assert (code, out) == (2, "")
        assert err == f"error: random family needs q**n <= {sys.maxsize} (sys.maxsize), got q=2, n=63\n"

    def test_random_draw_up_to_sys_maxsize_unchanged(self, capsys):
        # The parent's draw at 2**62 points, the largest binary cube under sys.maxsize.
        code, out, err = run(capsys, "gen", "--family", "random", "--n", "62", "--m", "3")
        assert code == 0
        assert out == (
            "00010100101110100101111001101001101011101010101001010001010101\n"
            "11000101001111101101111101111111011000001011000000011111001101\n"
            "11111000110010111000001111001010000010111000101110011001100010\n"
        )

    def test_random_m_out_of_range_names_a_volume_of_any_size(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "random", "--n", "20000", "--m", "0")
        assert (code, out) == (2, "")
        assert err == f"error: m must be in [1, {decimal(2**20000)}], got 0\n"

    def test_random_family_on_a_huge_cube_is_refused_without_its_volume(self, tmp_path, capsys, monkeypatch):
        # q**n >= 2**n: an m of at most n bits is in range, and n >= 63 is over sys.maxsize.
        monkeypatch.setattr(CubeParams, "volume", property(lambda self: pytest.fail("built q**n")))
        too_big = f"random family needs q**n <= {sys.maxsize} (sys.maxsize)"
        code, out, err = run(capsys, "gen", "--family", "random", "--q", "3", "--n", "1000000", "--m", "3")
        assert (code, out, err) == (2, "", f"error: {too_big}, got q=3, n=1000000\n")
        config = {"identities": ["main"], "q": [2], "n": [1000000, 1000000],
                  "family": {"kind": "random", "m": 3}}
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert (code, out) == (2, "")
        assert err == f"error: sweep config: family random at q=2, n=1000000: {too_big}, got q=2, n=1000000\n"

    def test_even_weight_needs_q2(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "even-weight", "--q", "3", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "even-weight", "--n", "3", "--guard", "3"),
            ("--family", "face", "--q", "3", "--n", "3", "--nu", "2", "--guard", "8"),
            ("--family", "face", "--n", "3", "--free", "0,2", "--guard", "3"),
            ("--family", "random", "--n", "4", "--m", "5", "--guard", "4"),
        ],
        ids=["even-weight", "face-nu", "face-free", "random"],
    )
    def test_guard_refuses_before_generating(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 3
        assert out == ""
        assert "guard" in err

    def test_guard_refuses_an_estimate_of_any_size(self, capsys):
        # q^nu = 10^40000 points: more digits than str() converts.
        code, out, err = run(capsys, "gen", "--family", "face", "--q", "100000000", "--n", "5000", "--nu", "5000")
        assert (code, out) == (3, "")
        assert err == "error: instance too large: more than 10^39999 elementary operations, guard is 10000000\n"

    def test_guard_refuses_a_face_before_its_fixed_pairs(self, capsys, monkeypatch):
        # Without --fixed, q^|free| is checked once the free positions are,
        # before the n - nu zero pairs or the Face are built.
        refuse = mock.Mock(side_effect=AssertionError)
        monkeypatch.setattr(qcube.families, "filterfalse", refuse)
        monkeypatch.setattr(qcube.families.Face, "__init__", refuse)
        code, out, err = run(capsys, "gen", "--family", "face", "--n", "400000", "--nu", "40")
        assert (code, out) == (3, "")
        assert err == "error: instance too large: about 1099511627776 elementary operations, guard is 10000000\n"
        assert not refuse.called

    def test_guard_refuses_a_power_without_building_it(self, capsys, monkeypatch):
        # q^nu = 10^800000: its bit length alone puts it over the guard and
        # over what str() converts, so it is named without being built.
        built = count_calls(monkeypatch, "qcube.core", "check_guard")
        code, out, err = run(capsys, "gen", "--family", "face", "--q", "100000000", "--n", "100000", "--nu", "100000")
        assert (code, out) == (3, "")
        assert err == "error: instance too large: more than 10^799999 elementary operations, guard is 10000000\n"
        assert built == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--family", "face", "--n", "3", "--free", ",".join(map(str, range(30)))),
                "free and fixed positions must partition the coordinate set",
            ),
            (
                ("--family", "face", "--n", "30", "--free", ",".join(map(str, range(25))), "--fixed", "7,7,7,7,7"),
                "fixed value 7 at position 25 out of range for q=2",
            ),
            (("--family", "random", "--n", "2", "--m", "100000000"), "m must be in [1, 4], got 100000000"),
            (
                ("--family", "random", "--n", "70", "--m", "20000000"),
                f"random family needs q**n <= {sys.maxsize} (sys.maxsize), got q=2, n=70",
            ),
        ],
        ids=["face-free", "face-fixed", "random-m", "random-volume"],
    )
    def test_family_input_errors_come_before_the_guard(self, capsys, argv, message):
        # Each set would also be over the default guard; the input error is named first.
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_guard_admits_exact_budget(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "even-weight", "--n", "3", "--guard", "4")
        assert code == 0
        assert out == EW3

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("--free", "0,\u0663"), "\u0663"),
            (("--nu", "1", "--fixed", "+1,1,0"), "+1"),
            (("--nu", "1", "--fixed", "1,1_0,0"), "1_0"),
            (("--free", "0,,1"), ""),
        ],
        ids=["arabic-indic-digit", "plus-sign", "underscore", "empty-field"],
    )
    def test_comma_fields_are_ascii_digits(self, capsys, argv, field):
        code, out, err = run(capsys, "gen", "--family", "face", "--n", "4", *argv)
        assert code == 2
        assert out == ""
        assert f"not an integer: {field!r}" in err

    def test_negative_field_reaches_range_message(self, capsys):
        code, out, err = run(
            capsys, "gen", "--family", "face", "--n", "4", "--nu", "1", "--fixed", "1,1,-1"
        )
        assert code == 2
        assert "fixed value -1 at position 3 out of range for q=2" in err

    @pytest.mark.parametrize(
        "argv, repeated",
        [
            (("--nu", "2", "--free", "0,0"), 0),
            (("--free", "0,0,1", "--nu", "3"), 0),
            (("--free", "1,0,1"), 1),
            (("--free", "0,0", "--fixed", "1"), 0),
        ],
        ids=["nu-2", "nu-3", "no-nu", "fixed"],
    )
    def test_repeated_free_position_rejected(self, capsys, argv, repeated):
        code, out, err = run(capsys, "gen", "--family", "face", "--q", "2", "--n", "3", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: free position {repeated} is repeated\n"

    @pytest.mark.parametrize(
        "argv", [("--free", "0,{}"), ("--nu", "1", "--fixed", "{},0")], ids=["free", "fixed"]
    )
    def test_over_long_field_named_unconverted(self, capsys, argv):
        field = "1" * 5000
        *head, last = argv
        code, out, err = run(
            capsys, "gen", "--family", "face", "--q", "3", "--n", "3", *head, last.format(field)
        )
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"error: {head[-1]} field 11111111… (5000 digits) has more than {limit} digits\n"
        # Leading zeros are not digits of the value.
        argv = ("gen", "--family", "face", "--q", "3", "--n", "3", *head)
        zeros = run(capsys, *argv, last.format("0" * 5000 + "1"))
        assert zeros == run(capsys, *argv, last.format("1")) and zeros[0] == 0

    def test_empty_free_means_no_free_positions(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "face", "--n", "3", "--free", "")
        assert code == 0
        assert out == "000\n"

    def test_gen_then_rank(self, tmp_path, capsys):
        pts = tmp_path / "f.txt"
        run(capsys, "gen", "--family", "face", "--n", "4", "--nu", "2", "-o", str(pts))
        code, out, err = run(capsys, "rank", str(pts), "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_face_spec_runs_once(self, capsys, monkeypatch):
        # cmd_gen builds the spec, and the builder takes it as it is.
        specs = count_calls(monkeypatch, "qcube.families", "face_spec")
        code, out, err = run(capsys, "gen", "--family", "face", "--n", "5", "--nu", "3")
        assert (code, len(out.splitlines()), len(specs)) == (0, 8, 1)
        code, out, err = run(capsys, "gen", "--family", "face", "--n", "5", "--nu", "3", "--fixed", "1,0")
        assert (code, out.splitlines()[-1], len(specs)) == (0, "11110", 2)

    # gen argv and the set it writes, built by the library's generators.
    WRITTEN = [
        (("face", "--q", "3", "--n", "5", "--nu", "3"), lambda p: gen_face_subset(p, face_spec(p, 3))),
        (("face", "--q", "4", "--n", "3", "--nu", "2"), lambda p: gen_face_subset(p, face_spec(p, 2))),
        (("face", "--q", "12", "--n", "2", "--nu", "2"), lambda p: gen_face_subset(p, face_spec(p, 2))),
        (("face", "--q", "3", "--n", "0", "--nu", "0"), lambda p: gen_face_subset(p, face_spec(p, 0))),
        (("even-weight", "--n", "5"), lambda p: gen_even_weight(5)),
        (("random", "--q", "7", "--n", "3", "--m", "30", "--seed", "2"), lambda p: gen_random_subset(p, 30, 2)),
    ]

    @pytest.mark.parametrize("rows_per_block", [1, 4, 4096])
    def test_blocks_write_the_serialized_set(self, tmp_path, capsys, monkeypatch, rows_per_block):
        monkeypatch.setattr(qcube.writer, "_WRITE_ROWS", rows_per_block)
        for (family, *flags), build in self.WRITTEN:
            values = dict(zip(flags[::2], flags[1::2]))
            text = serialize_pointset(build(CubeParams(int(values.get("--q", 2)), int(values["--n"]))))
            want = text + "\n" if text else ""
            code, out, err = run(capsys, "gen", "--family", family, *flags)
            assert (code, out) == (0, want), family
            path = tmp_path / "out.txt"
            code, out, err = run(capsys, "gen", "--family", family, *flags, "-o", str(path))
            assert (code, out, path.read_text()) == (0, "", want), family


class TestStdin:
    def test_rank_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("00\n11\n"))
        code, out, err = run(capsys, "rank", "-")
        assert code == 0
        assert "rank: 2" in out

    def test_large_q_infers_n_from_fields(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("11\n3\n"))
        code, out, err = run(capsys, "rank", "--q", "12", "-")
        assert code == 0
        assert "rank: 1" in out

    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "a.txt", "00\n11\n")
        proc = run_module("rank", path)
        assert proc.returncode == 0
        assert "rank: 2" in proc.stdout

    @pytest.mark.parametrize(
        "argv", [("rank", "-"), ("distribution", "-", "-k", "1"), ("sweep", "-")], ids=lambda argv: argv[0]
    )
    def test_closed_stdin(self, argv):
        # The child starts with descriptor 0 closed, as `qcube rank - <&-`
        # starts, so its sys.stdin is None.
        proc = run_module(*argv, preexec_fn=lambda: os.closerange(0, 1))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: stdin is closed\n")

    @pytest.mark.parametrize(
        "argv",
        [("rank", "missing.txt"), ("bounds", "missing.txt"), ("distribution", "missing.txt", "-k", "1"),
         ("verify", "missing.txt", "-k", "1", "-s", "1"), ("gen", "--family", "face", "--n", "3", "--nu", "1"),
         ("sweep", "cfg.json")],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout(self, tmp_path, argv):
        # The child starts with descriptor 1 closed, as `qcube rank FILE >&-`
        # starts, so its sys.stdout is None. A point command refuses before
        # it reads its input, here a missing file.
        write(tmp_path, "cfg.json", json.dumps({"identities": ["vandermonde"], "n": [0, 3]}))
        proc = run_module(*argv, cwd=tmp_path, preexec_fn=lambda: os.closerange(1, 2))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: stdout is closed\n")

    GEN = ("gen", "--family", "face", "--n", "3", "--nu", "1")

    @pytest.mark.parametrize(
        "argv, path, to_stdout",
        [((*GEN, "-o", "out.txt"), "out.txt", GEN),
         (("sweep", "cfg.json", "--output", "out.txt"), "out.txt", ("sweep", "cfg.json")),
         (("sweep", "cfg-output.json"), "cfg-out.txt", ("sweep", "cfg.json"))],
        ids=["gen-o", "sweep-output", "config-output"],
    )
    def test_closed_stdout_with_an_output_file(self, tmp_path, argv, path, to_stdout):
        # A command writing to a file runs with stdout closed; the file holds
        # what the command writes to stdout without one.
        config = {"identities": ["vandermonde"], "n": [0, 3]}
        write(tmp_path, "cfg.json", json.dumps(config))
        write(tmp_path, "cfg-output.json", json.dumps({**config, "output": "cfg-out.txt"}))
        want = run_module(*to_stdout, cwd=tmp_path).stdout
        proc = run_module(*argv, cwd=tmp_path, preexec_fn=lambda: os.closerange(1, 2))
        assert (proc.returncode, proc.stdout, (tmp_path / path).read_text()) == (0, "", want)


class TestPieceByPieceInput:
    """Point input is read a piece at a time (core.read_pieces), with the
    stdout, exit codes and messages of reading it whole."""

    # 100 007 bytes, more than the first read of 65 536.
    BIG = b"# rows\n" + b"0101\n1100\n" * 10_000

    @pytest.mark.parametrize(
        "argv", [("rank",), ("rank", "--q", "1"), ("distribution", "-k", "2", "--n", "-1")],
        ids=["rank", "bad-q", "bad-n"],
    )
    @pytest.mark.parametrize("head", [b"", b"0121\n"], ids=["good-lines", "a-bad-line"])
    def test_a_byte_refused_past_the_first_piece(self, tmp_path, capsys, monkeypatch, argv, head):
        # The decode error comes first, as when the whole input was decoded
        # before anything else was checked.
        data = head + self.BIG + b"1\xff01\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", f"error: {whole.value}\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, argv[0], "-", *argv[1:]) == (2, "", f"error: {whole.value}\n")

    def test_a_file_family_with_a_refused_byte(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(self.BIG + b"\xe2\x28\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        config = {"identities": ["bounds"], "q": [2], "n": [4, 4], "family": {"kind": "file", "path": str(path)}}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        assert run(capsys, "sweep", cfg) == (2, "", f"error: {whole.value}\n")

    @pytest.mark.parametrize("name", ["missing.txt", "."], ids=["missing", "directory"])
    def test_a_path_that_cannot_be_read(self, tmp_path, capsys, name):
        path = tmp_path / name
        with pytest.raises(OSError) as whole:
            path.read_text()
        want = (2, "", f"error: {whole.value}\n")
        assert run(capsys, "rank", str(path)) == want
        assert run(capsys, "rank", str(path), "--q", "1", "--n", "3") == want
        config = {"identities": ["bounds"], "q": [2], "n": [4, 4], "family": {"kind": "file", "path": str(path)}}
        assert run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config))) == want

    def test_an_empty_path(self, tmp_path, capsys):
        # The empty path is opened as given, not as "." (a directory).
        want = (2, "", "error: [Errno 2] No such file or directory: ''\n")
        assert run(capsys, "rank", "") == want
        assert run(capsys, "sweep", "") == want
        config = {"identities": ["bounds"], "q": [2], "n": [4, 4], "family": {"kind": "file", "path": ""}}
        assert run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config))) == want

    def test_stdin_that_cannot_be_read(self, capsys, monkeypatch):
        # Reads fail as they do from a directory's descriptor. (The
        # interpreter itself refuses to start with a directory as stdin.)
        class Directory(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise IsADirectoryError(21, "Is a directory")

        def stdin():
            return io.TextIOWrapper(io.BufferedReader(Directory()), encoding="utf-8")

        with pytest.raises(OSError) as whole:
            stdin().read()
        monkeypatch.setattr(sys, "stdin", stdin())
        assert run(capsys, "rank", "-") == (2, "", f"error: {whole.value}\n")

    @pytest.mark.parametrize("q", [2, 3, 10, 12])
    def test_stdin_and_a_file_give_the_same_stdout(self, tmp_path, capsys, monkeypatch, q):
        A = gen_random_subset(CubeParams(q, 6), 40, q)
        lines = serialize_pointset(A).splitlines()
        text = "# a set\r\n\r\n" + "\r\n".join(lines) + "\r" + "\n".join(lines[:3])
        path = tmp_path / "a.txt"
        path.write_bytes(text.encode())
        for argv in (("rank", "--json"), ("distribution", "-k", "2", "--json")):
            argv = (*argv, "--q", str(q))
            want = run(capsys, argv[0], str(path), *argv[1:])
            assert want == (0, want[1], "note: dropped 3 duplicate vector(s)\n")
            assert json.loads(want[1])["m"] == 40
            for size in range(1, 13):
                monkeypatch.setattr(qcube.base, "_PARSE_CHUNK", size)
                assert run(capsys, argv[0], str(path), *argv[1:]) == want
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"))
                assert run(capsys, argv[0], "-", *argv[1:]) == want
            monkeypatch.undo()

    def test_reading_a_file_holds_the_set_and_not_the_text(self, tmp_path):
        # At most the finished set and a fixed allowance: the list the ints
        # are sorted in and one piece of text. The text is 1.26 MB, and
        # 7.32 MB with a comment line before each row.
        rows = random.Random(20).sample(range(1 << 20), 60_000)
        for pad in ("", "# " + "x" * 98 + "\n"):
            path = tmp_path / "big.txt"
            path.write_text("# 60 000 rows\n" + "".join(f"{pad}{x:020b}\n" for x in rows))
            args = qcube.cli.build_parser().parse_args(["rank", str(path)])
            tracemalloc.start()
            try:
                A = qcube.cli._load_pointset(args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(A) == 60_000
            held = sys.getsizeof(A.packed) + sum(map(sys.getsizeof, A.packed))
            assert peak <= held + (1 << 20)


def infer_n_by_splitting_all(text, q):
    """The former _infer_n, which split the whole text: the oracle."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line or q > 10:
            return len(line.split(","))
        return len(line)
    return None


# Every separator str.splitlines knows, "\r\n" among them, and characters
# that strip() removes or that look like line breaks but are none.
LINE_PIECES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
               " ", "\t", "\x1f", "\xa0", "#", "# c", ",", "0", "01", "012", "1,2", "9" * 50, "\u0663"]


def parse_outcome(text, q, params=None):
    try:
        return parse_pointset(text, params, q=q)
    except CubeError as exc:
        return str(exc)


def assert_infers_n(text, q):
    """parse_pointset without n parses text as it does with the oracle's n.
    That compares the n it infers: under any other n the first data line
    fails its length check, which it passes under its own."""
    n = infer_n_by_splitting_all(text, q)
    want = "empty input; pass --n to fix the dimension" if n is None else parse_outcome(text, q, CubeParams(q, n))
    assert parse_outcome(text, q) == want


class TestInferN:
    """The parser infers n from the first data line, in whatever piece it
    lies; small pieces put it in a later one."""

    @given(
        head=st.lists(st.sampled_from(LINE_PIECES), max_size=40),
        filler=st.integers(0, 3),
        tail=st.lists(st.sampled_from(LINE_PIECES), max_size=40),
        q=st.sampled_from((2, 10, 11)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_splitting_the_whole_text(self, head, filler, tail, q):
        # filler pushes the first data line past 4 096 characters, and past
        # 8 192, with blank and comment lines.
        text = "".join(head) + ("\n" * 2000 + "#" * 1500 + "\r\n") * filler + "".join(tail)
        for size in (7, 4096, 1 << 16):
            with mock.patch.object(qcube.base, "_PARSE_CHUNK", size):
                assert_infers_n(text, q)

    @pytest.mark.parametrize("cut", range(4090, 4100))
    def test_a_head_cut_inside_a_line_or_a_crlf(self, cut):
        for line in ("0101", "\r\n0101", "\r\r\n1,2,3"):
            text = "\n" * (cut - 1) + "\r" + line
            for size in (1, 4096, 1 << 16):
                with mock.patch.object(qcube.base, "_PARSE_CHUNK", size):
                    assert_infers_n(text, 2)


BASE_SWEEP = {
    "identities": ["main", "corollary1"],
    "q": [2],
    "n": [1, 4],
    "s": [1, 2],
    "family": {"kind": "even_weight"},
}


class TestSweep:
    def test_two_runs_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(BASE_SWEEP))
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        code1, _, _ = run(capsys, "sweep", cfg, "--output", str(out1))
        code2, _, _ = run(capsys, "sweep", cfg, "--output", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.stat().st_size > 0

    def test_parallel_matches_serial(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(BASE_SWEEP))
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run(capsys, "sweep", cfg, "--output", str(serial))
        # --jobs is accepted and ignored: sweeps run serially.
        run(capsys, "sweep", cfg, "--output", str(parallel), "--jobs", "3")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_rows_and_summary(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(BASE_SWEEP))
        code, out, err = run(capsys, "sweep", cfg)
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        summary = rows[-1]["summary"]
        assert summary["total"] == len(rows) - 1
        assert summary["total"] == sum(
            summary[key] for key in ("pass", "fail", "known_erratum", "error")
        )
        assert summary["fail"] == 0 and summary["pass"] == summary["total"]
        for row in rows[:-1]:
            assert row["status"] == "pass"
            assert row["identity"] in ("main", "corollary1")
        assert "sweep:" in err

    def test_known_erratum_does_not_fail_run(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps({"identities": ["evenweight_printed"], "q": [2], "n": [2, 5]}),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        statuses = {row["status"] for row in rows[:-1]}
        assert statuses == {"pass", "known_erratum"}
        assert rows[-1]["summary"]["known_erratum"] > 0

    def test_unregistered_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        registry = qcube.sweep.SWEEP_IDENTITIES
        entry = registry["evenweight_printed"].replace(erratum=False)
        monkeypatch.setitem(registry, "evenweight_printed", entry)
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps({"identities": ["evenweight_printed"], "q": [2], "n": [2, 5]}),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["summary"]["fail"] > 0

    def test_unknown_identity_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps({"identities": ["fermat"], "q": [2], "n": [1, 2]}),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert "unknown identity" in err

    def test_empty_range_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps({"identities": ["vandermonde"], "q": [2], "n": [4, 1]}),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2

    def test_family_required_for_subset_identities(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps({"identities": ["main"], "q": [2], "n": [1, 3]}),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert "family" in err

    def test_guard_errors_exit_three(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "cfg.json",
            json.dumps(
                {
                    "identities": ["lemma_face_count"],
                    "q": [2],
                    "n": [6, 6],
                    "guard": 10,
                    "family": {"kind": "random", "m": 4},
                }
            ),
        )
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 3
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert any(row.get("status") == "error" for row in rows[:-1])
        assert rows[-1]["summary"]["error"] > 0

    def test_random_family_input_error_comes_before_the_guard(self, tmp_path, capsys):
        config = {"identities": ["corollary1"], "q": [2], "n": [70, 70], "family": {"kind": "random", "m": 20000000}}
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert (code, out) == (2, "")
        assert err == (
            "error: sweep config: family random at q=2, n=70: "
            f"random family needs q**n <= {sys.maxsize} (sys.maxsize), got q=2, n=70\n"
        )

    def test_guard_errors_of_any_size_are_rows(self, tmp_path, capsys):
        # The lemma rows' face-scan estimates, C(600, k) * 10^(8(600-k)), have
        # more digits than str() converts.
        config = {
            "identities": ["corollary1", "lemma_face_count"],
            "q": [100000000],
            "n": [600, 600],
            "k": [0, 1],
            "nu": [0, 0],
            "family": {"kind": "face"},
        }
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 3
        assert [row["status"] for row in rows[:-1]] == ["pass", "pass", "error", "error"]
        assert [row["error"] for row in rows[2:4]] == [
            f"instance too large: more than 10^{e} elementary operations, guard is 10000000"
            for e in (4799, 4794)
        ]
        assert rows[-1]["summary"] == {"error": 2, "fail": 0, "known_erratum": 0, "pass": 2, "total": 4}

    @pytest.mark.parametrize("slack", [0, -1], ids=["exact", "one-under"])
    def test_lemma_rows_keep_the_face_scan_estimate(self, tmp_path, capsys, slack):
        params, m, k = CubeParams(2, 3), 4, 1
        guard = total_faces(params, k) * m + slack
        config = {
            "identities": ["lemma_face_count"],
            "q": [2],
            "n": [3, 3],
            "k": [k, k],
            "family": {"kind": "random", "m": m},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg, "--guard", str(guard))
        row = json.loads(out.splitlines()[0])
        if slack == 0:
            assert code == 0 and row["status"] == "pass"
            return
        with pytest.raises(SizeGuardError) as scan:
            faces_containing_bruteforce(gen_random_subset(params, m, 0), k, guard)
        assert code == 3 and row["status"] == "error"
        assert row["error"] == str(scan.value)

    def test_rows_reuse_per_set_results(self, tmp_path, capsys, monkeypatch):
        # Criterion 8's config: no lemma row scans faces, and each right side,
        # H_s for main, the corollaries and the lemma, is computed once per
        # (set, s).
        scans = count_calls(monkeypatch, "qcube.faces", "faces_containing_bruteforce")
        families = count_calls(monkeypatch, "qcube.identities", "family_points")
        misses = _subset_rank_histogram.cache_info().misses
        config = {
            "identities": list(qcube.sweep.SWEEP_IDENTITIES),
            "q": [2, 3],
            "n": [1, 4],
            "s": [1, 3],
            "seeds": [0, 1],
            "family": {"kind": "random", "m": 4},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, _ = run(capsys, "sweep", cfg)
        assert code == 0
        assert '"identity":"lemma_face_count"' in out
        assert scans == []
        sets = {id(args[1]): args[1] for args in families}
        kept = [key for A in sets.values() for key in A.memo if key[0] is _subset_rank_histogram.__wrapped__]
        assert len(kept) == _subset_rank_histogram.cache_info().misses - misses
        # Both seeds at q = 2, n = 2 draw the full square, as two set objects
        # that each keep their own results.
        assert len(sets) == 12

    def test_right_sides_are_computed_once_per_set_and_s(self, tmp_path, capsys, monkeypatch):
        # main at s = 1..3, corollaries 1, 2 and 3 (s = 1, 2, 3; the third at
        # q = 2 only) and the lemma (s = |A|) all read H_s, so a set keeps one
        # histogram per s, each computed once, and no other.
        families = count_calls(monkeypatch, "qcube.identities", "family_points")
        misses = _subset_rank_histogram.cache_info().misses
        config = {
            "identities": ["main", "corollary1", "corollary2", "corollary3", "lemma_face_count"],
            "q": [2, 3],
            "n": [2, 4],
            "s": [1, 3],
            "seeds": [0, 1],
            "family": {"kind": "random", "m": 4},
        }
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        sets = {id(args[1]): args[1] for args in families}
        assert len(sets) == 12
        computed = 0
        for A in sets.values():
            histograms = sorted((fn.__name__, key) for fn, key in A.memo if fn.__name__.endswith("_histogram"))
            assert histograms == [("_subset_rank_histogram", (s,)) for s in (1, 2, 3, 4)]
            computed += len(histograms)
        assert _subset_rank_histogram.cache_info().misses - misses == computed

    def test_sweep_near_s_equal_m_is_not_a_crash(self, tmp_path, capsys):
        # s from 1 020 to 1 024 on a 1 024-point face: the first two are
        # refused by the binom(m, s) guard, and the walk of the kept points
        # would recurse over 1 000 deep.
        config = {"identities": ["main"], "q": [2], "n": [10, 10], "k": [10, 10], "nu": [10, 10],
                  "s": [1020, 1024], "family": {"kind": "face"}}
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 3
        assert [row["status"] for row in rows[:-1]] == ["error", "error", "pass", "pass", "pass"]
        assert [(row["lhs"], row["rhs"]) for row in rows[2:5]] == [("523776", "523776"), ("1024", "1024"), ("1", "1")]
        assert rows[-1] == {"summary": {"error": 2, "fail": 0, "known_erratum": 0, "pass": 3, "total": 5}}

    def test_lemma_rows_rank_each_set_once(self, tmp_path, capsys, monkeypatch):
        # Every k of a cell is a lemma_face_count point on each family set,
        # and its right side needs rank(A).
        ranks = count_calls(monkeypatch, "qcube.rank", "rank")
        config = {
            "identities": ["lemma_face_count"],
            "q": [2, 3],
            "n": [2, 5],
            "seeds": [0, 1, 2],
            "family": {"kind": "random", "m": 3},
        }
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        per_set = Counter(id(A) for A, in ranks)
        assert set(per_set.values()) == {1}
        assert len(per_set) == 2 * 4 * 3
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        assert len(rows) == sum(3 * (n + 1) for q in (2, 3) for n in range(2, 6))

    def test_each_family_set_is_profiled_once(self, tmp_path, capsys, monkeypatch):
        # Criterion 8's config: main, the corollaries and lemma_face_count all
        # read the face distributions of one pass over every k of the cell.
        walks = count_calls(monkeypatch, "qcube.faces", "_profile_routed")
        config = {
            "identities": list(qcube.sweep.SWEEP_IDENTITIES),
            "q": [2, 3],
            "n": [1, 4],
            "s": [1, 3],
            "seeds": [0, 1],
            "family": {"kind": "random", "m": 4},
        }
        code, _, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        assert [ks for _, ks in walks] == [range(A.params.n + 1) for A, _ in walks]
        per_set = Counter(id(A) for A, _ in walks)
        assert set(per_set.values()) == {1}
        assert len(per_set) == 12  # both seeds at q = 2, n = 2 draw the full square

    def test_a_sweep_of_many_sets_profiles_each_once(self, tmp_path, capsys, monkeypatch):
        # 300 family sets, all held for the whole sweep: corollary 1 reads
        # the distributions main's pass computed for every one of them.
        walks = count_calls(monkeypatch, "qcube.faces", "_profile_routed")
        config = {
            "identities": ["main", "corollary1"],
            "q": [2],
            "n": [5, 10],
            "seeds": list(range(50)),
            "family": {"kind": "random", "m": 4},
        }
        code, _, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        per_set = Counter(A for A, _ in walks)
        assert len(walks) == len(per_set) > 256
        assert all(ks == range(A.params.n + 1) for A, ks in walks)

    # Digests of these configs' stdout, written before the sweep walked its
    # sets once for every k.
    @pytest.mark.parametrize(
        "config, exit_code, errors, digest",
        [
            (
                {
                    "identities": ["main", "corollary1", "corollary2", "corollary3", "vandermonde",
                                   "bounds", "lemma_face_count"],
                    "q": [2, 3], "n": [1, 6], "k": [2, 4], "s": [1, 3], "seeds": [0, 1],
                    "family": {"kind": "random", "m": 6},
                },
                0,
                0,
                "b82fc6471ab8e5d1b6c59839ad93fc0c787e7352812c718a887b4d589fbdb000",
            ),
            (
                # Each k's C(n, k) * 24 is under the guard, and at n = 10 their
                # sum, 2^10 * 24 = 24576, is over it: the pass is skipped there.
                {
                    "identities": ["main", "corollary1", "corollary2", "lemma_face_count"],
                    "q": [2, 3], "n": [9, 10], "s": [1, 2], "seeds": [0, 1],
                    "family": {"kind": "random", "m": 24}, "guard": 20000,
                },
                3,
                56,
                "ea94ed5ddfbfa41c3a0609bbe189b54ba9e74354551450d8434b4e2a72c6ab7f",
            ),
        ],
        ids=["partial-k", "sum-over-guard"],
    )
    def test_profiled_sweep_writes_the_same_bytes(
        self, tmp_path, capsys, monkeypatch, config, exit_code, errors, digest
    ):
        walks = count_calls(monkeypatch, "qcube.faces", "_profile_routed")
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == exit_code
        assert json.loads(out.splitlines()[-1])["summary"]["error"] == errors
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # One pass per set over the cell's k range, or where its estimate is
        # over the guard, the per-k route at each k.
        lo, hi = config.get("k", [0, 10])
        per_set = {}
        for A, ks in walks:
            per_set.setdefault(A, []).append(ks)
        assert len(per_set) == (8 if errors else 18)
        for A, calls in per_set.items():
            ks = range(lo, min(hi, A.params.n) + 1)
            if sum(comb(A.params.n, k) for k in ks) * len(A) <= config.get("guard", 10_000_000):
                assert calls == [ks]
            else:
                assert A.params.n == 10 and calls == [range(k, k + 1) for k in ks]

    # Digests of a sweep of every family identity over each deterministic
    # family kind, written while each kind was its own branch of
    # realize_family and of the sweep's instance list.
    @pytest.mark.parametrize(
        "family, qs, n_range, rows, digest",
        [
            ({"kind": "face"}, [2, 3], [0, 5], 952,
             "78934617a5ad8ae1f82461b71b85aa43e51c1f1db16fad222ef8e6db37f435a0"),
            ({"kind": "even_weight"}, [2, 3], [0, 6], 172,
             "4375bd3d19603bc72a226143f4f2b13b1b3aaf90e335ef49fb98025e26c86a01"),
            ({"kind": "file"}, [2], [4, 4], 33,
             "6dcdcdcc30225dc524cf0b625fe14f591f739bc0c47cf38879e0c1c093df3bcd"),
        ],
        ids=["face", "even_weight", "file"],
    )
    def test_family_kind_sweep_is_pinned(self, tmp_path, capsys, family, qs, n_range, rows, digest):
        if family["kind"] == "file":
            family = {**family, "path": write(tmp_path, "points.txt", "0000\n0011\n0101\n1110\n1111\n")}
        config = {
            "identities": ["main", "corollary1", "corollary2", "corollary3", "bounds", "lemma_face_count"],
            "q": qs, "n": n_range, "s": [1, 3], "family": family,
        }
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["total"] == rows
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_output_from_config(self, tmp_path, capsys):
        dest = tmp_path / "from_cfg.jsonl"
        cfg_dict = dict(BASE_SWEEP, output=str(dest))
        cfg = write(tmp_path, "cfg.json", json.dumps(cfg_dict))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 0
        assert out == ""
        assert dest.stat().st_size > 0

    @pytest.mark.parametrize("output", [True, 5], ids=["bool", "int"])
    def test_non_string_output_rejected_before_opening(self, tmp_path, output):
        # Run in a child: open() reads an int or bool as a file descriptor.
        cfg = write(tmp_path, "cfg.json", json.dumps({**BASE_SWEEP, "output": output}))
        proc = run_module("sweep", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: sweep config: output must be a string\n"

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"output": [""]}, "sweep config: output must be a string"),
            ({"family": {"kind": "file", "path": 3}}, "file family needs a path"),
        ],
        ids=["output-list", "path-int"],
    )
    def test_non_string_paths_rejected(self, tmp_path, capsys, patch, message):
        cfg = write(tmp_path, "cfg.json", json.dumps({**BASE_SWEEP, **patch}))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert out == ""
        assert message in err

    def test_rows_are_written_as_the_grid_is_expanded(self, tmp_path, monkeypatch):
        out = io.StringIO()
        written = []
        registry = qcube.sweep.SWEEP_IDENTITIES
        cell = registry["vandermonde"].cell

        def recording(cfg, q, n, instance, guard):
            written.append(len(out.getvalue()))
            return cell(cfg, q, n, instance, guard)

        monkeypatch.setitem(
            registry, "vandermonde", registry["vandermonde"].replace(cell=recording)
        )
        path = write(
            tmp_path, "cfg.json", json.dumps({"identities": ["vandermonde"], "n": [1, 2]})
        )
        assert qcube.cli.run_sweep(qcube.sweep.load_sweep_config(path), out) == 0
        assert len(written) == 2
        assert written[0] == 0 < written[1]

    @pytest.mark.parametrize(
        "family, n, size",
        [
            ({"kind": "even_weight"}, 4, 8),
            ({"kind": "face"}, 3, 8),
            ({"kind": "random", "m": 8}, 4, 8),
        ],
        ids=["even_weight", "face", "random"],
    )
    @pytest.mark.parametrize("slack", [0, -1], ids=["exact", "one-under"])
    def test_family_over_the_guard_refused_before_any_row(
        self, tmp_path, capsys, family, n, size, slack
    ):
        config = {"identities": ["bounds"], "q": [2], "n": [n, n], "family": family,
                  "seeds": [0], "guard": size + slack}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        if slack == 0:
            # Admitted: every instance gets its bounds row, refused only where
            # the row's own n·m coordinate scan passes the guard.
            rows = [json.loads(line) for line in out.splitlines()]
            assert len(rows) >= 2
            for row in rows[:-1]:
                over = row["params"]["n"] * row["params"]["m"] > size
                assert row["status"] == ("error" if over else "pass")
            assert code == (3 if rows[-1]["summary"]["error"] else 0)
        else:
            assert (code, out) == (3, "")
            assert err == (
                f"error: sweep config: family {family['kind']} at q=2, n={n}: instance too "
                f"large: about {size} elementary operations, guard is {size - 1}\n"
            )

    @pytest.mark.parametrize(
        "family, extra",
        [({"kind": "even_weight"}, {}), ({"kind": "face"}, {"nu": [18, 18]})],
        ids=["even_weight", "face"],
    )
    def test_large_family_refused_at_a_small_guard(self, tmp_path, capsys, family, extra):
        config = {"identities": ["bounds"], "q": [2], "n": [18, 18], "family": family,
                  "guard": 10, **extra}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: sweep config: family {family['kind']} at q=2, n=18: ")

    def test_random_family_beyond_sys_maxsize_refused_naming_the_cell(self, tmp_path, capsys):
        config = {"identities": ["bounds"], "q": [2], "n": [62, 64], "family": {"kind": "random", "m": 3}}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert (code, out) == (2, "")
        assert err == (
            "error: sweep config: family random at q=2, n=63: random family needs "
            f"q**n <= {sys.maxsize} (sys.maxsize), got q=2, n=63\n"
        )

    @pytest.mark.parametrize("q", [2, 3])
    def test_gen_and_sweep_build_equal_sets(self, capsys, q):
        for n in range(1, 6):
            params = CubeParams(q, n)
            cases = [({"kind": "face"}, {"nu": nu}, ["--nu", nu]) for nu in range(n + 1)]
            if params.volume >= 3:
                cases += [({"kind": "random", "m": 3}, {"seed": seed}, ["--m", 3, "--seed", seed])
                          for seed in (0, 5)]
            if q == 2:
                cases.append(({"kind": "even_weight"}, {}, []))
            for family, labels, flags in cases:
                cfg = qcube.sweep.SweepConfig(
                    identities=("bounds",), qs=(q,), n_range=(n, n), k_range=None, s_range=(1, 3),
                    nu_range=None, seeds=(0, 5), family=family, guard=None, output=None,
                )
                swept = [i["A"] for i in qcube.sweep._family_instances(cfg, q, n, 10**7)
                         if qcube.sweep._labels(i) == labels]
                kind = family["kind"].replace("_", "-")
                argv = ["gen", "--family", kind, "--q", q, "--n", n, *flags]
                code, out, _ = run(capsys, *map(str, argv))
                assert code == 0
                assert swept == [parse_pointset(out, params)[0]], (family, labels)

    def test_closed_form_cell_over_the_guard_gives_error_rows(self, tmp_path, capsys, monkeypatch):
        # Unrefused, this cell's packed rows take minutes and hundreds of MB.
        monkeypatch.setattr(qcube.closed, "_pascal_rows", None)
        config = {"identities": ["chu_vandermonde_generalized"], "q": [100000000],
                  "n": [600, 600], "nu": [500, 600], "k": [600, 600]}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 3
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["params"]["nu"] for row in rows[:-1]] == list(range(500, 601))
        message = "instance too large: about 47576963 elementary operations, guard is 10000000"
        assert all(row["status"] == "error" and row["error"] == message for row in rows[:-1])
        assert rows[-1]["summary"] == {"total": 101, "pass": 0, "fail": 0, "known_erratum": 0,
                                       "error": 101}

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"q": ["Q"]}, "sweep config: q must be a list of integers >= 2"),
            ({"family": {"kind": "random", "m": "Q"}}, "sweep config: random family needs an integer m"),
        ],
        ids=["q", "family.m"],
    )
    def test_integer_too_long_to_convert_is_named(self, tmp_path, capsys, patch, message):
        config = {"identities": ["main"], "q": [2], "n": [1, 2], "family": {"kind": "random", "m": 2}}
        text = json.dumps({**config, **patch}).replace('"Q"', "1" * 5000)
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", text))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    # An unhashable kind is refused by name too, not with a TypeError.
    @pytest.mark.parametrize(
        "kind", ["bogus", [], 3, None, "Face"], ids=["bogus", "list", "int", "null", "Face"]
    )
    def test_bad_family_fails_before_any_row(self, tmp_path, capsys, kind):
        config = {
            "identities": ["vandermonde", "main"],
            "n": [1, 2],
            "family": {"kind": kind},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert out == ""
        assert err == f"error: sweep config: unknown family kind {kind!r}\n"

    def test_file_family_error_names_file_and_cell(self, tmp_path, capsys):
        points = write(tmp_path, "points.txt", "00\n01\n11\n")
        config = {"identities": ["main"], "n": [1, 2], "family": {"kind": "file", "path": points}}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: sweep config: family file {points} at q=2, n=1: "
            "line 1: expected 1 digits, got 2\n"
        )

    @pytest.mark.parametrize(
        "identities, message",
        [
            (["main", "corollary1", "lemma_face_count"], "corollary_s1 requires at least 1 points, got 0"),
            (["lemma_face_count", "main", "corollary1"], "operation requires a nonempty point set"),
        ],
        ids=["corollary1-first", "lemma-first"],
    )
    def test_empty_file_family_refused_before_any_row(self, tmp_path, capsys, identities, message):
        # main has no point on an empty set; the first identity that has one
        # raises its per-point function's CubeError at k = 0.
        points = write(tmp_path, "points.txt", "")
        config = {"identities": identities, "q": [2], "n": [3, 3],
                  "family": {"kind": "file", "path": points}}
        code, out, err = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_closed_form_rows_match_the_oracles(self, tmp_path, capsys):
        config = {
            "identities": ["vandermonde", "chu_vandermonde_generalized"],
            "q": [7],
            "n": [0, 9],
            "nu": [0, 4],
            "k": [2, 6],
        }
        oracles = {"vandermonde": (check_vandermonde, 0),
                   "chu_vandermonde_generalized": (check_chu_vandermonde_generalized, 1)}
        expected = []
        for identity, (oracle, least_nu) in oracles.items():
            for n in range(10):
                for nu in range(least_nu, min(4, n) + 1):
                    for k in range(2, min(6, n) + 1):
                        rep = oracle(CubeParams(7, n), nu, k)
                        expected.append({
                            "identity": identity, "params": rep.params,
                            "lhs": str(rep.lhs), "rhs": str(rep.rhs),
                            "equal": True, "passed": True, "status": "pass",
                        })
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[:-1] == expected
        assert rows[-1]["summary"] == {
            "total": len(expected), "pass": len(expected), "fail": 0, "known_erratum": 0, "error": 0
        }

    def test_bad_family_unused_by_closed_forms(self, tmp_path, capsys):
        config = {"identities": ["vandermonde"], "n": [1, 2], "family": {"kind": "bogus"}}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-1]["summary"] == {
            "total": 13, "pass": 13, "fail": 0, "known_erratum": 0, "error": 0
        }

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", "{not json")
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2

    def test_config_nested_too_deeply(self, tmp_path, capsys, monkeypatch):
        # json.loads recurses once per level; the recursion limit is refused
        # as a config error, on a file and on stdin.
        data = "[" * 200_000
        want = (2, "", "error: sweep config: JSON nested too deeply\n")
        assert run(capsys, "sweep", write(tmp_path, "cfg.json", data)) == want
        monkeypatch.setattr(sys, "stdin", io.StringIO(data))
        assert run(capsys, "sweep", "-") == want

    def test_config_from_stdin(self, tmp_path, capsys, monkeypatch):
        config = BENCH / "sweep_closed.json"
        path, piped = tmp_path / "file.jsonl", tmp_path / "stdin.jsonl"
        assert run(capsys, "sweep", str(config), "--output", str(path))[0] == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(config.read_bytes()), encoding="utf-8"))
        assert run(capsys, "sweep", "-", "--output", str(piped))[0] == 0
        assert piped.read_bytes() == path.read_bytes()

    def test_config_with_a_byte_refused_past_the_first_read(self, tmp_path, capsys, monkeypatch):
        # The config is read 64 KiB at a time; the refused byte is named at
        # its place in the whole file, as reading it at once names it.
        data = json.dumps(BASE_SWEEP).encode() + b" " * 70_000 + b"\xff\n"
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert run(capsys, "sweep", str(path)) == (2, "", f"error: {whole.value}\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, "sweep", "-") == (2, "", f"error: {whole.value}\n")

    def test_missing_config(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        with pytest.raises(OSError) as whole:
            path.read_text()
        assert run(capsys, "sweep", str(path)) == (2, "", f"error: {whole.value}\n")

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"q": 2}, "q must be a list"),
            ({"identities": 5}, "identities must be a non-empty list"),
            ({"identities": "corollary1"}, "identities must be a non-empty list"),
            ({"guard": True}, "guard must be a positive integer"),
            ({"seeds": [True]}, "seeds must be a non-empty list of integers"),
            ({"family": {"kind": "random", "m": True}}, "integer m"),
            ({"n": [False, True]}, "n must be a two-int"),
            ({"k": [False, 1]}, "k must be a two-int"),
            ({"s": [True, 2]}, "s must be a two-int"),
            ({"nu": [True, 2]}, "nu must be a two-int"),
            ({"format": "csv"}, "sweep config: unsupported format 'csv'"),
        ],
        ids=[
            "q-scalar", "identities-int", "identities-str", "guard-bool", "seeds-bool",
            "m-bool", "n-bool", "k-bool", "s-bool", "nu-bool", "format-csv",
        ],
    )
    def test_malformed_config_fields(self, tmp_path, capsys, patch, message):
        valid = {
            "identities": ["corollary1"],
            "q": [2],
            "n": [1, 2],
            "family": {"kind": "random", "m": 2},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps({**valid, **patch}))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 2
        assert out == ""
        assert message in err

    # sha256 of stdout for the criterion 8 config (all ten identities,
    # q in {2, 3}, n in [1, 4], s in [1, 3], seeds [0, 1], random m = 4).
    @pytest.mark.parametrize(
        "argv, exit_code, digest",
        [
            ((), 0, "2c9201c171e7ae66a2ed504cf281ca4accf4da007d0f659fd58eea855f82fc64"),
            (("--guard", "40"), 3, "fa26fc67a9bac41bfdd9aa55f85c356c5326e0238b240e73d8c44fc665561af9"),
        ],
        ids=["default-guard", "guard-40"],
    )
    def test_golden_output(self, tmp_path, capsys, argv, exit_code, digest):
        config = {
            "identities": [
                "main",
                "corollary1",
                "corollary2",
                "corollary3",
                "vandermonde",
                "chu_vandermonde_generalized",
                "evenweight_printed",
                "evenweight_corrected",
                "bounds",
                "lemma_face_count",
            ],
            "q": [2, 3],
            "n": [1, 4],
            "s": [1, 3],
            "seeds": [0, 1],
            "family": {"kind": "random", "m": 4},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_family_instances_built_once_per_cell(self, tmp_path, capsys, monkeypatch):
        # Criterion 8's config: six family identities share 12 random sets,
        # each drawn by the random builder's unchecked step.
        calls = []
        original = qcube.families._random_points

        def counting(params, m, seed):
            calls.append((params, m, seed))
            return original(params, m, seed)

        monkeypatch.setattr(qcube.families, "_random_points", counting)
        config = {
            "identities": list(qcube.sweep.SWEEP_IDENTITIES),
            "q": [2, 3],
            "n": [1, 4],
            "s": [1, 3],
            "seeds": [0, 1],
            "family": {"kind": "random", "m": 4},
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, _, _ = run(capsys, "sweep", cfg)
        assert code == 0
        assert len(calls) == len(set(calls)) == 12

    def test_each_family_instance_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # A face instance's positions go through face_spec once, in its
        # builder, and a random instance's m through _check_random once.
        specs = count_calls(monkeypatch, "qcube.families", "face_spec")
        faces = count_calls(monkeypatch, "qcube.families", "_face_points")
        checks = count_calls(monkeypatch, "qcube.families", "_check_random")
        draws = count_calls(monkeypatch, "qcube.families", "_random_points")
        config = {"identities": ["main"], "q": [2, 3], "n": [0, 5], "family": {"kind": "face"}}
        code, _, _ = run(capsys, "sweep", write(tmp_path, "face.json", json.dumps(config)))
        assert code == 0
        assert len(faces) == len(specs) == 2 * sum(n + 1 for n in range(6)) == 42
        config.update({"family": {"kind": "random", "m": 4}, "seeds": [0, 1]})
        code, _, _ = run(capsys, "sweep", write(tmp_path, "random.json", json.dumps(config)))
        assert code == 0
        assert len(draws) == len(checks) == 2 * len([n for q in (2, 3) for n in range(6) if q**n >= 4]) == 16

    def test_sides_of_any_size_print_in_full(self, tmp_path, capsys):
        q = 10**1000
        config = {"identities": ["chu_vandermonde_generalized"], "q": [q], "n": [5, 5]}
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        code, out, err = run(capsys, "sweep", cfg)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-1]["summary"]["pass"] == rows[-1]["summary"]["total"] == 30
        expected = [
            (decimal(rep.lhs), decimal(rep.rhs))  # see TestDecimal
            for nu in range(1, 6)
            for k in range(6)
            for rep in [check_chu_vandermonde_generalized(CubeParams(q, 5), nu, k)]
        ]
        assert [(row["lhs"], row["rhs"]) for row in rows[:-1]] == expected
        assert max(len(row["lhs"]) for row in rows[:-1]) > 4300


CRITERION_8 = {
    "identities": list(qcube.sweep.SWEEP_IDENTITIES),
    "q": [2, 3],
    "n": [1, 4],
    "s": [1, 3],
    "seeds": [0, 1],
    "family": {"kind": "random", "m": 4},
}


def check_rows_against_the_oracle(mp):
    """Make every row the sweep writes also be built by json_line(_sweep_row(...))
    and compared, whether its line comes from _sweep_line or from a closed
    form's nu row (_nu_row_text); returns a Counter of the compared rows by
    (identity, status)."""
    seen = Counter()
    fill, write = qcube.sweep._sweep_line, qcube.sweep._nu_row_text

    def compared(identity, erratum, params, outcome):
        status, line = fill(identity, erratum, params, outcome)
        row = qcube.sweep._sweep_row(identity, erratum, params, outcome)
        assert (status, line) == (row["status"], qcube.cli.json_line(row))
        seen[identity, status] += 1
        return status, line

    def compared_nu_row(identity, params, nu_row):
        text = write(identity, params, nu_row)
        if text is None:  # each point then goes through _sweep_line
            return text
        erratum = qcube.sweep.SWEEP_IDENTITIES[identity].erratum
        *lines, end = text.split("\n")
        points = list(nu_row.points())
        assert end == "" and len(lines) == len(points)
        for line, (k, lhs, rhs) in zip(lines, points):
            row = qcube.sweep._sweep_row(identity, erratum, {**params, "k": k}, (lhs, rhs))
            assert ("pass", line) == (row["status"], qcube.cli.json_line(row))
            seen[identity, "pass"] += 1
        return text

    mp.setattr(qcube.sweep, "_sweep_line", compared)
    mp.setattr(qcube.sweep, "_nu_row_text", compared_nu_row)
    return seen


@st.composite
def sweep_configs(draw):
    """A small sweep config over every registered identity, with a random
    family kind, ν and k sub-ranges, and guard."""
    kind = draw(st.sampled_from(["random", "even_weight", "face", "file"]))
    n_lo = draw(st.integers(0, 4))
    n_hi = draw(st.integers(n_lo, 4))
    if kind == "file":
        n_lo = n_hi = 2
    family = {"random": {"kind": "random", "m": draw(st.integers(1, 6))},
              "file": {"kind": "file", "path": "points.txt"}}.get(kind, {"kind": kind})
    sub_range = st.one_of(st.just("all"), st.lists(st.integers(0, 5), min_size=2, max_size=2).map(sorted))
    config = {
        "identities": list(qcube.sweep.SWEEP_IDENTITIES),
        "q": draw(st.lists(st.integers(2, 3), min_size=1, max_size=2, unique=True)),
        "n": [n_lo, n_hi],
        "k": draw(sub_range),
        "nu": draw(sub_range),
        "s": [1, draw(st.integers(1, 3))],
        "seeds": [0, 1],
        "family": family,
    }
    guard = draw(st.sampled_from([None, 5, 40]))
    if guard is not None:
        config["guard"] = guard
    return config


class TestSweepRowTemplates:
    @pytest.mark.parametrize("argv", [(), ("--guard", "40")], ids=["default-guard", "guard-40"])
    def test_criterion_8_rows_match_the_oracle(self, tmp_path, capsys, monkeypatch, argv):
        seen = check_rows_against_the_oracle(monkeypatch)
        cfg = write(tmp_path, "cfg.json", json.dumps(CRITERION_8))
        code, out, _ = run(capsys, "sweep", cfg, *argv)
        assert sum(seen.values()) == len(out.splitlines()) - 1
        statuses = {status for _, status in seen}
        assert statuses >= {"pass", "known_erratum"}
        assert ("error" in statuses) == (code == 3)
        assert {identity for identity, _ in seen} == set(qcube.sweep.SWEEP_IDENTITIES)

    @given(config=sweep_configs(), printed_is_erratum=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_the_oracle(self, config, printed_is_erratum):
        registry = qcube.sweep.SWEEP_IDENTITIES
        printed = registry["evenweight_printed"].replace(erratum=printed_is_erratum)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
            mp.setitem(registry, "evenweight_printed", printed)
            seen = check_rows_against_the_oracle(mp)
            os.chdir(work)
            try:
                Path("points.txt").write_text("00\n01\n11\n")
                Path("cfg.json").write_text(json.dumps(config))
                out = io.StringIO()
                try:
                    code = qcube.cli.run_sweep(qcube.sweep.load_sweep_config("cfg.json"), out)
                except SizeGuardError as exc:
                    # A family larger than the guard is refused before any row.
                    assert str(exc).startswith("sweep config: family ")
                    assert out.getvalue() == "" and not seen
                    return
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 3)
        assert sum(seen.values()) == len(out.getvalue().splitlines()) - 1

    def test_consecutive_cells_do_not_share_a_skeleton(self, tmp_path, capsys, monkeypatch):
        # A nu row's lines come from a skeleton kept from the last cell. Run
        # in turn: cells that differ only in q, where Vandermonde's digits are
        # the same at every q; cells that differ only in the identity; a
        # second sweep whose cells differ from the first's only in the k
        # range; cells that differ only in n, at the same k range; and n
        # below the k range, whose nu rows have no k.
        seen = check_rows_against_the_oracle(monkeypatch)
        closed = ["vandermonde", "chu_vandermonde_generalized", "evenweight_corrected", "evenweight_printed"]
        configs = [
            {"identities": ["vandermonde", "chu_vandermonde_generalized"], "q": [2, 3, 5], "n": [6, 6],
             "k": [1, 4]},
            {"identities": closed, "q": [2], "n": [6, 6], "k": [1, 4]},
            {"identities": closed[::-1], "q": [2], "n": [6, 6], "k": [2, 4]},
            {"identities": closed, "q": [2, 3], "n": [0, 6], "k": [3, 4]},
        ]
        written = 0
        for config in configs:
            code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
            assert code == 0
            lines = out.splitlines()
            assert "" not in lines and len(lines) - 1 == sum(seen.values()) - written
            written += len(lines) - 1
            assert {json.loads(line)["params"]["q"] for line in lines[:-1]} == set(config["q"])
        assert seen[("vandermonde", "pass")] == 3 * 7 * 4 + 7 * 4 + 7 * 3 + 2 * (4 + 5 * 2 + 6 * 2 + 7 * 2)
        assert seen[("evenweight_corrected", "pass")] == 4 + 3 + (1 + 2 + 2 + 2)

    @pytest.mark.parametrize("value", [True, 2.5, "2"], ids=["bool", "float", "str"])
    def test_a_non_int_param_fails_the_check(self, value):
        params = {"q": 2, "n": 1, "x": value}
        row = qcube.sweep._sweep_row("new", False, params, (1, 1))
        try:
            line = qcube.sweep._sweep_line("new", False, params, (1, 1))[1]
        except TypeError:
            return
        assert line != qcube.cli.json_line(row)

    def test_nu_row_without_a_k_writes_no_line(self, tmp_path, capsys, monkeypatch):
        seen = check_rows_against_the_oracle(monkeypatch)
        rows = []
        original = qcube.sweep._nu_row_text

        def recorded(identity, params, nu_row):
            rows.append(nu_row)
            return original(identity, params, nu_row)

        monkeypatch.setattr(qcube.sweep, "_nu_row_text", recorded)
        config = {"identities": ["vandermonde", "chu_vandermonde_generalized"], "q": [3],
                  "n": [0, 4], "k": [3, 3]}
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        # The nu rows of n = 0, 1, 2 have no k: 1 + 2 + 3 of Vandermonde, 0 + 1 + 2 of chu.
        assert sum(not row.ks for row in rows) == 6 + 3
        lines = out.splitlines()
        assert "" not in lines and len(lines) - 1 == sum(seen.values()) == 4 + 5 + 3 + 4
        assert [json.loads(line)["params"]["k"] for line in lines[:-1]] == [3] * 16

    def test_perturbed_coefficient_fails_one_row(self, tmp_path, capsys, monkeypatch):
        seen = check_rows_against_the_oracle(monkeypatch)

        def perturbed(params, nus, ks, guard):
            for row in qcube.closed.vandermonde_cell(params, nus, ks, guard):
                if (params.n, row.nu) == (5, 2):
                    row = row._replace(lhs=row.lhs + (1 << 8 * row.width * 3))
                yield row

        registry = qcube.sweep.SWEEP_IDENTITIES
        monkeypatch.setitem(registry, "vandermonde", registry["vandermonde"].replace(
            cell=qcube.sweep._closed_form(perturbed, 0)))
        config = {"identities": ["vandermonde"], "q": [2], "n": [4, 6]}
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        failed = [row for row in rows[:-1] if row["status"] != "pass"]
        assert [row["params"] for row in failed] == [{"q": 2, "n": 5, "nu": 2, "k": 3}]
        assert (failed[0]["lhs"], failed[0]["rhs"]) == ("11", "10")
        assert rows[-1]["summary"]["fail"] == 1 and rows[-1]["summary"]["total"] == 25 + 36 + 49
        assert seen == {("vandermonde", "pass"): 109, ("vandermonde", "fail"): 1}

    def test_sides_over_the_str_limit_fall_back_to_the_oracle(self, tmp_path, capsys, monkeypatch):
        # At q = 1000 the sides reach about 3n digits (n = 200 gives 601, under
        # 640, the least limit that can be set); only some nu rows pass it.
        seen = check_rows_against_the_oracle(monkeypatch)
        texts = []
        original = qcube.sweep._nu_row_text

        def recorded(identity, params, nu_row):
            texts.append(original(identity, params, nu_row))
            return texts[-1]

        monkeypatch.setattr(qcube.sweep, "_nu_row_text", recorded)
        config = {"identities": ["chu_vandermonde_generalized"], "q": [1000], "n": [220, 220],
                  "nu": [205, 220]}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert sum(seen.values()) == len(out.splitlines()) - 1 == 16 * 221
        assert 0 < texts.count(None) < len(texts) == 16
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        assert max(len(row["lhs"]) for row in rows) > 640

    def test_memory_does_not_grow_with_the_rows(self):
        # bench/sweep_closed.json writes 141 983 rows into a sink that keeps none.
        class Sink:
            def write(self, text):
                return len(text)

        cfg = qcube.sweep.load_sweep_config(str(BENCH / "sweep_closed.json"))
        tracemalloc.start()
        try:
            with redirect_stderr(io.StringIO()):
                assert qcube.cli.run_sweep(cfg, Sink()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_bench_closed_config_stdout_is_pinned(self):
        # bench/sweep_closed.json, the sweep-closed workload: 141 983 rows.
        out = io.StringIO()
        cfg = qcube.sweep.load_sweep_config(str(BENCH / "sweep_closed.json"))
        with redirect_stderr(io.StringIO()):
            assert qcube.cli.run_sweep(cfg, out) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "7e954d5ec292a972c4ac05f461676fe3c2fc430ef9edd5666f62aa3c7fa4e5cf"

    @pytest.mark.parametrize("qs", [[2], [3, 5], [3, 2]], ids=["q2", "no-q2", "q3-q2"])
    @pytest.mark.parametrize("k", ["all", [0, 0], [1, 1], [3, 5]], ids=["all", "k0", "k1", "k3-5"])
    def test_evenweight_rows_match_the_check_at_every_point(self, tmp_path, capsys, qs, k):
        # The even-weight forms are packed cells; the oracle is the check at
        # one point, written by json_line(_sweep_row(...)).
        config = {"identities": ["evenweight_printed", "evenweight_corrected"], "q": qs, "n": [0, 40], "k": k}
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        lo, hi = (1, 40) if k == "all" else (max(k[0], 1), k[1])
        want = []
        for form in ("printed", "corrected"):
            identity = f"evenweight_{form}"
            erratum = qcube.sweep.SWEEP_IDENTITIES[identity].erratum
            for q in qs:
                for n in range(1, 41) if q == 2 else ():
                    for kk in range(lo, min(hi, n) + 1):
                        rep = qcube.families.check_evenweight_identity(n, kk, form)
                        params = {"q": 2, "n": n, "k": kk}
                        row = qcube.sweep._sweep_row(identity, erratum, params, (rep.lhs, rep.rhs))
                        want.append(qcube.cli.json_line(row))
        assert out.splitlines()[:-1] == want
        assert (len(want) > 0) == (2 in qs and k != [0, 0])

    def test_evenweight_cell_at_n_300_is_not_refused(self, tmp_path, capsys):
        config = {"identities": ["evenweight_corrected", "evenweight_printed"], "n": [300, 300],
                  "k": [297, 300]}
        code, out, _ = run(capsys, "sweep", write(tmp_path, "cfg.json", json.dumps(config)))
        assert code == 0
        want = []
        for form, erratum in (("corrected", False), ("printed", True)):
            for k in range(297, 301):
                rep = qcube.families.check_evenweight_identity(300, k, form)
                row = qcube.sweep._sweep_row(f"evenweight_{form}", erratum, {"q": 2, "n": 300, "k": k},
                                             (rep.lhs, rep.rhs))
                want.append(qcube.cli.json_line(row))
        assert out.splitlines()[:-1] == want
        assert json.loads(out.splitlines()[-1])["summary"] == {
            "total": 8, "pass": 4, "fail": 0, "known_erratum": 4, "error": 0}

    @given(q=st.integers(2, 7), n=st.integers(0, 12), nu=st.integers(0, 12), bounds=st.tuples(
        st.integers(0, 12), st.integers(0, 12)))
    @settings(max_examples=40, deadline=None)
    def test_one_format_nu_row_equals_the_per_point_lines(self, q, n, nu, bounds):
        nu = min(nu, n)
        ks = range(min(bounds[0], n), min(bounds[1], n) + 1)
        for identity, cell, least in (("vandermonde", qcube.closed.vandermonde_cell, 0),
                                      ("chu_vandermonde_generalized",
                                       qcube.closed.chu_vandermonde_generalized_cell, 1)):
            if nu < least:
                continue
            params = {"q": q, "n": n, "nu": nu}
            (row,) = cell(CubeParams(q, n), range(nu, nu + 1), ks)
            lines = [qcube.sweep._sweep_line(identity, False, {**params, "k": k}, (lhs, rhs))[1] + "\n"
                     for k, lhs, rhs in row.points()]
            assert qcube.sweep._nu_row_text(identity, params, row) == "".join(lines)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=4)
)
JUNK = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)
CONFIG_KEYS = (
    "identities", "q", "n", "k", "s", "nu", "seeds", "family", "guard", "format", "output",
    "family.kind", "family.m", "family.path",
)


@st.composite
def junk_sweep_configs(draw, key):
    """A small valid sweep config with `key`, and perhaps one more key,
    replaced by junk."""
    n_lo = draw(st.integers(0, 3))
    config = {
        "identities": draw(
            st.lists(st.sampled_from(list(qcube.sweep.SWEEP_IDENTITIES)), min_size=1, max_size=4)
        ),
        "q": draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)),
        "n": [n_lo, draw(st.integers(n_lo, 3))],
        "k": "all",
        "s": [1, draw(st.integers(1, 3))],
        "nu": "all",
        "seeds": [0, 1],
        "family": draw(
            st.sampled_from(
                [
                    {"kind": "random", "m": draw(st.integers(1, 6))},
                    {"kind": "even_weight"},
                    {"kind": "face"},
                    {"kind": "file", "path": "points.txt"},
                ]
            )
        ),
        "guard": draw(st.integers(1, 10**6)),
        "format": "jsonl",
        "output": "rows.jsonl",
    }
    for key in [key, *draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=1))]:
        owner, _, field = key.rpartition(".")
        target = config[owner] if owner else config
        if isinstance(target, dict):
            target[field] = draw(JUNK)
    return config


class TestSweepConfigFuzz:
    @pytest.mark.parametrize("key", CONFIG_KEYS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_junk_config_exits_cleanly(self, key, data):
        config = data.draw(junk_sweep_configs(key))
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                Path("points.txt").write_text("00\n11\n")
                Path("cfg.json").write_text(json.dumps(config))
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = main(["sweep", "cfg.json"])
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3)
