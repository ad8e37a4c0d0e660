"""CLI contract tests: values, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import K3_SECTION_COUNTS, k3_failures_by_pair

import seshadri.cli as cli
import seshadri.oracle as oracle
import seshadri.walk as walk
from seshadri.exact import Surd
from seshadri.inequalities import is_square
from seshadri.oracle import HanScan


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestBoundsCommand:
    def test_floor_comparison_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--k", "150", "--r", "10", "--surface", "hyp:150",
            "--digits", "2", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["main"]["decimal"] == "3.72"
        assert by_name["szemberg-floor"]["exact"] == "3"

    def test_k35_r101_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--k", "35", "--r", "101",
            "--surface", "custom:35,va", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["main"]["decimal"] == "0.5858"
        assert by_name["biran-product"]["decimal"] == "0.5804"
        assert by_name["upper"]["decimal"] == "0.5886"
        assert by_name["harbourne"]["exact"] == "59/101"
        joined = " ".join(rec["notes"])
        assert "35/60" in joined and "59/101" in joined

    def test_two_six_annotation(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "6", "--r", "2", "--format", "json")
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["main"]["exact"] == "3/2"
        assert any("multiplicity two" in n for n in rec["notes"])

    def test_multiple_k_values_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--k", "150,1050", "--r", "10", "--format", "json"
        )
        assert code == 0
        recs = json_records(out)
        assert [r["inputs"]["k"] for r in recs] == ["150", "1050"]

    def test_surface_k_conflict_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--k", "5", "--r", "2", "--surface", "p2")
        assert code == 1 and "conflicts" in err

    @pytest.mark.parametrize("surface", ["custom:35", "k3:2", "ab:3"])
    def test_very_ample_flag_on_a_surface_that_is_not_is_usage_error(self, capsys, surface):
        code, out, err = run_cli(capsys, "bounds", "--r", "101", "--surface", surface, "--very-ample")
        assert (code, out) == (1, "")
        assert f"--very-ample conflicts with surface {surface}" in err and ",va" in err

    @pytest.mark.parametrize("surface", ["custom:35,va", "p2", "k3:4", "hyp:5"])
    def test_very_ample_flag_agrees_with_a_very_ample_surface(self, capsys, surface):
        code, with_flag, _ = run_cli(capsys, "bounds", "--r", "10", "--surface", surface, "--very-ample")
        assert code == 0
        assert run_cli(capsys, "bounds", "--r", "10", "--surface", surface) == (0, with_flag, "")

    def test_malformed_surface_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--r", "2", "--surface", "weird:3")
        assert code == 1

    def test_plane_with_an_empty_parameter_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--k", "1", "--r", "2", "--surface", "p2:")
        assert (code, out) == (1, "") and "p2 takes no parameter" in err

    def test_invalid_surface_parameter_is_domain_error(self, capsys):
        # syntactically fine, mathematically invalid (degree must be >= 4)
        code, _, _ = run_cli(capsys, "bounds", "--r", "2", "--surface", "hyp:3")
        assert code == 2

    def test_exact_strings_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--k", "35", "--r", "101", "--format", "json"
        )
        (rec,) = json_records(out)
        for e in rec["entries"]:
            s = Surd.from_string(e["exact"])
            assert str(s) == e["exact"]

    @pytest.mark.parametrize("digits", ["0", "-2"])
    def test_digits_below_one_is_usage_error(self, capsys, digits):
        for argv in (
            ("bounds", "--k", "5", "--r", "4"),
            ("pell", "--k", "7"),
            ("search", "--k", "1", "--r", "5", "--d-max", "1"),
            ("p2-table",),
        ):
            code, out, err = run_cli(capsys, *argv, "--digits", digits)
            assert (code, out) == (1, "")
            assert f"--digits: must be >= 1, got {digits}" in err

    def test_all_digits_notes(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--k", "150", "--r", "10", "--all-digits", "--format", "json"
        )
        (rec,) = json_records(out)
        assert any("main at 2/3/4 digits: 3.72 / 3.721 / 3.7210" == n for n in rec["notes"])


class TestPellCommand:
    def test_k35(self, capsys):
        code, out, _ = run_cli(capsys, "pell", "--k", "35", "--format", "json")
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["single-point-bound"]["exact"] == "35/6"
        assert by_name["fundamental-p0"]["exact"] == "1"
        assert by_name["fundamental-q0"]["exact"] == "6"
        assert by_name["fsst-witness-n"]["exact"] == "6"

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "pell", "--k", "2", "--format", "json")
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert (by_name["fundamental-p0"]["exact"], by_name["fundamental-q0"]["exact"]) == ("2", "3")
        assert by_name["single-point-bound"]["exact"] == "4/3"

    def test_solution_past_int_str_limit(self, capsys):
        # q0 has about 4500 digits: more than the interpreter converts to
        # str by default.  The limit is lifted only while main runs (and
        # Decimal parses past it).
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run_cli(capsys, "pell", "--k", "129813574", "--format", "json")
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        p0, q0 = (int(Decimal(by_name[n])) for n in ("fundamental-p0", "fundamental-q0"))
        assert q0 * q0 - 129813574 * p0 * p0 == 1
        code, out, err = run_cli(capsys, "bounds", "--k", "129813574", "--r", "150")
        assert (code, err) == (0, "")
        assert "note: biran-product: single-point factor" in out

    def test_square_k_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pell", "--k", "9")
        assert code == 2 and "trivial" in err


class TestExitCodes:
    """main lifts the int-to-str digit limit while it runs and restores it
    on every exit, whichever error path ends the run."""

    @pytest.mark.parametrize(
        "argv,expected,wrong_margin",
        [
            ("pell --k 1", 1, False),  # a parse error
            ("bounds --r 2", 1, False),  # a usage error from the command
            ("pell --k 9", 2, False),
            ("verify --suite han --s-max 3 --m-max 2", 3, True),
        ],
    )
    def test_every_exit_restores_the_digit_limit(self, capsys, monkeypatch, argv, expected, wrong_margin):
        if wrong_margin:
            han_margin = oracle.han_margin
            monkeypatch.setattr(oracle, "han_margin", lambda *args: han_margin(*args) - 1)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert run_cli(capsys, *argv.split())[0] == expected
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


class TestSearchCommand:
    def test_conic_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "1", "--r", "5", "--d-max", "3", "--format", "json"
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["minimum"]["exact"] == "2/5"
        assert by_name["witness-1"]["applicability"] == "d=2, m=(1,1,1,1,1)"
        assert by_name["witness-1"]["flags"] == ["unit-multiplicity"]

    def test_two_six_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "6", "--r", "2", "--d-max", "2", "--format", "json"
        )
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["minimum"]["exact"] == "3/2"
        assert by_name["witness-1"]["flags"] == ["two-six"]

    def test_d_max_required(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--k", "1", "--r", "5")
        assert code == 1

    def test_empty_box_is_usage_error(self, capsys, monkeypatch):
        # rejected while parsing, before any search runs
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        code, out, err = run_cli(capsys, "search", "--k", "1", "--r", "2", "--d-max", "0")
        assert (code, out) == (1, "")
        assert "argument --d-max: must be >= 1, got 0" in err

    @pytest.mark.parametrize("r", ["1", "0", "-3"])
    def test_r_below_two_is_usage_error(self, capsys, monkeypatch, r):
        # rejected while parsing, before any search runs
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        code, out, err = run_cli(capsys, "search", "--k", "1", "--r", r, "--d-max", "1")
        assert (code, out) == (1, "")
        assert f"argument --r: must be >= 2, got {r}" in err

    def test_search_guard_fires_on_a_valid_box(self, capsys, monkeypatch):
        # The guard of the two tests above, on a box that parses: the
        # command searches through the patched name, so the guard fires.
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        with pytest.raises(pytest.fail.Exception, match="searched"):
            run_cli(capsys, "search", "--k", "1", "--r", "2", "--d-max", "1")

    def test_long_vectors_do_not_exhaust_the_stack(self, capsys):
        # the witness has 1200 entries, past the default recursion limit
        code, out, _ = run_cli(
            capsys, "search", "--k", "2000", "--r", "1200", "--d-max", "1", "--m-max", "1",
            "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["minimum"]["exact"] == "5/3"
        assert by_name["witness-1"]["applicability"] == "d=1, m=(" + ",".join(["1"] * 1200) + ")"

    def test_caveat_note_present(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "--k", "1", "--r", "2", "--d-max", "1", "--format", "json"
        )
        (rec,) = json_records(out)
        assert any("candidate-level" in n for n in rec["notes"])


class TestVerifyCommand:
    def test_theorem_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem", "--k-max", "10", "--r-max", "6",
            "--d-max", "3", "--m-max", "6", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["violations"]["exact"] == "0"

    def test_theorem_suite_fails_without_the_two_six_exception(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_is_two_six", lambda d, k, m: False)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem", "--k-max", "6", "--r-max", "2",
            "--d-max", "1", "--m-max", "2", "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        violations = [e for e in rec["entries"] if e["name"].startswith("violation")]
        assert [(e["name"], e["exact"], e["applicability"]) for e in violations] == [
            ("violations", "1", ""),
            ("violation", "3/2", "d=1, k=6, r=2, m=(2, 2)"),
        ]

    def test_han_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "han", "--s-max", "4", "--m-max", "6",
            "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        names = [e["name"] for e in rec["entries"]]
        assert "equality-witness" in names

    def test_k3_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", "10", "--r-max", "6",
            "--d-max", "3", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["exclusion-failures"]["exact"] == "0"

    @pytest.mark.parametrize("k_max,r_max", [(1, 2), (1, 6), (10, 2)])
    def test_k3_suite_without_pairs_is_usage_error(self, capsys, k_max, r_max):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", str(k_max), "--r-max", str(r_max),
        )
        assert (code, out) == (1, "")
        assert "k3 suite" in err

    def test_k3_suite_fails_on_wrong_section_count(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "k3_h0", lambda d, k: d * d * k + 100)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", "4", "--r-max", "10",
            "--d-max", "3", "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        failed = [e["applicability"] for e in rec["entries"] if e["name"] == "not-excluded"]
        assert "k=4, r=10" in failed

    @pytest.mark.parametrize(
        "d_max,code,failed", [("2", 3, [f"k=4, r={r}" for r in range(17, 21)]), ("1", 0, [])]
    )
    def test_k3_suite_reads_the_section_count_at_every_d(self, capsys, monkeypatch, d_max, code, failed):
        # h0 wrong at (d, k) = (2, 4) alone: d^2*k + 2 = 18 sections put a
        # curve through 17 points where d^2*k = 16 < 17, so exactly the
        # pairs (4, r) with r >= 17 fail, and only when d = 2 is read.
        true_h0 = oracle.k3_h0
        monkeypatch.setattr(oracle, "k3_h0", lambda d, k: 18 if (d, k) == (2, 4) else true_h0(d, k))
        got, out, _ = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", "6", "--r-max", "20",
            "--d-max", d_max, "--format", "json",
        )
        assert got == code
        (rec,) = json_records(out)
        assert [e["applicability"] for e in rec["entries"] if e["name"] == "not-excluded"] == failed

    K3_PATCHES = K3_SECTION_COUNTS

    @pytest.mark.parametrize(
        "patch,box,failing",
        [
            (patch, box, failing)
            for patch, counts in [
                ("d2k+100", (20, 380, 660)),
                ("18-at-(2,4)", (0, 24, 44)),
                ("d2k+2", (20, 380, 660)),
                ("d2k+1", (0, 0, 0)),
            ]
            for box, failing in zip([(20, 10, 5), (60, 40, 4), (30, 60, 3)], counts)
        ],
    )
    def test_k3_suite_matches_the_pair_by_pair_replay(self, capsys, monkeypatch, patch, box, failing):
        # The suite decides each k in closed form; the reference replays
        # every pair.  Under each wrong section count both list the same
        # failing pairs in the same order.
        monkeypatch.setattr(oracle, "k3_h0", self.K3_PATCHES[patch])
        k_max, r_max, d_max = box
        expected = k3_failures_by_pair(k_max, r_max, d_max)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", str(k_max), "--r-max", str(r_max),
            "--d-max", str(d_max), "--format", "json",
        )
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        listed = [e["applicability"] for e in rec["entries"] if e["name"] == "not-excluded"]
        assert listed == [f"k={k}, r={r}" for k, r in expected]
        assert len(expected) == failing and by_name["exclusion-failures"] == str(failing)
        assert by_name["pairs-checked"] == str((k_max // 2) * (r_max - 2))
        assert code == (3 if failing else 0)

    @pytest.mark.parametrize(
        "patch,code,reads",
        [
            (None, 0, [(1, 2), (2, 2), (1, 4), (1, 6), (1, 8)]),
            ("d2k+100", 3, [(1, 2), (1, 4), (1, 6), (1, 8)]),
        ],
    )
    def test_k3_suite_reads_each_section_count_once_and_replays_no_pair(
        self, capsys, monkeypatch, patch, code, reads
    ):
        # At r_max = 10 a k reads d = 1, 2, ... while d^2*k < 10 and stops
        # at its first failing d, so k = 10 reads nothing.
        h0 = K3_SECTION_COUNTS.get(patch, oracle.k3_h0)
        read = []

        def counted(d, k):
            read.append((d, k))
            return h0(d, k)

        monkeypatch.setattr(oracle, "k3_h0", counted)
        got, _, _ = run_cli(
            capsys, "verify", "--suite", "k3", "--k-max", "20", "--r-max", "10", "--d-max", "5",
        )
        assert (got, read) == (code, reads)

    def test_counterexample_exits_3(self, capsys, monkeypatch):
        fake = HanScan(1, ((3, 1),), ())
        monkeypatch.setattr(oracle, "verify_han_exhaustive", lambda s, m: fake)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "han", "--s-max", "2", "--m-max", "2",
            "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        assert any(e["name"] == "counterexample" for e in rec["entries"])

    def test_han_suite_fails_on_a_wrong_margin(self, capsys, monkeypatch):
        # One less margin turns the equality case (2, 2, 2) into a
        # counterexample; every other applicable vector of the box keeps a
        # positive margin.
        han_margin = oracle.han_margin
        monkeypatch.setattr(oracle, "han_margin", lambda *args: han_margin(*args) - 1)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "han", "--s-max", "3", "--m-max", "2",
            "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        listed = [e["applicability"] for e in rec["entries"] if e["name"] == "counterexample"]
        assert listed == ["m=(2, 2, 2)"]


class TestUsageFloors:
    """A number below its documented floor is a usage error (exit 1),
    whichever subcommand or suite reads it; exit 2 is kept for well-formed
    inputs where the mathematics is undefined."""

    @pytest.mark.parametrize(
        "command,flag,floor",
        [
            ("threshold --r 10 --k-cap 0", "--k-cap", 1),
            ("verify --suite theorem --k-max 0", "--k-max", 1),
            ("verify --suite k3 --k-max 0", "--k-max", 1),
            ("verify --suite theorem --d-max 0", "--d-max", 1),
            ("verify --suite k3 --d-max 0", "--d-max", 1),
            ("verify --suite theorem --m-max 0", "--m-max", 1),
            ("verify --suite han --m-max -1", "--m-max", 1),
            ("verify --suite han --s-max 1", "--s-max", 2),
            ("search --k 1 --r 2 --d-max 1 --m-max 0", "--m-max", 1),
            ("pell --k 1", "--k", 2),
            ("pell --k -3", "--k", 2),
        ],
    )
    def test_below_floor(self, capsys, command, flag, floor):
        value = command.split()[-1]
        code, out, err = run_cli(capsys, *command.split())
        assert (code, out) == (1, "")
        assert f"argument {flag}: must be >= {floor}, got {value}" in err

    def test_non_integer_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--k", "abc", "--r", "2")
        assert (code, out) == (1, "")
        assert "argument --k: expected an integer, got 'abc'" in err

    def test_han_m_max_floor(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "verify_han_exhaustive", lambda *a: pytest.fail("scanned"))
        code, out, err = run_cli(capsys, "verify", "--suite", "han", "--m-max", "1")
        assert (code, out) == (1, "")
        assert "the han suite needs --m-max >= 2, got 1" in err

    @pytest.mark.parametrize("surface", ["hyp:3", "k3:3"])
    def test_surface_outside_its_domain_stays_a_domain_error(self, capsys, surface):
        code, out, _ = run_cli(capsys, "bounds", "--surface", surface, "--r", "3")
        assert (code, out) == (2, "")


class TestThresholdCommand:
    def test_r10(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--r", "10", "--k-cap", "10000", "--format", "json"
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["threshold"]["exact"] == "6250"
        assert by_name["last-failure"]["exact"] == "6249"

    def test_cap_too_small_returns_none(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--r", "10", "--k-cap", "100", "--format", "json"
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["threshold"]["exact"] == "none"


class TestP2Table:
    def test_values_and_statuses(self, capsys):
        code, out, _ = run_cli(capsys, "p2-table", "--format", "json")
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["r=2"]["exact"] == "1/2"
        assert by_name["r=8"]["exact"] == "6/17"
        assert by_name["r=9"]["exact"] == "1/3"
        assert by_name["r=9"]["flags"] == ["proved-square"]
        assert any("misprint" in n for n in rec["notes"])

    @pytest.mark.parametrize("r_max", ["0", "-1"])
    def test_empty_table_is_usage_error(self, capsys, r_max):
        code, out, err = run_cli(capsys, "p2-table", "--r-max", r_max)
        assert (code, out) == (1, "")
        assert "--r-max: must be >= 1" in err


class TestFormatsAndDeterminism:
    def test_csv_column_order(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--k", "6", "--r", "2", "--format", "csv")
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == cli.CSV_COLUMNS

    def test_env_var_sets_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("SESHADRI_FORMAT", "json")
        _, out, _ = run_cli(capsys, "pell", "--k", "2")
        json_records(out)  # parses cleanly

    def test_bad_env_format_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SESHADRI_FORMAT", "xml")
        code, _, _ = run_cli(capsys, "pell", "--k", "2")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_byte_identical_reruns(self, capsys, fmt):
        args = ("bounds", "--k", "35", "--r", "101", "--surface", "custom:35,va",
                "--format", fmt)
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_text_is_same_record_as_json(self, capsys):
        # every exact value in the JSON record appears in the text rendering
        _, text_out, _ = run_cli(capsys, "bounds", "--k", "35", "--r", "101")
        _, json_out, _ = run_cli(capsys, "bounds", "--k", "35", "--r", "101", "--format", "json")
        (rec,) = json_records(json_out)
        for e in rec["entries"]:
            assert e["exact"] in text_out
        for n in rec["notes"]:
            assert n in text_out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seshadri", "pell", "--k", "35"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "35/6" in proc.stdout

    def test_closed_stdout_pipe_exits_141_quietly(self):
        # The table is about 150 KB, more than a pipe buffer holds, so the
        # writer is still writing when the reader closes the pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "seshadri", "p2-table", "--r-max", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == b"p2-table r_max=3000\n"
        assert (proc.wait(timeout=60), err) == (141, b"")


digits_args = st.integers(1, 8).map(lambda d: ["--digits", str(d)])
value_commands = st.one_of(
    st.tuples(st.integers(1, 300), st.integers(2, 60), st.booleans()).map(
        lambda t: ["bounds", "--k", str(t[0]), "--r", str(t[1])] + (["--very-ample"] if t[2] else [])
    ),
    st.integers(2, 5000).filter(lambda k: not is_square(k)).map(lambda k: ["pell", "--k", str(k)]),
    st.tuples(st.integers(1, 12), st.integers(2, 8), st.integers(1, 3)).map(
        lambda t: ["search", "--k", str(t[0]), "--r", str(t[1]), "--d-max", str(t[2])]
    ),
    st.integers(1, 15).map(lambda r: ["p2-table", "--r-max", str(r)]),
)


class TestProperties:
    """Over random valid invocations: every exact string is a canonical
    surd, and every decimal is its truncation at the requested digits."""

    @settings(max_examples=60)
    @given(value_commands, digits_args)
    def test_exact_parses_and_decimal_brackets_it(self, argv, digits):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + digits + ["--format", "json"])
        assert code == 0
        entries = [e for rec in json_records(out.getvalue()) for e in rec["entries"]]
        assert entries
        for e in entries:
            value = Surd.from_string(e["exact"])
            assert str(value) == e["exact"]
            if not e["decimal"]:
                continue
            whole, frac = e["decimal"].split(".")
            assert len(frac) == int(digits[1])
            low = Fraction(e["decimal"])
            assert low <= value < low + Fraction(1, 10 ** len(frac)), e

    @settings(max_examples=40)
    @given(st.integers(1, 3000), st.sampled_from([1, -1]), st.integers(2, 40))
    def test_n2_pm_1_is_written_with_its_sign(self, n, sign, r):
        k = n * n + sign
        assume(k >= 2)
        form = f"{n}^2{'+' if sign > 0 else '-'}1"
        notes = {}
        for argv in (["pell", "--k", str(k)], ["bounds", "--k", str(k), "--r", str(r)]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv + ["--format", "json"]) == 0
            (rec,) = json_records(out.getvalue())
            notes[argv[0]] = rec["notes"]
        assert f"k = {k} = {form}: bound is a proven case" in notes["pell"]
        assert f"biran-product: single-point bound proven: k = {k} = {form}" in notes["bounds"]
