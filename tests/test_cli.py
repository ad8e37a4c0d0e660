"""CLI contract tests: values, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import run_cli
from hypothesis import assume, given, settings, strategies as st

import seshadri.cli as cli
import seshadri.oracle as oracle
import seshadri.walk as walk
from oracles import K3_SECTION_COUNTS, k3_failures_by_pair
from seshadri.exact import Surd
from seshadri.inequalities import is_square
from seshadri.oracle import HanScan


def json_records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestBoundsCommand:
    def test_floor_comparison_values(self):
        code, out, _ = run_cli(
            "bounds", "--k", "150", "--r", "10", "--surface", "hyp:150",
            "--digits", "2", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["main"]["decimal"] == "3.72"
        assert by_name["szemberg-floor"]["exact"] == "3"

    def test_k35_r101_record(self):
        code, out, _ = run_cli(
            "bounds", "--k", "35", "--r", "101",
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

    def test_surface_k_conflict_is_usage_error(self):
        code, _, err = run_cli("bounds", "--k", "5", "--r", "2", "--surface", "p2")
        assert code == 1 and "conflicts" in err

    @pytest.mark.parametrize("surface", ["custom:35", "k3:2", "ab:3"])
    def test_very_ample_flag_on_a_surface_that_is_not_is_usage_error(self, surface):
        code, out, err = run_cli("bounds", "--r", "101", "--surface", surface, "--very-ample")
        assert (code, out) == (1, "")
        assert f"--very-ample conflicts with surface {surface}" in err and ",va" in err

    @pytest.mark.parametrize("surface", ["custom:35,va", "p2", "k3:4", "hyp:5"])
    def test_very_ample_flag_agrees_with_a_very_ample_surface(self, surface):
        code, with_flag, _ = run_cli("bounds", "--r", "10", "--surface", surface, "--very-ample")
        assert code == 0
        assert run_cli("bounds", "--r", "10", "--surface", surface) == (0, with_flag, "")

    def test_malformed_surface_is_usage_error(self):
        code, _, _ = run_cli("bounds", "--r", "2", "--surface", "weird:3")
        assert code == 1

    def test_plane_with_an_empty_parameter_is_usage_error(self):
        code, out, err = run_cli("bounds", "--k", "1", "--r", "2", "--surface", "p2:")
        assert (code, out) == (1, "") and "p2 takes no parameter" in err

    def test_invalid_surface_parameter_is_domain_error(self):
        # syntactically fine, mathematically invalid (degree must be >= 4)
        code, _, _ = run_cli("bounds", "--r", "2", "--surface", "hyp:3")
        assert code == 2

    def test_exact_strings_round_trip(self):
        _, out, _ = run_cli("bounds", "--k", "35", "--r", "101", "--format", "json")
        (rec,) = json_records(out)
        for e in rec["entries"]:
            s = Surd.from_string(e["exact"])
            assert str(s) == e["exact"]

    @pytest.mark.parametrize("digits", ["0", "-2"])
    def test_digits_below_one_is_usage_error(self, digits):
        for argv in (
            ("bounds", "--k", "5", "--r", "4"),
            ("pell", "--k", "7"),
            ("search", "--k", "1", "--r", "5", "--d-max", "1"),
            ("p2-table",),
        ):
            code, out, err = run_cli(*argv, "--digits", digits)
            assert (code, out) == (1, "")
            assert f"--digits: must be >= 1, got {digits}" in err


class TestPellCommand:
    def test_k2(self):
        code, out, _ = run_cli("pell", "--k", "2", "--format", "json")
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert (by_name["fundamental-p0"]["exact"], by_name["fundamental-q0"]["exact"]) == ("2", "3")
        assert by_name["single-point-bound"]["exact"] == "4/3"

    def test_solution_past_int_str_limit(self):
        # q0 has about 4500 digits: more than the interpreter converts to
        # str by default.  The limit is lifted only while main runs (and
        # Decimal parses past it).
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("pell", "--k", "129813574", "--format", "json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        p0, q0 = (int(Decimal(by_name[n])) for n in ("fundamental-p0", "fundamental-q0"))
        assert q0 * q0 - 129813574 * p0 * p0 == 1
        code, out, err = run_cli("bounds", "--k", "129813574", "--r", "150")
        assert (code, err) == (0, "")
        assert "note: biran-product: single-point factor" in out


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
    def test_every_exit_restores_the_digit_limit(self, monkeypatch, argv, expected, wrong_margin):
        if wrong_margin:
            han_margin = oracle.han_margin
            monkeypatch.setattr(oracle, "han_margin", lambda *args: han_margin(*args) - 1)
        limit = sys.get_int_max_str_digits()
        assert run_cli(*argv.split())[0] == expected
        assert sys.get_int_max_str_digits() == limit


class TestSearchCommand:
    def test_two_six_witness(self):
        code, out, _ = run_cli("search", "--k", "6", "--r", "2", "--d-max", "2", "--format", "json")
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["minimum"]["exact"] == "3/2"
        assert by_name["witness-1"]["flags"] == ["two-six"]

    def test_d_max_required(self):
        code, _, _ = run_cli("search", "--k", "1", "--r", "5")
        assert code == 1

    def test_empty_box_is_usage_error(self, monkeypatch):
        # rejected while parsing, before any search runs
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        code, out, err = run_cli("search", "--k", "1", "--r", "2", "--d-max", "0")
        assert (code, out) == (1, "")
        assert "argument --d-max: must be >= 1, got 0" in err

    @pytest.mark.parametrize("r", ["1", "0", "-3"])
    def test_r_below_two_is_usage_error(self, monkeypatch, r):
        # rejected while parsing, before any search runs
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        code, out, err = run_cli("search", "--k", "1", "--r", r, "--d-max", "1")
        assert (code, out) == (1, "")
        assert f"argument --r: must be >= 2, got {r}" in err

    def test_search_guard_fires_on_a_valid_box(self, monkeypatch):
        # The guard of the two tests above, on a box that parses: the
        # command searches through the patched name, so the guard fires.
        monkeypatch.setattr(walk, "min_ratio_search", lambda *a: pytest.fail("searched"))
        with pytest.raises(pytest.fail.Exception, match="searched"):
            run_cli("search", "--k", "1", "--r", "2", "--d-max", "1")

    def test_broken_trichotomy_is_a_counterexample(self, monkeypatch):
        # Without the (2, 6) exception the witness (2, 2) at k = 6 breaks the
        # trichotomy, and the search reports it as verify reports one: exit 3.
        monkeypatch.setattr(walk, "_is_two_six", lambda d, k, m: False)
        code, out, err = run_cli("search", "--k", "6", "--r", "2", "--d-max", "1", "--m-max", "2")
        assert (code, out) == (3, "")
        assert err == "seshadri: counterexample: trichotomy violated at d=1, k=6, r=2, m=(2, 2)\n"

    def test_long_vectors_do_not_exhaust_the_stack(self):
        # the witness has 1200 entries, past the default recursion limit
        code, out, _ = run_cli(
            "search", "--k", "2000", "--r", "1200", "--d-max", "1", "--m-max", "1",
            "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["minimum"]["exact"] == "5/3"
        assert by_name["witness-1"]["applicability"] == "d=1, m=(" + ",".join(["1"] * 1200) + ")"

    def test_caveat_note_present(self):
        _, out, _ = run_cli("search", "--k", "1", "--r", "2", "--d-max", "1", "--format", "json")
        (rec,) = json_records(out)
        assert any("candidate-level" in n for n in rec["notes"])


class TestVerifyCommand:
    def test_theorem_suite_passes(self):
        code, out, _ = run_cli(
            "verify", "--suite", "theorem", "--k-max", "10", "--r-max", "6",
            "--d-max", "3", "--m-max", "6", "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["violations"]["exact"] == "0"

    def test_theorem_suite_fails_without_the_two_six_exception(self, monkeypatch):
        monkeypatch.setattr(oracle, "_is_two_six", lambda d, k, m: False)
        code, out, _ = run_cli(
            "verify", "--suite", "theorem", "--k-max", "6", "--r-max", "2",
            "--d-max", "1", "--m-max", "2", "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        violations = [e for e in rec["entries"] if e["name"].startswith("violation")]
        assert [(e["name"], e["exact"], e["applicability"]) for e in violations] == [
            ("violations", "1", ""),
            ("violation", "3/2", "d=1, k=6, r=2, m=(2, 2)"),
        ]

    def test_han_suite_passes(self):
        code, out, _ = run_cli(
            "verify", "--suite", "han", "--s-max", "4", "--m-max", "6",
            "--format", "json",
        )
        assert code == 0
        (rec,) = json_records(out)
        names = [e["name"] for e in rec["entries"]]
        assert "equality-witness" in names

    def test_han_count_past_int_str_limit(self):
        # The applicable-vectors count has 4,815 digits, more than the
        # interpreter converts to str by default, and is no Pell value: the
        # lifted limit in main is what prints it (Decimal parses past it).
        code, out, err = run_cli(
            "verify", "--suite", "han", "--s-max", "8000", "--m-max", "8000",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        assert int(Decimal(by_name["applicable-vectors"])) == math.comb(16000, 8000) - 16001

    @pytest.mark.parametrize("k_max,r_max", [(1, 2), (1, 6), (10, 2)])
    def test_k3_suite_without_pairs_is_usage_error(self, k_max, r_max):
        code, out, err = run_cli(
            "verify", "--suite", "k3", "--k-max", str(k_max), "--r-max", str(r_max),
        )
        assert (code, out) == (1, "")
        assert "k3 suite" in err

    def test_k3_suite_fails_on_wrong_section_count(self, monkeypatch):
        monkeypatch.setattr(oracle, "k3_h0", lambda d, k: d * d * k + 100)
        scan = oracle.verify_k3(4, 10, 3)
        code, out, _ = run_cli(
            "verify", "--suite", "k3", "--k-max", "4", "--r-max", "10",
            "--d-max", "3", "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        failed = [e["applicability"] for e in rec["entries"] if e["name"] == "not-excluded"]
        assert failed == [f"k={k}, r={r}" for k, r in scan.failures]
        assert by_name["exclusion-failures"] == str(len(scan.failures))
        assert by_name["pairs-checked"] == str(scan.pairs_checked)

    @pytest.mark.parametrize("patch,failing", [
        pytest.param("d2k+100", 380, id="d2k+100-box1-380"),
        pytest.param("18-at-(2,4)", 24, id="18-at-(2,4)-box4-24"),
        pytest.param("d2k+2", 380, id="d2k+2-box7-380"),
        pytest.param("d2k+1", 0, id="d2k+1-box10-0"),
    ])
    def test_k3_suite_matches_the_pair_by_pair_replay(self, monkeypatch, patch, failing):
        # Under each wrong section count the rows list the reference's failing pairs in order.
        monkeypatch.setattr(oracle, "k3_h0", K3_SECTION_COUNTS[patch])
        expected = k3_failures_by_pair(60, 40, 4)
        code, out, _ = run_cli("verify", "--suite", "k3", "--k-max", "60", "--r-max",
                               "40", "--d-max", "4", "--format", "json")
        (rec,) = json_records(out)
        by_name = {e["name"]: e["exact"] for e in rec["entries"]}
        listed = [e["applicability"] for e in rec["entries"] if e["name"] == "not-excluded"]
        assert listed == [f"k={k}, r={r}" for k, r in expected]
        assert len(expected) == failing and by_name["exclusion-failures"] == str(failing)
        assert (by_name["pairs-checked"], code) == (str(30 * 38), 3 if failing else 0)

    def test_counterexample_exits_3(self, monkeypatch):
        fake = HanScan(1, ((3, 1),), ())
        monkeypatch.setattr(oracle, "verify_han_exhaustive", lambda s, m: fake)
        code, out, _ = run_cli(
            "verify", "--suite", "han", "--s-max", "2", "--m-max", "2",
            "--format", "json",
        )
        assert code == 3
        (rec,) = json_records(out)
        assert any(e["name"] == "counterexample" for e in rec["entries"])

    def test_han_suite_fails_on_a_wrong_margin(self, monkeypatch):
        # One less margin turns the equality case (2, 2, 2) into a
        # counterexample; every other applicable vector of the box keeps a
        # positive margin.
        han_margin = oracle.han_margin
        monkeypatch.setattr(oracle, "han_margin", lambda *args: han_margin(*args) - 1)
        code, out, _ = run_cli(
            "verify", "--suite", "han", "--s-max", "3", "--m-max", "2",
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
            ("verify --suite k3 --k-max 0", "--k-max", 1),
            ("verify --suite theorem --d-max 0", "--d-max", 1),
            ("verify --suite k3 --d-max 0", "--d-max", 1),
            ("verify --suite theorem --m-max 0", "--m-max", 1),
            ("verify --suite han --m-max -1", "--m-max", 1),
            ("search --k 1 --r 2 --d-max 1 --m-max 0", "--m-max", 1),
            ("pell --k -3", "--k", 2),
        ],
    )
    def test_below_floor(self, command, flag, floor):
        value = command.split()[-1]
        code, out, err = run_cli(*command.split())
        assert (code, out) == (1, "")
        assert f"argument {flag}: must be >= {floor}, got {value}" in err

    def test_non_integer_is_usage_error(self):
        code, out, err = run_cli("bounds", "--k", "abc", "--r", "2")
        assert (code, out) == (1, "")
        assert "argument --k: expected an integer, got 'abc'" in err

    def test_han_m_max_floor(self, monkeypatch):
        monkeypatch.setattr(oracle, "verify_han_exhaustive", lambda *a: pytest.fail("scanned"))
        code, out, err = run_cli("verify", "--suite", "han", "--m-max", "1")
        assert (code, out) == (1, "")
        assert "the han suite needs --m-max >= 2, got 1" in err

    @pytest.mark.parametrize("surface", ["hyp:3", "k3:3"])
    def test_surface_outside_its_domain_stays_a_domain_error(self, surface):
        code, out, _ = run_cli("bounds", "--surface", surface, "--r", "3")
        assert (code, out) == (2, "")


class TestP2Table:
    def test_values_and_statuses(self):
        code, out, _ = run_cli("p2-table", "--format", "json")
        assert code == 0
        (rec,) = json_records(out)
        by_name = {e["name"]: e for e in rec["entries"]}
        assert by_name["r=2"]["exact"] == "1/2"
        assert by_name["r=8"]["exact"] == "6/17"
        assert by_name["r=9"]["exact"] == "1/3"
        assert by_name["r=9"]["flags"] == ["proved-square"]
        assert any("misprint" in n for n in rec["notes"])

    @pytest.mark.parametrize("r_max", ["-1"])
    def test_empty_table_is_usage_error(self, r_max):
        code, out, err = run_cli("p2-table", "--r-max", r_max)
        assert (code, out) == (1, "")
        assert "--r-max: must be >= 1" in err


class TestParser:
    """A run builds the subparser its argv names, and no other; without
    one (--help, none, or an unknown name) it builds all six."""

    ALL = "{bounds,pell,search,verify,threshold,p2-table}"
    BUILT = [
        *[([sub, "--help"], "{" + sub + "}") for sub in ALL.strip("{}").split(",")],
        (["pell", "--k", "35", "--format", "json"], "{pell}"),
        (["--help"], ALL),
        ([], ALL),
        (["nope"], ALL),
        (["--format", "json", "pell"], ALL),
    ]

    @pytest.mark.parametrize("argv,built", BUILT, ids=[" ".join(argv) or "no-args" for argv, _ in BUILT])
    def test_only_the_named_subparser_is_built(self, monkeypatch, argv, built):
        monkeypatch.setenv("COLUMNS", "100")
        assert cli._build_parser(argv).format_usage() == f"usage: seshadri [-h] {built} ...\n"


class TestFormatsAndDeterminism:
    def test_output_ignores_the_environment(self, monkeypatch):
        # argv alone decides the format
        monkeypatch.delenv("SESHADRI_FORMAT", raising=False)
        expected = run_cli("pell", "--k", "2")
        assert expected[1].startswith("pell k=2\n")
        monkeypatch.setenv("SESHADRI_FORMAT", "json")
        assert run_cli("pell", "--k", "2") == expected

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_byte_identical_reruns(self, fmt):
        args = ("bounds", "--k", "35", "--r", "101", "--surface", "custom:35,va",
                "--format", fmt)
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_text_is_same_record_as_json(self):
        # every exact value in the JSON record appears in the text rendering
        _, text_out, _ = run_cli("bounds", "--k", "35", "--r", "101")
        _, json_out, _ = run_cli("bounds", "--k", "35", "--r", "101", "--format", "json")
        (rec,) = json_records(json_out)
        for e in rec["entries"]:
            assert e["exact"] in text_out
        for n in rec["notes"]:
            assert n in text_out

    def test_closed_stdout_pipe_exits_141_quietly(self):
        # The table is about 150 KB, more than a pipe buffer holds, so the
        # writer is still writing when the reader closes the pipe.  The
        # with block reaps the child before any assertion can fail.
        with subprocess.Popen(
            [sys.executable, "-m", "seshadri", "p2-table", "--r-max", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first == b"p2-table r_max=3000\n"
        assert (proc.returncode, err) == (141, b"")


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
        code, out, _ = run_cli(*argv, *digits, "--format", "json")
        assert code == 0
        entries = [e for rec in json_records(out) for e in rec["entries"]]
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
            code, out, _ = run_cli(*argv, "--format", "json")
            (rec,) = json_records(out)
            assert code == 0
            notes[argv[0]] = rec["notes"]
        assert f"k = {k} = {form}: bound is a proven case" in notes["pell"]
        assert f"biran-product: single-point bound proven: k = {k} = {form}" in notes["bounds"]
