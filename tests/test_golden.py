"""Golden CLI tests: stdout, stderr and exit code, byte for byte.

Each case runs `cli.main` in-process once per output format and compares
the captured transcript with its `golden_file`: `tests/golden/<case>.txt`
if the case prints the same in all three formats, else `<case>.<format>`.
After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  It writes a case's `.txt` exactly when its three
transcripts agree, and deletes the form it did not write.
"""

import os
from pathlib import Path

import pytest
from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json", "csv")

CASES = {
    "bounds-candidates": "bounds --k 1 --r 5",
    "bounds-two-six": "bounds --k 6 --r 2",
    "bounds-harbourne-floor-ceil": "bounds --k 6 --r 10 --very-ample",
    "bounds-harbourne-exceptional": "bounds --k 2 --r 8 --very-ample",
    "bounds-product-n2-minus-1": "bounds --k 35 --r 101 --very-ample",
    "bounds-product-n2-plus-1": "bounds --k 10 --r 12",
    "bounds-product-conjectural": "bounds --k 7 --r 20",
    "bounds-product-plane-nine": "bounds --k 35 --r 9",
    "bounds-square-k": "bounds --k 4 --r 10",
    "bounds-surface-p2": "bounds --surface p2 --r 9",
    "bounds-surface-k3": "bounds --surface k3:2 --r 5",
    "bounds-surface-ab": "bounds --surface ab:3 --r 4",
    "bounds-surface-custom": "bounds --surface custom:35,va --r 101",
    "bounds-surface-hyp": "bounds --surface hyp:5 --r 4",
    "bounds-surface-k3-va": "bounds --surface k3:4 --r 3",
    "bounds-all-digits": "bounds --k 150 --r 10 --all-digits",
    "bounds-grid": "bounds --k 1,2 --r 3,4",
    "bounds-digits-2": "bounds --k 150 --r 10 --digits 2",
    "bounds-digits-6": "bounds --k 35 --r 101 --very-ample --digits 6",
    "bounds-two-prime-radicand": "bounds --k 1008017 --r 1007999",
    # a Pell solution of about 4,500 digits, past the int-to-str digit limit
    "bounds-product-past-digit-limit": "bounds --k 129813574 --r 150",
    "pell-proven": "pell --k 35",
    "pell-conjectural": "pell --k 61",
    # odd period; q0 has about 2,585 digits
    "pell-odd-period-large": "pell --k 319009066",
    "search": "search --k 1 --r 5 --d-max 3",
    "search-wide": "search --k 200 --r 20 --d-max 4",
    "search-verify-box": "search --k 20 --r 10 --d-max 4 --m-max 6",
    "verify-theorem": "verify --suite theorem --k-max 8 --r-max 6 --d-max 3 --m-max 6",
    "verify-theorem-acceptance": "verify --suite theorem --k-max 20 --r-max 10 --d-max 5 --m-max 8",
    "verify-theorem-wide": "verify --suite theorem --k-max 50 --r-max 60 --d-max 3 --m-max 24",
    "verify-han": "verify --suite han --s-max 5 --m-max 6",
    "verify-han-wide": "verify --suite han --s-max 10 --m-max 14",
    "verify-han-widest": "verify --suite han --s-max 12 --m-max 20",
    "verify-han-s40-m60": "verify --suite han --s-max 40 --m-max 60",
    "verify-k3": "verify --suite k3 --k-max 10 --r-max 6 --d-max 3",
    "verify-k3-readme": "verify --suite k3 --k-max 20 --r-max 10 --d-max 5",
    "verify-k3-k100-r100": "verify --suite k3 --k-max 100 --r-max 100 --d-max 5",
    "verify-k3-k1000-r1000": "verify --suite k3 --k-max 1000 --r-max 1000 --d-max 10",
    "threshold-global": "threshold --r 10 --k-cap 10000",
    "threshold-window": "threshold --r 10 --k-cap 6000",
    "threshold-none": "threshold --r 10 --k-cap 100",
    "threshold-large-r": "threshold --r 200000 --k-cap 1000000000000",
    "p2-table": "p2-table --r-max 12",
    "usage-error": "bounds --r 2",
    "domain-error": "pell --k 9",
    "usage-digits-zero": "bounds --k 5 --r 4 --digits 0",
    "usage-k3-empty": "verify --suite k3 --k-max 1 --r-max 2",
    "usage-p2-table-empty": "p2-table --r-max 0",
    "p2-table-one-row": "p2-table --r-max 1",
    "usage-search-r1": "search --k 1 --r 1 --d-max 1",
    "usage-bounds-r1": "bounds --k 5 --r 4,1",
    "usage-bounds-k0": "bounds --k 0 --r 4",
    "usage-threshold-r1": "threshold --r 1 --k-cap 10",
    "usage-verify-r-max1": "verify --suite theorem --r-max 1",
    "usage-search-k-negative": "search --k -5 --r 3 --d-max 1",
    "usage-threshold-k-cap0": "threshold --r 10 --k-cap 0",
    "usage-verify-k-max0": "verify --suite theorem --k-max 0",
    "usage-verify-han-s-max1": "verify --suite han --s-max 1",
    "usage-verify-han-m-max1": "verify --suite han --m-max 1",
    "usage-search-m-max0": "search --k 1 --r 3 --d-max 1 --m-max 0",
    "usage-pell-k1": "pell --k 1",
    "usage-surface-zero": "bounds --surface custom:0 --r 3",
    "usage-surface-very-ample": "bounds --surface custom:35 --very-ample --r 101",
    "usage-surface-empty": "bounds --k 3 --r 2 --surface=",  # --surface '' as one word
}


# Argv that argparse answers before any subcommand runs: the help of the
# program and of each subcommand, and a missing or unknown subcommand.
# Help is wrapped at the terminal width, so the width is fixed; at 100
# columns Python 3.11, 3.12 and 3.13 wrap it alike.
PARSER_CASES = {
    "help": "--help",
    **{f"help-{sub}": f"{sub} --help" for sub in ("bounds", "pell", "search", "verify", "threshold", "p2-table")},
    "usage-no-subcommand": "",
    "usage-unknown-subcommand": "nope",
}
PARSER_COLUMNS = "100"


def transcript(code: int, out: str, err: str) -> str:
    """The golden file's layout: the exit code, then stderr, then stdout."""
    return f"exit {code}\n-- stderr\n{err}-- stdout\n{out}"


def golden_file(name: str, fmt: str) -> Path:
    """The file that pins case `name` in format `fmt`: its `.txt` if it has one."""
    shared = GOLDEN / f"{name}.txt"
    return shared if shared.exists() else GOLDEN / f"{name}.{fmt}"


def case_argv(name: str, fmt: str) -> list[str]:
    return CASES[name].split() + ["--format", fmt]


RUNS = [(name, fmt) for name in CASES for fmt in FORMATS]


@pytest.mark.parametrize("name,fmt", RUNS, ids=[f"{n}.{f}" for n, f in RUNS])
def test_golden(name, fmt):
    assert transcript(*run_cli(*case_argv(name, fmt))).encode() == golden_file(name, fmt).read_bytes()


@pytest.mark.parametrize("name", PARSER_CASES)
def test_parser_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", PARSER_COLUMNS)
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert transcript(*run_cli(*PARSER_CASES[name].split())).encode() == expected


def misfiled(files, cases, parser_cases) -> list[str]:
    """The names in a golden directory of `files` that break the layout,
    sorted: a case that is also a parser case, and a name whose files are
    not one form of its case (a parser case has only .txt; a stray none)."""
    suffixes: dict[str, set[str]] = {}
    for file in files:
        stem, _, suffix = file.rpartition(".")
        suffixes.setdefault(stem, set()).add(suffix)
    problems = [f"{name}: case and parser case" for name in cases.keys() & parser_cases.keys()]
    for name in suffixes.keys() | cases.keys() | parser_cases.keys():
        found = suffixes.get(name, set())
        forms = [{"txt"}] if name in parser_cases else [{"txt"}, set(FORMATS)] if name in cases else []
        if found not in forms:
            problems.append(f"{name}: {' '.join(sorted(found)) or 'no file'}")
    return sorted(problems)


def test_each_golden_file_is_read_by_one_case_in_one_form():
    assert misfiled([p.name for p in GOLDEN.iterdir()], CASES, PARSER_CASES) == []


def test_a_planted_misfiled_golden_file_is_reported():
    cases = {"one": "", "three": "", "missing": "", "twice": ""}
    parser_cases = {"help": "", "twice": ""}
    # a stale format file beside a .txt, and a file that no case reads
    files = ["one.txt", "one.json", "three.text", "three.json", "three.csv", "help.txt", "twice.txt", "stray.text"]
    assert misfiled(files, cases, parser_cases) == [
        "missing: no file",
        "one: json txt",
        "stray: text",
        "twice: case and parser case",
    ]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        runs = {fmt: transcript(*run_cli(*case_argv(name, fmt))).encode() for fmt in FORMATS}
        written = {"txt": runs["text"]} if len(set(runs.values())) == 1 else runs
        for suffix in ("txt", *FORMATS):
            (GOLDEN / f"{name}.{suffix}").unlink(missing_ok=True)
        for suffix, data in written.items():
            (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    os.environ["COLUMNS"] = PARSER_COLUMNS
    for name, command in PARSER_CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(transcript(*run_cli(*command.split())).encode())
