"""Golden CLI tests: stdout, stderr and exit code, byte for byte.

Each case runs `cli.main` in-process once per output format and compares
the captured transcript with `tests/golden/<case>.<format>`.  After an
intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

import seshadri.cli as cli

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
    "bounds-all-digits": "bounds --k 150 --r 10 --all-digits",
    "bounds-grid": "bounds --k 1,2 --r 3,4",
    "bounds-digits-2": "bounds --k 150 --r 10 --digits 2",
    "bounds-digits-6": "bounds --k 35 --r 101 --very-ample --digits 6",
    "pell-proven": "pell --k 35",
    "pell-conjectural": "pell --k 61",
    "search": "search --k 1 --r 5 --d-max 3",
    "verify-theorem": "verify --suite theorem --k-max 8 --r-max 6 --d-max 3 --m-max 6",
    "verify-han": "verify --suite han --s-max 5 --m-max 6",
    "verify-k3": "verify --suite k3 --k-max 10 --r-max 6 --d-max 3",
    "threshold-global": "threshold --r 10 --k-cap 10000",
    "threshold-window": "threshold --r 10 --k-cap 6000",
    "threshold-none": "threshold --r 10 --k-cap 100",
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
}


def transcript(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n-- stderr\n{err.getvalue()}-- stdout\n{out.getvalue()}"


def golden_runs():
    for name, command in CASES.items():
        for fmt in FORMATS:
            yield name, fmt, command.split() + ["--format", fmt]


@pytest.mark.parametrize(
    "name,fmt,argv", list(golden_runs()), ids=[f"{n}.{f}" for n, f, _ in golden_runs()]
)
def test_golden(name, fmt, argv, monkeypatch):
    monkeypatch.delenv("SESHADRI_FORMAT", raising=False)
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert transcript(argv).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt, argv in golden_runs():
        (GOLDEN / f"{name}.{fmt}").write_bytes(transcript(argv).encode())
