"""Self-test of the benchmark's result checks.

Run from the repository root with `python -m pytest perfbench`.  Each
case runs one real operation, corrupts one field of its result, and
shows that the benchmark records the operation as a failure instead of
a completion; the untouched result must pass.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _drop_candidates(report):
    entries = tuple(
        dataclasses.replace(e, candidates=e.candidates[1:]) if e.name == "main" else e
        for e in report.entries
    )
    return dataclasses.replace(report, entries=entries)


def _skew_feasible(scan):
    return dataclasses.replace(scan, feasible_vectors=scan.feasible_vectors - 1)


def _bump_decimal(result):
    code, stdout = result
    return code, stdout.replace('"decimal":"0.5858"', '"decimal":"0.5859"')


CASES = {
    "compare": (("compare", (1, 50, True)), _drop_candidates),
    "dominance": (("dominance", (10, 10**4)), lambda s: dataclasses.replace(s, threshold=6249)),
    "theorem": (("theorem", ((1, 8, 8, 3, 6),)), _skew_feasible),
    "han": (("han", (6, 8)), lambda s: dataclasses.replace(s, applicable_checked=s.applicable_checked + 1)),
    "search": (("search", (8, 5, 4, 7)), lambda s: s._replace(witnesses=s.witnesses[:-1])),
    "cli": (
        ("cli", {"sub": "bounds", "format": "json", "k": 35, "r": 101,
                 "argv": ["bounds", "--k", "35", "--r", "101", "--very-ample", "--format", "json"]}),
        _bump_decimal,
    ),
}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _workload(kind, corrupt):
    base = workloads.Cli if kind == "cli" else workloads.Workload

    class Corrupting(base):
        def execute(self, lib, op):
            result = super().execute(lib, op)
            return corrupt(result) if corrupt else result

    work = Corrupting(run.ROOT) if kind == "cli" else Corrupting()
    work.in_process = True  # the cli case runs cli.main in this process
    return work


@pytest.mark.parametrize("kind", sorted(CASES))
def test_wrong_result_is_recorded_as_failure(lib, kind):
    op, corrupt = CASES[kind]

    good = run.Pass()
    run.run_op(_workload(kind, None), lib, op, good)
    assert (good.completed, good.failed, good.errors) == (1, 0, [])

    bad = run.Pass()
    run.run_op(_workload(kind, corrupt), lib, op, bad)
    assert (bad.completed, bad.failed) == (0, 1)
    assert len(bad.errors) == 1 and "wrong result" in bad.errors[0]


def test_pell_tables_sit_on_either_side_of_the_digit_limit():
    limit = sys.int_info.default_max_str_digits
    assert workloads.PELL_DIGITS[1] < limit < workloads.OVERFLOW_DIGITS[0]
    for ks, (lo, hi) in ((workloads.PELL_K, workloads.PELL_DIGITS), (workloads.OVERFLOW_K, workloads.OVERFLOW_DIGITS)):
        assert len(set(ks)) == len(ks)
        for k in ks:
            assert lo <= workloads.pell_digits(k) <= hi, k
    # a pool takes three Pell queries and one overflowing one per round, none twice
    assert len(workloads.PELL_K) >= 3 * workloads.BoundsWide.pool_rounds
    assert len(workloads.OVERFLOW_K) >= workloads.BoundsWide.pool_rounds
