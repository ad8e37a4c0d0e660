"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Every assertion is exact (string equality on truncated
decimals, integer/rational comparison otherwise); there are no float
tolerances anywhere.
"""

import contextlib
import functools
import io
import json
from fractions import Fraction

from oracles import is_proper_power_of_smaller_solution, pell_brute_force

import seshadri.cli as cli
from seshadri.bounds import (
    compare_bounds,
    dominance_scan,
    enumerate_exceptional_candidates,
    generic_lower_value,
    harbourne_bound,
    main_lower_bound,
    szemberg_floor_bound,
    upper_bound,
)
from seshadri.exact import Surd, isqrt, render_decimal
from seshadri.oracle import k3_h0, verify_han_exhaustive, verify_k3, verify_theorem
from seshadri.pell import pell_fundamental, szemberg_single_point_bound
from seshadri.plane import nagata_plane_value
from seshadri.walk import CaseLabel


def cli_notes(*argv):
    """The notes of the one JSON record the CLI prints for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())["notes"]


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL  {summary}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS  {summary}")

        return wrapper

    return decorate


@criterion(1, "floor-bound comparison table at r=10 (k=150, 1050, 2500)")
def test_criterion_1_floor_comparison_table():
    for k, rendered, floor in [(150, "3.72", 3), (1050, "9.84", 10), (2500, "15.19", 15)]:
        main = main_lower_bound(k, 10)
        assert render_decimal(main.bound.value, 2) == rendered
        assert szemberg_floor_bound(k, 10) == floor


@criterion(2, "very-ample comparison at r=10 (k=6, 7)")
def test_criterion_2_very_ample_comparison():
    for k, rendered, harb in [(6, "0.744", Fraction(3, 4)), (7, "0.803", Fraction(4, 5))]:
        main = main_lower_bound(k, 10)
        assert render_decimal(main.bound.value, 3) == rendered
        res = harbourne_bound(k, 10)
        assert res.bound.value == harb


@criterion(3, "full comparison at (k, r) = (35, 101), Pell and product bounds")
def test_criterion_3_k35_r101():
    main = main_lower_bound(35, 101)
    assert render_decimal(main.bound.value, 4) == "0.5858"
    assert render_decimal(upper_bound(35, 101).value, 4) == "0.5886"

    product = Surd(Fraction(35, 6)) * Surd.sqrt(Fraction(1, 101))
    assert render_decimal(product, 4) == "0.5804"

    sol = pell_fundamental(35)
    assert (sol.p0, sol.q0) == (1, 6)
    assert szemberg_single_point_bound(35) == Fraction(35, 6)

    harb = harbourne_bound(35, 101)
    assert harb.bound.value == Fraction(59, 101)
    assert Fraction(35, 60) in {e.value for e in harb.elements}

    # the assembled report carries both values, and the CLI writes the
    # discrepancy note from them
    report = compare_bounds(35, 101, very_ample=True)
    harb_entry = next(e for e in report.entries if e.name == "harbourne")
    assert {(59, 101), (35, 60)} <= {(e.num, e.den) for e in harb_entry.detail.elements}
    notes = cli_notes("bounds", "--k", "35", "--r", "101", "--very-ample")
    assert any(
        note.startswith("harbourne: ") and "35/60" in note and "59/101" in note and "smaller" in note
        for note in notes
    )


@criterion(4, "(r, k) = (2, 6) special value 3/2 with its attainment annotation")
def test_criterion_4_two_six_edge_case():
    res = main_lower_bound(6, 2)
    assert res.bound.value == Surd(Fraction(3, 2))
    assert res.bound.value < generic_lower_value(6, 2)
    assert not res.bound.conditional
    assert any("multiplicity two" in note for note in cli_notes("bounds", "--k", "6", "--r", "2"))


@criterion(5, "plane values for r <= 9 and the two exceptional candidates")
def test_criterion_5_plane_conformance():
    expected = {
        2: Fraction(1, 2),
        3: Fraction(1, 2),
        4: Fraction(1, 2),
        5: Fraction(2, 5),
        6: Fraction(2, 5),
        7: Fraction(3, 8),
        8: Fraction(6, 17),
        9: Fraction(1, 3),
    }
    for r, value in expected.items():
        res = nagata_plane_value(r)
        assert res.bound.value == value, (r, value)
    nine = nagata_plane_value(9)
    assert nine.status.value == "proved-square"
    assert any(  # misprint recorded
        note.startswith("r=9: ") and "3" in note for note in cli_notes("p2-table", "--r-max", "9")
    )

    assert [(c.d, c.s, c.value) for c in enumerate_exceptional_candidates(1, 2)] == [
        (1, 2, Fraction(1, 2))
    ]
    assert [(c.d, c.s, c.value) for c in enumerate_exceptional_candidates(1, 5)] == [
        (2, 5, Fraction(2, 5))
    ]


@criterion(6, "trichotomy scan: k <= 20, r <= 10, d <= 5, entries <= 8")
def test_criterion_6_theorem_verification():
    scan = verify_theorem(20, 10, d_max=5, m_max=8)
    assert scan.violations == ()
    # every sub-generic feasible configuration is unit-multiplicity or the
    # single (1, 6, (2, 2)) triple (which occurs sub-generically once, at r=2)
    assert scan.subgeneric_counts[CaseLabel.TWO_SIX] == 1
    assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] > 0


@criterion(7, "combinatorial inequality exhaustive: s <= 8, m1 <= 12")
def test_criterion_7_han_exhaustive():
    scan = verify_han_exhaustive(8, 12)
    assert scan.counterexamples == ()
    assert (2, 2, 2) in scan.equality_witnesses


@criterion(8, "K3 suite: section counts and case-2 exclusion")
def test_criterion_8_k3_suite():
    assert k3_h0(1, 2) == 3
    assert k3_h0(1, 4) == 4
    assert k3_h0(3, 2) == 11
    assert verify_k3(20, 10, 5).failures == ()


@criterion(9, "dominance threshold at r=10 equals 6250, vs naive scan oracle")
def test_criterion_9_dominance_threshold():
    # The informal figure quoted for this threshold is about 5000; the
    # exact scan puts the last failure at 6249, so dominance starts at 6250.
    assert dominance_scan(10, 10000).threshold == 6250

    failures = [
        k
        for k in range(1, 10001)
        if Fraction(isqrt(k // 10)) ** 2 < Fraction(12 * k, 13 * 10)
    ]
    assert failures[-1] == 6249
    assert dominance_scan(10, 10000).threshold == failures[-1] + 1


@criterion(10, "global sanity: bounds below optimal, Pell identity and minimality")
def test_criterion_10_global_sanity():
    for k in range(1, 201):
        for r in range(2, 51):
            upper = upper_bound(k, r).value
            assert generic_lower_value(k, r) <= upper
            assert Surd(Fraction(szemberg_floor_bound(k, r))) <= upper
            harb = harbourne_bound(k, r)
            if harb.bound.attained:
                assert harb.bound.value <= upper
            for e in harb.elements:
                assert Surd(e.value) <= upper

    for k in range(2, 201):
        if isqrt(k) ** 2 == k:
            continue
        sol = pell_fundamental(k)
        assert sol.q0**2 - k * sol.p0**2 == 1
        assert not is_proper_power_of_smaller_solution(sol)
        if sol.q0 <= 10**5:
            assert pell_brute_force(k, sol.q0) == (sol.p0, sol.q0)
        assert Surd(szemberg_single_point_bound(k)) < Surd.sqrt(k)
