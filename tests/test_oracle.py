"""Oracle module tests: feasibility checks, classification, searches."""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import seshadri.inequalities as inequalities
import seshadri.oracle as oracle
import seshadri.walk as walk
from oracles import (
    K3_SECTION_COUNTS,
    count_feasible_by_length,
    el_xu_tally,
    el_xu_vectors,
    han_group_loop,
    han_group_table,
    han_inequality,
    han_scan_walk,
    k3_excluded_by_rows,
    k3_failures_by_pair,
    min_ratio_walk,
    theorem_scan_floor_walk,
    theorem_scan_walk,
)
from seshadri.bounds import compare_bounds, enumerate_exceptional_candidates, main_lower_bound
from seshadri.inequalities import han_applies, han_floor, han_margin
from seshadri.oracle import k3_h0, verify_han_exhaustive, verify_k3, verify_theorem
from seshadri.walk import (
    CaseLabel,
    TheoremViolation,
    check_el_xu,
    classify_case,
    feasible_multiplicities,
    min_ratio_search,
    validate_multiplicities,
)


def split_margin(s, total, sum_sq, last):
    """A fake Han margin, strictly increasing in sum_sq, that puts vectors
    of one group (s, m_s, sum) on both sides of 0."""
    return sum_sq - total * total // s - (total * 7 + last + s) % 5


def no_floor(s, total, last):
    """A Han floor that clears no group, patched in next to a fake margin:
    a fake margin has no Cauchy-Schwarz floor, so the scan must visit
    every group (s, m_s, sum), as the group loop does."""
    return 0


def naive_feasible(d, k, max_points, m_max):
    """Order-reversed independent re-enumeration: descending d-free scan
    over all nonincreasing tuples via combinations_with_replacement."""
    out = set()
    budget = d * d * k
    for s in range(max_points, 0, -1):
        for combo in itertools.combinations_with_replacement(
            range(m_max, 0, -1), s
        ):
            m = tuple(sorted(combo, reverse=True))
            if sum(e * e for e in m) - m[-1] <= budget:
                out.add(m)
    return out


class TestValidate:
    def test_accepts_list_input(self):
        assert validate_multiplicities([3, 2, 2]) == (3, 2, 2)


class TestElXu:
    def test_boundary_case_2_6(self):
        # 1*6 >= 4 + 4 - 2, with equality
        assert check_el_xu(1, 6, (2, 2))

    def test_line_through_two_points(self):
        assert check_el_xu(1, 1, (1, 1))

    def test_infeasible_double_point_on_line(self):
        assert not check_el_xu(1, 1, (2, 1))  # 1 < 4 + 1 - 1


class TestHanInequality:
    def test_excluded_pair(self):
        applicable, margin = han_inequality((2, 2))
        assert not applicable
        assert margin < 0  # 10*6/4 = 15 < 16: the reason it is excluded

    def test_3_2(self):
        applicable, margin = han_inequality((3, 2))
        assert applicable and margin >= 0  # 55/2 >= 25

    def test_equality_at_2_2_2(self):
        # exact equality: (18/5)*10 = 36 = 6^2
        assert han_inequality((2, 2, 2)) == (True, 0)
        assert 6 * 3 * (12 - 2) == 5 * 36

    def test_unit_vector_inapplicable(self):
        assert not han_inequality((1, 1, 1))[0]

    def test_single_point_inapplicable(self):
        assert not han_inequality((5,))[0]

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    def test_margin_identity(self, entries):
        # margin = (s+2)*sum_{i<j} (m_i - m_j)^2 + s*(sum(m_i^2) - (s+3)*m_s)
        m = tuple(sorted(entries, reverse=True))
        s, sum_sq = len(m), sum(e * e for e in m)
        spread = sum((a - b) ** 2 for a, b in itertools.combinations(m, 2))
        expected = (s + 2) * spread + s * (sum_sq - (s + 3) * m[-1])
        assert han_margin(s, sum(m), sum_sq, m[-1]) == expected
        assert han_inequality(m)[1] == expected

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_applies_by_the_vector_rule(self, entries):
        m = tuple(sorted(entries, reverse=True))
        s = len(m)
        expected = m[0] >= 2 and (s >= 3 or (s == 2 and m != (2, 2)))
        assert han_applies(s, sum(m), sum(e * e for e in m)) == expected
        assert han_inequality(m)[0] == expected


class TestClassify:
    def test_two_six(self):
        assert classify_case(1, 6, 2, (2, 2)) is CaseLabel.TWO_SIX

    def test_unit_multiplicity(self):
        assert classify_case(1, 1, 2, (1, 1)) is CaseLabel.UNIT_MULTIPLICITY

    def test_generic(self):
        # 10 >= (6/28)*25 = 75/14
        assert classify_case(1, 10, 4, (2, 1, 1, 1)) is CaseLabel.GENERIC

    def test_infeasible(self):
        assert classify_case(1, 1, 2, (2, 1)) is CaseLabel.INFEASIBLE

    def test_exhaustive_small_box_never_raises(self):
        for k in range(1, 9):
            for d in range(1, 4):
                for m in feasible_multiplicities(d, k, 6, 6):
                    for r in range(max(2, len(m)), 7):
                        classify_case(d, k, r, m)

    def test_violation_carries_configuration(self):
        # Never raised by real inputs; the payload matters when it is.
        err = TheoremViolation(2, 3, 4, (2, 2))
        assert err.config == (2, 3, 4, (2, 2))
        assert "d=2" in str(err)


class TestEnumeration:
    @pytest.mark.parametrize("d,k,max_points,m_max", [
        (1, 6, 4, 5),
        (2, 3, 5, 4),
        (3, 20, 6, 8),
        (1, 1, 3, 3),
    ])
    def test_matches_naive_reenumeration(self, d, k, max_points, m_max):
        # each vector once, in Python's tuple order; so is the test oracle
        expected = sorted(naive_feasible(d, k, max_points, m_max))
        assert list(feasible_multiplicities(d, k, max_points, m_max)) == expected
        assert el_xu_vectors(d * d * k, max_points, m_max) == expected

    @pytest.mark.parametrize("max_points,m_max", [(0, 3), (3, 0), (-1, -1)])
    def test_empty_box_yields_nothing(self, max_points, m_max):
        assert list(feasible_multiplicities(2, 5, max_points, m_max)) == []

    def test_all_nonincreasing_and_feasible(self):
        for m in feasible_multiplicities(2, 5, 6, 7):
            assert all(m[i] >= m[i + 1] for i in range(len(m) - 1))
            assert check_el_xu(2, 5, m)


class TestMinRatioSearch:
    def test_conic_through_five_points(self):
        res = min_ratio_search(1, 5, 3, 5)
        assert res.minimum == Fraction(2, 5)
        assert res.witnesses == ((2, (1, 1, 1, 1, 1)),)

    def test_line_through_two_points(self):
        res = min_ratio_search(1, 2, 2, 5)
        assert res.minimum == Fraction(1, 2)
        assert res.witnesses == ((1, (1, 1)),)

    def test_two_six_double_points(self):
        res = min_ratio_search(6, 2, 2, 6)
        assert res.minimum == Fraction(3, 2)
        assert res.witnesses == ((1, (2, 2)),)

    def test_nine_points_cubic(self):
        res = min_ratio_search(1, 9, 5, 5)
        assert res.minimum == Fraction(1, 3)
        assert (3, (1,) * 9) in res.witnesses

    def test_empty_walk_raises(self, monkeypatch):
        monkeypatch.setattr(walk, "_walk", lambda *args, **kwargs: iter(()))
        with pytest.raises(RuntimeError):
            min_ratio_search(1, 5, 3, 5)

    def test_monotone_in_box_size(self):
        base = min_ratio_search(5, 4, 2, 4).minimum
        assert min_ratio_search(5, 4, 3, 4).minimum <= base
        assert min_ratio_search(5, 4, 2, 6).minimum <= base


class TestVerifyTheorem:
    def test_two_six_is_the_only_subgeneric_at_6_2(self):
        scan = verify_theorem(6, 2, d_max=5, m_max=8, k_min=6)
        assert scan.ok
        assert scan.subgeneric_counts[CaseLabel.TWO_SIX] == 1
        assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] == 0

    def test_k1_r5_subgeneric_all_unit(self):
        scan = verify_theorem(1, 5, d_max=3, m_max=5, k_min=1)
        assert scan.ok
        assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] > 0
        assert scan.subgeneric_counts[CaseLabel.TWO_SIX] == 0

    def test_matches_direct_classification_small_box(self):
        # Cross-check the scan against literal classify_case on every
        # configuration (including per-r iteration without early breaks).
        k_max, r_max, d_max, m_max = 8, 6, 3, 6
        expected = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
        for k in range(1, k_max + 1):
            for d in range(1, d_max + 1):
                for m in feasible_multiplicities(d, k, r_max, m_max):
                    for r in range(max(2, len(m)), r_max + 1):
                        label = classify_case(d, k, r, m)
                        total = sum(m)
                        subgeneric = d * d * k * r * (r + 3) < (r + 2) * total * total
                        if subgeneric:
                            assert label in (CaseLabel.UNIT_MULTIPLICITY, CaseLabel.TWO_SIX)
                            expected[label] += 1
        scan = verify_theorem(k_max, r_max, d_max=d_max, m_max=m_max)
        assert scan.ok
        assert scan.subgeneric_counts == expected

    def test_classify_and_scan_agree_on_subgeneric_configurations(self, monkeypatch):
        # With the (1, 6, (2, 2)) exception switched off, the sub-generic
        # configurations with m_1 >= 2 are exactly the ones classify_case
        # raises on and the ones verify_theorem reports, and both agree
        # with a Fraction comparison against the generic value.
        # classify_case reads the walk module's name, verify_theorem the
        # oracle's.
        monkeypatch.setattr(walk, "_is_two_six", lambda d, k, m: False)
        monkeypatch.setattr(oracle, "_is_two_six", lambda d, k, m: False)
        k_max, r_max, d_max, m_max = 8, 6, 3, 6
        raised, naive, unit = set(), set(), 0
        for k in range(1, k_max + 1):
            for d in range(1, d_max + 1):
                for m in feasible_multiplicities(d, k, r_max, m_max):
                    for r in range(max(2, len(m)), r_max + 1):
                        below = Fraction(d * k, sum(m)) ** 2 < Fraction((r + 2) * k, (r + 3) * r)
                        if below and m[0] == 1:
                            unit += 1
                        elif below:
                            naive.add((d, k, r, m))
                        try:
                            classify_case(d, k, r, m)
                        except TheoremViolation as err:
                            raised.add(err.config)
        scan = verify_theorem(k_max, r_max, d_max=d_max, m_max=m_max)
        assert naive == {(1, 6, 2, (2, 2))}
        assert raised == naive == set(scan.violations)
        assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] == unit


    @pytest.mark.parametrize(
        "box,unit",
        [((20, 10, 5, 8), 13), ((100, 100, 5, 30), 144), ((60, 40, 3, 4), 53), ((300, 300, 3, 10), 407)],
    )
    def test_unit_count_equals_the_exceptional_candidates(self, box, unit):
        # The unit-multiplicity hits of the theorem scan and the main
        # bound's exceptional candidates (d, s) are one set, which both
        # layers take from inequalities.subgeneric_unit_length:
        # s <= r, s - 1 <= d^2*k and d^2*k*r*(r+3) < (r+2)*s^2.
        k_max, r_max, d_max, m_max = box
        scan = verify_theorem(*box)
        candidates = sum(
            c.d <= d_max
            for k in range(1, k_max + 1)
            for r in range(2, r_max + 1)
            for c in enumerate_exceptional_candidates(k, r)
        )
        assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] == candidates == unit

    def test_patched_unit_decision_empties_both_layers(self, monkeypatch):
        # Both layers take the all-ones decision from
        # inequalities.subgeneric_unit_length, which reads the
        # inequalities module's is_subgeneric: with that name turned off,
        # the unit count and every candidate list are empty.
        grid = [(k, r) for k in range(1, 61) for r in range(2, 41)]

        def found():
            unit = verify_theorem(60, 40, 3, 4).subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY]
            lists = [enumerate_exceptional_candidates(k, r) for k, r in grid]
            lists += [main_lower_bound(k, r).candidates for k, r in grid]
            lists += [e.candidates for k, r in grid for e in compare_bounds(k, r).entries]
            return unit, sum(map(len, lists))

        assert found() == (53, 3 * 57)
        monkeypatch.setattr(inequalities, "is_subgeneric", lambda d2k, total, r: False)
        assert found() == (0, 0)


# (k_min, k_max, r_max, d_max, m_max); the first is the golden box
DIFFERENTIAL_BOXES = [
    (1, 8, 6, 3, 6),
    (3, 9, 7, 2, 7),
    (6, 6, 2, 5, 8),
    (1, 4, 9, 4, 5),
    (5, 12, 5, 3, 8),
    (2, 10, 10, 3, 6),
    (1, 1, 12, 6, 12),
    (1, 3, 14, 3, 10),
    (10, 14, 4, 4, 12),
    (1, 8, 6, 3, 2),  # m_max 2 walks the (2, 2) cell with every entry at the cap
    (1, 30, 6, 3, 6),  # k past r_max + 10, where the length floor leaves no cell
    (1, 12, 14, 2, 1),  # m_max 1 and 3: lengths below d^2*k // m_max - 1 are scanned
    (1, 12, 14, 2, 3),
    (1, 60, 4, 3, 3),  # k crosses r_max*m_max^2 / d^2 at each d: counted in closed form past it
]


class TestAgainstFullWalk:
    """The pruned scans against the full walks kept in tests/oracles.py."""

    @pytest.mark.parametrize("box", DIFFERENTIAL_BOXES)
    def test_verify_theorem(self, box):
        k_min, k_max, r_max, d_max, m_max = box
        assert verify_theorem(
            k_max, r_max, d_max, m_max, k_min=k_min
        ) == theorem_scan_walk(k_max, r_max, d_max, m_max, k_min=k_min)

    @pytest.mark.parametrize("box", DIFFERENTIAL_BOXES)
    def test_verify_theorem_finds_violations(self, box, monkeypatch):
        # With the (1, 6, (2, 2)) exception switched off, both report it as
        # a violation wherever the box holds it (it is sub-generic at r = 2
        # only), in the same order.
        monkeypatch.setattr(oracle, "_is_two_six", lambda d, k, m: False)
        k_min, k_max, r_max, d_max, m_max = box
        scan = verify_theorem(k_max, r_max, d_max, m_max, k_min=k_min)
        assert scan == theorem_scan_walk(
            k_max, r_max, d_max, m_max, k_min=k_min, is_exception=lambda d, k, m: False,
        )
        assert scan.ok == (not (k_min <= 6 <= k_max and m_max >= 2))

    def test_min_ratio_search(self):
        boxes = itertools.product((1, 2, 3, 5, 6, 9, 20), (1, 2, 3, 5, 9), (1, 3), (1, 3, 6))
        for k, r, d_max, m_max in [*boxes, (1, 4, 3, 4), (6, 2, 2, 6), (4, 3, 2, 5)]:
            assert min_ratio_search(k, r, d_max, m_max) == min_ratio_walk(k, r, d_max, m_max)

    @pytest.mark.parametrize(
        "k,r,d_max,m_max",
        [(50, 8, 3, 6), (30, 9, 2, 4), (200, 6, 2, 9), (12, 10, 4, 3),
         (1, 12, 2, 5), (2, 10, 1, 3), (3, 15, 2, 4), (1, 30, 3, 8)],
    )
    def test_min_ratio_search_where_the_cap_or_the_room_binds(self, k, r, d_max, m_max):
        # At every d, either m_max < sqrt(d^2*k), so the cap stops entries
        # that the room alone would allow, or d^2*k + 1 < r, so no feasible
        # vector has r entries and the room limits the length.
        ds = range(1, d_max + 1)
        assert all(m_max * m_max < d * d * k for d in ds) or all(d * d * k + 1 < r for d in ds)
        assert min_ratio_search(k, r, d_max, m_max) == min_ratio_walk(k, r, d_max, m_max)

    def test_subgeneric_entries_clear_the_cut(self):
        # The lemma behind theorem_scan_floor_walk: a feasible vector that
        # is sub-generic at some admissible r has every entry above
        # d^2*k // (r_max + 2).
        hits = 0
        for k in range(1, 13):
            for d in range(1, 4):
                d2k = d * d * k
                for r_max in range(2, 9):
                    for m in feasible_multiplicities(d, k, r_max, 8):
                        total = sum(m)
                        if any(
                            d2k * r * (r + 3) < (r + 2) * total * total
                            for r in range(max(2, len(m)), r_max + 1)
                        ):
                            hits += 1
                            assert min(m) >= d2k // (r_max + 2) + 1, (d, k, r_max, m)
        assert hits > 0

    def test_long_vectors_do_not_exhaust_the_stack(self):
        # budget 1000 with unit entries: vectors of every length up to 1001,
        # longer than the default recursion limit
        scan = verify_theorem(1000, 1100, 1, 1, k_min=1000)
        assert scan == theorem_scan_walk(1000, 1100, 1, 1, k_min=1000)
        assert scan.ok and scan.feasible_vectors == 1001
        assert scan.subgeneric_counts[CaseLabel.UNIT_MULTIPLICITY] == 1  # (1,)*1001 at r = 1001
        assert min_ratio_search(2000, 1200, 1, 1) == min_ratio_walk(2000, 1200, 1, 1)

    def test_subgeneric_lengths_clear_the_budget_floor(self):
        # The lemma behind verify_theorem's length floor: with EL-Xu's
        # s*m_s^2 - m_s <= d^2*k, m_s*(s + 2) > d^2*k gives
        # s*d^2*k < (s + 2)*(s + 3), hence s >= d^2*k - 10.  Sub-generic
        # at some r >= max(2, s) means sub-generic at max(2, s).
        margins = []
        for d in range(1, 4):
            for k in range(1, 60 // (d * d) + 1):
                d2k = d * d * k
                for m in feasible_multiplicities(d, k, 14, 9):
                    s, total = len(m), sum(m)
                    r = max(2, s)
                    if d2k * r * (r + 3) < (r + 2) * total * total:
                        assert s * d2k < (s + 2) * (s + 3), (d, k, m)
                        assert s >= d2k - 10, (d, k, m)
                        margins.append(s - (d2k - 10))
        assert (len(margins), min(margins)) == (18, 6)

    @pytest.mark.parametrize("need", [1, 9, 13, 14])
    def test_walk_need(self, need):
        # the vectors with sum >= need, with their sums, in tuple order
        expected = [(m, sum(m)) for m in sorted(naive_feasible(3, 4, 6, 7)) if sum(m) >= need]
        assert expected
        assert list(walk._walk(7, 6, 3 * 3 * 4, need=need)) == expected

    @given(
        st.integers(1, 7).flatmap(
            lambda cap: st.integers(1, 6).flatmap(
                lambda length: st.tuples(
                    st.just(cap),
                    st.just(length),
                    st.integers(0, length * cap * cap + 2),
                    st.integers(0, cap * length + 1),
                )
            )
        )
    )
    def test_walk_against_the_naive_enumeration(self, box):
        # Each frame starts at its free bound ceil((need - total)/n); the
        # walk still yields every vector that reaches need, in tuple order,
        # and nothing once need passes cap*length.
        cap, length, room, need = box
        expected = [(m, sum(m)) for m in sorted(naive_feasible(1, room, length, cap)) if sum(m) >= need]
        assert list(walk._walk(cap, length, room, need)) == expected
        if need > cap * length:
            assert expected == []

    @pytest.mark.parametrize("need", [2, 5, 6])
    def test_walk_descends_only_where_best_sum_reaches(self, need, monkeypatch):
        # Below a prefix still short of need, the walk descends only when
        # _best_sum's total reaches need.  Told that no subtree does, it
        # keeps exactly the vectors whose first entry alone reaches need.
        monkeypatch.setattr(walk, "_best_sum", lambda cap, length, room: 0)
        walked = [m for m, _ in walk._walk(7, 6, 3 * 3 * 4, need=need)]
        assert walked == sorted(m for m in naive_feasible(3, 4, 6, 7) if m[0] >= need)


class TestTheoremCertificate:
    """verify_theorem decides each cell (k, d, s) in closed form and walks
    only the cells whose largest sum is sub-generic."""

    @pytest.mark.parametrize(
        "box",
        [(k, k, 10, 5, 8) for k in range(1, 21)] + [(1, 50, 60, 3, 24), (1, 40, 40, 5, 20)],
    )
    def test_against_the_floor_walk(self, box):
        # the verify-box sub-boxes, the wide golden box and one more
        k_min, k_max, r_max, d_max, m_max = box
        assert verify_theorem(
            k_max, r_max, d_max, m_max, k_min=k_min
        ) == theorem_scan_floor_walk(k_max, r_max, d_max, m_max, k_min=k_min)

    @pytest.mark.parametrize(
        "box,found,walked", [((8, 6, 3, 6), 32, 68), ((12, 8, 4, 6), 52, 132), ((20, 10, 5, 8), 63, 216)]
    )
    def test_reports_violations_under_a_looser_test(self, box, found, walked, monkeypatch):
        # A looser sub-generic test makes many configurations with m_1 >= 2
        # fail.  The scan reports exactly the full walk's failures at the
        # lengths it decides, s*d^2*k < (s + 2)*(s + 3) (a test whose lemma
        # holds for the true sub-generic test only), in (k, d, m, r) order.
        def loose(d2k, total, r):
            return d2k * r * (r + 3) < (r + 2) * (total + 1) ** 2

        monkeypatch.setattr(oracle, "is_subgeneric", loose)
        scan = verify_theorem(*box)
        full = theorem_scan_walk(*box, is_subgeneric=loose).violations
        assert (len(scan.violations), len(full)) == (found, walked)
        assert set(scan.violations) <= set(full)
        decided = [v for v in full if len(v.m) * v.d * v.d * v.k < (len(v.m) + 2) * (len(v.m) + 3)]
        assert scan.violations and list(scan.violations) == decided
        assert list(scan.violations) == sorted(scan.violations, key=lambda v: (v.k, v.d, v.m, v.r))

    @pytest.mark.parametrize("box", [(20, 10, 5, 8), (50, 60, 3, 24)])
    def test_walks_only_the_two_six_cell(self, box, monkeypatch):
        # On the acceptance box and the wide golden box, the only cell whose
        # largest sum is sub-generic is (k, d, s) = (6, 1, 2): budget 6,
        # length 2.
        real_walk, calls = oracle._walk, []

        def recording_walk(cap, length, room, need=0):
            calls.append((length, room))
            return real_walk(cap, length, room, need=need)

        monkeypatch.setattr(oracle, "_walk", recording_walk)
        scan = verify_theorem(*box)
        assert scan.ok and scan.subgeneric_counts[CaseLabel.TWO_SIX] == 1
        assert calls == [(2, 6)]


class TestPrunedWork:
    """Work counts of the pruned walks: how many _best_sum calls they make,
    with their results checked against the full walks."""

    @staticmethod
    def recorded_best_sum(monkeypatch, *modules):
        """Record every _best_sum call made through the given modules'
        globals: the search and the walk read the walk module's name,
        verify_theorem the oracle's."""
        best_sum, calls = walk._best_sum, []

        def recording(cap, length, room):
            calls.append((cap, length, room))
            return best_sum(cap, length, room)

        for module in modules:
            monkeypatch.setattr(module, "_best_sum", recording)
        return calls

    def test_search_skips_subtrees_the_cap_cannot_fill(self, monkeypatch):
        # 4 calls pick the minimum's d; the walks below it make the rest,
        # each past the free bound reached + e*(length - 1) >= need.
        calls = self.recorded_best_sum(monkeypatch, walk)
        assert min_ratio_search(30, 10, 4, 6) == min_ratio_walk(30, 10, 4, 6)
        assert len(calls) == 21

    def test_theorem_decides_only_lengths_past_the_floor(self, monkeypatch):
        # One call per cell (k, d, s) that passes the lemma's exact test
        # s*d^2*k < (s + 2)*(s + 3), 107 of them, and one more from the walk
        # of the (6, 1, 2) cell.
        calls = self.recorded_best_sum(monkeypatch, oracle, walk)
        assert verify_theorem(20, 10, 5, 8) == theorem_scan_floor_walk(20, 10, 5, 8)
        assert len(calls) == 108
        assert all(s * budget < (s + 2) * (s + 3) for _, s, budget in calls)
        cells = [
            (8, s, d * d * k)
            for k in range(1, 21)
            for d in range(1, 6)
            for s in range(1, min(10, d * d * k + 1) + 1)
            if s * d * d * k < (s + 2) * (s + 3)
        ]
        assert len(cells) == 107
        assert Counter(calls) == Counter(cells + [(2, 1, 2)])

    @pytest.mark.parametrize("k", range(1, 61))
    def test_search_equals_the_full_walk(self, k):
        # The minimum's d are picked by cross-multiplying d/best; on this
        # box k = 20, 33 and 40 (among others) have witnesses at two or
        # three d.
        for d_max in range(3, 6):
            result = min_ratio_search(k, 10, d_max, 6)
            assert result == min_ratio_walk(k, 10, d_max, 6), d_max
            if k in (20, 33, 40):
                assert len({d for d, _ in result.witnesses}) >= 2, d_max


class TestBestSum:
    """_best_sum, the minimum search's closed form, against the memoized
    recursion in tests/oracles.py."""

    def test_agrees_with_the_memoized_recursion(self):
        memo = {}
        for cap in range(1, 13):
            for length in range(1, 14):
                for room in range(length * cap * cap + 6):
                    expected = el_xu_tally(cap, length, room, memo)[1]
                    assert walk._best_sum(cap, length, room) == expected, (cap, length, room)


class TestCountFeasible:
    """_count_feasible, the theorem scan's count, against the memoized
    recursion in tests/oracles.py and two closed forms."""

    def test_agrees_with_the_memoized_recursion(self):
        memo = {}
        for cap in range(1, 10):
            for length in range(1, 12):
                rooms = range(length * cap * cap + 5)
                expected = [el_xu_tally(cap, length, room, memo)[0] for room in rooms]
                assert oracle._count_feasible(cap, length, rooms) == expected, (cap, length)
                # alone, each room is the largest budget, so its slot is the top one
                for room in rooms:
                    assert oracle._count_feasible(cap, length, [room]) == [expected[room]], (cap, length, room)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_verify_box_sub_boxes_against_the_predecessor(self, k):
        budgets = [d * d * k for d in range(1, 6)]
        assert oracle._count_feasible(8, 10, budgets) == count_feasible_by_length(8, 10, budgets)

    @pytest.mark.parametrize("cap,length,k_max,d_max", [(30, 100, 100, 5), (10, 300, 300, 3)])
    def test_wide_boxes_against_the_predecessor(self, cap, length, k_max, d_max):
        # the budgets of verify_theorem(k_max, length, d_max, cap)
        budgets = [d * d * k for k in range(1, k_max + 1) for d in range(1, d_max + 1)]
        assert oracle._count_feasible(cap, length, budgets) == count_feasible_by_length(cap, length, budgets)

    def test_random_boxes_against_the_predecessor(self):
        # Seeded boxes whose budgets repeat and pass top = length*cap^2;
        # the predecessor is itself checked against the recursion.
        rng, memo = random.Random(2205), {}
        for _ in range(200):
            cap, length = rng.randint(1, 12), rng.randint(1, 14)
            top = length * cap * cap
            budgets = [rng.randint(0, top) for _ in range(rng.randint(1, 6))]
            budgets += rng.choices(budgets, k=2) + [top + rng.randint(0, 40)]
            rng.shuffle(budgets)
            expected = count_feasible_by_length(cap, length, budgets)
            assert oracle._count_feasible(cap, length, budgets) == expected, (cap, length, budgets)
            assert expected == [el_xu_tally(cap, length, b, memo)[0] for b in budgets]

    def test_the_recursion_counts_the_vectors(self):
        memo = {}
        for cap, length, room in itertools.product((1, 3, 5), (1, 4, 6), (0, 3, 10, 40)):
            vectors = el_xu_vectors(room, length, cap)
            best = max(map(sum, vectors), default=0)
            assert el_xu_tally(cap, length, room, memo) == (len(vectors), best)

    @pytest.mark.parametrize("k_min,k_max,r_max,d_max", [(1, 9, 2, 3), (3, 40, 30, 2), (50, 60, 400, 4)])
    def test_unit_entries(self, k_min, k_max, r_max, d_max):
        # with m_max = 1 the vectors are (1,)*s, and s - 1 <= d^2*k
        scan = verify_theorem(k_max, r_max, d_max, 1, k_min=k_min)
        assert scan.feasible_vectors == sum(
            min(r_max, d * d * k + 1) for k in range(k_min, k_max + 1) for d in range(1, d_max + 1)
        )

    @pytest.mark.parametrize("r_max,m_max", [(2, 2), (5, 3), (10, 8), (7, 12), (30, 4)])
    def test_budgets_past_the_box(self, r_max, m_max):
        # sum(m_i^2) - m_s is at most r_max*m_max^2 - m_max, so every budget
        # from there on admits every nonincreasing vector of the box:
        # comb(r_max + m_max, m_max) - 1 of them, which fills the count's
        # widest slot.  No length reaches the scan's first one.
        whole = math.comb(r_max + m_max, m_max) - 1
        k_min = r_max * m_max * m_max
        budgets = [k_min - m_max, k_min, k_min + 1, 4 * k_min]
        assert oracle._count_feasible(m_max, r_max, budgets) == [whole] * 4
        scan = verify_theorem(k_min + 4, r_max, 3, m_max, k_min=k_min)
        assert scan.feasible_vectors == 5 * 3 * whole
        assert scan.subgeneric_counts == {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}

    def test_a_long_k_range_counts_only_the_budgets_below_the_cut(self, monkeypatch):
        # The budgets go to _count_feasible only below the cut 10*8^2 = 640,
        # ceil(640/d^2) - 1 per d, however many k the box has.  The count is
        # the one _count_feasible gives over all 5*10^6 budgets of the box.
        count = oracle._count_feasible
        passed = []

        def recording(cap, length, budgets):
            passed.append(len(budgets))
            return count(cap, length, budgets)

        monkeypatch.setattr(oracle, "_count_feasible", recording)
        start = time.perf_counter()
        scan = verify_theorem(10**6, 10, 5, 8)
        assert time.perf_counter() - start < 0.5
        assert scan.feasible_vectors == 218_770_735_369
        assert passed == [639 + 159 + 71 + 39 + 25]

    def test_a_huge_cap_skips_the_entries_past_the_top(self):
        # The count starts at the largest entry that fits under the top
        # budget, not at cap, so its cost does not grow with cap.
        budgets, memo = [0, 5, 20, 30], {}
        start = time.perf_counter()
        counts = oracle._count_feasible(10**7, 3, budgets)
        assert time.perf_counter() - start < 0.25
        assert counts == [el_xu_tally(10**7, 3, budget, memo)[0] for budget in budgets]

    @pytest.mark.parametrize("j", range(2, 7))
    def test_modulus_at_its_largest_residue(self, j):
        # cap = 1 and length = 2^j - 2: the box holds (1,)*s for s <= length,
        # length = 2^width - 2 vectors, the largest residue the modulus
        # 2^width - 1 can return.  Budgets past top and repeated.
        length = 2**j - 2
        assert math.comb(length + 1, 1).bit_length() == j
        budgets = [0, length - 2, length - 1, length - 1, length, 5 * length, 0]
        memo = {}
        expected = [el_xu_tally(1, length, budget, memo)[0] for budget in budgets]
        assert expected == [min(length, budget + 1) for budget in budgets]
        assert oracle._count_feasible(1, length, budgets) == expected
        assert oracle._count_feasible(1, length, [length - 1]) == [2**j - 2]

    def test_repeated_budgets_each_count(self):
        # With k_min > 1, d^2*k still repeats across (k, d): 8 at (8, 1) and
        # (2, 2), 36 at (9, 2) and (4, 3).  Each (k, d) counts on its own.
        k_min, k_max, r_max, d_max, m_max = 2, 9, 7, 3, 6
        budgets = [d * d * k for k in range(k_min, k_max + 1) for d in range(1, d_max + 1)]
        assert len(set(budgets)) < len(budgets)
        memo = {}
        expected = [el_xu_tally(m_max, r_max, budget, memo)[0] for budget in budgets]
        assert oracle._count_feasible(m_max, r_max, budgets) == expected
        scan = verify_theorem(k_max, r_max, d_max, m_max, k_min=k_min)
        assert scan.feasible_vectors == sum(expected)
        assert oracle._count_feasible(m_max, r_max, [4, 4, 4]) == [expected[budgets.index(4)]] * 3


GROUP_TABLE_BOXES = [(2, 2), (3, 2), (5, 7), (8, 12), (12, 20), (40, 3)]


class TestVerifyHan:
    def test_agrees_with_han_inequality(self):
        scan = verify_han_exhaustive(6, 8)
        applicable, counterexamples, equalities = 0, [], []
        for s in range(1, 7):
            for combo in itertools.combinations_with_replacement(range(8, 0, -1), s):
                is_applicable, margin = han_inequality(combo)
                if not is_applicable:
                    continue
                applicable += 1
                lhs = Fraction((s + 3) * s, s + 2) * (sum(e * e for e in combo) - combo[-1])
                holds = margin >= 0
                assert holds == (lhs >= sum(combo) ** 2)
                if not holds:
                    counterexamples.append(combo)
                elif lhs == sum(combo) ** 2:
                    equalities.append(combo)
        assert scan.applicable_checked == applicable
        assert set(scan.counterexamples) == set(counterexamples) == set()
        assert set(scan.equality_witnesses) == set(equalities)
        assert len(scan.equality_witnesses) == len(equalities) > 0

    def test_small_boxes(self):
        assert verify_han_exhaustive(2, 2).counterexamples == ()
        scan = verify_han_exhaustive(3, 2)
        assert scan.counterexamples == ()
        assert (2, 2, 2) in scan.equality_witnesses

    @pytest.mark.parametrize(
        "s_max,m_max",
        [(s, m) for s in range(2, 8) for m in range(2, 10)] + [(8, 12)],
    )
    def test_equals_the_vector_walk(self, s_max, m_max):
        scan = verify_han_exhaustive(s_max, m_max)
        assert scan == han_scan_walk(s_max, m_max)

    @pytest.mark.parametrize(
        "s_max,m_max",
        [(s, m) for s in range(2, 8) for m in range(2, 10)] + [(8, 12)],
    )
    def test_equals_the_vector_walk_under_a_split_margin(self, s_max, m_max, monkeypatch):
        monkeypatch.setattr(oracle, "han_margin", split_margin)
        monkeypatch.setattr(oracle, "han_floor", no_floor)
        assert verify_han_exhaustive(s_max, m_max) == han_scan_walk(s_max, m_max, margin=split_margin)

    @pytest.mark.parametrize("s_max,m_max", [(4, 5), (6, 4), (7, 7)])
    def test_lists_every_vector_of_a_failing_class_in_order(self, s_max, m_max, monkeypatch):
        # A margin that is <= 0 on about two classes in three, so classes
        # holding many vectors are enumerated and interleave in the order.
        # sum_sq*3 % 3 == 0, so it ignores sum(m_i^2): every vector of a
        # group (s, m_s, sum) gets the same margin, and no group is split.
        def fake(s, total, sum_sq, last):
            return (total * 7 + sum_sq * 3 + last + s) % 3 - 1

        monkeypatch.setattr(oracle, "han_margin", fake)
        monkeypatch.setattr(oracle, "han_floor", no_floor)
        scan = verify_han_exhaustive(s_max, m_max)
        assert scan == han_scan_walk(s_max, m_max, margin=fake)
        classes = {(len(m), m[-1], sum(m), sum(e * e for e in m)) for m in scan.counterexamples}
        assert len(scan.counterexamples) > len(classes) > 10

    @pytest.mark.parametrize("s_max,m_max", [(4, 5), (6, 4), (7, 7)])
    def test_lists_only_the_failing_vectors_of_a_split_group(self, s_max, m_max, monkeypatch):
        # split_margin increases in sum(m_i^2), so a group (s, m_s, sum) can
        # hold vectors on both sides of 0; the scan must list the group
        # and keep only the vectors whose own margin is <= 0.
        signs = {}
        for s in range(2, s_max + 1):
            for combo in itertools.combinations_with_replacement(range(1, m_max + 1), s):
                m = combo[::-1]
                if han_inequality(m)[0]:
                    value = split_margin(s, sum(m), sum(e * e for e in m), m[-1])
                    signs.setdefault((s, m[-1], sum(m)), set()).add((value > 0) - (value < 0))
        assert any({-1, 1} <= group for group in signs.values())
        monkeypatch.setattr(oracle, "han_margin", split_margin)
        monkeypatch.setattr(oracle, "han_floor", no_floor)
        scan = verify_han_exhaustive(s_max, m_max)
        assert scan == han_scan_walk(s_max, m_max, margin=split_margin)
        assert scan.counterexamples and scan.equality_witnesses

    def test_margin_evaluations_grow_with_groups_not_classes(self, monkeypatch):
        # One margin per group at (12, 20) took 12,760 group margins plus
        # one for the listed (2, 2, 2); one margin per class (s, m_s, sum,
        # sum_sq) takes 1,157,735.  The floor leaves 24 groups plus 1
        # (test_floor_leaves_two_groups_per_length).
        calls = 0
        true_margin = oracle.han_margin

        def counted(*args):
            nonlocal calls
            calls += 1
            return true_margin(*args)

        monkeypatch.setattr(oracle, "han_margin", counted)
        verify_han_exhaustive(12, 20)
        assert calls <= 15_000

    @pytest.mark.parametrize("s_max,m_max,groups", [(8, 12, 16), (12, 20, 24), (40, 60, 80)])
    def test_floor_leaves_two_groups_per_length(self, s_max, m_max, groups, monkeypatch):
        # The groups the floor cannot clear: e = 1 with sum s or s + 1 for
        # every length, plus (2, 2) and (2, 2, 2).  Each visited group
        # takes one true margin, and the listed (2, 2, 2) one more.
        calls = []
        true_margin = oracle.han_margin

        def counted(*args):
            calls.append(args)
            return true_margin(*args)

        monkeypatch.setattr(oracle, "han_margin", counted)
        scan = verify_han_exhaustive(s_max, m_max)
        assert scan.counterexamples == () and scan.equality_witnesses == ((2, 2, 2),)
        assert len(calls) == groups + 1
        visited = [(s, last, total) for s, total, _, last in calls]
        survivors = {(s, 1, total) for s in range(2, s_max + 1) for total in (s, s + 1)}
        assert set(visited) == survivors | {(2, 2, 4), (3, 2, 6)}
        assert len(survivors) + 2 == groups
        assert calls.count((3, 6, 12, 2)) == 2

    def test_floor_bounds_every_margin(self):
        # Cauchy-Schwarz: han_margin >= han_floor on every vector, with
        # equality on the equal vectors whose margin is 0.
        for s in range(1, 8):
            for combo in itertools.combinations_with_replacement(range(1, 10), s):
                m = combo[::-1]
                total, sum_sq = sum(m), sum(e * e for e in m)
                margin, floor = han_margin(s, total, sum_sq, m[-1]), han_floor(s, total, m[-1])
                assert margin >= floor
                assert (margin == floor) == (len(set(m)) == 1)
        assert han_margin(3, 6, 12, 2) == han_floor(3, 6, 2) == 0

    def test_floor_clears_only_groups_that_hold(self):
        # Every group the floor clears has a positive true margin at its
        # least sum of squares, so all of its vectors hold strictly.
        table = han_group_table(20, 30)
        cleared = 0
        for (s, last, total), (_, least) in table.items():
            if han_floor(s, total, last) > 0:
                cleared += 1
                assert han_margin(s, total, least, last) > 0
        assert cleared == len(table) - 2 * 19 - 2 == 83_180

    def test_too_strong_floor_loses_the_equality_witness(self, monkeypatch):
        # A floor one above the true one clears the group (3, 2, 6), whose
        # (2, 2, 2) is the Cauchy-Schwarz equality case: the scan no longer
        # matches the vector walk.
        monkeypatch.setattr(oracle, "han_floor", lambda *args: han_floor(*args) + 1)
        scan = verify_han_exhaustive(8, 12)
        assert scan.equality_witnesses == ()
        assert scan != han_scan_walk(8, 12)

    @pytest.mark.parametrize(
        "s_max,m_max",
        sorted(set(GROUP_TABLE_BOXES) | {(s, m) for s in range(2, 8) for m in range(2, 10)}),
    )
    def test_equals_the_group_loop(self, s_max, m_max):
        assert verify_han_exhaustive(s_max, m_max) == han_group_loop(s_max, m_max)

    @pytest.mark.parametrize(
        "s_max,m_max", [(2, 2), (2, 20), (12, 2), (5, 7), (8, 12), (10, 16), (12, 20)]
    )
    def test_applicable_count_closed_form(self, s_max, m_max):
        # C(m_max + s_max, s_max) - 1 nonempty vectors, less the s_max
        # all-ones vectors, the m_max - 1 single entries >= 2 and (2, 2)
        scan = verify_han_exhaustive(s_max, m_max)
        assert scan.applicable_checked == math.comb(m_max + s_max, s_max) - m_max - s_max - 1

    @pytest.mark.parametrize("s_max,m_max", GROUP_TABLE_BOXES)
    def test_evaluates_each_group_once_at_its_least_square(self, s_max, m_max, monkeypatch):
        calls = []

        def recorded(s, total, sum_sq, last):
            calls.append(((s, last, total), sum_sq))
            return 1

        monkeypatch.setattr(oracle, "han_margin", recorded)
        monkeypatch.setattr(oracle, "han_floor", no_floor)
        verify_han_exhaustive(s_max, m_max)
        table = han_group_table(s_max, m_max)
        assert len(calls) == len(table)
        assert dict(calls) == {group: least for group, (_, least) in table.items()}

    @pytest.mark.parametrize("s_max,m_max", GROUP_TABLE_BOXES)
    def test_partitions_count_each_group(self, s_max, m_max):
        for (s, last, total), (count, _) in han_group_table(s_max, m_max).items():
            assert oracle._partitions(total - s * last, s - 1, m_max - last) == count

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 4), (3, 0), (3, 3), (4, 2), (5, 5)])
    def test_partitions_match_a_direct_count(self, n, k):
        for t in range(-2, n * k + 3):
            direct = sum(
                sum(parts) == t for parts in itertools.combinations_with_replacement(range(k + 1), n)
            )
            assert oracle._partitions(t, n, k) == direct

    def test_memory_does_not_grow_with_the_box(self):
        # Peak traced allocation over the whole scan: the layered group DP
        # held two lengths of groups at once, about 144 kB at (10, 16).
        tracemalloc.start()
        try:
            verify_han_exhaustive(10, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000

    def test_long_class_is_listed_without_recursion(self, monkeypatch):
        true_margin = oracle.han_margin

        def failing(s, total, sum_sq, last):
            return -1 if (s, total) == (1200, 1201) else true_margin(s, total, sum_sq, last)

        monkeypatch.setattr(oracle, "han_margin", failing)
        scan = verify_han_exhaustive(1200, 2)
        assert scan.counterexamples == ((2,) + (1,) * 1199,)
        assert scan.equality_witnesses == ((2, 2, 2),)

    @pytest.mark.parametrize("s,cap", [(4, 5), (5, 6), (7, 4), (8, 7)])
    def test_group_walk_lists_each_group_in_order(self, s, cap):
        groups = {}
        for combo in itertools.combinations_with_replacement(range(1, cap + 1), s):
            groups.setdefault((combo[0], sum(combo)), []).append(combo[::-1])
        assert max(len(vectors) for vectors in groups.values()) > 1
        for (last, total), vectors in groups.items():
            assert oracle._han_group(s, last, total, cap) == vectors
            assert oracle._han_group(s, last, total + 1, cap) == groups.get((last, total + 1), [])
        assert oracle._han_group(s, cap, s * cap + 1, cap) == []
        assert oracle._han_group(s, 2, 2 * s - 1, cap) == []

    def test_class_count_mismatch_raises(self, monkeypatch):
        han_group = oracle._han_group
        monkeypatch.setattr(oracle, "_han_group", lambda *args: han_group(*args)[1:])
        with pytest.raises(RuntimeError, match="count is 1"):
            verify_han_exhaustive(3, 2)

    def test_group_least_square_mismatch_raises(self, monkeypatch):
        # Every group fails, and each listed group has its vector of least
        # sum(m_i^2) swapped for one of its largest: the count still holds.
        han_group = oracle._han_group

        def skewed(*args):
            vectors = han_group(*args)
            least = min(vectors, key=lambda m: sum(e * e for e in m))
            most = max(vectors, key=lambda m: sum(e * e for e in m))
            return [most if m == least else m for m in vectors]

        monkeypatch.setattr(oracle, "han_margin", lambda *args: -1)
        monkeypatch.setattr(oracle, "han_floor", no_floor)
        monkeypatch.setattr(oracle, "_han_group", skewed)
        with pytest.raises(RuntimeError, match="its least is 9"):
            verify_han_exhaustive(3, 3)


class TestK3:
    def test_exclusion_examples(self):
        assert k3_excluded_by_rows(4, 3, 5)
        assert k3_excluded_by_rows(2, 10, 5)

    def test_wrong_section_count_is_not_excluded(self, monkeypatch):
        # With h0 = d^2*k + 100, the rows (1, s) of k = 4 with 4 < s <= r
        # are neither direct nor no-curve, so (4, r) fails from r = 5 on.
        monkeypatch.setattr(oracle, "k3_h0", lambda d, k: d * d * k + 100)
        assert k3_excluded_by_rows(4, 4, 3)
        assert not k3_excluded_by_rows(4, 5, 3)
        assert verify_k3(4, 10, 3).failures == (
            *((2, r) for r in range(3, 11)), *((4, r) for r in range(5, 11))
        )


class TestVerifyK3:
    # (100, 30, 3) has k past r_max, where the scan stops its k loop
    BOXES = [
        (6, 20, 1), (6, 20, 2), (6, 20, 3), (60, 40, 4), (40, 150, 3), (50, 50, 7), (100, 30, 3),
        (20, 10, 5), (30, 60, 3),
    ]
    # failing pairs per box, under the true count and each wrong one
    FAILING = {
        "true": (0, 0, 0, 0, 0, 0, 0, 0, 0),
        "d2k+100": (48, 48, 48, 380, 2580, 600, 210, 20, 660),
        "18-at-(2,4)": (0, 4, 4, 24, 134, 34, 14, 0, 44),
        "d2k+2": (48, 48, 48, 380, 2580, 600, 210, 20, 660),
        "d2k+1": (0, 0, 0, 0, 0, 0, 0, 0, 0),
        "d2k+5-from-d3": (0, 0, 2, 26, 552, 46, 12, 0, 72),
    }

    @pytest.mark.parametrize("patch", FAILING)
    @pytest.mark.parametrize("box", BOXES)
    def test_matches_the_pair_by_pair_reference(self, monkeypatch, patch, box):
        if patch != "true":
            monkeypatch.setattr(oracle, "k3_h0", K3_SECTION_COUNTS[patch])
        k_max, r_max, _ = box
        expected = tuple(k3_failures_by_pair(*box))
        assert verify_k3(*box) == ((k_max // 2) * (r_max - 2), expected)
        assert len(expected) == self.FAILING[patch][self.BOXES.index(box)]

    @pytest.mark.parametrize(
        "patch,failing,reads",
        [
            (None, 0, [(1, 2), (2, 2), (1, 4), (1, 6), (1, 8)]),
            ("d2k+100", 20, [(1, 2), (1, 4), (1, 6), (1, 8)]),
        ],
    )
    def test_reads_each_section_count_once(self, monkeypatch, patch, failing, reads):
        # At r_max = 10 a k reads d = 1, 2, ... while d^2*k < 10 and stops
        # at its first failing d, so k = 10 reads nothing.
        h0 = K3_SECTION_COUNTS.get(patch, oracle.k3_h0)
        read = []

        def counted(d, k):
            read.append((d, k))
            return h0(d, k)

        monkeypatch.setattr(oracle, "k3_h0", counted)
        assert (len(verify_k3(20, 10, 5).failures), read) == (failing, reads)

    def test_a_huge_k_range_stops_at_r_max(self, monkeypatch):
        # No k >= r_max fails, so the cost does not grow with k_max.
        monkeypatch.setattr(oracle, "k3_h0", K3_SECTION_COUNTS["d2k+100"])
        start = time.perf_counter()
        scan = verify_k3(10**9, 30, 5)
        assert time.perf_counter() - start < 0.25
        assert scan == ((10**9 // 2) * 28, tuple(k3_failures_by_pair(30, 30, 5)))

    @given(
        box=st.tuples(st.integers(2, 20), st.integers(3, 30), st.integers(1, 4)),
        deltas=st.dictionaries(
            st.tuples(st.integers(1, 4), st.integers(1, 10).map(lambda half: 2 * half)),
            st.integers(0, 4),
        ),
    )
    def test_matches_the_reference_under_drawn_section_counts(self, box, deltas):
        # Each (d, k) has the true count, or d^2*k + delta where drawn.
        def h0(d, k):
            delta = deltas.get((d, k))
            return k3_h0(d, k) if delta is None else d * d * k + delta

        with mock.patch.object(oracle, "k3_h0", h0):
            assert verify_k3(*box).failures == tuple(k3_failures_by_pair(*box))
