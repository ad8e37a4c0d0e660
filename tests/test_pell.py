"""Pell module tests, with brute-force and proper-power minimality oracles."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    is_proper_power_of_smaller_solution,
    pell_brute_force,
    pell_period_walk,
)

from seshadri import pell
from seshadri.exact import Surd, isqrt
from seshadri.pell import FsstWitness, PellSolution, fsst_applicable, pell_fundamental, szemberg_single_point_bound


NON_SQUARES_TO_200 = [k for k in range(2, 201) if isqrt(k) ** 2 != k]


class TestPellFundamental:
    def test_k2(self):
        sol = pell_fundamental(2)
        assert (sol.p0, sol.q0) == (2, 3)

    def test_k35(self):
        sol = pell_fundamental(35)
        assert (sol.p0, sol.q0) == (1, 6)
        assert pell_brute_force(35, 6) == (1, 6)

    def test_hard_case_k61(self):
        # Classic large fundamental solution; identity is checked by the
        # PellSolution constructor, minimality by the power certificate.
        sol = pell_fundamental(61)
        assert (sol.p0, sol.q0) == (226153980, 1766319049)

    def test_identity_holds_to_200(self):
        for k in NON_SQUARES_TO_200:
            sol = pell_fundamental(k)
            assert sol.q0**2 - k * sol.p0**2 == 1

    def test_minimality_against_scan_oracle(self):
        for k in NON_SQUARES_TO_200:
            sol = pell_fundamental(k)
            if sol.q0 <= 10**5:
                assert pell_brute_force(k, sol.q0) == (sol.p0, sol.q0)
                assert pell_brute_force(k, sol.q0 - 1) is None

    def test_minimality_via_power_certificate(self):
        for k in NON_SQUARES_TO_200:
            assert not is_proper_power_of_smaller_solution(pell_fundamental(k))

    def test_power_certificate_detects_non_fundamental(self):
        # (q, p) = (17, 12) solves q^2 - 2p^2 = 1 but is (3 + 2*sqrt(2))^2.
        fake = PellSolution(p0=12, q0=17, k=2)
        assert is_proper_power_of_smaller_solution(fake)

    def test_constructor_rejects_non_solutions(self):
        with pytest.raises(ValueError):
            PellSolution(p0=1, q0=5, k=35)


class TestPellSolutionRecord:
    """PellSolution behaves as the frozen record it replaced."""

    def test_repr_equality_and_hash(self):
        sol = pell_fundamental(35)
        assert repr(sol) == "PellSolution(p0=1, q0=6, k=35)"
        assert sol == PellSolution(1, 6, 35) and hash(sol) == hash(PellSolution(p0=1, q0=6, k=35))
        assert sol != PellSolution(p0=12, q0=17, k=2) and sol != (1, 6, 35)

    def test_immutable(self):
        sol = pell_fundamental(2)
        with pytest.raises(AttributeError):
            sol.p0 = 12
        with pytest.raises(AttributeError):
            del sol.q0
        with pytest.raises(AttributeError):
            sol.extra = 1
        assert (sol.p0, sol.q0, sol.k) == (2, 3, 2)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles(self, protocol):
        sol = pell_fundamental(61)
        again = pickle.loads(pickle.dumps(sol, protocol))
        assert again == sol and type(again) is PellSolution
        assert copy.deepcopy(sol) == sol


def period_length(k):
    """Length of the period of the continued fraction of sqrt(k)."""
    a0 = isqrt(k)
    m, d, a, n = 0, 1, a0, 0
    while a != 2 * a0:
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        n += 1
    return n


# k from the benchmark tables, with solutions of about 2,600 and 4,500
# decimal digits; the last two have odd periods.
BENCHMARK_K = [
    (106887466, 8500),
    (120258273, 8500),
    (129813574, 15000),
    (140269637, 15000),
    (319009066, 8500),
    (651854429, 15000),
]


class TestAgainstConvergentWalk:
    def test_every_non_square_to_20000(self):
        # The solver walks half the period, the reference every convergent
        # up to the solution: odd periods solve at the end of the second
        # period.
        periods = set()
        for k in range(2, 20001):
            if isqrt(k) ** 2 == k:
                continue
            sol = pell_fundamental(k)
            assert (sol.p0, sol.q0) == pell_period_walk(k), k
            periods.add(period_length(k))
        assert {1, 2} <= periods
        assert {p % 2 for p in periods} == {0, 1}
        # The half walk holds a_0 .. a_n, P // 2 + 1 quotients.  Walks of
        # _LEAF - 1, _LEAF, _LEAF + 1 and 2 _LEAF quotients stop one short
        # of a block's end, at it, one past it (a last block of one
        # quotient), and at the end of a second block; the last two ends
        # are reached by both closings.
        leaf = pell._LEAF
        halves = {(p // 2 + 1, p % 2) for p in periods}
        assert {leaf - 1, leaf, leaf + 1, 2 * leaf} <= {n for n, _ in halves}
        assert {(leaf, 0), (leaf, 1), (2 * leaf, 0), (2 * leaf, 1)} <= halves

    @pytest.mark.parametrize("k,bits", BENCHMARK_K)
    def test_benchmark_k_against_period_walk(self, k, bits):
        # k from the benchmark tables, with periods of thousands of terms
        sol = pell_fundamental(k)
        assert (sol.p0, sol.q0) == pell_period_walk(k)
        assert sol.q0.bit_length() > bits

    def test_benchmark_k_take_both_closings(self):
        # An odd period closes through W W^T and squares a norm -1 unit.
        odd = {k for k, _ in BENCHMARK_K if period_length(k) % 2}
        assert odd == {319009066, 651854429}


class TestClosedFormFamilies:
    # Periods of length 1, 2 and 4: the centre is found within three steps.
    @given(st.integers(1, 10**9))
    def test_n2_plus_1(self, n):
        sol = pell_fundamental(n * n + 1)
        assert (sol.p0, sol.q0) == (2 * n, 2 * n * n + 1)

    @given(st.integers(2, 10**9))
    def test_n2_minus_1(self, n):
        sol = pell_fundamental(n * n - 1)
        assert (sol.p0, sol.q0) == (1, n)

    @given(st.integers(1, 10**9))
    def test_n2_plus_2(self, n):
        sol = pell_fundamental(n * n + 2)
        assert (sol.p0, sol.q0) == (n, n * n + 1)

    @given(st.integers(2, 10**9))
    def test_n2_minus_2(self, n):
        sol = pell_fundamental(n * n - 2)
        assert (sol.p0, sol.q0) == (n, n * n - 1)


class TestSinglePointBound:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (35, Fraction(35, 6)),
            (2, Fraction(4, 3)),
            (3, Fraction(3, 2)),
        ],
    )
    def test_examples(self, k, expected):
        assert szemberg_single_point_bound(k) == expected

    def test_strictly_below_sqrt_k_to_200(self):
        # p0*k/q0 < sqrt(k), the single-point optimal value.
        for k in NON_SQUARES_TO_200:
            bound = Surd(szemberg_single_point_bound(k))
            assert bound < Surd.sqrt(k)


class TestFsst:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (35, FsstWitness(True, 6)),
            (5, FsstWitness(True, 2)),
            (2, FsstWitness(True, 1)),
            (3, FsstWitness(True, 2)),
            (7, FsstWitness(False, None)),
        ],
    )
    def test_examples(self, k, expected):
        assert fsst_applicable(k) == expected

    def test_witness_reconstructs_k(self):
        for k in range(2, 500):
            w = fsst_applicable(k)
            if w.applicable:
                assert k - w.n**2 in (-1, 1)
            else:
                for n in range(1, isqrt(k) + 2):
                    assert k not in (n * n - 1, n * n + 1)
