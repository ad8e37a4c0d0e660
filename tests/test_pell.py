"""Pell module tests, with brute-force and proper-power minimality oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    is_proper_power_of_smaller_solution,
    pell_brute_force,
    pell_convergent_walk,
    pell_period_walk,
)

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

    def test_square_k_rejected(self):
        with pytest.raises(ValueError):
            pell_fundamental(4)
        with pytest.raises(ValueError):
            pell_fundamental(1)

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


class TestAgainstConvergentWalk:
    def test_every_non_square_to_20000(self):
        # The solver walks half the period; the walk squares every
        # convergent.  Odd periods solve at the end of the second period.
        periods = set()
        for k in range(2, 20001):
            if isqrt(k) ** 2 == k:
                continue
            sol = pell_fundamental(k)
            assert (sol.p0, sol.q0) == pell_convergent_walk(k), k
            periods.add(period_length(k))
        assert {1, 2} <= periods
        assert {p % 2 for p in periods} == {0, 1}

    @pytest.mark.parametrize(
        "k,bits",
        # about 2,600 and 4,500 decimal digits
        [(106887466, 8500), (120258273, 8500), (129813574, 15000), (140269637, 15000)],
    )
    def test_benchmark_k_against_period_walk(self, k, bits):
        # k from the benchmark tables, with periods of thousands of terms
        sol = pell_fundamental(k)
        assert (sol.p0, sol.q0) == pell_period_walk(k)
        assert sol.q0.bit_length() > bits


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
            (35, FsstWitness(True, 6, "n^2-1")),
            (5, FsstWitness(True, 2, "n^2+1")),
            (2, FsstWitness(True, 1, "n^2+1")),
            (3, FsstWitness(True, 2, "n^2-1")),
            (7, FsstWitness(False, None, None)),
        ],
    )
    def test_examples(self, k, expected):
        assert fsst_applicable(k) == expected

    def test_witness_reconstructs_k(self):
        for k in range(2, 500):
            w = fsst_applicable(k)
            if w.applicable:
                assert k == (w.n**2 - 1 if w.form == "n^2-1" else w.n**2 + 1)
            else:
                for n in range(1, isqrt(k) + 2):
                    assert k not in (n * n - 1, n * n + 1)
