"""Pell module tests, with brute-force and proper-power minimality oracles."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest
from conftest import unlimited_int_digits
from hypothesis import given, strategies as st
from oracles import (
    is_proper_power_of_smaller_solution,
    pell_brute_force,
    pell_period_walk,
)

from seshadri import pell
from seshadri.exact import isqrt
from seshadri.pell import PellSolution, fsst_applicable, pell_fundamental, szemberg_single_point_bound


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
        # PellSolution constructor, minimality by the power certificate of
        # the acceptance suite's criterion 10.
        sol = pell_fundamental(61)
        assert (sol.p0, sol.q0) == (226153980, 1766319049)

    def test_power_certificate_detects_non_fundamental(self):
        # (q, p) = (17, 12) solves q^2 - 2p^2 = 1 but is (3 + 2*sqrt(2))^2.
        fake = PellSolution(p0=12, q0=17, k=2)
        assert is_proper_power_of_smaller_solution(fake)

    def test_constructor_rejects_non_solutions(self):
        with pytest.raises(ValueError):
            PellSolution(p0=1, q0=5, k=35)
        # 2^2 - 5 * 1^2 = -1: a unit of norm -1 solves the other equation
        with pytest.raises(ValueError, match="Pell identity fails"):
            PellSolution(p0=1, q0=2, k=5)

    @pytest.mark.parametrize(
        "sign,shift,message",
        [(-1, 0, "not a nontrivial Pell solution"), (1, 1, "Pell identity fails")],
    )
    def test_constructor_errors_at_any_size(self, sign, shift, message):
        # q0 has more digits than str(int) writes under the default limit,
        # so the message gives k and bit lengths in place of the ints.
        sol = pell_fundamental(129813574)
        assert 0 < sys.get_int_max_str_digits() <= (sol.q0.bit_length() - 1) * 3 // 10
        with pytest.raises(ValueError, match=f"^{message}: k=129813574, p0 of 15048 bits, q0 of 15062 bits$"):
            PellSolution(sign * sol.p0, sol.q0 + shift, 129813574)


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


# k whose half walks hold _LEAF - 1, _LEAF, _LEAF + 1, 2 _LEAF and
# 2 _LEAF + 1 quotients at _LEAF = 256, each with an even and an odd
# period: (k, P // 2 + 1, P % 2).  The longest ends in a third block of
# one quotient, so the merge carries an odd node up the tree.
BLOCK_BOUNDARY_K = [
    (51991, 255, 0),
    (65629, 255, 1),
    (64171, 256, 0),
    (93529, 256, 1),
    (54679, 257, 0),
    (78121, 257, 1),
    (185299, 512, 0),
    (306049, 512, 1),
    (183166, 513, 0),
    (283369, 513, 1),
]


def half_walk(k):
    """(quotients in the half walk, parity of the period) of sqrt(k)."""
    p = period_length(k)
    return p // 2 + 1, p % 2


def single_point_fields(sol):
    """(num, den, radicand) of sol's single-point bound."""
    bound = sol.single_point_bound
    return bound.num, bound.den, bound.radicand


def fraction_fields(num, den):
    """The reduced num/den as single_point_fields reads a rational Surd."""
    reduced = Fraction(num, den)
    return reduced.numerator, reduced.denominator, 1


class TestAgainstPeriodWalk:
    def test_every_non_square_to_20000(self):
        # The solver walks half the period, the reference every convergent
        # up to the solution: odd periods solve at the end of the second
        # period.  The single-point bound, built with no gcd, is the
        # reduced Fraction of the reference's p0*k/q0.
        periods = set()
        for k in range(2, 20001):
            if isqrt(k) ** 2 == k:
                continue
            sol = pell_fundamental(k)
            p0, q0 = pell_period_walk(k)
            assert (sol.p0, sol.q0) == (p0, q0), k
            assert single_point_fields(sol) == fraction_fields(p0 * k, q0), k
            periods.add(period_length(k))
        assert {1, 2} <= periods
        assert {p % 2 for p in periods} == {0, 1}
        # The half walk holds a_0 .. a_n, P // 2 + 1 quotients.  Walks of
        # _LEAF - 1, _LEAF, _LEAF + 1, 2 _LEAF and 2 _LEAF + 1 quotients
        # stop one short of a block's end, at it, one past it (a last block
        # of one quotient), at the end of a second block and one past that;
        # each is reached by both closings, in this sweep or in
        # BLOCK_BOUNDARY_K.
        leaf = pell._LEAF
        halves = {(p // 2 + 1, p % 2) for p in periods}
        halves |= {half_walk(k) for k, _, _ in BLOCK_BOUNDARY_K}
        lengths = leaf - 1, leaf, leaf + 1, 2 * leaf, 2 * leaf + 1
        assert {(n, parity) for n in lengths for parity in (0, 1)} <= halves

    @pytest.mark.parametrize("k,half,parity", BLOCK_BOUNDARY_K)
    def test_block_boundary_k_against_period_walk(self, k, half, parity):
        assert half_walk(k) == (half, parity)
        sol = pell_fundamental(k)
        assert (sol.p0, sol.q0) == pell_period_walk(k)

    @pytest.mark.parametrize("k,bits", BENCHMARK_K)
    def test_benchmark_k_against_period_walk(self, k, bits):
        # k from the benchmark tables, with periods of thousands of terms
        sol = pell_fundamental(k)
        p0, q0 = pell_period_walk(k)
        with unlimited_int_digits():
            assert (sol.p0, sol.q0) == (p0, q0)
            assert sol.q0.bit_length() > bits
            assert single_point_fields(sol) == fraction_fields(p0 * k, q0)

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


class TestFsst:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (35, 6),
            (5, 2),
            (2, 1),
            (3, 2),
            (7, None),
        ],
    )
    def test_examples(self, k, expected):
        assert fsst_applicable(k) == expected

    def test_witness_reconstructs_k(self):
        for k in range(2, 500):
            n = fsst_applicable(k)
            if n is not None:
                assert k - n**2 in (-1, 1)
            else:
                for t in range(1, isqrt(k) + 2):
                    assert k not in (t * t - 1, t * t + 1)
