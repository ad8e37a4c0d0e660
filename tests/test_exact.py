"""Exact kernel tests: isqrt, squarefree decomposition, surd order, rendering."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from oracles import FractionSurd, fraction_render_decimal, squarefree_trial_division

from seshadri.exact import Surd, _sqrt_ratio, isqrt, render_decimal, squarefree_decompose


class TestIsqrt:
    def test_zero(self):
        assert isqrt(0) == 0

    def test_perfect_square(self):
        assert isqrt(49) == 7

    def test_3535(self):
        # 59^2 = 3481 <= 3535 < 3600 = 60^2
        assert isqrt(3535) == 59

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)

    def test_exhaustive_to_a_million(self):
        for n in range(10**6 + 1):
            t = isqrt(n)
            assert t * t <= n < (t + 1) * (t + 1)


class TestSquarefreeDecompose:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, (1, 1)),
            (12, (2, 3)),
            (2340, (6, 65)),  # 180*13; 2340 = 36*65 and 65 = 5*13 squarefree
            (49, (7, 1)),
            (65, (1, 65)),
        ],
    )
    def test_examples(self, n, expected):
        assert squarefree_decompose(n) == expected

    def test_matches_trial_division_to_200_000(self):
        for n in range(1, 200_001):
            assert squarefree_decompose(n) == squarefree_trial_division(n), n

    # Primes on both sides of the cube-root cutoff: p*q has its smaller
    # factor below the cube root exactly when q > p^2, so each small prime
    # comes with primes just under and just over its square.
    PRIMES = (2, 3, 7, 11, 47, 53, 101, 2207, 2213, 2803, 2819, 10193, 10211)

    def test_matches_trial_division_on_two_and_three_prime_factors(self):
        for p in self.PRIMES:
            for q in self.PRIMES:
                for n in (p**2, p**3, p * p * q, p * q):
                    assert squarefree_decompose(n) == squarefree_trial_division(n), (p, q, n)

    @given(st.integers(min_value=1, max_value=200_000))
    def test_reconstructs_and_is_squarefree(self, n):
        a, b = squarefree_decompose(n)
        assert a * a * b == n
        for p in range(2, isqrt(b) + 1):
            assert b % (p * p) != 0


positive_fractions = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000)
)
small_radicands = st.integers(min_value=0, max_value=5000)


class TestSurdCanonicalForm:
    def test_square_part_extracted(self):
        s = Surd(Fraction(1), 12)
        assert (s.coeff, s.radicand) == (Fraction(2), 3)

    def test_zero_coeff_forces_radicand_one(self):
        assert Surd(Fraction(0), 17).radicand == 1

    def test_zero_radicand_is_zero(self):
        s = Surd(Fraction(3, 2), 0)
        assert (s.coeff, s.radicand) == (Fraction(0), 1)

    def test_sqrt_of_rational(self):
        s = Surd.sqrt(Fraction(180, 13))
        assert (s.coeff, s.radicand) == (Fraction(6, 13), 65)

    def test_sqrt_of_square_is_rational(self):
        s = Surd.sqrt(Fraction(9, 4))
        assert (s.coeff, s.radicand) == (Fraction(3, 2), 1)

    @given(positive_fractions, small_radicands)
    def test_renormalizing_is_idempotent(self, q, n):
        s = Surd(q, n)
        again = Surd(s.coeff, s.radicand)
        assert (again.coeff, again.radicand) == (s.coeff, s.radicand)

    @given(positive_fractions, small_radicands)
    def test_string_round_trip(self, q, n):
        s = Surd(q, n)
        assert Surd.from_string(str(s)) == s

    @pytest.mark.parametrize("text", ["1/0", "1/0*sqrt(2)", "0/0"])
    def test_zero_denominator_is_not_a_surd_string(self, text):
        with pytest.raises(ValueError, match="not a surd string"):
            Surd.from_string(text)


class TestNoFloats:
    def test_float_sqrt_argument_rejected(self):
        with pytest.raises(TypeError):
            Surd.sqrt(0.5)

    def test_float_comparison_rejected(self):
        with pytest.raises(TypeError):
            Surd(2) < 2.5

    def test_radicand_stored_as_plain_int(self):
        s = Surd(Fraction(1, 2), True)
        assert type(s.radicand) is int and s.radicand == 1


class TestSurdOrder:
    def test_theorem_value_vs_generic_formula_at_2_6(self):
        # 3/2 against sqrt(12/5): (3/2)^2 = 9/4 < 12/5
        three_halves = Surd(Fraction(3, 2))
        generic = Surd.sqrt(Fraction(12, 5))
        assert three_halves < generic and not generic < three_halves

    def test_reflexive(self):
        x = Surd(Fraction(7, 3), 5)
        assert x == x and not x < x

    def test_harbourne_maximum_at_101_35(self):
        # 59/101 vs 35/60: 59*60 = 3540 > 3535 = 35*101
        assert Surd(Fraction(59, 101)) > Surd(Fraction(35, 60))

    def test_mixed_comparisons_with_rationals(self):
        assert Surd.sqrt(2) > 1
        assert Surd.sqrt(2) < Fraction(3, 2)
        assert Surd(Fraction(3, 2)) == Fraction(3, 2)

    @given(positive_fractions, small_radicands, positive_fractions, small_radicands)
    def test_order_embedding(self, q1, n1, q2, n2):
        x, y = Surd(q1, n1), Surd(q2, n2)
        squares_cmp = (x * x > y * y) - (x * x < y * y)
        assert (x < y) == (squares_cmp == -1)
        assert (x == y) == (squares_cmp == 0)

    @given(positive_fractions, small_radicands)
    def test_equal_iff_identical_fields(self, q, n):
        x = Surd(q, n)
        y = Surd(x.coeff, x.radicand)
        assert x == y and hash(x) == hash(y)

    @given(st.fractions(min_value=0, max_value=10**6))
    def test_rational_hashes_like_its_fraction(self, q):
        assert Surd(q) == q and hash(Surd(q)) == hash(q)

    def test_rational_and_its_value_are_one_set_element(self):
        assert len({Surd(2), 2}) == 1
        assert len({Surd(Fraction(1, 2)), Fraction(1, 2)}) == 1


rationals = st.one_of(
    st.fractions(min_value=0, max_value=10**4, max_denominator=10**4),
    st.integers(min_value=0, max_value=10**4),
)
radicands = st.integers(min_value=0, max_value=10**5)
# p/q with square parts on both sides, so sqrt has something to pull out.
square_rich = st.builds(
    lambda a1, b1, a2, b2: Fraction(a1 * a1 * b1, a2 * a2 * b2),
    st.integers(0, 300), st.integers(1, 3000), st.integers(1, 300), st.integers(1, 3000),
)


def fields(x):
    return x.coeff, x.radicand


class TestAgainstFractionSurd:
    """The int kernel against the Fraction-based Surd it replaced."""

    @given(rationals, radicands, st.integers(1, 12))
    def test_construction_str_hash_and_decimal(self, q, n, digits):
        s, f = Surd(q, n), FractionSurd(q, n)
        assert fields(s) == fields(f)
        assert s * s == f.squared()
        assert str(s) == str(f)
        assert hash(s) == hash(f)
        assert render_decimal(s, digits) == fraction_render_decimal(f, digits)

    @given(st.one_of(rationals, square_rich))
    def test_sqrt(self, q):
        s, f = Surd.sqrt(q), FractionSurd.sqrt(q)
        assert fields(s) == fields(f)
        assert (s.num, s.den) == (s.coeff.numerator, s.coeff.denominator)

    @given(rationals, radicands, rationals, radicands, st.integers(1, 50))
    def test_products(self, q1, n1, q2, n2, shared):
        s1, s2 = Surd(q1, n1), Surd(q2, n2 * shared)
        f1, f2 = FractionSurd(q1, n1), FractionSurd(q2, n2 * shared)
        assert fields(s1 * s2) == fields(f1 * f2)
        assert fields(s1 * s1) == fields(f1 * f1)
        assert fields(s1 * q2) == fields(f1 * q2)
        assert fields(q2 * s1) == fields(q2 * f1)
        assert fields(s1 * shared) == fields(f1 * shared)

    @given(rationals, radicands, rationals, radicands)
    def test_order_and_equality(self, q1, n1, q2, n2):
        s1, s2 = Surd(q1, n1), Surd(q2, n2)
        f1, f2 = FractionSurd(q1, n1), FractionSurd(q2, n2)
        assert (s1 < s2) == (f1 < f2) and (s2 < s1) == (f2 < f1)
        assert (s1 == s2) == (f1 == f2)
        assert (s1 < q2) == (f1 < q2) and (s1 > q2) == (f1 > q2)
        assert (s1 == q2) == (f1 == q2)
        assert (s1 < -q2 - 1) == (f1 < -q2 - 1)

    def test_negative_factor_rejected_like_the_reference(self):
        for cls in (Surd, FractionSurd):
            with pytest.raises(ValueError):
                cls(1, 2) * -1
            assert fields(cls(0) * -1) == (0, 1)


def raw(x):
    return x.num, x.den, x.radicand


def fraction_raw(x):
    return x.coeff.numerator, x.coeff.denominator, x.radicand


class TestSqrtRatio:
    """The int-ratio root behind Surd.sqrt and the bound formulas, on
    pairs that need not be coprime."""

    def test_every_pair_to_300(self):
        for p in range(301):
            for q in range(1, 301):
                ours = _sqrt_ratio(p, q)
                assert raw(ours) == raw(Surd.sqrt(Fraction(p, q))), (p, q)
                assert fields(ours) == fields(FractionSurd.sqrt(Fraction(p, q))), (p, q)

    # Primes near 10^8: a product of two of them is left over after trial
    # division stops at the cube root.
    BIG = (99999971, 99999989, 100000007, 100000037)

    def test_two_large_primes(self):
        a, b, c, d = self.BIG
        # At most two large primes on each side, so each factorization
        # stops at its cube root; the reference factors p*q, so it is only
        # asked where that product has two.
        for p, q in [(a * b, 1), (1, a * b), (a, b), (4 * a, 9 * b), (a * b, c * d), (12 * a * b, 18 * c),
                     (a * b * c, c), (8 * a * a * b, 2 * a * c)]:
            ours = _sqrt_ratio(p, q)
            assert raw(ours) == raw(Surd.sqrt(Fraction(p, q))), (p, q)
            if p * q in (a * b, 36 * a * b):
                assert fields(ours) == fields(FractionSurd.sqrt(Fraction(p, q))), (p, q)
        assert raw(_sqrt_ratio(a * b, 1)) == (1, 1, a * b)
        assert raw(_sqrt_ratio(a * b, c * d)) == (1, c * d, a * b * c * d)
        assert raw(_sqrt_ratio(8 * a * a * b, 2 * a * c)) == (2, c, a * b * c)

    def test_sqrt_rejects_a_float_and_a_negative(self):
        with pytest.raises(TypeError, match="sqrt argument must be an int or a Fraction, got float"):
            Surd.sqrt(0.25)
        with pytest.raises(ValueError, match="sqrt of negative rational -1/4"):
            Surd.sqrt(Fraction(-2, 8))
        with pytest.raises(ValueError, match="sqrt of negative rational -3"):
            Surd.sqrt(-3)


class TestOptimizedMode:
    def test_construction_checks_survive_python_O(self):
        # -O strips asserts, so each of these raising shows a real check.
        script = textwrap.dedent("""
            from seshadri.exact import Surd
            from seshadri.pell import PellSolution
            if __debug__:
                raise SystemExit("not running under -O")
            cases = [
                (lambda: Surd(-1), ValueError),
                (lambda: Surd(1, -2), ValueError),
                (lambda: Surd(0.5), TypeError),
                (lambda: PellSolution(2, 3, 3), ValueError),
            ]
            for i, (make, error) in enumerate(cases):
                try:
                    make()
                except error:
                    continue
                raise SystemExit(f"case {i} did not raise {error.__name__}")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestMediantProperty:
    """(a+b)/(c+d) >= min(a/c, b/d) justifies restricting the defining
    infimum to irreducible curves: a sum of curves never does better than
    its best component."""

    @given(
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    def test_mediant_at_least_min(self, a, c, b, d):
        mediant = Fraction(a + b, c + d)
        assert mediant >= min(Fraction(a, c), Fraction(b, d))


class TestRenderDecimal:
    def test_main_bound_at_150_10(self):
        assert render_decimal(Surd.sqrt(Fraction(180, 13)), 2) == "3.72"

    def test_rational_padding(self):
        assert render_decimal(Surd(Fraction(1)), 3) == "1.000"

    def test_truncation_convention(self):
        # sqrt(42/65) = 0.80383...; truncation gives 0.803 (rounding would
        # give 0.804, which is not the published convention).
        x = Surd.sqrt(Fraction(42, 65))
        assert render_decimal(x, 3) == "0.803"

    @given(positive_fractions, small_radicands, st.integers(1, 8))
    def test_truncation_brackets_the_value(self, q, n, digits):
        x = Surd(q, n)
        rendered = Fraction(render_decimal(x, digits))
        # rendered <= x < rendered + 10^-digits, checked exactly
        assert Surd(rendered) <= x
        assert x < Surd(rendered + Fraction(1, 10**digits))

    @given(positive_fractions, st.integers(1, 8))
    def test_exact_on_terminating_rationals(self, q, digits):
        scaled = q * 10**digits
        if scaled.denominator == 1:
            assert Fraction(render_decimal(Surd(q), digits)) == q


class TestCheckedConstructorRoutes:
    """Surd(coeff, radicand) takes the root of the radicand and the product
    with coeff; the fields match the Fraction-based Surd it replaced."""

    COEFFS = sorted({Fraction(a, b) for a in range(40) for b in range(1, 40)})

    def test_every_small_coefficient_and_radicand(self):
        for coeff in [*self.COEFFS, *range(40)]:
            for n in range(200):
                assert raw(Surd(coeff, n)) == fraction_raw(FractionSurd(coeff, n)), (coeff, n)

    @given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(0, 10**12))
    def test_large_coefficients_and_radicands(self, a, b, n):
        coeff = Fraction(a, b)
        assert raw(Surd(coeff, n)) == fraction_raw(FractionSurd(coeff, n))


class TestSurdProtocols:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("value", [Surd(0), Surd(Fraction(3, 4), 8), Surd.sqrt(Fraction(3 << 201, 7))])
    def test_pickle_and_deepcopy_keep_the_fields(self, value, protocol):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is Surd and raw(again) == raw(value)
        assert raw(copy.deepcopy(value)) == raw(value)

    def test_foreign_operand_is_unequal(self):
        # Surd(1) * "x" is a row of test_preconditions' table.
        assert (Surd(1) == "x") is False
        assert Surd(1) != "x"
