"""Exact kernel tests: isqrt, squarefree decomposition, surd order, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seshadri.exact import Surd, isqrt, render_decimal, squarefree_decompose


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

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)

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

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError):
            Surd(Fraction(-1, 2), 3)

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
        squares_cmp = (x.squared() > y.squared()) - (x.squared() < y.squared())
        assert (x < y) == (squares_cmp == -1)
        assert (x == y) == (squares_cmp == 0)

    @given(positive_fractions, small_radicands)
    def test_equal_iff_identical_fields(self, q, n):
        x = Surd(q, n)
        y = Surd(x.coeff, x.radicand)
        assert x == y and hash(x) == hash(y)


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

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            render_decimal(Surd(Fraction(1)), 0)

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
