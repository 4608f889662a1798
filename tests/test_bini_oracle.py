from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypeuler.bini_oracle import (
    bini_chi_compact,
    bini_chi_long,
    bini_double_sum,
    bini_double_sum_closed_form,
)
from hypeuler.hyperelliptic_core import chi_pointed
from oracles import (
    ext_factorial,
    reference_bini_chi_long,
    reference_bini_double_sum,
    reference_bini_double_sum_closed_form,
)


class TestExtFactorial:
    def test_values(self):
        assert ext_factorial(0) == 1
        assert ext_factorial(4) == 24
        assert ext_factorial(-1) == 0
        assert ext_factorial(-7) == 0


class TestCompactForm:
    def test_vanishing_at_five_points(self):
        assert bini_chi_compact(2, 5) == 0
        assert bini_chi_compact(3, 5) == 0

    def test_genus_two_six_points(self):
        # middle branch of the closed form: -7!/240 - 3!/2
        assert bini_chi_compact(2, 6) == -24

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bini_chi_compact(2, 4)
        with pytest.raises(ValueError):
            bini_chi_compact(2, 7)
        with pytest.raises(ValueError):
            bini_chi_compact(1, 5)


class TestLongForm:
    def test_agrees_with_compact(self):
        for g in range(2, 8):
            for n in range(5, 2 * g + 3):
                assert bini_chi_long(g, n) == bini_chi_compact(g, n), (g, n)

    def test_triple_agreement(self):
        value = bini_chi_long(4, 7)
        assert value == bini_chi_compact(4, 7) == chi_pointed(4, 7)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bini_chi_long(3, 9)


class TestIntegrality:
    def test_all_values_are_integers(self):
        for g in range(2, 8):
            for n in range(5, 2 * g + 3):
                assert bini_chi_compact(g, n).denominator == 1
                assert bini_chi_long(g, n).denominator == 1


class TestDoubleSumIdentity:
    def test_single_term(self):
        # j = r = 0 only: (2g-1)!/(2g+2)! at g = 2
        assert bini_double_sum(2, 0) == Fraction(1, 120)
        assert bini_double_sum_closed_form(2, 0) == Fraction(1, 120)

    def test_two_term_sum(self):
        lhs = bini_double_sum(2, 1)
        rhs = bini_double_sum_closed_form(2, 1)
        assert lhs == rhs == Fraction(-1, 60)

    def test_genus_three_base(self):
        assert bini_double_sum_closed_form(3, 0) == Fraction(1, 336)

    def test_identity_on_grid(self):
        for g in range(2, 8):
            for n in range(0, 25):
                assert bini_double_sum(g, n) == bini_double_sum_closed_form(
                    g, n
                ), (g, n)

    def test_closed_form_matches_factorial_form(self):
        for g in range(2, 60):
            for n in range(2 * g + 20):
                assert bini_double_sum_closed_form(
                    g, n
                ) == reference_bini_double_sum_closed_form(g, n), (g, n)

    def test_rejects_negative_points(self):
        with pytest.raises(ValueError):
            bini_double_sum(2, -1)


class TestIntegerKernels:
    # The integer sums against the Fraction sums they replaced.
    def test_double_sum_on_grid(self):
        for g in range(2, 21):
            for n in range(0, 2 * g + 11):
                assert bini_double_sum(g, n) == reference_bini_double_sum(
                    g, n
                ), (g, n)

    def test_long_form_on_grid(self):
        for g in range(2, 21):
            for n in range(5, 2 * g + 3):
                assert bini_chi_long(g, n) == reference_bini_chi_long(
                    g, n
                ), (g, n)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_double_sum_large_genus(self, data):
        g = data.draw(st.integers(21, 80))
        n = data.draw(st.integers(0, 2 * g + 10))
        assert bini_double_sum(g, n) == reference_bini_double_sum(g, n)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_long_form_large_genus(self, data):
        g = data.draw(st.integers(21, 80))
        n = data.draw(st.integers(5, 2 * g + 2))
        assert bini_chi_long(g, n) == reference_bini_chi_long(g, n)
