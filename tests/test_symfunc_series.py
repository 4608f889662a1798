from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypeuler.symfunc_series import (
    PSPolynomial,
    TSeries,
    format_monomial,
    specialize_p1,
    sum_of_products,
)
from oracles import (
    cauchy_product,
    reference_product,
    reference_series_mul,
    reference_sum_of_products,
)


def poly(*terms: tuple[tuple[tuple[int, int], ...], int | Fraction]):
    return PSPolynomial({e: Fraction(c) for e, c in terms})


ONE = poly(((), 1))
P1 = poly((((1, 1),), 1))
P2 = poly((((2, 1),), 1))
ZERO = PSPolynomial()


def series(*coeffs: PSPolynomial) -> TSeries:
    return TSeries(len(coeffs) - 1, coeffs)


def unit(order: int) -> TSeries:
    return series(ONE, *[ZERO] * order)


def product(factors, order: int) -> TSeries:
    """prod (1 + p_k t^k)^m as the kernel forms it: one term of weight 1."""
    return sum_of_products([(1, factors)], order)


class TestPSMonomial:
    """Monomial keys: (k, e) tuples, checked where a PSPolynomial is built."""

    def test_unit(self):
        assert format_monomial(()) == "1"
        assert poly(((), 3)).is_homogeneous(0)

    def test_weight_and_render(self):
        m = ((1, 2), (3, 1))
        assert poly((m, 1)).is_homogeneous(5)
        assert not poly((m, 1)).is_homogeneous(4)
        assert format_monomial(m) == "p1^2*p3"
        # The key is stored as given, and zero coefficients are dropped.
        got = PSPolynomial({m: 3, (): 0})
        assert got.terms == {m: Fraction(3)} and type(got.terms[m]) is Fraction

    def test_validation(self):
        with pytest.raises(ValueError):
            PSPolynomial({((2, 1), (1, 1)): 1})  # not ascending
        with pytest.raises(ValueError):
            PSPolynomial({((1, 0),): 1})  # zero exponent
        with pytest.raises(ValueError):
            PSPolynomial({((0, 1),): 1})  # no generator p_0
        with pytest.raises(ValueError):
            PSPolynomial({((1, 1), (1, 1)): 1})  # repeated generator


# Factor lists with repeated generators, negative exponents, generators
# above the order, and exponents of one generator cancelling to zero.
@st.composite
def factor_lists(draw):
    factors = draw(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-6, 6)), max_size=6
        )
    )
    if factors and draw(st.booleans()):
        k, m = draw(st.sampled_from(factors))
        factors.append((k, -m))
    return draw(st.permutations(factors))


small_weights = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestPsMul:
    """Products of power-sum polynomials, as the kernel forms them."""

    def test_unit(self):
        assert product([(1, 3), (2, 0)], 4) == product([(1, 3)], 4)

    def test_square_p1(self):
        assert product([(1, 1), (1, 1)], 2) == series(
            ONE, poly((((1, 1),), 2)), poly((((1, 2),), 1))
        )

    def test_weight_cap_drops_heavy_terms(self):
        # (1 + p1 t)(1 + p2 t^2) at order 2 drops the p1*p2 t^3 term
        assert product([(1, 1), (2, 1)], 2) == series(ONE, P1, P2)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            sum_of_products([(1, [(1, 1)])], -1)

    @given(factor_lists(), factor_lists(), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, f, g, order):
        want = reference_series_mul(product(f, order), product(g, order))
        assert product(f + g, order) == want

    @given(
        factor_lists(),
        factor_lists(),
        factor_lists(),
        small_weights,
        small_weights,
        st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h, a, b, order):
        assert product(f + g, order) == product(g + f, order)
        assert product(f + g + h, order) == reference_series_mul(
            product(f, order), product(g + h, order)
        )
        assert sum_of_products(
            [(a, f), (b, g)], order
        ) == reference_sum_of_products([(a, f), (b, g)], order)


class TestSeriesMul:
    """Series products: the kernel's product over joined factor lists."""

    def test_unit_series(self):
        a = [(1, 1), (2, 1)]
        assert product(a + [(3, 2), (3, -2)], 4) == product(a, 4)

    def test_square(self):
        a = [(1, 1), (2, 1)]
        assert product(a + a, 4) == series(
            ONE,
            poly((((1, 1),), 2)),
            poly((((1, 2),), 1), (((2, 1),), 2)),
            poly((((1, 1), (2, 1)), 4)),
            poly((((1, 2), (2, 1)), 2), (((2, 2),), 1)),
        )

    def test_difference_of_squares(self):
        # (1 + p1 t)^2 - (1 + p1 t)(1 + p1 t) = 0
        got = sum_of_products([(1, [(1, 2)]), (-1, [(1, 1), (1, 1)])], 3)
        assert got == series(ZERO, ZERO, ZERO, ZERO)


class TestBinomialFactor:
    """Single factors (1 + p_k t^k)^m."""

    def test_zeroth_power(self):
        assert product([(1, 0)], 5) == unit(5)

    def test_first_power(self):
        got = product([(1, 1)], 3)
        assert got.coeffs[0] == ONE
        assert got.coeffs[1] == P1
        assert not got.coeffs[2] and not got.coeffs[3]

    def test_negative_exponent(self):
        got = product([(2, -2)], 4)
        assert got.coeffs[0] == ONE
        assert got.coeffs[2] == poly((((2, 1),), -2))
        assert got.coeffs[4] == poly((((2, 2),), 3))
        assert not got.coeffs[1] and not got.coeffs[3]

    def test_factor_beyond_order_is_one(self):
        assert product([(9, -5)], 4) == unit(4)

    def test_inverse_pairs(self):
        for k in range(1, 5):
            for m in range(-12, 13):
                prod = reference_series_mul(
                    product([(k, m)], 16), product([(k, -m)], 16)
                )
                assert prod == unit(16), (k, m)


class TestProductOfFactors:
    def test_empty_product(self):
        assert product([], 3) == unit(3)

    def test_single_factor_square(self):
        got = product([(1, 2)], 2)
        assert got == series(ONE, poly((((1, 1),), 2)), poly((((1, 2),), 1)))

    def test_two_factors(self):
        got = product([(1, 2), (2, 1)], 2)
        assert got.coeffs[2] == poly((((1, 2),), 1), (((2, 1),), 1))

    def test_rejects_bad_generator(self):
        with pytest.raises(ValueError):
            product([(1, 2), (0, 1)], 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            product([], -1)


@given(factor_lists(), st.integers(0, 12))
@settings(max_examples=150)
@example([], 0)
@example([], 5)
@example([(2, 3), (2, -3)], 8)
@example([(1, 2), (2, 1), (2, -3)], 10)
@example([(9, -5), (1, -2)], 4)
def test_product_of_factors_matches_reference(factors, order):
    assert product(factors, order) == reference_product(factors, order)


class TestSumOfProducts:
    def test_empty_sum_is_zero(self):
        assert sum_of_products([], 3) == series(ZERO, ZERO, ZERO, ZERO)

    def test_cancellation(self):
        got = sum_of_products([(1, [(1, 3)]), (-1, [(1, 3)])], 4)
        assert got == series(ZERO, ZERO, ZERO, ZERO, ZERO)

    def test_matches_linear_combine(self):
        terms = [
            (Fraction(-1, 6), [(1, 2), (3, -1)]),
            (Fraction(3, 4), [(2, 2), (2, -4)]),
            (Fraction(0), [(1, 5)]),
            (2, [(1, 1), (2, 1), (3, 2), (6, -2)]),
        ]
        want = reference_sum_of_products(terms, 7)
        assert sum_of_products(terms, 7) == want


class TestLinearCombine:
    """Weighted sums, as the kernel forms them from the class weights."""

    def test_identity(self):
        got = sum_of_products([(Fraction(1), [(1, 3)])], 4)
        assert got == reference_product([(1, 3)], 4)

    def test_cancellation(self):
        got = sum_of_products(
            [
                (Fraction(1, 3), [(1, 3), (2, 1)]),
                (Fraction(-1, 3), [(2, 1), (1, 3)]),
            ],
            4,
        )
        assert got == series(ZERO, ZERO, ZERO, ZERO, ZERO)

    def test_average(self):
        # (1 + p1 t)/2 + (1 + p1 t)^(-1)/2 = 1 below t^2
        half = Fraction(1, 2)
        got = sum_of_products([(half, [(1, 1)]), (half, [(1, -1)])], 1)
        assert got == unit(1)


class TestSpecializeP1:
    def test_constant(self):
        assert specialize_p1(unit(3)) == [1, 0, 0, 0]

    def test_binomial_square(self):
        got = specialize_p1(product([(1, 2)], 2))
        assert got == [1, 2, 1]

    def test_drops_mixed_monomials(self):
        mixed = series(ONE, ZERO, poly((((1, 2),), 1), (((2, 1),), 1)))
        assert specialize_p1(mixed) == [1, 0, 1]


# p_1 = 1, p_k = 0 is a ring map, so it carries the product over joined
# factor lists to the Cauchy product of the specialized series.
@given(factor_lists(), factor_lists(), st.integers(0, 8))
@settings(max_examples=60)
def test_specialize_commutes_with_series_mul(f, g, order):
    lhs = specialize_p1(product(f + g, order))
    rhs = cauchy_product(
        specialize_p1(product(f, order)), specialize_p1(product(g, order))
    )
    assert lhs == rhs
