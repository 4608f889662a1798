from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypeuler.symfunc_series import (
    PSMonomial,
    PSPolynomial,
    TSeries,
    binomial_factor,
    linear_combine,
    product_of_factors,
    ps_mul,
    series_mul,
    specialize_p1,
    sum_of_products,
)
from oracles import cauchy_product, naive_ps_mul, reference_product

P1 = PSPolynomial.gen(1)
P2 = PSPolynomial.gen(2)
ONE = PSPolynomial.one()


def poly(*terms: tuple[tuple[tuple[int, int], ...], int | Fraction]) -> PSPolynomial:
    return PSPolynomial({PSMonomial(e): Fraction(c) for e, c in terms})


# hypothesis strategy: small polynomials in p_1..p_3
@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        gens = draw(st.sets(st.integers(1, 3), min_size=1, max_size=2))
        mono = PSMonomial(
            sorted((k, draw(st.integers(1, 3))) for k in gens)
        )
        terms[mono] = Fraction(
            draw(st.integers(-4, 4)), draw(st.integers(1, 4))
        )
    return PSPolynomial(terms)


class TestPSMonomial:
    def test_unit(self):
        u = PSMonomial()
        assert u.weight == 0 and str(u) == "1"

    def test_weight_and_render(self):
        m = PSMonomial(((1, 2), (3, 1)))
        assert m.weight == 5
        assert str(m) == "p1^2*p3"

    def test_mul_merges(self):
        a = PSMonomial(((1, 1), (2, 2)))
        b = PSMonomial(((2, 1), (5, 1)))
        assert (a * b).exps == ((1, 1), (2, 3), (5, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            PSMonomial(((2, 1), (1, 1)))  # not ascending
        with pytest.raises(ValueError):
            PSMonomial(((1, 0),))  # zero exponent


class TestPsMul:
    def test_unit(self):
        x = poly((((1, 1), (2, 1)), 3), ((), 1))
        assert ps_mul(ONE, x, 10) == x

    def test_square_p1(self):
        assert ps_mul(P1, P1, 2) == poly((((1, 2),), 1))

    def test_weight_cap_drops_heavy_terms(self):
        # (p1 + p2) * p1 capped at weight 2 keeps only p1^2
        assert ps_mul(P1 + P2, P1, 2) == poly((((1, 2),), 1))

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            ps_mul(P1, P1, -1)

    @given(small_polys(), small_polys())
    def test_matches_naive_oracle(self, a, b):
        assert ps_mul(a, b, 100) == naive_ps_mul(a, b)

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        cap = 100
        assert ps_mul(a, b, cap) == ps_mul(b, a, cap)
        assert ps_mul(ps_mul(a, b, cap), c, cap) == ps_mul(a, ps_mul(b, c, cap), cap)
        assert ps_mul(a + b, c, cap) == ps_mul(a, c, cap) + ps_mul(b, c, cap)


class TestSeriesMul:
    def test_unit_series(self):
        a = TSeries(2, [ONE, P1, P2])
        assert series_mul(a, TSeries.one(2)) == a

    def test_square(self):
        a = TSeries(2, [ONE, P1, PSPolynomial.zero()])
        sq = series_mul(a, a)
        assert sq == TSeries(2, [ONE, P1.scaled(2), poly((((1, 2),), 1))])

    def test_difference_of_squares(self):
        a = TSeries(2, [ONE, P1, PSPolynomial.zero()])
        b = TSeries(2, [ONE, -P1, PSPolynomial.zero()])
        prod = series_mul(a, b)
        assert prod == TSeries(
            2, [ONE, PSPolynomial.zero(), poly((((1, 2),), -1))]
        )

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            series_mul(TSeries.one(2), TSeries.one(3))


class TestBinomialFactor:
    def test_zeroth_power(self):
        assert binomial_factor(1, 0, 5) == TSeries.one(5)

    def test_first_power(self):
        got = binomial_factor(1, 1, 3)
        assert got.coeffs[0] == ONE
        assert got.coeffs[1] == P1
        assert not got.coeffs[2] and not got.coeffs[3]

    def test_negative_exponent(self):
        got = binomial_factor(2, -2, 4)
        assert got.coeffs[0] == ONE
        assert got.coeffs[2] == P2.scaled(-2)
        assert got.coeffs[4] == poly((((2, 2),), 3))
        assert not got.coeffs[1] and not got.coeffs[3]

    def test_factor_beyond_order_is_one(self):
        assert binomial_factor(9, -5, 4) == TSeries.one(4)

    def test_inverse_pairs(self):
        for k in range(1, 5):
            for m in range(-12, 13):
                prod = series_mul(
                    binomial_factor(k, m, 16), binomial_factor(k, -m, 16)
                )
                assert prod == TSeries.one(16), (k, m)


class TestProductOfFactors:
    def test_empty_product(self):
        assert product_of_factors([], 3) == TSeries.one(3)

    def test_single_factor_square(self):
        got = product_of_factors([(1, 2)], 2)
        assert got == TSeries(2, [ONE, P1.scaled(2), poly((((1, 2),), 1))])

    def test_two_factors(self):
        got = product_of_factors([(1, 2), (2, 1)], 2)
        assert got.coeffs[2] == poly((((1, 2),), 1), (((2, 1),), 1))

    def test_rejects_bad_generator(self):
        with pytest.raises(ValueError):
            product_of_factors([(1, 2), (0, 1)], 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            product_of_factors([], -1)


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


@given(factor_lists(), st.integers(0, 12))
@settings(max_examples=150)
@example([], 0)
@example([], 5)
@example([(2, 3), (2, -3)], 8)
@example([(1, 2), (2, 1), (2, -3)], 10)
@example([(9, -5), (1, -2)], 4)
def test_product_of_factors_matches_reference(factors, order):
    assert product_of_factors(factors, order) == reference_product(
        factors, order
    )


class TestSumOfProducts:
    def test_empty_sum_is_zero(self):
        assert sum_of_products([], 3) == TSeries.zero(3)

    def test_cancellation(self):
        got = sum_of_products([(1, [(1, 3)]), (-1, [(1, 3)])], 4)
        assert got == TSeries.zero(4)

    def test_matches_linear_combine(self):
        terms = [
            (Fraction(-1, 6), [(1, 2), (3, -1)]),
            (Fraction(3, 4), [(2, 2), (2, -4)]),
            (Fraction(0), [(1, 5)]),
            (2, [(1, 1), (2, 1), (3, 2), (6, -2)]),
        ]
        want = linear_combine(
            (w, reference_product(factors, 7)) for w, factors in terms
        )
        assert sum_of_products(terms, 7) == want


class TestLinearCombine:
    def test_identity(self):
        a = product_of_factors([(1, 3)], 4)
        assert linear_combine([(Fraction(1), a)]) == a

    def test_cancellation(self):
        a = product_of_factors([(1, 3)], 4)
        assert linear_combine([(1, a), (-1, a)]) == TSeries.zero(4)

    def test_average(self):
        plus = binomial_factor(1, 1, 1)
        minus = TSeries(1, [ONE, -P1])
        got = linear_combine([(Fraction(1, 2), plus), (Fraction(1, 2), minus)])
        assert got == TSeries.one(1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            linear_combine([])

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            linear_combine([(1, TSeries.one(2)), (1, TSeries.one(3))])


class TestSpecializeP1:
    def test_constant(self):
        assert specialize_p1(TSeries.one(3)) == [1, 0, 0, 0]

    def test_binomial_square(self):
        got = specialize_p1(product_of_factors([(1, 2)], 2))
        assert got == [1, 2, 1]

    def test_drops_mixed_monomials(self):
        series = TSeries(
            2, [ONE, PSPolynomial.zero(), poly((((1, 2),), 1), (((2, 1),), 1))]
        )
        assert specialize_p1(series) == [1, 0, 1]


# weight-bounded series (t^i coefficient of weight <= i) are closed under
# multiplication without cap losses, so specialization is a ring map there
@st.composite
def weight_bounded_series(draw, order=4):
    monos_by_weight = {
        0: [()],
        1: [((1, 1),)],
        2: [((1, 2),), ((2, 1),)],
        3: [((1, 3),), ((1, 1), (2, 1)), ((3, 1),)],
        4: [((1, 4),), ((1, 2), (2, 1)), ((2, 2),), ((1, 1), (3, 1)), ((4, 1),)],
    }
    coeffs = []
    for i in range(order + 1):
        pool = [m for w in range(i + 1) for m in monos_by_weight[w]]
        terms = {}
        for exps in draw(st.lists(st.sampled_from(pool), max_size=3)):
            terms[PSMonomial(exps)] = Fraction(draw(st.integers(-3, 3)))
        coeffs.append(PSPolynomial(terms))
    return TSeries(order, coeffs)


@given(weight_bounded_series(), weight_bounded_series())
@settings(max_examples=60)
def test_specialize_commutes_with_series_mul(a, b):
    lhs = specialize_p1(series_mul(a, b))
    rhs = cauchy_product(specialize_p1(a), specialize_p1(b))
    assert lhs == rhs
