from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hypeuler.hyperelliptic_core import (
    _check_genus,
    _rotation_factors,
    chi_pointed,
    closed_form_coefficients,
    equivariant_schur,
    equivariant_series,
    low_degree_coefficient,
    nonequivariant_series,
    orbifold_euler_char,
    symmetry_classes,
)
from hypeuler.schur_transform import (
    SchurVector,
    schur_dimension_sum,
    sign_twist,
)
from hypeuler.symfunc_series import (
    PSPolynomial,
    format_monomial,
    specialize_p1,
    sum_of_products,
)
from oracles import (
    reference_equivariant_series,
    reference_symmetry_classes,
    rotation_class_euler,
    unordered_config_euler,
)

P2 = ((2, 1),)
P4 = ((4, 1),)


class TestClassWeights:
    def test_orbifold_euler_char(self):
        assert orbifold_euler_char(2) == Fraction(-1, 240)
        assert orbifold_euler_char(3) == Fraction(-1, 672)
        assert orbifold_euler_char(10) == Fraction(-1, 18480)

    def test_rejects_small_genus(self):
        for g in (-1, 0, 1):
            with pytest.raises(ValueError):
                orbifold_euler_char(g)
            with pytest.raises(
                ValueError, match=f"^genus must be >= 2, got {g}$"
            ):
                _check_genus(g)

    def test_unordered_config_euler(self):
        assert unordered_config_euler(1) == 1
        assert unordered_config_euler(2) == Fraction(-1, 2)
        assert unordered_config_euler(5) == Fraction(1, 5)

    def test_rotation_class_euler(self):
        assert rotation_class_euler(5, 5) == Fraction(4, 5)
        assert rotation_class_euler(2, 4) == Fraction(-1, 4)
        assert rotation_class_euler(3, 6) == Fraction(-1, 3)

    def test_rotation_requires_divisibility(self):
        with pytest.raises(ValueError):
            rotation_class_euler(3, 7)
        with pytest.raises(ValueError):
            rotation_class_euler(1, 5)


class TestSymmetryClasses:
    def test_genus_two_structure(self):
        # The hand-typed labels of reference_symmetry_classes(2) map to
        # the derived ones as 2g+1|a:n=5 -> BF:n=5:L=5,
        # 2g+1|b:n=5 -> BS:n=5:L=10, g+1-odd|a:n=3 -> FF:n=3:L=3,
        # g+1-odd|b:n=3 -> SS:n=3:L=6, 2g+2-only:n=2 -> FS:n=2:L=2,
        # 2g+2-only:n=6 -> FS:n=6:L=6, 2g-even:n=2 -> BB:n=2:L=4 and
        # 2g-even:n=4 -> BB:n=4:L=8.
        terms = symmetry_classes(2)
        assert [t.label for t in terms] == [
            "identity",
            "involution",
            "FS:n=2:L=2",
            "FF:n=3:L=3",
            "SS:n=3:L=6",
            "FS:n=6:L=6",
            "BF:n=5:L=5",
            "BS:n=5:L=10",
            "BB:n=2:L=4",
            "BB:n=4:L=8",
        ]
        for t in terms[2:]:
            assert t.label.endswith(f":n={t.order_n}:L={t.factors[-1][0]}")

    def test_genus_two_coefficients(self):
        by_label = {t.label: t for t in symmetry_classes(2)}
        assert by_label["BF:n=5:L=5"].coefficient == Fraction(2, 5)
        assert by_label["BF:n=5:L=5"].factors == ((1, 3), (5, -1))
        assert by_label["BS:n=5:L=10"].factors == (
            (1, 1), (2, 1), (5, 1), (10, -1)
        )
        assert by_label["FS:n=6:L=6"].coefficient == Fraction(1, 6)
        assert by_label["BB:n=2:L=4"].coefficient == Fraction(-1, 8)

    def test_identity_and_involution_factors(self):
        for g in (2, 5, 9):
            terms = symmetry_classes(g)
            assert terms[0].factors == ((1, 2 - 2 * g),)
            assert terms[1].factors == ((1, 2 + 2 * g), (2, -2 * g))
            assert terms[0].coefficient == orbifold_euler_char(g)

    def test_matches_hand_written_table(self):
        # Equal weight and order per factor tuple, and as many terms, with
        # the identity and involution first.
        def by_factors(terms):
            return {t.factors: (t.coefficient, t.order_n) for t in terms}

        for g in range(2, 1001):
            got, want = symmetry_classes(g), reference_symmetry_classes(g)
            assert got[:2] == want[:2], g
            assert len(got) == len(want), g
            assert by_factors(got) == by_factors(want), g

    def test_identity_weight_is_genus_zero_euler_characteristic(self):
        # e0 = chi(M_(0,2g+2)) / (2 (2g+2)!), chi(M_(0,N)) = (-1)^(N-3)(N-3)!.
        for g in range(2, 301):
            points = 2 * g + 2
            chi_m0 = (-1) ** (points - 3) * factorial(points - 3)
            e0 = Fraction(chi_m0, 2 * factorial(points))
            terms = symmetry_classes(g)
            assert terms[0].coefficient == terms[1].coefficient == e0, g

    def test_orbit_sizes_weigh_to_curve_euler_characteristic(self):
        # The orbits of every class partition the curve: sum k m_k = 2-2g.
        for g in range(2, 301):
            for term in symmetry_classes(g):
                total = sum(k * m for k, m in term.factors)
                assert total == 2 - 2 * g, (g, term.label)

    def test_rotation_factors_reject_fractional_orbit_count(self):
        # At g=2 two branch centers leave -4 for the free points, which
        # orbits of size 3 cannot make up.
        with pytest.raises(ArithmeticError, match="orbits of size 3 at g=2"):
            _rotation_factors(2, 3, 6, "BB", 3)

    def test_integer_exponents(self):
        for g in range(2, 40):
            for term in symmetry_classes(g):
                for k, m in term.factors:
                    assert isinstance(m, int) and k >= 1

    def test_weights_sum_to_one(self):
        for g in range(2, 120):
            assert sum(t.coefficient for t in symmetry_classes(g)) == 1

    def test_shared_bracket_weights(self):
        # Rotation terms with as many branch-point centers and the same n
        # share one weight.
        for g in (2, 3, 6, 11):
            weights = {}
            pairs = 0
            for t in symmetry_classes(g)[2:]:
                key = (t.label.split(":")[0].count("B"), t.order_n)
                if key in weights:
                    assert weights[key] == t.coefficient, (g, t.label)
                    pairs += 1
                weights[key] = t.coefficient
            assert pairs, g


class TestEquivariantSeries:
    def test_constant_term(self):
        for g in (2, 3, 7, 20):
            assert equivariant_series(g, 0).coeffs[0] == PSPolynomial(
                {(): 1}
            )

    def test_linear_term(self):
        for g in (2, 3, 4, 9):
            assert equivariant_series(g, 1).coeffs[1] == PSPolynomial(
                {((1, 1),): 2}
            )

    def test_quadratic_term_by_parity(self):
        even = equivariant_series(4, 2).coeffs[2]
        odd = equivariant_series(5, 2).coeffs[2]
        p1sq = ((1, 2),)
        assert even.coefficient(p1sq) == 1 and even.coefficient(P2) == 0
        assert odd.coefficient(p1sq) == 1 and odd.coefficient(P2) == 1

    def test_p4_residues(self):
        expected = {0: 0, 1: Fraction(-1, 2), 2: Fraction(1, 2), 3: 0}
        for g in range(2, 14):
            series = equivariant_series(g, 4)
            assert series.coeffs[4].coefficient(P4) == expected[g % 4], g

    def test_weight_graded(self):
        for g in (2, 3, 5):
            assert equivariant_series(g, 8).is_weight_graded()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 40))
    @example(2, 0)
    @example(60, 40)
    def test_weight_graded_property(self, g, order):
        assert equivariant_series(g, order).is_weight_graded()

    def test_each_class_term_weight_graded(self):
        for g in (2, 3, 6):
            for term in symmetry_classes(g):
                series = sum_of_products([(1, term.factors)], 6)
                assert series.is_weight_graded(), term.label

    @pytest.mark.parametrize("g", range(2, 26))
    def test_matches_series_product_reference(self, g):
        # Each genus has a class with a repeated generator, which the kernel
        # merges and the reference multiplies in factor by factor.
        assert any(
            len({k for k, _ in term.factors}) < len(term.factors)
            for term in symmetry_classes(g)
        )
        for order in (0, 1, 2, 9, 40):
            want = reference_equivariant_series(g, order)
            assert equivariant_series(g, order) == want, order

    def test_specialization_matches_closed_form(self):
        for g in (2, 3, 4):
            n_max = 2 * g + 4
            got = specialize_p1(equivariant_series(g, n_max))
            assert got == nonequivariant_series(g, n_max)


class TestNonequivariantSeries:
    def test_low_degrees(self):
        for g in (2, 3, 7):
            series = nonequivariant_series(g, 4)
            assert series[0] == 1
            assert series[2] == 1  # chi = 2 over 2!
            assert series[4] == Fraction(-g, 12)  # chi = -2g over 4!

    def test_closed_form_coefficients(self):
        assert closed_form_coefficients(2) == (
            Fraction(-1, 12),
            Fraction(2, 5),
            Fraction(3, 8),
        )
        assert closed_form_coefficients(3) == (
            Fraction(-3, 32),
            Fraction(3, 7),
            Fraction(1, 3),
        )

    def test_coefficients_solve_the_linear_system(self):
        # the three pinned values 1, 2, -2g at n = 0, 2, 4
        for g in range(2, 30):
            series = nonequivariant_series(g, 4)
            assert series[0] == 1
            assert 2 * series[2] == 2
            assert 24 * series[4] == -2 * g


class TestChiPointed:
    def test_pinned_values(self):
        for g in (2, 3, 10):
            assert [chi_pointed(g, n) for n in range(6)] == [
                1,
                2,
                2,
                0,
                -2 * g,
                0,
            ]

    def test_spec_cases(self):
        assert chi_pointed(3, 4) == -6
        assert chi_pointed(2, 7) == 168  # 8!/240 on the outer branch

    def test_matches_series(self):
        for g in (2, 3, 5):
            series = nonequivariant_series(g, 2 * g + 6)
            for n in range(2 * g + 7):
                assert factorial(n) * series[n] == chi_pointed(g, n)


class TestEquivariantSchur:
    def test_zero_points(self):
        assert equivariant_schur(3, 0) == SchurVector(
            0, {(): Fraction(1)}
        )

    def test_one_point(self):
        assert equivariant_schur(3, 1) == SchurVector(
            1, {(1,): Fraction(2)}
        )

    def test_two_points_dimension(self):
        for g in (2, 4):
            vec = equivariant_schur(g, 2)
            assert schur_dimension_sum(vec) == 2

    def test_integrality(self):
        for g in (2, 3):
            for n in range(7):
                vec = equivariant_schur(g, n)
                assert vec.is_integer_valued()
                assert schur_dimension_sum(vec) == chi_pointed(g, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(11, 18))
    @example(2, 18)
    @example(60, 11)
    def test_integrality_beyond_battery(self, g, n):
        # The battery stops at n = 10; these degrees reach p(18) = 385.
        vec = equivariant_schur(g, n)
        assert vec.is_integer_valued()
        assert schur_dimension_sum(vec) == chi_pointed(g, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 14))
    @example(2, 0)
    @example(60, 14)
    def test_sign_twist_involution_keeps_dimension(self, g, n):
        # f^lambda = f^(lambda conjugate), so the twist keeps the dimension.
        vec = equivariant_schur(g, n)
        twisted = sign_twist(vec)
        assert sign_twist(twisted) == vec
        assert schur_dimension_sum(twisted) == schur_dimension_sum(vec)


class TestLowDegreeCoefficient:
    def test_p2_parity(self):
        assert low_degree_coefficient(4, P2) == 0
        assert low_degree_coefficient(5, P2) == 1

    def test_p1sq_p2(self):
        mono = ((1, 2), (2, 1))
        assert low_degree_coefficient(7, mono) == Fraction(3, 2)
        assert low_degree_coefficient(8, mono) == 0

    def test_p4_value(self):
        assert low_degree_coefficient(6, P4) == Fraction(1, 2)

    def test_p3_vanishes(self):
        for g in range(2, 10):
            assert low_degree_coefficient(g, ((3, 1),)) == 0

    def test_unsupported_monomial(self):
        with pytest.raises(ValueError, match="for monomial p5$"):
            low_degree_coefficient(3, ((5, 1),))

    def test_matches_series(self):
        monos = [
            P2,
            ((1, 1), (2, 1)),
            ((1, 2), (2, 1)),
            ((2, 2),),
            ((3, 1),),
            ((1, 1), (3, 1)),
            P4,
        ]
        for g in range(2, 26):
            series = equivariant_series(g, 4)
            for mono in monos:
                got = series.coeffs[sum(k * e for k, e in mono)]
                assert got.coefficient(mono) == low_degree_coefficient(
                    g, mono
                ), (g, format_monomial(mono))
