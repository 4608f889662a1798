from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hypeuler.hyperelliptic_core import equivariant_series
from hypeuler.schur_transform import (
    SchurVector,
    _cycle_parts,
    _multiplicities,
    centralizer_order,
    conjugate,
    format_partition,
    mn_character,
    p_to_schur,
    partitions_of,
    schur_dimension_sum,
    schur_to_p,
    sign_twist,
)
from hypeuler.symfunc_series import PSPolynomial
from oracles import (
    character_oracle,
    partition_count,
    reference_p_to_schur,
    reference_schur_dimension_sum,
    reference_schur_to_p,
)


def p_power(k: int, e: int = 1) -> PSPolynomial:
    """The polynomial p_k^e."""
    return PSPolynomial({((k, e),): 1})


def p_mu(mu: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The monomial key of p_mu, counted here rather than by the library."""
    exps: dict[int, int] = {}
    for part in mu:
        exps[part] = exps.get(part, 0) + 1
    return tuple(sorted(exps.items()))


def assert_conversions_match_reference(poly: PSPolynomial, n: int) -> None:
    vec = p_to_schur(poly, n)
    assert vec == reference_p_to_schur(poly, n)
    assert all(type(c) is Fraction for c in vec.coeffs.values())
    back = schur_to_p(vec)
    assert back == reference_schur_to_p(vec)
    assert all(type(c) is Fraction for c in back.terms.values())
    assert schur_dimension_sum(vec) == reference_schur_dimension_sum(vec)


# hypothesis strategy: weight-n polynomials with mixed denominators
@st.composite
def weight_n_polys(draw):
    n = draw(st.integers(0, 12))
    cycle_types = draw(
        st.lists(st.sampled_from(partitions_of(n)), max_size=12, unique=True)
    )
    terms = {
        p_mu(mu): Fraction(
            draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 720))
        )
        for mu in cycle_types
    }
    return PSPolynomial(terms), n


class TestPartition:
    """Partition keys: tuples of parts, checked at the public entry points."""

    def test_canonical_form(self):
        # The key is stored as given; equal tuples are one partition.
        vec = SchurVector(7, {(3, 2, 2): 1, (7,): 0})
        assert vec.coeffs == {(3, 2, 2): Fraction(1)}
        assert type(vec.coeffs[3, 2, 2]) is Fraction
        assert all(type(lam) is tuple for lam in partitions_of(7))

    def test_validation(self):
        with pytest.raises(ValueError):
            SchurVector(3, {(1, 2): 1})  # increasing
        with pytest.raises(ValueError):
            SchurVector(3, {(2, 0, 1): 1})  # zero part
        with pytest.raises(ValueError):
            SchurVector(2, {(2, 0): 1})  # trailing zero
        with pytest.raises(ValueError):
            mn_character((1, 2), (3,))
        with pytest.raises(ValueError):
            mn_character((3,), (2, 2, -1))
        with pytest.raises(ValueError):
            centralizer_order((0,))

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        for lam in partitions_of(6):
            assert conjugate(conjugate(lam)) == lam

    def test_conjugate_matches_validated_columns(self):
        # conjugate() is unchecked; its result must equal the column
        # lengths and pass the checks of a Schur vector key.
        for n in range(13):
            for lam in partitions_of(n):
                cols = [sum(1 for p in lam if p >= j) for j in range(1, n + 1)]
                want = tuple(c for c in cols if c)
                got = conjugate(lam)
                assert got == want and type(got) is tuple, lam
                assert SchurVector(n, {got: 1}).coeffs == {want: 1}

    def test_render(self):
        assert format_partition((2, 1)) == "[2,1]"
        assert format_partition((10,)) == "[10]"
        assert format_partition(()) == "[]"


class TestPartitionsOf:
    def test_empty(self):
        assert partitions_of(0) == [()]

    def test_counts(self):
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(10)) == 42
        for n in range(13):
            assert len(partitions_of(n)) == partition_count(n)

    def test_reverse_lex_order(self):
        got = partitions_of(4)
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for n in range(9):
            parts = partitions_of(n)
            assert parts == sorted(parts, reverse=True)


class TestMnCharacter:
    def test_trivial_representation(self):
        for n in range(1, 7):
            row = (n,)
            for mu in partitions_of(n):
                assert mn_character(row, mu) == 1

    def test_sign_representation(self):
        assert mn_character((1, 1, 1), (2, 1)) == -1

    def test_standard_of_s3_on_three_cycle(self):
        assert mn_character((2, 1), (3,)) == -1

    def test_matches_alternant_oracle(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert mn_character(lam, mu) == character_oracle(
                        lam, mu
                    ), (lam, mu)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mn_character((2,), (3,))

    def test_orthogonality(self):
        for n in range(7):
            parts = partitions_of(n)
            for mu in parts:
                for nu in parts:
                    total = sum(
                        mn_character(lam, mu) * mn_character(lam, nu)
                        for lam in parts
                    )
                    assert total == (
                        centralizer_order(mu) if mu == nu else 0
                    )


class TestCycleType:
    """The private (k, e) <-> parts conversion inside the Schur layer."""

    def test_pure_p1(self):
        assert _cycle_parts(((1, 3),)) == (1, 1, 1)
        assert _multiplicities((1, 1, 1)) == ((1, 3),)

    def test_mixed(self):
        assert _cycle_parts(((1, 2), (2, 1))) == (2, 1, 1)
        assert _multiplicities((2, 1, 1)) == ((1, 2), (2, 1))

    def test_single_generator(self):
        assert _cycle_parts(((4, 1),)) == (4,)
        assert _cycle_parts(()) == ()

    def test_size_is_weight(self):
        assert sum(_cycle_parts(((2, 2), (3, 1)))) == 7
        for n in range(11):
            for mu in partitions_of(n):
                assert _multiplicities(mu) == p_mu(mu)
                assert _cycle_parts(p_mu(mu)) == mu


class TestCentralizerOrder:
    def test_values(self):
        assert centralizer_order(()) == 1
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((3,)) == 3

    def test_sums_to_factorial(self):
        # sum over cycle types of n!/z_mu counts all permutations
        for n in range(8):
            total = sum(
                Fraction(factorial(n), centralizer_order(mu))
                for mu in partitions_of(n)
            )
            assert total == factorial(n)


class TestPToSchur:
    def test_p1(self):
        got = p_to_schur(p_power(1), 1)
        assert got == SchurVector(1, {(1,): Fraction(1)})

    def test_p2(self):
        got = p_to_schur(p_power(2), 2)
        assert got == SchurVector(2, {(2,): Fraction(1), (1, 1): Fraction(-1)})

    def test_p1_squared(self):
        got = p_to_schur(p_power(1, 2), 2)
        assert got == SchurVector(2, {(2,): Fraction(1), (1, 1): Fraction(1)})

    def test_rejects_inhomogeneous(self):
        mixed = PSPolynomial({((1, 1),): 1, ((2, 1),): 1})
        with pytest.raises(ValueError):
            p_to_schur(mixed, 2)

    def test_round_trip_through_schur_basis(self):
        for n in range(8):
            for lam in partitions_of(n):
                unit = SchurVector(n, {lam: Fraction(1)})
                assert p_to_schur(schur_to_p(unit), n) == unit

    def test_round_trip_through_p_basis(self):
        for n in range(7):
            for mu in partitions_of(n):
                poly = PSPolynomial({p_mu(mu): Fraction(1)})
                back = schur_to_p(p_to_schur(poly, n))
                assert back == poly, mu


@settings(max_examples=80, deadline=None)
@given(weight_n_polys())
@example((PSPolynomial(), 0))
@example((PSPolynomial(), 5))
@example((PSPolynomial({(): Fraction(-7, 3)}), 0))
def test_conversions_match_reference_on_random_polys(case):
    poly, n = case
    assert_conversions_match_reference(poly, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 14))
@example(2, 0)
@example(60, 14)
def test_conversions_match_reference_on_series_coefficients(g, n):
    poly = equivariant_series(g, n).coeffs[n]
    assert_conversions_match_reference(poly, n)


def test_conversions_match_reference_on_schur_vectors():
    # Mixed denominators on the Schur side, beyond round-trip outputs.
    for n in range(7):
        lams = partitions_of(n)
        vec = SchurVector(
            n,
            {lam: Fraction(i - 3, i % 5 + 1) for i, lam in enumerate(lams)},
        )
        assert schur_to_p(vec) == reference_schur_to_p(vec)
        assert schur_dimension_sum(vec) == reference_schur_dimension_sum(vec)
    assert schur_to_p(SchurVector(4)) == reference_schur_to_p(SchurVector(4))


def test_wrong_weight_raises_like_reference():
    poly = PSPolynomial({((1, 3),): 1, ((2, 1),): 1})
    for convert in (p_to_schur, reference_p_to_schur):
        with pytest.raises(ValueError, match="has weight 2, expected 3"):
            convert(poly, 3)


class TestSchurDimensionSum:
    def test_single_box(self):
        assert schur_dimension_sum(
            SchurVector(1, {(1,): Fraction(1)})
        ) == 1

    def test_two_boxes(self):
        vec = SchurVector(2, {(2,): Fraction(1), (1, 1): Fraction(1)})
        assert schur_dimension_sum(vec) == 2

    def test_regular_representation(self):
        # p_1^n carries the regular character: sum of (f^lambda)^2 = n!
        for n in range(1, 8):
            vec = p_to_schur(p_power(1, n), n)
            assert schur_dimension_sum(vec) == factorial(n)

    def test_empty(self):
        assert schur_dimension_sum(SchurVector(3)) == 0


class TestSignTwist:
    def test_conjugates_labels(self):
        vec = SchurVector(3, {(3,): Fraction(2), (2, 1): Fraction(-1)})
        got = sign_twist(vec)
        assert got.coefficient((1, 1, 1)) == 2
        assert got.coefficient((2, 1)) == -1

    def test_matches_sign_on_p_basis(self):
        # twisting then expanding equals expanding the sign-scaled p's
        for n in range(6):
            for mu in partitions_of(n):
                mono = p_mu(mu)
                eps = (-1) ** (n - len(mu))
                lhs = sign_twist(
                    p_to_schur(PSPolynomial({mono: Fraction(1)}), n)
                )
                rhs = p_to_schur(PSPolynomial({mono: Fraction(eps)}), n)
                assert lhs == rhs, mu

    def test_involution(self):
        vec = p_to_schur(p_power(1, 4), 4)
        assert sign_twist(sign_twist(vec)) == vec


class TestSchurVector:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SchurVector(2, {(3,): Fraction(1)})

    def test_sorted_items_reverse_lex(self):
        vec = p_to_schur(p_power(1, 3), 3)
        keys = [lam for lam, _ in vec.sorted_items()]
        assert keys == sorted(keys, reverse=True)
