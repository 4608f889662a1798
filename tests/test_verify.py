from dataclasses import replace

import pytest

import hypeuler.verify as verify
from hypeuler.symfunc_series import PSPolynomial, TSeries
from hypeuler.verify import (
    check_algebra,
    check_basis_roundtrip,
    check_constant_term,
    check_specialization,
    run_battery,
)


def test_battery_all_pass_small_range():
    results = run_battery(2, 3, 5, double_sum_depth=6, totient_limit=100)
    assert [r.passed for r in results] == [True] * 9
    names = [r.name for r in results]
    assert names == [
        "specialization",
        "closed-forms",
        "bini-oracle",
        "double-sum-identity",
        "low-degree-tables",
        "constant-term",
        "totient-identities",
        "schur-integrality",
        "algebra",
    ]


def test_battery_roundtrip_appended():
    results = run_battery(
        2, 2, 4, double_sum_depth=4, totient_limit=50, roundtrip=True
    )
    assert results[-1].name == "basis-roundtrip" and results[-1].passed


def test_battery_validates_parameters():
    with pytest.raises(ValueError):
        run_battery(1, 3, 4)
    with pytest.raises(ValueError):
        run_battery(3, 2, 4)
    with pytest.raises(ValueError):
        run_battery(2, 3, -1)


def test_individual_checks_report_ranges():
    res = check_specialization(2, 2, 4)
    assert res.passed and "g=2..2" in res.detail
    res = check_constant_term(2, 5)
    assert res.passed
    res = check_basis_roundtrip(2, 2, 5)
    assert res.passed
    res = check_algebra(samples=20)
    assert res.passed


def _bump_at(func, point):
    # func with its value at the arguments `point` raised by one.
    def bumped(*args):
        value = func(*args)
        return value + 1 if args == point else value

    return bumped


def _bump_series_at(func, point):
    # nonequivariant_series with its t^n entry raised by one at genus g.
    g_bad, n_bad = point

    def bumped(g, order):
        values = list(func(g, order))
        if g == g_bad:
            values[n_bad] += 1
        return values

    return bumped


def _raise_constant(series):
    # The series with its t^0 coefficient raised by one.
    one = ()
    constant = PSPolynomial({one: series.coeffs[0].coefficient(one) + 1})
    return TSeries(series.order, (constant,) + series.coeffs[1:])


def _bump_product_at(func, point):
    # sum_of_products with its t^0 coefficient raised by one on the calls
    # where point(terms, order) holds.
    def bumped(terms, order):
        terms = list(terms)
        series = func(terms, order)
        return _raise_constant(series) if point(terms, order) else series

    return bumped


def _bump_constant_at(func, point):
    # equivariant_series with its t^0 coefficient raised by one at the
    # arguments `point`.
    def bumped(*args):
        series = func(*args)
        return _raise_constant(series) if args == point else series

    return bumped


def _bump_weight_at(func, point):
    # symmetry_classes with its first class weight raised by one at genus
    # `point`.
    def bumped(g):
        terms = func(g)
        if g == point:
            first = terms[0]
            terms[0] = replace(first, coefficient=first.coefficient + 1)
        return terms

    return bumped


@pytest.mark.parametrize(
    "target, bump, point, check, expected",
    [
        (
            "chi_pointed",
            _bump_at,
            (3, 7),
            lambda: verify.check_closed_forms(2, 4),
            "mismatch at g=3, n=7",
        ),
        (
            "chi_pointed",
            _bump_at,
            (3, 7),
            lambda: verify.check_bini_agreement(2, 4),
            "g=3, n=7: compact=",
        ),
        (
            "chi_pointed",
            _bump_at,
            (3, 7),
            lambda: verify.check_schur_integrality(2, 4, 8),
            "dimension sum mismatch at g=3, n=7",
        ),
        (
            "bini_double_sum_closed_form",
            _bump_at,
            (3, 7),
            lambda: verify.check_double_sum_identity(2, 4, 8),
            "mismatch at g=3, n=7",
        ),
        (
            "bini_chi_long",
            _bump_at,
            (3, 7),
            lambda: verify.check_bini_agreement(2, 4),
            "g=3, n=7: compact=",
        ),
        (
            "bini_double_sum",
            _bump_at,
            (3, 7),
            lambda: verify.check_double_sum_identity(2, 4, 8),
            "mismatch at g=3, n=7",
        ),
        (
            "symmetry_classes",
            _bump_weight_at,
            3,
            lambda: verify.check_constant_term(2, 4),
            "class weights sum != 1 at g=3",
        ),
        (
            "equivariant_series",
            _bump_constant_at,
            (3, 0),
            lambda: verify.check_constant_term(2, 4),
            "t^0 coefficient != 1 at g=3",
        ),
        (
            "euler_phi",
            _bump_at,
            (6,),
            lambda: verify.check_totient_identities(100),
            "fails at n=6",
        ),
        (
            "nonequivariant_series",
            _bump_series_at,
            (3, 7),
            lambda: verify.check_specialization(2, 4),
            "mismatch at g=3: ",
        ),
        (
            "low_degree_coefficient",
            _bump_at,
            (3, ((2, 1),)),
            lambda: verify.check_low_degree_tables(2, 4),
            "g=3, p2: series gives",
        ),
        (
            "sum_of_products",
            _bump_product_at,
            lambda terms, order: terms == [(1, [(2, -3)])] and order == 7,
            lambda: verify.check_algebra(),
            "binomial inverse pair fails: k=2, m=-3, N=7",
        ),
        (
            # Each random factor list has at most three factors, so only
            # the joined lists F+G are longer.
            "sum_of_products",
            _bump_product_at,
            lambda terms, order: len(terms) == 1 and len(terms[0][1]) > 3,
            lambda: verify.check_algebra(),
            "product oracle mismatch: F=[(2, 1), (2, -1)], "
            "G=[(1, 3), (1, 2)], N=2",
        ),
        (
            "sum_of_products",
            _bump_product_at,
            lambda terms, order: len(terms) == 2,
            lambda: verify.check_algebra(),
            "linearity fails: a=4, b=1, F=[(1, 0), (3, -3)], G=[], N=4",
        ),
    ],
    ids=[
        "closed-forms",
        "bini-oracle",
        "schur-integrality",
        "double-sum-identity",
        "bini-oracle-long-form",
        "double-sum-identity-double-sum",
        "constant-term-weights",
        "constant-term-series",
        "totient-identities",
        "specialization",
        "low-degree-tables",
        "algebra-inverse-pair",
        "algebra-product",
        "algebra-linearity",
    ],
)
def test_check_fails_at_broken_coordinate(
    monkeypatch, target, bump, point, check, expected
):
    monkeypatch.setattr(verify, target, bump(getattr(verify, target), point))
    result = check()
    assert not result.passed
    assert expected in result.detail


@pytest.mark.parametrize(
    "constant, value, target, check, calls, detail",
    [
        (
            "_SPECIALIZATION_DEPTH",
            2,
            "nonequivariant_series",
            lambda: verify.check_specialization(2, 3),
            [(2, 6), (3, 8)],
            "g=2..3, degrees 0..2g+2",
        ),
        (
            "_CLOSED_FORMS_DEPTH",
            3,
            "nonequivariant_series",
            lambda: verify.check_closed_forms(2, 3),
            [(2, 7), (3, 9)],
            "g=2..3, n=0..2g+3",
        ),
        (
            "_BINI_RANGE",
            (6, 1),
            "bini_chi_long",
            lambda: verify.check_bini_agreement(2, 3),
            [(3, 6), (3, 7)],
            "g=2..3, n=6..2g+1",
        ),
    ],
    ids=["specialization", "closed-forms", "bini-oracle"],
)
def test_default_range_follows_one_constant(
    monkeypatch, constant, value, target, check, calls, detail
):
    # A changed default changes both the points the loop visits and the
    # range text the check reports.
    seen = []
    func = getattr(verify, target)

    def spy(*args):
        seen.append(args)
        return func(*args)

    monkeypatch.setattr(verify, target, spy)
    monkeypatch.setattr(verify, constant, value)
    result = check()
    assert result.passed and result.detail == detail
    assert seen == calls
