import pytest

import hypeuler.verify as verify
from hypeuler.symfunc_series import PSMonomial
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
            "nonequivariant_series",
            _bump_series_at,
            (3, 7),
            lambda: verify.check_specialization(2, 4),
            "mismatch at g=3: ",
        ),
        (
            "low_degree_coefficient",
            _bump_at,
            (3, PSMonomial(((2, 1),))),
            lambda: verify.check_low_degree_tables(2, 4),
            "g=3, p2: series gives",
        ),
    ],
    ids=[
        "closed-forms",
        "bini-oracle",
        "schur-integrality",
        "double-sum-identity",
        "specialization",
        "low-degree-tables",
    ],
)
def test_check_fails_at_broken_coordinate(
    monkeypatch, target, bump, point, check, expected
):
    monkeypatch.setattr(verify, target, bump(getattr(verify, target), point))
    result = check()
    assert not result.passed
    assert expected in result.detail
