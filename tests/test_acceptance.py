"""End-to-end cross-validation at full ranges, all at zero tolerance.

Each test runs one ``verify.check_*`` at the acceptance range, so the check
has one definition shared with ``hypeuler verify``.  It asserts that the
check passed and that its detail names the whole range, so no range can
narrow silently.  Each prints one PASS line on success (run with
``pytest -s`` to see them); any mismatch fails with the offending
coordinates.
"""

import time

from hypeuler.verify import (
    check_algebra,
    check_bini_agreement,
    check_closed_forms,
    check_constant_term,
    check_double_sum_identity,
    check_low_degree_tables,
    check_schur_integrality,
    check_specialization,
    check_totient_identities,
)


def _accept(check, args: tuple, expected_detail: str) -> None:
    started = time.time()
    result = check(*args)
    assert result.passed, result.detail
    assert result.detail == expected_detail
    elapsed = time.time() - started
    print(f"PASS {result.name}: {result.detail} [{elapsed:.2f}s]")


def test_specialization_matches_nonequivariant_series():
    _accept(check_specialization, (2, 12), "g=2..12, degrees 0..2g+4")


def test_closed_form_chi_values():
    _accept(check_closed_forms, (2, 12), "g=2..12, n=0..2g+6")


def test_bini_oracle_agreement():
    _accept(check_bini_agreement, (2, 30), "g=2..30, n=5..2g+2")


def test_double_sum_identity():
    _accept(check_double_sum_identity, (2, 30, 60), "g=2..30, n=0..60")


def test_low_degree_residue_tables():
    _accept(check_low_degree_tables, (2, 50), "g=2..50")


def test_constant_term_unity():
    _accept(check_constant_term, (2, 200), "g=2..200")


def test_totient_identities():
    _accept(check_totient_identities, (100_000,), "n=1..100000")


def test_schur_integrality_and_dimension():
    _accept(check_schur_integrality, (2, 5, 10), "g=2..5, n=0..10")


def test_symmetric_function_algebra_properties():
    _accept(
        check_algebra,
        (7, 200),
        "inverse pairs, ring axioms (200 samples), "
        "orthogonality n<=8, round trip n<=7",
    )
