"""Exact equivariant Euler characteristics of pointed hyperelliptic moduli.

For a genus g >= 2 hyperelliptic curve with n ordered marked points, the
moduli space H_{g,n} carries an action of the symmetric group S_n, and its
Euler characteristic refines to a virtual S_n-character, encoded as a
symmetric function.  This package computes the generating function

    sum_n t^n chi^{S_n}(H_{g,n})

exactly, as a truncated series whose t^n coefficient is a weight-n
polynomial in the power sums p_k, converts coefficients to the Schur basis,
evaluates the non-equivariant specializations in several independent ways,
and cross-validates all of them at zero tolerance.  All arithmetic is exact
rational arithmetic; there is no floating point anywhere.

The ``hypeuler`` console script exposes the series, the integer Euler
characteristic table, and the verification battery.
"""

from .exact_arith import (
    Rational,
    divisors,
    euler_phi,
    gen_binomial,
)
from .symfunc_series import (
    PSPolynomial,
    TSeries,
    format_monomial,
    specialize_p1,
    sum_of_products,
)
from .schur_transform import (
    SchurVector,
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
from .hyperelliptic_core import (
    SymmetryClassTerm,
    chi_pointed,
    closed_form_coefficients,
    equivariant_schur,
    equivariant_series,
    low_degree_coefficient,
    nonequivariant_series,
    orbifold_euler_char,
    symmetry_classes,
)
from .bini_oracle import (
    bini_chi_compact,
    bini_chi_long,
    bini_double_sum,
    bini_double_sum_closed_form,
)
from .verify import CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "euler_phi",
    "divisors",
    "gen_binomial",
    "PSPolynomial",
    "TSeries",
    "sum_of_products",
    "specialize_p1",
    "format_monomial",
    "SchurVector",
    "partitions_of",
    "conjugate",
    "mn_character",
    "p_to_schur",
    "schur_to_p",
    "schur_dimension_sum",
    "centralizer_order",
    "sign_twist",
    "format_partition",
    "SymmetryClassTerm",
    "orbifold_euler_char",
    "symmetry_classes",
    "equivariant_series",
    "equivariant_schur",
    "nonequivariant_series",
    "closed_form_coefficients",
    "chi_pointed",
    "low_degree_coefficient",
    "bini_chi_compact",
    "bini_chi_long",
    "bini_double_sum",
    "bini_double_sum_closed_form",
    "CheckResult",
    "run_battery",
]
