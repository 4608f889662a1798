"""Cross-validation battery.

Each check pits two independently implemented quantities against each other
in exact arithmetic, so every comparison is at zero tolerance:

* the equivariant series specialized at p_1 = 1, p_k = 0 against the
  non-equivariant closed form, and that closed form against the piecewise
  integer formula;
* the integer formula against Bini's long bracketed formula, the
  independent oracle, and against his compact formula, which is a rescaling
  of the signed double sum; and that double sum against its factorial-ratio
  closed form;
* the assembled series against the residue-class tables for the low-degree
  mixed coefficients, and its constant term against 1;
* the totient divisor-sum identities;
* Schur expansions against integrality and the dimension count;
* the product kernel against a naive series product, the character table
  against the orthogonality relations, and the power-sum/Schur conversions
  against each other.

The functions are pure and parameterized by their ranges; the command-line
``verify`` subcommand and the acceptance tests both drive them, so each
check has one definition.  Each check names itself once, in its ``_check``
decorator, and has one failure path: its body returns the PASS detail or
raises ``_Mismatch`` with the first counterexample, and the decorator
turns either outcome into the ``CheckResult``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import groupby
from math import factorial, lcm
from operator import mul
from typing import Callable, ParamSpec

from .bini_oracle import (
    bini_chi_compact,
    bini_chi_long,
    bini_double_sum,
    bini_double_sum_closed_form,
)
from .exact_arith import euler_phi
from .hyperelliptic_core import (
    _check_genus,
    chi_pointed,
    equivariant_series,
    low_degree_coefficient,
    nonequivariant_series,
    symmetry_classes,
)
from .schur_transform import (
    SchurVector,
    centralizer_order,
    format_partition,
    mn_character,
    p_to_schur,
    partitions_of,
    schur_dimension_sum,
    schur_to_p,
)
from .symfunc_series import (
    PSPolynomial,
    TSeries,
    format_monomial,
    specialize_p1,
    sum_of_products,
)

__all__ = ["CheckResult", "run_battery"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Mismatch(Exception):
    """A check's first counterexample; its message is the FAIL detail."""


_P = ParamSpec("_P")


def _check(
    name: str,
) -> Callable[[Callable[_P, str]], Callable[_P, CheckResult]]:
    """Give a check its name and its one failure path.

    The body returns its PASS detail, or raises ``_Mismatch(detail)`` at
    its first counterexample; either way the wrapper returns one
    ``CheckResult`` named ``name``.
    """

    def decorate(body: Callable[_P, str]) -> Callable[_P, CheckResult]:
        @wraps(body)
        def check(*args: _P.args, **kwargs: _P.kwargs) -> CheckResult:
            try:
                return CheckResult(name, True, body(*args, **kwargs))
            except _Mismatch as exc:
                return CheckResult(name, False, str(exc))

        return check

    return decorate


# Default depths: c in n <= 2g+c.  Each check's loop and the range text it
# reports read the same constant.
_SPECIALIZATION_DEPTH = 4
_CLOSED_FORMS_DEPTH = 6
# Bini's formulas hold on lo <= n <= 2g+c, for (lo, c) below.
_BINI_RANGE = (5, 2)
# The battery's fixed ranges: the double-sum identity on n = 0..30, the
# totient identities on 1..10^4, and the Schur checks on at most 10 points.
_DOUBLE_SUM_DEPTH = 30
_TOTIENT_LIMIT = 10_000
_SCHUR_MAX_POINTS = 10

_ONE = PSPolynomial({(): 1})


@_check("specialization")
def check_specialization(g_lo: int, g_hi: int, order: int | None = None) -> str:
    """Series at p_1 = 1, p_k = 0 equals the non-equivariant closed form."""
    for g in range(g_lo, g_hi + 1):
        n_max = order if order is not None else 2 * g + _SPECIALIZATION_DEPTH
        got = specialize_p1(equivariant_series(g, n_max))
        want = nonequivariant_series(g, n_max)
        if got != want:
            raise _Mismatch(f"mismatch at g={g}: {got} != {want}")
    depth = str(order) if order is not None else f"2g+{_SPECIALIZATION_DEPTH}"
    return f"g={g_lo}..{g_hi}, degrees 0..{depth}"


@_check("closed-forms")
def check_closed_forms(g_lo: int, g_hi: int, order: int | None = None) -> str:
    """n! times the series coefficient equals the piecewise integer formula."""
    for g in range(g_lo, g_hi + 1):
        n_max = order if order is not None else 2 * g + _CLOSED_FORMS_DEPTH
        series = nonequivariant_series(g, n_max)
        pinned = [1, 2, 2, 0, -2 * g, 0]
        for n in range(n_max + 1):
            chi = chi_pointed(g, n)
            if factorial(n) * series[n] != chi:
                raise _Mismatch(f"mismatch at g={g}, n={n}")
            if n < 6 and chi != pinned[n]:
                raise _Mismatch(f"pinned value broken at g={g}, n={n}: {chi}")
    depth = str(order) if order is not None else f"2g+{_CLOSED_FORMS_DEPTH}"
    return f"g={g_lo}..{g_hi}, n=0..{depth}"


@_check("bini-oracle")
def check_bini_agreement(g_lo: int, g_hi: int) -> str:
    """Long form = compact form = integer formula on 5 <= n <= 2g+2."""
    n_lo, depth = _BINI_RANGE
    for g in range(g_lo, g_hi + 1):
        for n in range(n_lo, 2 * g + depth + 1):
            compact = bini_chi_compact(g, n)
            long_form = bini_chi_long(g, n)
            chi = chi_pointed(g, n)
            if not (compact == long_form == chi):
                raise _Mismatch(
                    f"g={g}, n={n}: compact={compact}, long={long_form}, chi={chi}"
                )
            if compact.denominator != 1:
                raise _Mismatch(f"non-integer value at g={g}, n={n}")
    return f"g={g_lo}..{g_hi}, n={n_lo}..2g+{depth}"


@_check("double-sum-identity")
def check_double_sum_identity(g_lo: int, g_hi: int, depth: int) -> str:
    """The signed double sum equals its factorial-ratio closed form."""
    for g in range(g_lo, g_hi + 1):
        for n in range(depth + 1):
            if bini_double_sum(g, n) != bini_double_sum_closed_form(g, n):
                raise _Mismatch(f"mismatch at g={g}, n={n}")
    return f"g={g_lo}..{g_hi}, n=0..{depth}"


_LOW_DEGREE_MONOMIALS = (
    ((2, 1),),
    ((1, 1), (2, 1)),
    ((1, 2), (2, 1)),
    ((2, 2),),
    ((3, 1),),
    ((1, 1), (3, 1)),
    ((4, 1),),
)


@_check("low-degree-tables")
def check_low_degree_tables(g_lo: int, g_hi: int) -> str:
    """Series coefficients up to t^4 match the residue-class closed forms."""
    p2 = ((2, 1),)
    p4 = ((4, 1),)
    p2_by_parity = (Fraction(0), Fraction(1))
    p4_by_residue = (Fraction(0), Fraction(-1, 2), Fraction(1, 2), Fraction(0))
    for g in range(g_lo, g_hi + 1):
        series = equivariant_series(g, 4)
        for mono in _LOW_DEGREE_MONOMIALS:
            weight = sum(k * e for k, e in mono)
            got = series.coeffs[weight].coefficient(mono)
            want = low_degree_coefficient(g, mono)
            if got != want:
                raise _Mismatch(
                    f"g={g}, {format_monomial(mono)}: series gives {got}, "
                    f"closed form {want}"
                )
        if low_degree_coefficient(g, p2) != p2_by_parity[g % 2]:
            raise _Mismatch(f"p2 residue value broken at g={g}")
        if low_degree_coefficient(g, p4) != p4_by_residue[g % 4]:
            raise _Mismatch(f"p4 residue value broken at g={g}")
    return f"g={g_lo}..{g_hi}"


@_check("constant-term")
def check_constant_term(g_lo: int, g_hi: int) -> str:
    """The t^0 coefficient of the series is 1 for every genus."""
    for g in range(g_lo, g_hi + 1):
        if sum(t.coefficient for t in symmetry_classes(g)) != 1:
            raise _Mismatch(f"class weights sum != 1 at g={g}")
        if equivariant_series(g, 0).coeffs[0] != _ONE:
            raise _Mismatch(f"t^0 coefficient != 1 at g={g}")
    return f"g={g_lo}..{g_hi}"


@_check("totient-identities")
def check_totient_identities(limit: int) -> str:
    """Divisor sums of the totient behave on 1..limit.

    sum_{a|n} phi(a) = n, and for even n also sum_{a|n} (-1)^(n/a) phi(a)
    = 0.  A divisor sieve adds each phi(a) to the multiples n of a, split
    by the parity of n/a.
    """
    odd = [0] * (limit + 1)
    even = [0] * (limit + 1)
    for a in range(1, limit + 1):
        phi = euler_phi(a)
        for n in range(a, limit + 1, 2 * a):
            odd[n] += phi
        for n in range(2 * a, limit + 1, 2 * a):
            even[n] += phi
    for n in range(1, limit + 1):
        if odd[n] + even[n] != n or (n % 2 == 0 and even[n] != odd[n]):
            raise _Mismatch(f"fails at n={n}")
    return f"n=1..{limit}"


@_check("schur-integrality")
def check_schur_integrality(g_lo: int, g_hi: int, n_max: int) -> str:
    """Schur coefficients are integers and weight the dimensions to chi."""
    for g in range(g_lo, g_hi + 1):
        series = equivariant_series(g, n_max)
        for n in range(n_max + 1):
            vec = p_to_schur(series.coeffs[n], n)
            if not vec.is_integer_valued():
                raise _Mismatch(f"non-integer multiplicity at g={g}, n={n}")
            if schur_dimension_sum(vec) != chi_pointed(g, n):
                raise _Mismatch(f"dimension sum mismatch at g={g}, n={n}")
    return f"g={g_lo}..{g_hi}, n=0..{n_max}"


def _naive_series_mul(a: TSeries, b: TSeries) -> TSeries:
    # Independent product oracle: a truncated Cauchy product of flattened
    # monomials (sorted tuples of generator indices with multiplicity, so
    # p1^2*p3 is (1, 1, 3)) merged by concatenation, summed as integer
    # numerators over each side's common denominator.
    def flatten(series: TSeries):
        denom = lcm(
            *(c.denominator for p in series.coeffs for c in p.terms.values())
        )
        return denom, [
            [
                (
                    sum(((k,) * e for k, e in mono), ()),
                    c.numerator * (denom // c.denominator),
                )
                for mono, c in poly.terms.items()
            ]
            for poly in series.coeffs
        ]

    denom_a, flat_a = flatten(a)
    denom_b, flat_b = flatten(b)
    denom = denom_a * denom_b
    coeffs = []
    for n in range(a.order + 1):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(n + 1):
            for ka, ca in flat_a[i]:
                for kb, cb in flat_b[n - i]:
                    key = tuple(sorted(ka + kb))
                    acc[key] = acc.get(key, 0) + ca * cb
        coeffs.append(
            PSPolynomial(
                {
                    tuple(
                        (k, len(list(run))) for k, run in groupby(key)
                    ): Fraction(c, denom)
                    for key, c in acc.items()
                }
            )
        )
    return TSeries(a.order, coeffs)


def _naive_combine(
    a: Fraction, x: TSeries, b: Fraction, y: TSeries
) -> TSeries:
    # a*x + b*y, coefficient by coefficient.
    coeffs = []
    for px, py in zip(x.coeffs, y.coeffs):
        terms = {mono: a * c for mono, c in px.terms.items()}
        for mono, c in py.terms.items():
            terms[mono] = terms.get(mono, 0) + b * c
        coeffs.append(PSPolynomial(terms))
    return TSeries(x.order, coeffs)


def _random_factors(rng: random.Random) -> list[tuple[int, int]]:
    return [
        (rng.randint(1, 3), rng.randint(-3, 3))
        for _ in range(rng.randint(0, 3))
    ]


@_check("algebra")
def check_algebra(seed: int = 7, samples: int = 150) -> str:
    """Algebraic self-consistency of the symmetric-function layer."""
    # Inverse binomial pairs: (1+p_k t^k)^m (1+p_k t^k)^(-m) = 1.
    units = {
        order: TSeries(order, [_ONE] + [PSPolynomial()] * order)
        for order in (0, 7, 16)
    }
    for k in range(1, 5):
        factor = {
            (m, order): sum_of_products([(1, [(k, m)])], order)
            for m in range(-12, 13)
            for order in units
        }
        for m in range(-12, 13):
            for order, unit in units.items():
                prod = _naive_series_mul(factor[m, order], factor[-m, order])
                if prod != unit:
                    raise _Mismatch(
                        f"binomial inverse pair fails: k={k}, m={m}, N={order}"
                    )
    # Ring axioms of the kernel: multiplicative in the factor list against
    # the naive product, blind to factor order, linear in the weights.
    rng = random.Random(seed)
    for _ in range(samples):
        f, g = _random_factors(rng), _random_factors(rng)
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in "ab")
        order = rng.randint(0, 6)
        sample = f"F={f}, G={g}, N={order}"
        series_f = sum_of_products([(1, f)], order)
        series_g = sum_of_products([(1, g)], order)
        product = sum_of_products([(1, f + g)], order)
        if product != _naive_series_mul(series_f, series_g):
            raise _Mismatch(f"product oracle mismatch: {sample}")
        shuffled = rng.sample(f + g, len(f) + len(g))
        if sum_of_products([(1, shuffled)], order) != product:
            raise _Mismatch(f"factor order matters: {sample}")
        combined = sum_of_products([(a, f), (b, g)], order)
        if combined != _naive_combine(a, series_f, b, series_g):
            raise _Mismatch(f"linearity fails: a={a}, b={b}, {sample}")
    # Character orthogonality: sum_lam chi(mu) chi(nu) = z_mu [mu == nu].
    for n in range(9):
        parts = partitions_of(n)
        columns = [[mn_character(lam, mu) for lam in parts] for mu in parts]
        for mu, chi_mu in zip(parts, columns):
            for nu, chi_nu in zip(parts, columns):
                total = sum(map(mul, chi_mu, chi_nu))
                want = centralizer_order(mu) if mu == nu else 0
                if total != want:
                    raise _Mismatch(
                        f"orthogonality fails at n={n}, "
                        f"mu={format_partition(mu)}, "
                        f"nu={format_partition(nu)}"
                    )
    # Power-sum <-> Schur round trip on basis vectors.
    for n in range(8):
        for lam in partitions_of(n):
            unit = SchurVector(n, {lam: Fraction(1)})
            back = p_to_schur(schur_to_p(unit), n)
            if back != unit:
                raise _Mismatch(f"round trip fails at {format_partition(lam)}")
    return (
        f"inverse pairs, ring axioms ({samples} samples), "
        "orthogonality n<=8, round trip n<=7"
    )


@_check("basis-roundtrip")
def check_basis_roundtrip(g_lo: int, g_hi: int, n_max: int) -> str:
    """Schur output converts back to the power-sum coefficients exactly."""
    for g in range(g_lo, g_hi + 1):
        series = equivariant_series(g, n_max)
        for n in range(n_max + 1):
            poly = series.coeffs[n]
            if schur_to_p(p_to_schur(poly, n)) != poly:
                raise _Mismatch(f"mismatch at g={g}, n={n}")
    return f"g={g_lo}..{g_hi}, n=0..{n_max}"


def run_battery(
    g_lo: int, g_hi: int, max_points: int, roundtrip: bool = False
) -> list[CheckResult]:
    """Run every check over the given genus range and point depth.

    The double-sum depth, the totient limit and the Schur checks' point
    cap are the fixed constants above; call a check directly for a wider
    range.
    """
    _check_genus(g_lo)
    if g_hi < g_lo:
        raise ValueError(f"empty genus range {g_lo}..{g_hi}")
    if max_points < 0:
        raise ValueError(f"max points must be >= 0, got {max_points}")
    schur_points = min(max_points, _SCHUR_MAX_POINTS)
    results = [
        check_specialization(g_lo, g_hi, max_points),
        check_closed_forms(g_lo, g_hi, max_points),
        check_bini_agreement(g_lo, g_hi),
        check_double_sum_identity(g_lo, g_hi, _DOUBLE_SUM_DEPTH),
        check_low_degree_tables(g_lo, g_hi),
        check_constant_term(g_lo, g_hi),
        check_totient_identities(_TOTIENT_LIMIT),
        check_schur_integrality(g_lo, g_hi, schur_points),
        check_algebra(),
    ]
    if roundtrip:
        results.append(check_basis_roundtrip(g_lo, g_hi, schur_points))
    return results
