"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately implemented by a different route than the
library: dense multivariate polynomials instead of sparse power-sum maps,
alternant coefficient extraction instead of border-strip recursion, plain
counting instead of closed forms.  The ``reference_*`` functions compute
term by term what the library's integer kernels compute in one pass (series
products one factor at a time, Schur conversion one Fraction multiply-add
per character) to pin those kernels.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

from hypeuler.hyperelliptic_core import symmetry_classes
from hypeuler.schur_transform import (
    SchurVector,
    centralizer_order,
    mn_character,
    partitions_of,
)
from hypeuler.symfunc_series import PSPolynomial, TSeries, format_monomial

# ---------------------------------------------------------------------------
# number theory


def phi_bruteforce(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def divisors_bruteforce(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def partition_count(n: int) -> int:
    # p(n) by the standard coin-style dynamic program over part sizes.
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# ---------------------------------------------------------------------------
# dense polynomials in m variables: dict[exponent tuple -> int coefficient]


def dense_mul(a: dict, b: dict) -> dict:
    out: dict[tuple, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def vandermonde(m: int) -> dict:
    poly = {(0,) * m: 1}
    for i in range(m):
        for j in range(i + 1, m):
            ei = [0] * m
            ei[i] = 1
            ej = [0] * m
            ej[j] = 1
            poly = dense_mul(poly, {tuple(ei): 1, tuple(ej): -1})
    return poly


def power_sum_dense(k: int, m: int) -> dict:
    out: dict[tuple, int] = {}
    for i in range(m):
        e = [0] * m
        e[i] = k
        out[tuple(e)] = 1
    return out


def character_oracle(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by alternant coefficient extraction.

    The product p_mu(x) * prod_{i<j}(x_i - x_j) in m = len(lam) variables
    expands as sum_nu chi^nu(mu) * (alternant of nu); the strictly
    decreasing exponent vector lam + (m-1, ..., 0) appears only in the nu =
    lam alternant, with coefficient exactly chi^lam(mu).
    """
    m = len(lam)
    if m == 0:
        return 1
    poly = vandermonde(m)
    for k in mu:
        poly = dense_mul(poly, power_sum_dense(k, m))
    target = tuple(lam[i] + (m - 1 - i) for i in range(m))
    return poly.get(target, 0)


# ---------------------------------------------------------------------------
# series as lists of {exponent tuple: coefficient} dicts, one per t-degree,
# multiplied as exponent multisets


def cauchy_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = min(len(a), len(b))
    return [
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(n)
    ]


def _series_mul(a: list[dict], b: list[dict]) -> list[dict]:
    # Truncated Cauchy product of two series of the same order.
    order = len(a) - 1
    out: list[dict] = [{} for _ in range(order + 1)]
    for i, pa in enumerate(a):
        for j in range(order + 1 - i):
            bucket = out[i + j]
            for ea, ca in pa.items():
                for eb, cb in b[j].items():
                    bag = Counter(dict(ea)) + Counter(dict(eb))
                    key = tuple(sorted(bag.items()))
                    bucket[key] = bucket.get(key, 0) + ca * cb
    return out


def _binomial_series(k: int, m: int, order: int) -> list[dict]:
    # (1 + p_k t^k)^m, with C(m, j) = C(m, j-1) * (m-j+1) / j.
    series: list[dict] = [{(): 1}] + [{} for _ in range(order)]
    c = 1
    for j in range(1, order // k + 1):
        c = c * (m - j + 1) // j
        if c:
            series[k * j] = {((k, j),): c}
    return series


def _dicts(series: TSeries) -> list[dict]:
    return [dict(poly.terms) for poly in series.coeffs]


def _tseries(series: list[dict]) -> TSeries:
    return TSeries(len(series) - 1, [PSPolynomial(b) for b in series])


def reference_series_mul(a: TSeries, b: TSeries) -> TSeries:
    """The truncated product of two series of the same order."""
    return _tseries(_series_mul(_dicts(a), _dicts(b)))


def reference_sum_of_products(terms, order: int) -> TSeries:
    """sum w * prod (1 + p_k t^k)^m, one binomial series at a time."""
    total: list[dict] = [{} for _ in range(order + 1)]
    for weight, factors in terms:
        product: list[dict] = [{(): 1}] + [{} for _ in range(order)]
        for k, m in factors:
            product = _series_mul(product, _binomial_series(k, m, order))
        for bucket, part in zip(total, product):
            for exps, c in part.items():
                bucket[exps] = bucket.get(exps, 0) + weight * c
    return _tseries(total)


def reference_product(factors, order: int) -> TSeries:
    """prod (1 + p_k t^k)^m, multiplying in one binomial series at a time."""
    return reference_sum_of_products([(1, factors)], order)


def reference_equivariant_series(g: int, order: int) -> TSeries:
    """The class-weighted sum of per-class products, combined as series."""
    return reference_sum_of_products(
        ((term.coefficient, term.factors) for term in symmetry_classes(g)),
        order,
    )


# ---------------------------------------------------------------------------
# power-sum <-> Schur conversion by one Fraction multiply-add per pair


def reference_p_to_schur(poly: PSPolynomial, n: int) -> SchurVector:
    """sum_mu c_mu chi^lambda(mu) for each lambda, summed as Fractions."""
    cycle_coeffs: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in poly.terms.items():
        weight = sum(k * e for k, e in mono)
        if weight != n:
            raise ValueError(
                f"monomial {format_monomial(mono)} has weight {weight}, "
                f"expected {n}"
            )
        mu = tuple(sorted(Counter(dict(mono)).elements(), reverse=True))
        cycle_coeffs[mu] = cycle_coeffs.get(mu, Fraction(0)) + coeff
    out: dict[tuple[int, ...], Fraction] = {}
    for lam in partitions_of(n):
        total = Fraction(0)
        for mu, c in cycle_coeffs.items():
            total += c * mn_character(lam, mu)
        if total:
            out[lam] = total
    return SchurVector(n, out)


def reference_schur_to_p(vec: SchurVector) -> PSPolynomial:
    """s_lambda = sum_mu chi^lambda(mu)/z_mu p_mu, summed as Fractions."""
    terms: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for lam, c in vec.coeffs.items():
        for mu in partitions_of(vec.n):
            chi = mn_character(lam, mu)
            if not chi:
                continue
            mono = tuple(sorted(Counter(mu).items()))
            val = terms.get(mono, Fraction(0)) + c * Fraction(
                chi, centralizer_order(mu)
            )
            if val:
                terms[mono] = val
            else:
                terms.pop(mono, None)
    return PSPolynomial(terms)


def reference_schur_dimension_sum(vec: SchurVector) -> Fraction:
    """sum_lambda c_lambda chi^lambda(1^n), summed as Fractions."""
    ones = (1,) * vec.n
    total = Fraction(0)
    for lam, c in vec.coeffs.items():
        total += c * mn_character(lam, ones)
    return total
