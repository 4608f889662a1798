"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately implemented by a different route than the
library: dense multivariate polynomials instead of sparse power-sum maps,
alternant coefficient extraction instead of border-strip recursion, plain
counting instead of closed forms.  The ``reference_*`` functions keep the
library's earlier term-by-term kernels (series products one factor at a
time, Schur conversion one Fraction multiply-add per character) to pin the
integer kernels that replaced them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

from hypeuler.hyperelliptic_core import symmetry_classes
from hypeuler.schur_transform import (
    Partition,
    SchurVector,
    centralizer_order,
    mn_character,
    p_monomial_cycle_type,
    partitions_of,
)
from hypeuler.symfunc_series import (
    PSMonomial,
    PSPolynomial,
    TSeries,
    binomial_factor,
    linear_combine,
    series_mul,
)

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
# power-sum polynomial product by multiset concatenation


def naive_ps_mul(a: PSPolynomial, b: PSPolynomial) -> PSPolynomial:
    out: dict[PSMonomial, Fraction] = {}
    for ma, ca in a.terms.items():
        bag_a = Counter(dict(ma.exps))
        for mb, cb in b.terms.items():
            bag = bag_a + Counter(dict(mb.exps))
            mono = PSMonomial(sorted(bag.items()))
            val = out.get(mono, Fraction(0)) + ca * cb
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
    return PSPolynomial(out)


def cauchy_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = min(len(a), len(b))
    return [
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# the equivariant series by one truncated series product per factor


def reference_product(factors, order: int) -> TSeries:
    """prod (1 + p_k t^k)^m, multiplying in one binomial series at a time."""
    result = TSeries.one(order)
    for k, m in factors:
        result = series_mul(result, binomial_factor(k, m, order))
    return result


def reference_equivariant_series(g: int, order: int) -> TSeries:
    """The class-weighted sum of per-class products, combined as series."""
    return linear_combine(
        (term.coefficient, reference_product(term.factors, order))
        for term in symmetry_classes(g)
    )


# ---------------------------------------------------------------------------
# power-sum <-> Schur conversion by one Fraction multiply-add per pair


def reference_p_to_schur(poly: PSPolynomial, n: int) -> SchurVector:
    """sum_mu c_mu chi^lambda(mu) for each lambda, summed as Fractions."""
    cycle_coeffs: dict[Partition, Fraction] = {}
    for mono, coeff in poly.terms.items():
        if mono.weight != n:
            raise ValueError(
                f"monomial {mono} has weight {mono.weight}, expected {n}"
            )
        mu = p_monomial_cycle_type(mono)
        cycle_coeffs[mu] = cycle_coeffs.get(mu, Fraction(0)) + coeff
    out: dict[Partition, Fraction] = {}
    for lam in partitions_of(n):
        total = Fraction(0)
        for mu, c in cycle_coeffs.items():
            total += c * mn_character(lam, mu)
        if total:
            out[lam] = total
    return SchurVector(n, out)


def reference_schur_to_p(vec: SchurVector) -> PSPolynomial:
    """s_lambda = sum_mu chi^lambda(mu)/z_mu p_mu, summed as Fractions."""
    terms: dict[PSMonomial, Fraction] = {}
    for lam, c in vec.coeffs.items():
        for mu in partitions_of(vec.n):
            chi = mn_character(lam, mu)
            if not chi:
                continue
            exps: dict[int, int] = {}
            for part in mu.parts:
                exps[part] = exps.get(part, 0) + 1
            mono = PSMonomial(sorted(exps.items()))
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
    ones = Partition([1] * vec.n)
    total = Fraction(0)
    for lam, c in vec.coeffs.items():
        total += c * mn_character(lam, ones)
    return total
