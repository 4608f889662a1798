"""Exact rational arithmetic and elementary number theory.

Every quantity in this package is an exact rational number; nothing is ever
rounded.  ``Rational`` is the stdlib :class:`fractions.Fraction`, which is
kept in lowest terms with a positive denominator on every construction, so
equality is structural.

The number-theoretic helpers (totient, divisor lists, generalized binomial
coefficients) cover exactly what the generating-function pipeline consumes;
there the arguments stay small (a few times the genus), so plain trial
division is the right tool.  The verification battery's totient check
calls ``euler_phi`` once per argument up to its limit and forms the divisor
sums with a sieve of its own (``verify.check_totient_identities``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

Rational = Fraction

__all__ = [
    "Rational",
    "euler_phi",
    "divisors",
    "gen_binomial",
]


def euler_phi(n: int) -> int:
    """Euler's totient: the number of integers in [1, n] coprime to n.

    euler_phi(1) == 1 by the usual convention.
    """
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def gen_binomial(m: int, j: int) -> int:
    """Generalized binomial coefficient C(m, j) = m(m-1)...(m-j+1)/j!.

    Defined for any integer m (negative included) and j >= 0; the result is
    always an integer.  For m >= 0 and j > m it is 0.
    """
    if j < 0:
        raise ValueError(f"gen_binomial requires j >= 0, got {j}")
    if m >= 0:
        return comb(m, j)
    # C(m, j) = (-1)^j C(j - m - 1, j) for m < 0.
    return (-1) ** j * comb(j - m - 1, j)
