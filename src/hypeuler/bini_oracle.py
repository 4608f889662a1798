"""Independent recomputation of chi(H_{g,n}) from Bini's formula.

G. Bini derived the non-equivariant Euler characteristics of pointed
hyperelliptic moduli in the range 5 <= n <= 2g+2 as a sum of binomial
brackets.  This module evaluates that long form bracket by bracket, in
exact rational arithmetic, as the independent oracle against the closed
forms in :mod:`hypeuler.hyperelliptic_core`.  Its compact rewrite is a
rescaling of the signed double sum :func:`bini_double_sum`:

    bini_chi_compact(g, n) = -(n!/2) bini_double_sum(g, n) - falling_tail/2,

with falling_tail = (2g-1)(2g-2)...(2g-n+3), so the compact form adds no
evidence beyond the double-sum identity and is computed that way.

Throughout, a summand containing a factorial of a negative integer --
whether in a numerator or a denominator -- contributes zero.  Two slips in
the printed source are corrected so that the long form actually equals its
own compaction: the second bracket's inner binomial is read as
C(2g-2+n-r, n-1-2r) (matching its stated upper limit floor((n-1)/2)), and
the compaction identities are read with the factorials they visibly drop,
i.e. (2g-1)! C(2g-3+n, n-2) = (2g-3+n)!/(n-2)! and the second-bracket
numerator (2g-2+n-r)!.  The verification battery checks long = compact =
closed form exactly over the genus range it is given.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .hyperelliptic_core import GenusParams

__all__ = [
    "ext_factorial",
    "bini_chi_compact",
    "bini_chi_long",
    "bini_double_sum",
    "bini_double_sum_closed_form",
]


def ext_factorial(k: int) -> int:
    """k! extended by zero on negative arguments."""
    return 0 if k < 0 else factorial(k)


def _inv_factorial(k: int) -> Fraction:
    # 1/k!, zero for negative k (reciprocal-Gamma convention).
    return Fraction(0) if k < 0 else Fraction(1, factorial(k))


def _comb0(a: int, b: int) -> int:
    # Binomial that vanishes outside 0 <= b <= a.
    if b < 0 or a < 0:
        return 0
    return comb(a, b)


def _falling_tail(g: int, n: int) -> int:
    # (2g-1)(2g-2)...(2g-n+3): the product of n-3 consecutive integers.
    return prod(range(2 * g - n + 3, 2 * g))


def _check_range(g: int, n: int) -> None:
    GenusParams(g)
    if not 5 <= n <= 2 * g + 2:
        raise ValueError(
            f"point count {n} outside the admissible range 5..{2 * g + 2}"
        )


def bini_chi_compact(g: int, n: int) -> Fraction:
    """chi(H_{g,n}) for 5 <= n <= 2g+2 via the compact double sum.

    -((-2)^n n!/2) sum over j,r >= 0 with j + 2r <= n of
    (-1)^(j+r) 2^(-j-2r) (2g-1+n-j-r)! / (j! r! (2g+2-j)! (n-j-2r)!),
    minus half the falling product (2g-1)...(2g-n+3).

    The double sum here is (-2)^(-n) times :func:`bini_double_sum`, so this
    is -(n!/2) bini_double_sum(g, n) - falling_tail/2; it is not independent
    of the double sum, and :func:`bini_chi_long` is the independent oracle.
    """
    _check_range(g, n)
    return -Fraction(factorial(n), 2) * bini_double_sum(g, n) - Fraction(
        _falling_tail(g, n), 2
    )


def bini_chi_long(g: int, n: int) -> Fraction:
    """chi(H_{g,n}) for 5 <= n <= 2g+2 via the original bracketed formula."""
    _check_range(g, n)
    f = factorial
    a = (-2) ** n * f(n)

    bracket1 = (
        Fraction(f(2 * g - 1) * _comb0(2 * g - 1 + n, n))
        - Fraction(f(2 * g), 4) * _comb0(2 * g + n - 2, n - 2)
        + Fraction(f(2 * g + 1), 32) * _comb0(2 * g + n - 3, n - 4)
    )
    for r in range(3, n // 2 + 1):
        bracket1 += (
            Fraction((-1) ** r * f(2 * g - 1), 4**r)
            * _comb0(2 * g - 1 + r, r)
            * _comb0(2 * g - 1 + n - r, n - 2 * r)
        )
    total = Fraction(-a, 2 * f(2 * g + 2)) * bracket1

    bracket2 = (
        Fraction(f(2 * g - 1) * _comb0(2 * g + n - 2, n - 1))
        - Fraction(f(2 * g), 4) * _comb0(2 * g + n - 3, n - 3)
    )
    for r in range(2, (n - 1) // 2 + 1):
        bracket2 += (
            Fraction((-1) ** r * f(2 * g - 1), 4**r)
            * _comb0(2 * g - 1 + r, r)
            * _comb0(2 * g - 2 + n - r, n - 1 - 2 * r)
        )
    total += Fraction(a, 4 * f(2 * g + 1)) * bracket2

    total += Fraction(-a, 16 * f(2 * g)) * f(2 * g - 1) * _comb0(
        2 * g - 3 + n, n - 2
    ) - _falling_tail(g, n)

    tail = Fraction(0)
    for r in range(1, (n - 2) // 2 + 1):
        tail += (
            Fraction((-1) ** r * f(2 * g - 1), 4**r)
            * _comb0(2 * g - 1 + r, r)
            * _comb0(2 * g - 3 + n - r, n - 2 - 2 * r)
        )
    total += Fraction(-a, 16 * f(2 * g)) * tail

    cross = Fraction(0)
    for j in range(3, n):
        inner = Fraction(0)
        for r in range((n - j) // 2 + 1):
            inner += (
                Fraction((-1) ** r, 4**r)
                * _comb0(j + r - 3, r)
                * _comb0(2 * g - 1 + r, 2 * g + 2 - j)
                * _comb0(2 * g - 1 + n - j - r, n - j - 2 * r)
            )
        cross += Fraction((-1) ** j * f(j - 3), 2**j * f(j)) * inner
    total += Fraction(-a, 2) * cross

    return total


def bini_double_sum(g: int, n: int) -> Fraction:
    """The signed double sum underlying the compact formula.

    sum over j,r >= 0 with j + 2r <= n of
    (-1)^(n-j-r) 2^(n-j-2r) (2g-1+n-j-r)! / (j! r! (2g+2-j)! (n-j-2r)!).
    Defined for every n >= 0; equals the closed form below.
    """
    GenusParams(g)
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    total = Fraction(0)
    for j in range(n + 1):
        inv_j = _inv_factorial(j) * _inv_factorial(2 * g + 2 - j)
        if not inv_j:
            continue
        for r in range((n - j) // 2 + 1):
            total += (
                Fraction((-1) ** (n - j - r) * 2 ** (n - j - 2 * r))
                * ext_factorial(2 * g - 1 + n - j - r)
                * inv_j
                * _inv_factorial(r)
                * _inv_factorial(n - j - 2 * r)
            )
    return total


def bini_double_sum_closed_form(g: int, n: int) -> Fraction:
    """(-1)^n (2g+n-3)! / (2g (2g+1) (2g+2) n! (2g-3)!)."""
    GenusParams(g)
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    return Fraction(
        (-1) ** n * factorial(2 * g + n - 3),
        2 * g * (2 * g + 1) * (2 * g + 2) * factorial(n) * factorial(2 * g - 3),
    )
