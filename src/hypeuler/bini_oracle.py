"""Independent recomputation of chi(H_{g,n}) from Bini's formula.

G. Bini derived the non-equivariant Euler characteristics of pointed
hyperelliptic moduli in the range 5 <= n <= 2g+2 as a sum of binomial
brackets.  This module evaluates that long form bracket by bracket as the
independent oracle against the closed forms in
:mod:`hypeuler.hyperelliptic_core`.  Each bracket is summed in integers
over its power of 4, and the cross term over the common denominator
2^n (n-1)!, so only one Fraction is built per bracket; the double sum is
summed in integers over (2g+2)! n!.  Its compact rewrite is a
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

from .hyperelliptic_core import _check_genus

__all__ = [
    "bini_chi_compact",
    "bini_chi_long",
    "bini_double_sum",
    "bini_double_sum_closed_form",
]


def _comb0(a: int, b: int) -> int:
    # Binomial that vanishes outside 0 <= b <= a.
    if b < 0 or a < 0:
        return 0
    return comb(a, b)


def _falling_tail(g: int, n: int) -> int:
    # (2g-1)(2g-2)...(2g-n+3): the product of n-3 consecutive integers.
    return prod(range(2 * g - n + 3, 2 * g))


def _check_range(g: int, n: int) -> None:
    _check_genus(g)
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


def _bracket(g: int, m: int) -> int:
    # 4^(m//2) times sum_{r=0}^{m//2} (-1)^r 4^(-r) C(2g-1+r, r)
    # C(2g-1+m-r, m-2r), a bracket of the long form over (2g-1)!.  The
    # printed source writes the leading terms out: r = 1 as (2g)!/4 and
    # r = 2 as (2g+1)!/32 times the second binomial.
    top = m // 2
    total = 0
    for r in range(top + 1):
        term = comb(2 * g - 1 + r, r) * comb(2 * g - 1 + m - r, m - 2 * r)
        total += (-term if r % 2 else term) << 2 * (top - r)
    return total


def bini_chi_long(g: int, n: int) -> Fraction:
    """chi(H_{g,n}) for 5 <= n <= 2g+2 via the original bracketed formula."""
    _check_range(g, n)
    f = factorial
    a = (-2) ** n * f(n)
    c = f(2 * g - 1)

    # The first bracket (m = n), the second (m = n-1) and the tail (m = n-2),
    # each an integer over its power of 4, with the denominators of their
    # prefactors -a/(2 (2g+2)!), a/(4 (2g+1)!) and -a/(16 (2g)!).  The lone
    # (2g-1)! C(2g-3+n, n-2) term of the printed formula shares the tail's
    # prefactor and is the r = 0 term of its sum.
    total = Fraction(-_falling_tail(g, n))
    for m, denom in (
        (n, -2 * f(2 * g + 2)),
        (n - 1, 4 * f(2 * g + 1)),
        (n - 2, -16 * f(2 * g)),
    ):
        total += Fraction(a * c * _bracket(g, m), denom << 2 * (m // 2))

    # The cross term over 2^n (n-1)!, a common multiple of every
    # 2^(j+2r) j!/(j-3)!.  Of its three binomials only C(2g-1+r, 2g+2-j)
    # has a lower index that the loop bounds alone do not keep >= 0 (only
    # n <= 2g+2 does), so it alone goes through _comb0.
    common = f(n - 1)
    cross = 0
    for j in range(3, n):
        inner = 0
        for r in range((n - j) // 2 + 1):
            term = (
                comb(j + r - 3, r)
                * _comb0(2 * g - 1 + r, 2 * g + 2 - j)
                * comb(2 * g - 1 + n - j - r, n - j - 2 * r)
            )
            inner += (-term if r % 2 else term) << n - j - 2 * r
        weight = common // (j * (j - 1) * (j - 2))
        cross += -inner * weight if j % 2 else inner * weight
    return total + Fraction(-a * cross, 2 * common << n)


def bini_double_sum(g: int, n: int) -> Fraction:
    """The signed double sum underlying the compact formula.

    sum over j,r >= 0 with j + 2r <= n of
    (-1)^(n-j-r) 2^(n-j-2r) (2g-1+n-j-r)! / (j! r! (2g+2-j)! (n-j-2r)!).
    Defined for every n >= 0; equals the closed form below.  Summed as
    integers over (2g+2)! n!; the terms with j > 2g+2 are zero.
    """
    _check_genus(g)
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    f = [1]
    for k in range(1, 2 * g + 3 + n):
        f.append(f[-1] * k)
    total = 0
    for j in range(min(n, 2 * g + 2) + 1):
        outer = comb(2 * g + 2, j)
        for r in range((n - j) // 2 + 1):
            k = n - j - r
            m = k - r
            term = outer * (f[n] // (f[r] * f[m])) * f[2 * g - 1 + k] << m
            total += -term if k % 2 else term
    return Fraction(total, f[2 * g + 2] * f[n])


def bini_double_sum_closed_form(g: int, n: int) -> Fraction:
    """(-1)^n (2g+n-3)! / (2g (2g+1) (2g+2) n! (2g-3)!).

    The factorial ratio is the binomial C(2g+n-3, n), whose cost follows n
    and not the genus.
    """
    _check_genus(g)
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    return Fraction(
        (-1) ** n * comb(2 * g + n - 3, n), 2 * g * (2 * g + 1) * (2 * g + 2)
    )
