"""Integer partitions, symmetric-group characters, and the Schur basis.

A homogeneous weight-n polynomial in the power sums is the character of a
virtual S_n-representation: writing it as sum_mu c_mu p_mu over cycle types
mu, its Schur expansion is obtained through the classical pairing

    p_mu = sum_lambda chi^lambda(mu) s_lambda,

where chi^lambda is the irreducible character indexed by lambda.  The
characters are computed by the Murnaghan-Nakayama border-strip recursion,
implemented on beta-sets (first-column hook lengths) and memoized on
part tuples.

A partition is the plain tuple of its parts, largest first: (2, 1, 1),
rendered "[2,1,1]" by ``format_partition``; () is the empty partition.  It
keys a ``SchurVector``, whose constructor checks its keys, as do
``mn_character`` and ``centralizer_order`` with their arguments.  A p_mu
keeps its (k, e) key from ``symfunc_series``; ``_cycle_parts`` and
``_multiplicities`` convert between the two forms in this one module.

The inverse expansion s_lambda = sum_mu chi^lambda(mu)/z_mu p_mu, with z_mu
the centralizer order of the cycle type, is provided for round-trip checks.

Every conversion pairs characters with integers: the rational coefficients
are scaled once to their common denominator (for the inverse expansion also
times n!, which every z_mu divides), the pairings are summed as integers,
and one Fraction is built per nonzero output coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, lcm
from operator import itemgetter, mul
from typing import Collection, Mapping

from .exact_arith import Rational
from .symfunc_series import Monomial, PSPolynomial, format_monomial

__all__ = [
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
]

# A partition, see the module docstring.
Parts = tuple[int, ...]


def format_partition(lam: Parts) -> str:
    """The text form of a partition key, e.g. "[2,1]"; () is "[]"."""
    return "[" + ",".join(map(str, lam)) + "]"


def _check_partition(lam: Parts, n: int) -> None:
    # A key or argument from outside: positive parts, largest first, sum n.
    if lam != tuple(sorted(lam, reverse=True)) or (lam and lam[-1] < 1):
        raise ValueError(f"not a partition: {lam!r}")
    if sum(lam) != n:
        raise ValueError(f"{format_partition(lam)} is not a partition of {n}")


def conjugate(lam: Parts) -> Parts:
    """The transposed Young diagram of a partition; lam is not checked."""
    # Bottom row first: the columns row i (1-based) has beyond row i + 1
    # hold i boxes each.
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        cols += [i] * (lam[i - 1] - len(cols))
    return tuple(cols)


def partitions_of(n: int) -> list[Parts]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError(f"partitions_of requires n >= 0, got {n}")
    out: list[Parts] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(max_part, remaining), 0, -1):
            prefix.append(first)
            rec(remaining - first, first, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def _beta_set(lam: tuple[int, ...]) -> list[int]:
    # First-column hook lengths: lam_i + (rows - 1 - i), strictly decreasing.
    rows = len(lam)
    return [lam[i] + rows - 1 - i for i in range(rows)]


def _partition_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    rows = len(beta)
    parts = [beta[i] - (rows - 1 - i) for i in range(rows)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1  # both empty (sizes agree by construction)
    strip = mu[0]
    rest = mu[1:]
    beta = _beta_set(lam)
    members = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in members:
            continue
        # Rows crossed by the strip, minus one, gives the sign exponent.
        height = sum(1 for c in beta if nb < c < b)
        new_beta = [nb if c == b else c for c in beta]
        total += (-1) ** height * _mn(_partition_from_beta(new_beta), rest)
    return total


def mn_character(lam: Parts, mu: Parts) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu.

    Both partitions must have the same size.  Computed by removing border
    strips of each part length of mu in turn; removing a strip of length k
    is a move b -> b - k in the beta-set, with sign (-1)^(rows crossed - 1).
    """
    _check_partition(mu, sum(mu))
    _check_partition(lam, sum(mu))
    return _mn(lam, mu)


def _cycle_parts(exps: Monomial) -> Parts:
    # The cycle type of p_k^e_k...: e_k parts equal to k, largest first.
    return tuple(k for k, e in reversed(exps) for _ in range(e))


def _multiplicities(parts: Parts) -> Monomial:
    # (part, multiplicity) pairs by ascending part: the exponents of p_mu.
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return tuple(sorted(mult.items()))


def _centralizer(exps: Monomial) -> int:
    z = 1
    for k, e in exps:
        z *= k**e * factorial(e)
    return z


def _common_denominator(
    coeffs: Collection[Fraction],
) -> tuple[list[int], int]:
    # The coefficients as integer numerators over their least common
    # denominator (1 for an empty collection).
    denom = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (denom // c.denominator) for c in coeffs], denom


def centralizer_order(mu: Parts) -> int:
    """z_mu = prod_k k^(e_k) e_k! over the distinct part sizes of mu."""
    _check_partition(mu, sum(mu))
    return _centralizer(_multiplicities(mu))


class SchurVector:
    """A finite rational combination of Schur functions of one degree n.

    ``coeffs`` maps partitions of n to nonzero Fractions.  For outputs of
    the moduli pipeline every coefficient is an integer (a virtual
    multiplicity); that is asserted by the verification battery, not by this
    container.
    """

    __slots__ = ("n", "coeffs")

    n: int
    coeffs: dict[Parts, Fraction]

    def __init__(self, n: int, coeffs: Mapping[Parts, Rational] | None = None):
        clean: dict[Parts, Fraction] = {}
        if coeffs:
            for lam, c in coeffs.items():
                _check_partition(lam, n)
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[lam] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, n: int, coeffs: dict[Parts, Fraction]) -> "SchurVector":
        # For kernel output: partitions of n, nonzero Fraction values.
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "coeffs", coeffs)
        return vec

    def __setattr__(self, name, value):
        raise AttributeError("SchurVector is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchurVector)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, lam: Parts) -> Fraction:
        return self.coeffs.get(lam, Fraction(0))

    def is_integer_valued(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def sorted_items(self) -> list[tuple[Parts, Fraction]]:
        """Coefficients in reverse-lexicographic partition order."""
        return sorted(self.coeffs.items(), key=itemgetter(0), reverse=True)

    def __repr__(self) -> str:
        return f"SchurVector({self.n}, {dict(self.sorted_items())!r})"


def p_to_schur(poly: PSPolynomial, n: int) -> SchurVector:
    """Expand a homogeneous weight-n power-sum polynomial in Schur functions.

    With poly = sum_mu c_mu p_mu, returns the vector whose lambda entry is
    sum_mu c_mu chi^lambda(mu).
    """
    # Distinct monomials have distinct cycle types.
    mus = [_cycle_parts(mono) for mono in poly.terms]
    for mono, mu in zip(poly.terms, mus):
        if sum(mu) != n:
            raise ValueError(
                f"monomial {format_monomial(mono)} has weight {sum(mu)}, "
                f"expected {n}"
            )
    nums, denom = _common_denominator(poly.terms.values())
    out: dict[Parts, Fraction] = {}
    for lam in partitions_of(n):
        total = sum(map(mul, nums, map(_mn, repeat(lam), mus)))
        if total:
            out[lam] = Fraction(total, denom)
    return SchurVector._trusted(n, out)


def schur_to_p(vec: SchurVector) -> PSPolynomial:
    """Inverse expansion: s_lambda = sum_mu chi^lambda(mu)/z_mu * p_mu."""
    n = vec.n
    lams = list(vec.coeffs)
    nums, denom = _common_denominator(vec.coeffs.values())
    # n!/z_mu is the size of a conjugacy class, an integer.
    n_fact = factorial(n)
    terms: dict[Monomial, Fraction] = {}
    for mu in partitions_of(n):
        total = sum(map(mul, nums, map(_mn, lams, repeat(mu))))
        if total:
            exps = _multiplicities(mu)
            terms[exps] = Fraction(
                total * (n_fact // _centralizer(exps)), n_fact * denom
            )
    return PSPolynomial._trusted(terms)


def schur_dimension_sum(vec: SchurVector) -> Fraction:
    """sum_lambda c_lambda * f^lambda, with f^lambda = chi^lambda(1^n).

    For the pipeline this recovers the plain Euler characteristic from the
    equivariant one.
    """
    ones = (1,) * vec.n
    nums, denom = _common_denominator(vec.coeffs.values())
    total = sum(
        num * _mn(lam, ones) for lam, num in zip(vec.coeffs, nums)
    )
    return Fraction(total, denom)


def sign_twist(vec: SchurVector) -> SchurVector:
    """Tensor the virtual representation with the sign character.

    Sends each s_lambda to s_(lambda conjugate); equivalently multiplies the
    p_mu coefficients by the sign of the underlying permutations.
    """
    return SchurVector._trusted(
        vec.n, {conjugate(lam): c for lam, c in vec.coeffs.items()}
    )
