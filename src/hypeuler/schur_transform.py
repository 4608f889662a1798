"""Integer partitions, symmetric-group characters, and the Schur basis.

A homogeneous weight-n polynomial in the power sums is the character of a
virtual S_n-representation: writing it as sum_mu c_mu p_mu over cycle types
mu, its Schur expansion is obtained through the classical pairing

    p_mu = sum_lambda chi^lambda(mu) s_lambda,

where chi^lambda is the irreducible character indexed by lambda.  The
characters are computed by the Murnaghan-Nakayama border-strip recursion,
implemented on beta-sets (first-column hook lengths) and memoized on
part tuples.

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
from operator import mul
from typing import Collection, Iterable, Mapping

from .exact_arith import Rational
from .symfunc_series import PSMonomial, PSPolynomial

__all__ = [
    "Partition",
    "SchurVector",
    "partitions_of",
    "mn_character",
    "p_monomial_cycle_type",
    "p_to_schur",
    "schur_to_p",
    "schur_dimension_sum",
    "centralizer_order",
    "sign_twist",
]


class Partition:
    """An integer partition: a non-increasing tuple of positive parts.

    The canonical form stores no trailing zeros, so equality is structural.
    The empty partition (of 0) is ``Partition(())``.
    """

    __slots__ = ("parts", "_hash")

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash(parts))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        # For part tuples generated positive and non-increasing.
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        object.__setattr__(lam, "_hash", hash(parts))
        return lam

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def conjugate(self) -> "Partition":
        """The transposed Young diagram."""
        if not self.parts:
            return self
        cols = tuple(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )
        return Partition._trusted(cols)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError(f"partitions_of requires n >= 0, got {n}")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition._trusted(tuple(prefix)))
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


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu.

    Both partitions must have the same size.  Computed by removing border
    strips of each part length of mu in turn; removing a strip of length k
    is a move b -> b - k in the beta-set, with sign (-1)^(rows crossed - 1).
    """
    if lam.size != mu.size:
        raise ValueError(
            f"partition sizes differ: |{lam}| = {lam.size}, |{mu}| = {mu.size}"
        )
    return _mn(lam.parts, mu.parts)


def _cycle_parts(exps: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    # The parts of p_k^e_k..., largest first as in Partition.parts.
    return tuple(k for k, e in reversed(exps) for _ in range(e))


def _multiplicities(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    # (part, multiplicity) pairs by ascending part: the exponents of p_mu.
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return tuple(sorted(mult.items()))


def _centralizer(exps: tuple[tuple[int, int], ...]) -> int:
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


def p_monomial_cycle_type(mono: PSMonomial) -> Partition:
    """The cycle type with e_k parts equal to k for each factor p_k^e_k."""
    return Partition(_cycle_parts(mono.exps))


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod_k k^(e_k) e_k! over the distinct part sizes of mu."""
    return _centralizer(_multiplicities(mu.parts))


class SchurVector:
    """A finite rational combination of Schur functions of one degree n.

    For outputs of the moduli pipeline every coefficient is an integer (a
    virtual multiplicity); that is asserted by the verification battery,
    not by this container.
    """

    __slots__ = ("n", "coeffs")

    n: int
    coeffs: dict[Partition, Fraction]

    def __init__(self, n: int, coeffs: Mapping[Partition, Rational] | None = None):
        clean: dict[Partition, Fraction] = {}
        if coeffs:
            for lam, c in coeffs.items():
                if lam.size != n:
                    raise ValueError(f"partition {lam} does not have size {n}")
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[lam] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

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

    def coefficient(self, lam: Partition) -> Fraction:
        return self.coeffs.get(lam, Fraction(0))

    def is_integer_valued(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        """Coefficients in reverse-lexicographic partition order."""
        return sorted(
            self.coeffs.items(), key=lambda kv: kv[0].parts, reverse=True
        )

    def __repr__(self) -> str:
        return f"SchurVector({self.n}, {dict(self.sorted_items())!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*s{lam}" for lam, c in self.sorted_items()
        )


def p_to_schur(poly: PSPolynomial, n: int) -> SchurVector:
    """Expand a homogeneous weight-n power-sum polynomial in Schur functions.

    With poly = sum_mu c_mu p_mu, returns the vector whose lambda entry is
    sum_mu c_mu chi^lambda(mu).
    """
    for mono in poly.terms:
        if mono.weight != n:
            raise ValueError(
                f"monomial {mono} has weight {mono.weight}, expected {n}"
            )
    # Distinct monomials have distinct cycle types, all of size n.
    mus = [_cycle_parts(mono.exps) for mono in poly.terms]
    nums, denom = _common_denominator(poly.terms.values())
    out: dict[Partition, Fraction] = {}
    for lam in partitions_of(n):
        total = sum(map(mul, nums, map(_mn, repeat(lam.parts), mus)))
        if total:
            out[lam] = Fraction(total, denom)
    return SchurVector(n, out)


def schur_to_p(vec: SchurVector) -> PSPolynomial:
    """Inverse expansion: s_lambda = sum_mu chi^lambda(mu)/z_mu * p_mu."""
    n = vec.n
    lams = [lam.parts for lam in vec.coeffs]
    nums, denom = _common_denominator(vec.coeffs.values())
    # n!/z_mu is the size of a conjugacy class, an integer.
    n_fact = factorial(n)
    terms: dict[PSMonomial, Fraction] = {}
    for mu in partitions_of(n):
        total = sum(map(mul, nums, map(_mn, lams, repeat(mu.parts))))
        if total:
            exps = _multiplicities(mu.parts)
            terms[PSMonomial._trusted(exps, n)] = Fraction(
                total * (n_fact // _centralizer(exps)), n_fact * denom
            )
    return PSPolynomial(terms)


def schur_dimension_sum(vec: SchurVector) -> Fraction:
    """sum_lambda c_lambda * f^lambda, with f^lambda = chi^lambda(1^n).

    For the pipeline this recovers the plain Euler characteristic from the
    equivariant one.
    """
    ones = (1,) * vec.n
    nums, denom = _common_denominator(vec.coeffs.values())
    total = sum(
        num * _mn(lam.parts, ones) for lam, num in zip(vec.coeffs, nums)
    )
    return Fraction(total, denom)


def sign_twist(vec: SchurVector) -> SchurVector:
    """Tensor the virtual representation with the sign character.

    Sends each s_lambda to s_(lambda conjugate); equivalently multiplies the
    p_mu coefficients by the sign of the underlying permutations.
    """
    return SchurVector(
        vec.n, {lam.conjugate(): c for lam, c in vec.coeffs.items()}
    )
