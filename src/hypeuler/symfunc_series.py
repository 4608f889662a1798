"""Sparse polynomials in power-sum generators and truncated series over them.

The ambient ring is Q[p_1, p_2, ...], the polynomial ring in the power-sum
symmetric functions, graded so that p_k has weight k.  A monomial
p_{k_1}^{e_1} * ... is keyed by the plain tuple of its (k, e) pairs in
ascending k, e.g. ((1, 2), (3, 1)) for p_1^2 * p_3 and () for the unit;
``format_monomial`` renders it as "p1^2*p3".  A ``PSPolynomial`` maps such
keys to rational coefficients, checking the keys it is given, and a
``TSeries`` is a polynomial in a formal variable t truncated at a fixed
order whose t^n coefficient is a ``PSPolynomial``.

The moduli pipeline needs one operation on these: a rational combination of
products of binomial factors (1 + p_k t^k)^m, computed by
``sum_of_products``.  It works as a direct-product kernel over integers.
Factors sharing a generator merge into one, so the generators of a product
are distinct and its monomials are exactly the exponent vectors (j_k) with
sum k*j_k <= N, each met once with coefficient prod C(m_k, j_k).  Weights
are scaled to their common denominator, coefficients are summed as
integers, and one Fraction is built per output monomial, in a polynomial
that skips the key checks.  In such a series the t^n coefficient is
homogeneous of weight n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping

from .exact_arith import Rational, gen_binomial

__all__ = [
    "PSPolynomial",
    "TSeries",
    "sum_of_products",
    "specialize_p1",
    "format_monomial",
]

# A monomial key: (generator, exponent) pairs, see the module docstring.
Monomial = tuple[tuple[int, int], ...]


def format_monomial(mono: Monomial) -> str:
    """The text form of a monomial key, e.g. "p1^2*p3"; the unit is "1"."""
    if not mono:
        return "1"
    return "*".join(f"p{k}" if e == 1 else f"p{k}^{e}" for k, e in mono)


def _check_monomial(mono: Monomial) -> None:
    # A key from outside: (k, e) pairs with ascending k >= 1 and e >= 1.
    prev = 0
    for k, e in mono:
        if k <= prev or e <= 0:
            raise ValueError(f"not a monomial key: {mono!r}")
        prev = k


class PSPolynomial:
    """A finite Q-linear combination of power-sum monomials.

    ``terms`` maps monomial keys to nonzero Fractions; the zero polynomial
    has no terms.  Instances are immutable.
    """

    __slots__ = ("terms",)

    terms: dict[Monomial, Fraction]

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                _check_monomial(mono)
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Fraction]) -> "PSPolynomial":
        # For kernel output: well-formed keys, nonzero Fraction values.
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("PSPolynomial is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PSPolynomial) and self.terms == other.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def is_homogeneous(self, weight: int) -> bool:
        """True if every stored monomial has the given weight."""
        return all(
            sum(k * e for k, e in mono) == weight for mono in self.terms
        )

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (exponent-lexicographic) order."""
        return sorted(self.terms.items(), key=itemgetter(0))

    def __repr__(self) -> str:
        return f"PSPolynomial({dict(self.sorted_terms())!r})"


class TSeries:
    """A power series in t truncated at a fixed order N.

    ``coeffs[n]`` is the PSPolynomial coefficient of t^n, for n = 0..N.
    Series produced by the moduli pipeline are weight-graded (the t^n
    coefficient is homogeneous of weight n).
    """

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[PSPolynomial, ...]

    def __init__(self, order: int, coeffs: Iterable[PSPolynomial]):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"expected {order + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def is_weight_graded(self) -> bool:
        """True if the t^n coefficient is homogeneous of weight n for all n."""
        return all(
            poly.is_homogeneous(n) for n, poly in enumerate(self.coeffs)
        )

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def _merged_generators(
    factors: Iterable[tuple[int, int]], order: int
) -> list[tuple[int, int]]:
    # (k, m) pairs with distinct k in ascending order, exponents of a shared
    # generator summed; factors equal to 1 below t^(order+1) are dropped.
    merged: dict[int, int] = {}
    for k, m in factors:
        if k < 1:
            raise ValueError(f"generator index must be >= 1, got {k}")
        merged[k] = merged.get(k, 0) + m
    return sorted((k, m) for k, m in merged.items() if m and k <= order)


def _direct_product(
    gens: list[tuple[int, int]], order: int
) -> list[tuple[tuple[tuple[int, int], ...], int, int]]:
    # The monomials of prod (1 + p_k t^k)^m over distinct generators, as
    # (exponent tuple, weight, integer coefficient) triples of weight
    # <= order.  Distinct generators make every exponent vector occur once.
    out: list[tuple[tuple[tuple[int, int], ...], int, int]] = [((), 0, 1)]
    for k, m in gens:
        row = []
        for j in range(1, order // k + 1):
            c = gen_binomial(m, j)
            if not c:
                break
            row.append((((k, j),), k * j, c))
        grown = list(out)
        for exps, w, c in out:
            for gen_exps, gen_w, gen_c in row:
                if w + gen_w > order:
                    break
                grown.append((exps + gen_exps, w + gen_w, c * gen_c))
        out = grown
    return out


def sum_of_products(
    terms: Iterable[tuple[Rational, Iterable[tuple[int, int]]]], order: int
) -> TSeries:
    """Exact sum of w * prod (1 + p_k t^k)^m over (w, factors) terms.

    Each term is a rational weight and a list of (k, m) binomial factors
    with k >= 1 and any integer m; the result is truncated at t^order.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    merged = [
        (Fraction(weight), _merged_generators(factors, order))
        for weight, factors in terms
    ]
    denom = lcm(*(weight.denominator for weight, _ in merged))
    sums: list[dict[tuple[tuple[int, int], ...], int]] = [
        {} for _ in range(order + 1)
    ]
    for weight, gens in merged:
        scale = weight.numerator * (denom // weight.denominator)
        if not scale:
            continue
        for exps, w, c in _direct_product(gens, order):
            bucket = sums[w]
            bucket[exps] = bucket.get(exps, 0) + scale * c
    return TSeries(
        order,
        [
            PSPolynomial._trusted(
                {
                    exps: Fraction(num, denom)
                    for exps, num in bucket.items()
                    if num
                }
            )
            for bucket in sums
        ],
    )


def specialize_p1(series: TSeries) -> list[Fraction]:
    """Evaluate each t^n coefficient at p_1 = 1, p_k = 0 for k > 1.

    Only monomials that are pure powers of p_1 survive; the n-th entry of
    the result is the sum of their coefficients.  For the equivariant
    pipeline this yields the non-equivariant Euler characteristic divided
    by n!.
    """
    out: list[Fraction] = []
    for poly in series.coeffs:
        total = Fraction(0)
        for mono, coeff in poly.terms.items():
            if all(k == 1 for k, _ in mono):
                total += coeff
        out.append(total)
    return out
