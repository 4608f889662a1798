"""Generating functions for Euler characteristics of pointed hyperelliptic moduli.

For genus g >= 2 let H_{g,n} denote the moduli space of genus-g hyperelliptic
curves with n ordered marked points, carrying its S_n action.  This module
assembles two generating functions:

* the equivariant series sum_n t^n chi^{S_n}(H_{g,n}), whose t^n coefficient
  is a homogeneous weight-n polynomial in the power sums p_k, built as a
  finite sum of symmetry-class terms, each a rational weight times a product
  of factors (1 + p_k t^k)^m;

* the non-equivariant series sum_n t^n/n! chi(H_{g,n}), a closed form in
  powers of (1 + t), together with the piecewise factorial formula for the
  integer values chi(H_{g,n}).

Setting p_1 = 1 and p_k = 0 (k > 1) in the first series reproduces the
second exactly; the verification battery checks this identity, the residue
tables for the low-degree mixed coefficients, and agreement with an
independent double-sum formula (see :mod:`hypeuler.bini_oracle`).

Every finite-order automorphism of a hyperelliptic curve is either the
identity, the hyperelliptic involution, or lifts a rotation of order n of
the base line about two centers.  The classes are indexed by n, by what
lies over each center, and by the order L of the lift, n or 2n.  A center
is a branch point (kind B, one fixed point), or carries a fiber of two
points that the lift fixes (F, two fixed points) or swaps (S, one 2-cycle).
The other N of the 2g+2 branch points lie on C* in N/n rotation orbits.
Each class contributes a rational weight (an orbifold Euler characteristic
of a configuration space of branch points, halved once for the involution
and once more when the two centers cannot be told apart) times the
cycle-index product of factors (1 + p_k t^k)^m_k, where k m_k is the Euler
characteristic of the points whose orbit has size k (E. Getzler, Duke
Math. J. 96 (1999)).  Every point over C* lies in an orbit of size L,
except that for L = 2n the branch points form N/n orbits of size n.  With
f fixed points and s swapped fibers over the centers, the factors are
therefore given by the orbit rule

    (1, f), (2, s), (n, N/n) if L = 2n, and (L, (2-2g-f-2s-[L = 2n] N)/L),

where [L = 2n] is 1 if L = 2n and 0 otherwise, leaving out the first two
when f or s is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact_arith import divisors, euler_phi, gen_binomial
from .schur_transform import SchurVector, p_to_schur
from .symfunc_series import Monomial, TSeries, format_monomial, sum_of_products

__all__ = [
    "SymmetryClassTerm",
    "orbifold_euler_char",
    "unordered_config_euler",
    "rotation_class_euler",
    "symmetry_classes",
    "equivariant_series",
    "equivariant_schur",
    "nonequivariant_series",
    "closed_form_coefficients",
    "chi_pointed",
    "low_degree_coefficient",
]


def _check_genus(g: int) -> None:
    # Every genus in this package is that of a hyperelliptic curve.
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")


@dataclass(frozen=True)
class SymmetryClassTerm:
    """One symmetry-class contribution to the equivariant series.

    ``factors`` lists (k, m) pairs for the product of (1 + p_k t^k)^m; the
    divisibility condition selecting ``order_n`` guarantees every m is an
    integer.  ``order_n`` is the rotation order on the base line, None for
    the identity and involution classes.
    """

    label: str
    coefficient: Fraction
    factors: tuple[tuple[int, int], ...]
    order_n: int | None = None


def orbifold_euler_char(g: int) -> Fraction:
    """Orbifold Euler characteristic of the unpointed moduli space H_g."""
    _check_genus(g)
    return Fraction(-1, 2 * 2 * g * (2 * g + 1) * (2 * g + 2))


def unordered_config_euler(k: int) -> Fraction:
    """Orbifold Euler characteristic of k unordered points on C* up to scaling.

    Equals (-1)^(1-k)/k: scaling one point to 1 leaves k-1 distinct points
    on the line minus two points, whose unordered configuration space has
    Euler characteristic (-1)^(k-1), and the normalized point can be chosen
    in k ways.
    """
    if k < 1:
        raise ValueError(f"point count must be >= 1, got {k}")
    return Fraction((-1) ** ((1 - k) % 2), k)


def rotation_class_euler(order_n: int, num_points: int) -> Fraction:
    """Class weight of order-n rotations on N-point configurations of C*.

    For n >= 2 dividing N this is (-1)^(1 - N/n) * phi(n)/N: an invariant
    configuration is assembled from q = N/n full rotation orbits, so taking
    n-th powers of the coordinates reduces each of the phi(n) primitive
    rotations to a q-point configuration weighted by 1/n for the covering.
    """
    if order_n < 2:
        raise ValueError(f"rotation order must be >= 2, got {order_n}")
    if num_points < 1 or num_points % order_n != 0:
        raise ValueError(
            f"rotation order {order_n} must divide the point count {num_points}"
        )
    q = num_points // order_n
    per_rotation = unordered_config_euler(q) * Fraction(q, num_points)
    return euler_phi(order_n) * per_rotation


# One row per class family, in table order: its label; c, for N = 2g + c
# branch points on C*; which divisors n > 1 of N it takes, given n and
# q = N/n; what its weight is divided by (2 for the involution, 4 when the
# centers are interchangeable too); and per monomial the label suffix, the
# kinds of the two centers, and L/n for even and for odd n.
#
# * 2g+1: one branch point fixed.  Over the other center the sheets stay
#   put or swap.
# * g+1: no branch point fixed, N/n even.  The centers are interchangeable
#   and their fibers are both fixed or both swapped; a swap doubles the
#   lift order only for odd n.
# * 2g+2-only: no branch point fixed, N/n odd.  One fiber is swapped and
#   the other is not, so the centers are distinguishable.
# * g-odd: two branch points fixed, odd n.  The centers are
#   interchangeable and the n-th power of the lift is the identity or the
#   involution.
# * 2g-even: two branch points fixed, even n.  The n-th power of the lift
#   is always the involution.
_ROTATION_FAMILIES = (
    ("2g+1", 1, lambda n, q: True, 2,
     (("|a", "BF", (1, 1)), ("|b", "BS", (2, 2)))),
    ("g+1-{parity}", 2, lambda n, q: q % 2 == 0, 4,
     (("|a", "FF", (1, 1)), ("|b", "SS", (1, 2)))),
    ("2g+2-only", 2, lambda n, q: q % 2 == 1, 2,
     (("", "FS", (1, 1)),)),
    ("g-odd", 0, lambda n, q: n % 2 == 1, 4,
     (("|a", "BB", (1, 1)), ("|b", "BB", (2, 2)))),
    ("2g-even", 0, lambda n, q: n % 2 == 0, 2,
     (("", "BB", (2, 2)),)),
)


def _rotation_factors(
    g: int, n: int, num_points: int, centers: str, lift: int
) -> tuple[tuple[int, int], ...]:
    # The orbit rule of the module docstring for an order-n rotation with
    # centers of the given kinds, num_points branch points on C* and lift
    # order lift.
    fixed = centers.count("B") + 2 * centers.count("F")
    swapped = centers.count("S")
    factors = []
    if fixed:
        factors.append((1, fixed))
    if swapped:
        factors.append((2, swapped))
    free = 2 - 2 * g - fixed - 2 * swapped
    if lift == 2 * n:
        factors.append((n, num_points // n))
        free -= num_points
    if free % lift:
        raise ArithmeticError(
            f"free points of Euler characteristic {free} do not split into "
            f"orbits of size {lift} at g={g}, n={n}"
        )
    factors.append((lift, free // lift))
    return tuple(factors)


def symmetry_classes(g: int) -> list[SymmetryClassTerm]:
    """The full symmetry-class table for genus g.

    One entry per cycle-index monomial; brackets contributing two monomials
    with a shared weight yield two entries with equal coefficients.  The
    coefficients over the whole table sum to 1, which is exactly the
    statement that the unpointed moduli space has Euler characteristic 1.
    """
    _check_genus(g)
    e0 = orbifold_euler_char(g)
    terms = [
        SymmetryClassTerm("identity", e0, ((1, 2 - 2 * g),)),
        SymmetryClassTerm("involution", e0, ((1, 2 + 2 * g), (2, -2 * g))),
    ]
    for family, c, takes, halvings, monomials in _ROTATION_FAMILIES:
        num_points = 2 * g + c
        for n in divisors(num_points)[1:]:
            if not takes(n, num_points // n):
                continue
            weight = rotation_class_euler(n, num_points) / halvings
            label = family.format(parity="odd" if n % 2 else "even")
            for suffix, centers, lift in monomials:
                factors = _rotation_factors(
                    g, n, num_points, centers, n * lift[n % 2]
                )
                terms.append(
                    SymmetryClassTerm(
                        f"{label}{suffix}:n={n}", weight, factors, n
                    )
                )
    return terms


def equivariant_series(g: int, order: int) -> TSeries:
    """The equivariant generating function truncated at t^order.

    The t^n coefficient is chi^{S_n}(H_{g,n}) written in the power-sum
    basis; it is homogeneous of weight n.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return sum_of_products(
        ((term.coefficient, term.factors) for term in symmetry_classes(g)),
        order,
    )


def equivariant_schur(g: int, n: int) -> SchurVector:
    """chi^{S_n}(H_{g,n}) expanded in the Schur basis."""
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    series = equivariant_series(g, n)
    return p_to_schur(series.coeffs[n], n)


def closed_form_coefficients(g: int) -> tuple[Fraction, Fraction, Fraction]:
    """The weights (c_0, c_1, c_2) of the non-equivariant closed form.

    c_k weights the fixed-point-count-k bracket; c_k = c_{4-k} because
    composing an automorphism with the involution swaps k and 4-k fixed
    points.  The values are pinned by chi(H_{g,0}) = 1, chi(H_{g,2}) = 2
    and chi(H_{g,4}) = -2g.
    """
    _check_genus(g)
    return (
        Fraction(-g, 8 * (g + 1)),
        Fraction(g, 2 * g + 1),
        Fraction(g + 1, 4 * g),
    )


def nonequivariant_series(g: int, order: int) -> list[Fraction]:
    """Coefficients of t^n, i.e. chi(H_{g,n})/n!, for n = 0..order.

    Expansion of the closed form

        e0 [(1+t)^(2-2g) + (1+t)^(2+2g)]
        + c0 [1 + (1+t)^4] + c1 [(1+t) + (1+t)^3] + c2 (1+t)^2,

    with e0 the orbifold Euler characteristic of H_g.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    e0 = orbifold_euler_char(g)
    c0, c1, c2 = closed_form_coefficients(g)
    out = []
    for n in range(order + 1):
        value = (
            e0 * (gen_binomial(2 - 2 * g, n) + gen_binomial(2 + 2 * g, n))
            + c0 * ((1 if n == 0 else 0) + gen_binomial(4, n))
            + c1 * (gen_binomial(1, n) + gen_binomial(3, n))
            + c2 * gen_binomial(2, n)
        )
        out.append(value)
    return out


_SMALL_CHI = (1, 2, 2, 0, None, 0)  # n = 4 entry depends on g


def chi_pointed(g: int, n: int) -> int:
    """The integer Euler characteristic chi(H_{g,n}).

    Piecewise: pinned values 1, 2, 2, 0, -2g, 0 for n = 0..5; for n above
    2g+2 a single factorial ratio; in between the same ratio minus a
    correction supported on the involution bracket.
    """
    _check_genus(g)
    if n < 0:
        raise ValueError(f"point count must be >= 0, got {n}")
    if n <= 5:
        return -2 * g if n == 4 else _SMALL_CHI[n]
    lead = Fraction(
        (-1) ** (n + 1) * factorial(2 * g + n - 3),
        2 * 2 * g * (2 * g + 1) * (2 * g + 2) * factorial(2 * g - 3),
    )
    if n <= 2 * g + 2:
        lead -= Fraction(factorial(2 * g - 1), 2 * factorial(2 * g + 2 - n))
    if lead.denominator != 1:
        raise ArithmeticError(f"chi(H_({g},{n})) is not an integer: {lead}")
    return int(lead)


def _indicator(g: int, k: int, r: int) -> int:
    # 1 if g is congruent to r mod k, else 0.
    return 1 if g % k == r % k else 0


def low_degree_coefficient(g: int, monomial: Monomial) -> Fraction:
    """Closed residue-class formulas for weight <= 4 mixed coefficients.

    Gives the coefficient of the monomial in the t^weight term of the
    equivariant series as a function of g mod 2, 3 or 4 only.  Supported
    monomials: p_2, p_1*p_2, p_1^2*p_2, p_2^2, p_3, p_1*p_3, p_4.
    """
    _check_genus(g)
    m2_0 = _indicator(g, 2, 0)
    m2_1 = _indicator(g, 2, 1)
    if monomial == ((2, 1),):
        return Fraction(1 - m2_0 + m2_1, 2)
    if monomial == ((1, 1), (2, 1)):
        return Fraction(1 - m2_0 + m2_1)
    if monomial == ((1, 2), (2, 1)):
        return Fraction(1, 2) - Fraction(m2_0, 2) + m2_1
    if monomial == ((2, 2),):
        return Fraction(-m2_1, 4)
    if monomial == ((3, 1),):
        return Fraction(0)
    if monomial == ((1, 1), (3, 1)):
        return Fraction(2, 3) * (_indicator(g, 3, 2) - _indicator(g, 3, 1))
    if monomial == ((4, 1),):
        value = (
            Fraction(_indicator(g, 4, 3), 4)
            - Fraction(_indicator(g, 4, 1), 4)
            + Fraction((-1) ** g, 4)
        )
        if m2_0:
            value += Fraction((-1) ** ((1 - g // 2) % 2), 4)
        return value
    raise ValueError(
        f"no closed form for monomial {format_monomial(monomial)}"
    )
