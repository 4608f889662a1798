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
the base line about two centers.  Put the centers at 0 and infinity.  The
curve then has the normal form (J. Bergstrom, Doc. Math. 14 (2009))

    y^2 = x^e0 * prod_{i=1..q} (x^n - b_i),

with e0, einf in {0, 1} saying whether 0 and infinity are branch points,
and N = 2g+2-e0-einf = nq branch points on C* in q rotation orbits.  Let
w = exp(pi i/n) and zeta = w^2.  A lift of x -> zeta x is y -> c y with
c^2 = zeta^e0, since the right-hand side gains exactly the factor zeta^e0;
so c = w^b with b in {e0, e0+n}, the two lifts differing by the
involution.  Each center is a branch point (kind B, one fixed point), or
carries a fiber of two points that the lift fixes (F, two fixed points) or
swaps (S, one 2-cycle).  Over 0 the lift multiplies y by w^b, and over
infinity it multiplies v = y/x^(g+1) by w^(b-2(g+1)): the fiber is F when
that power of w is 1 and S when it is -1.  The n-th power of the lift is
y -> (-1)^b y, so its order L is n for even b and 2n for odd b.

The weight of a case (e0, einf, n, b) is the orbifold Euler characteristic
of its normal forms, (-1)^(1-q) phi(n)/(4N).  The q unordered distinct
roots b_i in C* up to scaling contribute (-1)^(q-1)/q.  The scaling
x -> lambda x moves them by lambda^n, so the n rotations x -> zeta^j x
fix every normal form: a further 1/n.  And zeta may be any of the phi(n)
primitive n-th roots of unity.  Together that is (-1)^(1-q) phi(n)/N.
The remaining 1/4 is 1/2 for the involution, which every curve carries,
and 1/2 for naming the centers 0 and infinity.  Cases with equal factors
give equal terms of the series, so their weights add; this merges the two
ways of naming the centers.

Each class contributes its weight times the cycle-index product of
factors (1 + p_k t^k)^m_k, where k m_k is the Euler characteristic of the
points whose orbit has size k (E. Getzler, Duke Math. J. 96 (1999)).
Every point over C* lies in an orbit of size L, except that for L = 2n
the branch points form N/n orbits of size n.  With f fixed points and s
swapped fibers over the centers, the factors are therefore given by the
orbit rule

    (1, f), (2, s), (n, N/n) if L = 2n, and (L, (2-2g-f-2s-[L = 2n] N)/L),

where [L = 2n] is 1 if L = 2n and 0 otherwise, leaving out the first two
when f or s is zero.  The identity and the involution have weight
chi(M_{0,2g+2})/(2 (2g+2)!), the unordered branch points on the line
halved for the involution.
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

    ``factors`` lists (k, m) pairs for the product of (1 + p_k t^k)^m, with
    every m an integer.  ``order_n`` is the rotation order on the base
    line, None for the identity and involution classes.
    """

    label: str
    coefficient: Fraction
    factors: tuple[tuple[int, int], ...]
    order_n: int | None = None


def orbifold_euler_char(g: int) -> Fraction:
    """Orbifold Euler characteristic of the unpointed moduli space H_g."""
    _check_genus(g)
    return Fraction(-1, 2 * 2 * g * (2 * g + 1) * (2 * g + 2))


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


def _center_kind(branch: int, shift: int, n: int) -> str:
    # A branch point, or a fiber that y -> w^shift y fixes or swaps.
    return "B" if branch else "FS"[shift // n % 2]


def symmetry_classes(g: int) -> list[SymmetryClassTerm]:
    """The full symmetry-class table for genus g.

    The identity and the involution come first, then one entry per
    rotation class in the order the normal forms are enumerated (see the
    module docstring), labelled by the sorted kinds of its two centers,
    its order n and its lift order L, e.g. ``BF:n=5:L=5``.  The
    coefficients over the whole table sum to 1, which is exactly the
    statement that the unpointed moduli space has Euler characteristic 1.
    """
    _check_genus(g)
    e0 = orbifold_euler_char(g)
    terms = [
        SymmetryClassTerm("identity", e0, ((1, 2 - 2 * g),)),
        SymmetryClassTerm("involution", e0, ((1, 2 + 2 * g), (2, -2 * g))),
    ]
    # Weights summed by factor tuple (module docstring), as numerators over
    # 4 * scale, which every 4N divides.
    scale = 2 * g * (2 * g + 1) * (2 * g + 2)
    names: dict[tuple[tuple[int, int], ...], tuple[str, int]] = {}
    numerators: dict[tuple[tuple[int, int], ...], int] = {}
    for eps0, eps_inf in ((0, 0), (0, 1), (1, 0), (1, 1)):
        num_points = 2 * g + 2 - eps0 - eps_inf
        for n in divisors(num_points)[1:]:
            weight = (-1) ** (num_points // n - 1) * euler_phi(n)
            weight *= scale // num_points
            for b in (eps0, eps0 + n):
                kinds = "".join(sorted(
                    _center_kind(eps0, b, n)
                    + _center_kind(eps_inf, b - 2 * g - 2, n)
                ))
                lift = n if b % 2 == 0 else 2 * n
                factors = _rotation_factors(g, n, num_points, kinds, lift)
                names.setdefault(factors, (f"{kinds}:n={n}:L={lift}", n))
                numerators[factors] = numerators.get(factors, 0) + weight
    terms.extend(
        SymmetryClassTerm(label, Fraction(numerators[factors], 4 * scale),
                          factors, n)
        for factors, (label, n) in names.items()
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
