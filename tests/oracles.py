"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately implemented by a different route than the
library: dense multivariate polynomials instead of sparse power-sum maps,
alternant coefficient extraction instead of border-strip recursion, plain
counting instead of closed forms, the symmetry-class table written out by
hand, family by family, with weights from its own ``rotation_class_euler``,
instead of enumerated from the curve's normal form.  The other ``reference_*``
functions compute term by term what the library's integer kernels compute
in one pass (series products one factor at a time, Schur conversion one
Fraction multiply-add per character, Bini's sums one Fraction per term,
the totient identities one divisor list per n) to pin those kernels, or
evaluate as factorial ratios the closed forms that the library evaluates
as falling products.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, prod

from hypeuler.bini_oracle import _check_range
from hypeuler.exact_arith import divisors, euler_phi
from hypeuler.hyperelliptic_core import (
    SymmetryClassTerm,
    _check_genus,
    orbifold_euler_char,
)
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


def reference_phi_identities(n: int) -> bool:
    """Check the divisor-sum totient identities at n.

    Verifies sum_{a|n} phi(a) == n, and additionally, when n is even,
    sum_{a|n} (-1)^(n/a) phi(a) == 0.
    """
    if n < 1:
        raise ValueError(f"reference_phi_identities requires n >= 1, got {n}")
    divs = divisors(n)
    if sum(euler_phi(a) for a in divs) != n:
        return False
    if n % 2 == 0:
        if sum((-1) ** (n // a) * euler_phi(a) for a in divs) != 0:
            return False
    return True


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
# the symmetry-class table written out by hand, family by family


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


def reference_symmetry_classes(g: int) -> list[SymmetryClassTerm]:
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

    # One branch point fixed: n odd, n | 2g+1, and 2g+1 free branch points.
    # The lift fixes the branch point; over the other rotation center the
    # two sheets either stay put (lift order n) or swap (lift order 2n).
    for n in divisors(2 * g + 1):
        if n == 1:
            continue
        c = rotation_class_euler(n, 2 * g + 1) / 2
        m = (2 * g + 1) // n
        terms.append(
            SymmetryClassTerm(f"2g+1|a:n={n}", c, ((1, 3), (n, -m)), n)
        )
        terms.append(
            SymmetryClassTerm(
                f"2g+1|b:n={n}", c, ((1, 1), (2, 1), (n, m), (2 * n, -m)), n
            )
        )

    # No branch point fixed with (2g+2)/n even, i.e. n | g+1.  The two
    # rotation centers are interchangeable (extra factor 1/2); the fibers
    # over them are simultaneously fixed or simultaneously swapped, giving
    # two monomials.  For odd n a swap doubles the generic orbit length.
    for n in divisors(g + 1):
        if n == 1:
            continue
        c = rotation_class_euler(n, 2 * g + 2) / 4
        m = (2 * g + 2) // n
        if n % 2 == 0:
            terms.append(
                SymmetryClassTerm(
                    f"g+1-even|a:n={n}", c, ((1, 4), (n, -m)), n
                )
            )
            terms.append(
                SymmetryClassTerm(
                    f"g+1-even|b:n={n}", c, ((2, 2), (n, -m)), n
                )
            )
        else:
            terms.append(
                SymmetryClassTerm(f"g+1-odd|a:n={n}", c, ((1, 4), (n, -m)), n)
            )
            terms.append(
                SymmetryClassTerm(
                    f"g+1-odd|b:n={n}",
                    c,
                    ((2, 2), (n, m), (2 * n, -m)),
                    n,
                )
            )

    # No branch point fixed with (2g+2)/n odd: n | 2g+2 but n does not
    # divide g+1.  One center has swapped fibers and the other does not,
    # so the centers are distinguishable.
    for n in divisors(2 * g + 2):
        if n == 1 or (g + 1) % n == 0:
            continue
        c = rotation_class_euler(n, 2 * g + 2) / 2
        m = (2 * g + 2) // n
        terms.append(
            SymmetryClassTerm(
                f"2g+2-only:n={n}", c, ((1, 2), (2, 1), (n, -m)), n
            )
        )

    # Two branch points fixed: n | 2g with 2g free branch points.  For odd
    # n the centers are interchangeable and the n-th power of the lift is
    # either the identity or the involution (two monomials); for even n the
    # n-th power is always the involution.
    for n in divisors(g):
        if n == 1 or n % 2 == 0:
            continue
        c = rotation_class_euler(n, 2 * g) / 4
        m = (2 * g) // n
        terms.append(
            SymmetryClassTerm(f"g-odd|a:n={n}", c, ((1, 2), (n, -m)), n)
        )
        terms.append(
            SymmetryClassTerm(
                f"g-odd|b:n={n}", c, ((1, 2), (n, m), (2 * n, -m)), n
            )
        )
    for n in divisors(2 * g):
        if n == 1 or n % 2 != 0:
            continue
        c = rotation_class_euler(n, 2 * g) / 2
        m = (2 * g) // n
        terms.append(
            SymmetryClassTerm(
                f"2g-even:n={n}", c, ((1, 2), (n, m), (2 * n, -m)), n
            )
        )

    return terms


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
        (
            (term.coefficient, term.factors)
            for term in reference_symmetry_classes(g)
        ),
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


# ---------------------------------------------------------------------------
# Bini's formulas summed term by term as Fractions


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


def reference_bini_chi_long(g: int, n: int) -> Fraction:
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


def reference_bini_double_sum(g: int, n: int) -> Fraction:
    """The signed double sum underlying the compact formula.

    sum over j,r >= 0 with j + 2r <= n of
    (-1)^(n-j-r) 2^(n-j-2r) (2g-1+n-j-r)! / (j! r! (2g+2-j)! (n-j-2r)!).
    Defined for every n >= 0; equals the closed form below.
    """
    _check_genus(g)
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


# ---------------------------------------------------------------------------
# the closed forms as the factorial ratios they are written with


def reference_chi_pointed(g: int, n: int) -> int:
    """chi(H_{g,n}): pinned values up to n = 5, factorial ratios above."""
    if n <= 5:
        return (1, 2, 2, 0, -2 * g, 0)[n]
    lead = Fraction(
        (-1) ** (n + 1) * factorial(2 * g + n - 3),
        4 * g * (2 * g + 1) * (2 * g + 2) * factorial(2 * g - 3),
    )
    if n <= 2 * g + 2:
        lead -= Fraction(factorial(2 * g - 1), 2 * factorial(2 * g + 2 - n))
    return int(lead)


def reference_bini_double_sum_closed_form(g: int, n: int) -> Fraction:
    """(-1)^n (2g+n-3)! / (2g (2g+1) (2g+2) n! (2g-3)!)."""
    return Fraction(
        (-1) ** n * factorial(2 * g + n - 3),
        2 * g * (2 * g + 1) * (2 * g + 2) * factorial(n) * factorial(2 * g - 3),
    )
