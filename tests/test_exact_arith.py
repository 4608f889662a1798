from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import hypeuler.verify as verify
import oracles
from hypeuler.exact_arith import Rational, divisors, euler_phi, gen_binomial
from hypeuler.verify import check_totient_identities
from oracles import (
    divisors_bruteforce,
    phi_bruteforce,
    reference_phi_identities,
)


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    @pytest.mark.parametrize("n,expected", [(2, 1), (12, 4)])
    def test_small_values(self, n, expected):
        assert phi_bruteforce(n) == expected
        assert euler_phi(n) == expected

    def test_matches_bruteforce(self):
        for n in range(1, 300):
            assert euler_phi(n) == phi_bruteforce(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @given(st.integers(1, 1000), st.integers(1, 1000))
    def test_multiplicative_on_coprime(self, a, b):
        if gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected", [(1, [1]), (6, [1, 2, 3, 6]), (9, [1, 3, 9])]
    )
    def test_small_values(self, n, expected):
        assert divisors_bruteforce(n) == expected
        assert divisors(n) == expected

    def test_matches_bruteforce(self):
        for n in range(1, 200):
            assert divisors(n) == divisors_bruteforce(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestGenBinomial:
    @given(st.integers(-100, 100))
    def test_j_zero_is_one(self, m):
        assert gen_binomial(m, 0) == 1

    def test_negative_upper(self):
        # (-2)(-3)/2! and the factorial ratio 5!/2!3!
        assert gen_binomial(-2, 2) == 3
        assert gen_binomial(5, 2) == 10

    def test_vanishes_above_nonnegative_upper(self):
        assert gen_binomial(3, 4) == 0
        assert gen_binomial(0, 1) == 0

    def test_matches_falling_product(self):
        for m in range(-15, 16):
            for j in range(0, 12):
                num = 1
                for i in range(j):
                    num *= m - i
                den = 1
                for i in range(1, j + 1):
                    den *= i
                assert gen_binomial(m, j) * den == num

    def test_pascal_recurrence(self):
        for m in range(-50, 51):
            assert gen_binomial(m, 0) == 1
            for j in range(1, 51):
                assert gen_binomial(m, j) == gen_binomial(m - 1, j) + gen_binomial(
                    m - 1, j - 1
                )

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            gen_binomial(3, -1)


class TestPhiIdentities:
    def test_trivial(self):
        assert reference_phi_identities(1)
        assert check_totient_identities(1).passed

    @pytest.mark.parametrize("n", [10, 12])
    def test_even_cases(self, n):
        # direct summation over the divisor list
        assert sum(euler_phi(a) for a in divisors(n)) == n
        assert sum((-1) ** (n // a) * euler_phi(a) for a in divisors(n)) == 0
        assert reference_phi_identities(n)
        assert check_totient_identities(n).passed

    def test_range(self):
        assert all(reference_phi_identities(n) for n in range(1, 2000))
        assert check_totient_identities(1999).detail == "n=1..1999"

    @pytest.mark.parametrize("bad", [None, 1, 2, 6, 1500, 2999])
    def test_sieve_matches_reference(self, monkeypatch, bad):
        # The sieve reports the first n at which the per-n reference
        # fails, with the totient off by one at `bad` for both.
        def phi(a):
            return euler_phi(a) + (a == bad)

        monkeypatch.setattr(verify, "euler_phi", phi)
        monkeypatch.setattr(oracles, "euler_phi", phi)
        limit = 3000
        failing = (
            n for n in range(1, limit + 1) if not reference_phi_identities(n)
        )
        first = next(failing, None)
        result = check_totient_identities(limit)
        if first is None:
            assert result.passed and result.detail == f"n=1..{limit}"
        else:
            assert not result.passed and result.detail == f"fails at n={first}"


class TestRational:
    def test_canonical_form(self):
        q = Rational(6, -4)
        assert (q.numerator, q.denominator) == (-3, 2)

    @given(
        st.integers(-1000, 1000),
        st.integers(1, 1000),
        st.integers(-1000, 1000),
        st.integers(1, 1000),
    )
    def test_add_sub_round_trip(self, a, b, c, d):
        x = Rational(a, b)
        y = Rational(c, d)
        assert (x + y) - y == x
        assert gcd(abs(x.numerator), x.denominator) == 1

    def test_is_fraction(self):
        assert Rational is Fraction
