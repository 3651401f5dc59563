import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from repnum import arith
from repnum.errors import CapacityError


def test_prime_table_small():
    t = arith.prime_table(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert arith.prime_table(1).primes.tolist() == []
    assert len(arith.prime_table(100).primes) == 25


def test_prime_table_invariants(table):
    primes = table.primes
    assert np.all(primes[1:] > primes[:-1])
    rng = random.Random(1)
    for p in rng.sample([int(q) for q in primes], 50):
        assert all(p % d for d in range(2, math.isqrt(p) + 1)), p
    # spf divides and nothing smaller does
    for n in rng.sample(range(2, table.spf_limit + 1), 200):
        p = int(table.spf[n])
        assert n % p == 0
        assert all(n % q for q in range(2, p))


def test_prime_table_caps():
    with pytest.raises(CapacityError, match="LIMIT_CAP"):
        arith.prime_table(arith.LIMIT_CAP + 1)
    with pytest.raises(ValueError):
        arith.prime_table(0)


def test_spf_cap_fallback():
    t = arith.prime_table(100, spf_cap=10)
    assert t.spf_limit == 10
    assert arith.factor(9991, t).factors == ((97, 1), (103, 1))


def test_factor(table):
    assert arith.factor(12, table).factors == ((2, 2), (3, 1))
    assert arith.factor(1, table).factors == ()
    assert arith.factor(9991, table).factors == ((97, 1), (103, 1))
    with pytest.raises(ValueError):
        arith.factor(0, table)
    with pytest.raises(CapacityError):
        arith.factor(table.limit**2 + 1, table)
    rng = random.Random(2)
    for n in [rng.randrange(1, 10**8) for _ in range(50)]:
        f = arith.factor(n, table)
        assert math.prod(p**e for p, e in f.factors) == n
        ps = [p for p, _ in f.factors]
        assert ps == sorted(ps) and len(set(ps)) == len(ps)


def test_arithmetic_functions(table):
    def at(fn, n):
        return fn(arith.factor(n, table))

    assert at(arith.tau, 12) == 6
    assert at(arith.omega_star, 45) == 2
    assert at(arith.largest_prime_factor, 45) == 5
    assert at(arith.omega, 45) == 2
    with pytest.raises(ValueError):
        at(arith.largest_prime_factor, 1)


def test_pi_count(table):
    assert arith.pi_count(10, table=table) == 4
    assert arith.pi_count(10, 1, table) == 1
    assert arith.pi_count(10, 3, table) == 2
    assert arith.pi_count(0, table=table) == 0
    for x in (2, 17, 100, 9999):
        total = arith.pi_count(x, table=table)
        split = (arith.pi_count(x, 1, table) + arith.pi_count(x, 3, table)
                 + (1 if x >= 2 else 0))
        assert total == split


def test_prime_recip_sum(table):
    assert arith.prime_recip_sum(10, 1, table) == pytest.approx(0.2, rel=1e-12)
    assert arith.prime_recip_sum(10, 3, table) == pytest.approx(10 / 21, rel=1e-12)
    assert arith.prime_recip_sum(2, 1, table) == 0.0
    with pytest.raises(ValueError):
        arith.prime_recip_sum(1, table=table)


def test_log_integral(table):
    assert arith.log_integral(2) == 0.0
    oracle = float(mpmath.li(10) - mpmath.li(2))
    assert arith.log_integral(10) == pytest.approx(oracle, abs=1e-9)
    li100 = arith.log_integral(100)
    assert abs(li100 - arith.pi_count(100, table=table)) < li100 * 0.15
    with pytest.raises(ValueError):
        arith.log_integral(1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            arith.log_integral(bad)
    with pytest.raises(OverflowError):
        arith.log_integral(10**400)


@pytest.mark.parametrize("x", [2.001, 2.5, 10, 1e3, 1e6, 1e9, 1e12, 1e15,
                               1e18, 1e100, 1e300])
def test_log_integral_matches_mpmath(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arith.log_integral(x)
    with mpmath.workdps(30):
        ref = mpmath.li(x) - mpmath.li(2)
        assert abs(got - ref) <= 1e-13 * ref + 1e-15


def test_mobius_convolution_is_identity(table6):
    # sum over d | n of mu(d) is 1 at n = 1 and 0 otherwise
    for n in range(1, 10**5 + 1):
        total = 0
        f = arith.factor(n, table6)
        # only squarefree divisors contribute; walk subsets of the primes
        primes = [p for p, _ in f.factors]
        for mask in range(1 << len(primes)):
            total += -1 if bin(mask).count("1") % 2 else 1
        assert total == (1 if n == 1 else 0)


def test_two_pow_omega_at_most_tau(table6):
    spf = table6.spf.tolist()
    for n in range(2, 10**6 + 1):
        m, omega, tau = n, 0, 1
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            omega += 1
            tau *= e + 1
        assert (1 << omega) <= tau
