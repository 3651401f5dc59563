import math
import random

import numpy as np
import pytest

from repnum import arith, moments, repfun
from repnum.errors import CapacityError
from repnum.repfun import RepFamily


def test_r0_formula_examples(table):
    assert repfun.r0_formula(arith.factor(1, table)) == 1
    assert repfun.r0_formula(arith.factor(3, table)) == 0
    assert repfun.r0_formula(arith.factor(25, table)) == 3


def test_r0_star_examples(table):
    assert repfun.r0_star(arith.factor(4, table)) == 0
    assert repfun.r0_star(arith.factor(9, table)) == 0
    assert repfun.r0_star(arith.factor(65, table)) == 4
    assert repfun.r0_star(arith.factor(2, table)) == 1
    # prime powers: 1 + legendre(-1, p)
    assert repfun.r0_star(arith.factor(25, table)) == 2
    assert repfun.r0_star(arith.factor(125, table)) == 2
    assert repfun.r0_star(arith.factor(27, table)) == 0


def test_enumeration_examples(table):
    assert repfun.rep_enumerate(RepFamily.R1, 13, table) == 2
    assert repfun.rep_enumerate(RepFamily.R2, 338, table) == 3
    assert repfun.rep_enumerate(RepFamily.RBIG, 25, table) == 2
    assert repfun.rep_enumerate(RepFamily.R1_STAR, 8, table) == 0
    assert repfun.rep_enumerate(RepFamily.R0, 1, table) == 1
    with pytest.raises(ValueError):
        repfun.rep_enumerate(RepFamily.R0, 0, table)
    small = arith.prime_table(10)
    with pytest.raises(CapacityError):
        repfun.rep_enumerate(RepFamily.R0, 10**6, small)


def test_membership_examples(table):
    f9 = arith.factor(9, table)
    assert repfun.in_R(f9) and not repfun.in_Rprime(f9)
    f2 = arith.factor(2, table)
    assert repfun.in_R(f2) and repfun.in_Rprime(f2)
    f21 = arith.factor(21, table)
    assert not repfun.in_R(f21) and not repfun.in_Rprime(f21)


def test_membership_matches_positivity(table):
    for n in range(1, 2001):
        f = arith.factor(n, table)
        assert repfun.in_R(f) == (repfun.r0_formula(f) >= 1)
        assert repfun.in_Rprime(f) == (repfun.r0_star(f) >= 1)


# 31623 is the base-set height at MAX_X; it passes 3^9 and 7^5
@pytest.mark.parametrize("limit", [2000, 31623])
def test_masks_match_membership(table6, limit):
    rmask = repfun.r_set_mask(limit)
    rpmask = repfun.rprime_set_mask(limit)
    for n in range(1, limit + 1):
        f = arith.factor(n, table6)
        assert bool(rmask[n]) == repfun.in_R(f)
        assert bool(rpmask[n]) == repfun.in_Rprime(f)


def _r_set_mask_reference(limit):
    """The full-array mask: one limit + 1 parity array per prime = 3 mod 4."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in repfun._primes_3mod4(limit):
        odd_exp = np.zeros(limit + 1, dtype=bool)
        q = p
        while q <= limit:
            odd_exp[q::q] ^= True
            q *= p
        mask &= ~odd_exp
    return mask


# p^2 - 1, p^2 and p^2 + 1 move p across the clear-only branch; 3^10 and
# 7^5 sit inside 10^5
@pytest.mark.parametrize("limit", [1, 2, 3, 10**5] + [
    p * p + k for p in (3, 7, 11, 43, 311) for k in (-1, 0, 1)])
def test_r_set_mask_matches_reference(limit):
    assert np.array_equal(repfun.r_set_mask(limit),
                          _r_set_mask_reference(limit))


def _counts(family, x, table):
    return moments.accumulate_counts(family, 1, x + 1, table).astype(int)


def test_pointwise_chains(table, table6):
    x = 10**5
    c = {fam: _counts(fam, x, table) for fam in RepFamily}
    spf = table6.spf.tolist()
    tau = np.ones(x + 1, dtype=np.int64)
    for n in range(2, x + 1):
        m, t = n, 1
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            t *= e + 1
        tau[n] = t
    assert np.all(c[RepFamily.R2] <= c[RepFamily.R1])
    assert np.all(c[RepFamily.R1] <= c[RepFamily.R0])
    assert np.all(c[RepFamily.R0] <= tau[1:])
    assert np.all(c[RepFamily.RPRIME] <= c[RepFamily.RBIG])
    assert np.all(c[RepFamily.RBIG] <= c[RepFamily.R0])
    for plain, star in [(RepFamily.R0, RepFamily.R0_STAR),
                        (RepFamily.R1, RepFamily.R1_STAR),
                        (RepFamily.R2, RepFamily.R2_STAR),
                        (RepFamily.RBIG, RepFamily.RBIG_STAR),
                        (RepFamily.RPRIME, RepFamily.RPRIME_STAR)]:
        assert np.all(c[star] <= c[plain]), star


def test_r2_unordered_split(table):
    x = 10**5
    r2 = _counts(RepFamily.R2, x, table)
    r2u = _counts(RepFamily.R2_UNORDERED, x, table)
    diag = np.zeros(x, dtype=np.int64)
    for p in table.primes:
        p = int(p)
        if 2 * p * p > x:
            break
        diag[2 * p * p - 1] = 1
    assert np.array_equal(r2, 2 * r2u + diag)


def test_formula_matches_enumeration_sample(table):
    rng = random.Random(7)
    for n in rng.sample(range(1, 10**5), 300):
        f = arith.factor(n, table)
        assert repfun.r0_formula(f) == repfun.rep_enumerate(RepFamily.R0, n, table)
        assert repfun.r0_star(f) == repfun.rep_enumerate(RepFamily.R0_STAR, n, table)


def test_multiplicativity(table):
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 200:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        if a * b <= 10**8 and math.gcd(a, b) == 1:
            pairs.append((a, b))
    for a, b in pairs:
        fa, fb = arith.factor(a, table), arith.factor(b, table)
        fab = arith.factor(a * b, table)
        assert repfun.r0_formula(fab) == repfun.r0_formula(fa) * repfun.r0_formula(fb)
        assert repfun.r0_star(fab) == repfun.r0_star(fa) * repfun.r0_star(fb)


def _d2_count(lo, hi, table):
    """Ordered 2-tuples of prime pairs with distinct sets and one square-sum
    in [lo, hi)."""
    return sum(map(repfun._pair_collisions,
                   repfun._pair_buckets(lo, hi, table).values()))


def test_d2_count(table):
    assert _d2_count(1, 101, table) == 0
    assert _d2_count(1, 338, table) == 0
    assert _d2_count(1, 339, table) == 4
    # the windowed pair counts split [1, x + 1) at a without loss or overlap
    x = 5000
    whole = repfun._pair_buckets(1, x + 1, table)
    for a in (2, 338, 339, 1000, 4999, 5000, 5001):
        left = repfun._pair_buckets(1, a, table)
        right = repfun._pair_buckets(a, x + 1, table)
        assert not left.keys() & right.keys(), a
        assert {**left, **right} == whole, a
        assert (_d2_count(1, a, table) + _d2_count(a, x + 1, table)
                == _d2_count(1, x + 1, table)), a


def test_family_names():
    assert RepFamily.from_name("r0") is RepFamily.R0
    assert RepFamily.from_name("rrprimestar") is RepFamily.RPRIME_STAR
    with pytest.raises(ValueError):
        RepFamily.from_name("r9")
