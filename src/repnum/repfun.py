"""Representation functions for sums of two squares.

Each family counts ordered pairs (a, b) with a >= 0, b >= 1, a^2 + b^2 = n,
subject to the family's membership and coprimality rules (second coordinate
always positive; gcd(0, b) = b so (0, b) is coprime only for b = 1).

Every family can be evaluated by brute-force lattice enumeration
(rep_enumerate), which is the independent oracle for both the closed-form
routes below and the bulk bucket engine in the moments module.
"""

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import Factorization, factor, prime_table
from .errors import CapacityError


@dataclass(frozen=True)
class _FamilyTraits:
    first_prime: bool  # first coordinate must be prime (r2-type families)
    base: str          # membership of second coordinate: any|prime|R|Rprime
    coprime: bool      # gcd(a, b) == 1 required (starred families)
    distinct: bool     # a != b required (r2*)
    unordered: bool    # a < b required (the unordered R2 of the diagonal split)


class RepFamily(Enum):
    R0 = "r0"
    R0_STAR = "r0star"
    R1 = "r1"
    R1_STAR = "r1star"
    R2 = "r2"
    R2_STAR = "r2star"
    R2_UNORDERED = "r2unordered"
    RBIG = "rr"
    RBIG_STAR = "rrstar"
    RPRIME = "rrprime"
    RPRIME_STAR = "rrprimestar"

    @classmethod
    def from_name(cls, name):
        for fam in cls:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown family {name!r}; choose from "
                         + ", ".join(f.value for f in cls))

    @property
    def traits(self):
        return _TRAITS[self]


_TRAITS = {
    RepFamily.R0: _FamilyTraits(False, "any", False, False, False),
    RepFamily.R0_STAR: _FamilyTraits(False, "any", True, False, False),
    RepFamily.R1: _FamilyTraits(False, "prime", False, False, False),
    RepFamily.R1_STAR: _FamilyTraits(False, "prime", True, False, False),
    RepFamily.R2: _FamilyTraits(True, "prime", False, False, False),
    RepFamily.R2_STAR: _FamilyTraits(True, "prime", False, True, False),
    RepFamily.R2_UNORDERED: _FamilyTraits(True, "prime", False, False, True),
    RepFamily.RBIG: _FamilyTraits(False, "R", False, False, False),
    RepFamily.RBIG_STAR: _FamilyTraits(False, "R", True, False, False),
    RepFamily.RPRIME: _FamilyTraits(False, "Rprime", False, False, False),
    RepFamily.RPRIME_STAR: _FamilyTraits(False, "Rprime", True, False, False),
}


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def r0_formula(fact):
    """r0(n) via the character-divisor product over the factorization.

    Per prime power p^a: 2 contributes 1, p = 1 (mod 4) contributes a + 1,
    p = 3 (mod 4) contributes 1 for even a and 0 for odd a.
    """
    out = 1
    for p, a in fact.factors:
        if p == 2:
            continue
        if p % 4 == 1:
            out *= a + 1
        elif a % 2 == 1:
            return 0
    return out


def r0_star(fact):
    """Coprime-pair count r0*(n): multiplicative, 2^(#primes = 1 mod 4).

    Vanishes if 4 | n or if any prime = 3 (mod 4) divides n.
    """
    out = 1
    for p, a in fact.factors:
        if p == 2:
            if a >= 2:
                return 0
        elif p % 4 == 3:
            return 0
        else:
            out *= 2
    return out


def in_R(fact):
    """n is a sum of two squares: every prime = 3 (mod 4) has even exponent."""
    return all(a % 2 == 0 for p, a in fact.factors if p % 4 == 3)


def in_Rprime(fact):
    """n is a sum of two coprime squares: no prime = 3 (mod 4), and 4 does not divide n."""
    for p, a in fact.factors:
        if p == 2 and a >= 2:
            return False
        if p % 4 == 3:
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

def _base_member(base, b, table):
    if base == "any":
        return True
    if base == "prime":
        return table.is_prime(b)
    if base == "R":
        return in_R(factor(b, table))
    if base == "Rprime":
        return in_Rprime(factor(b, table))
    raise ValueError(f"unknown base set {base!r}")


def rep_enumerate(family, n, table):
    """Exact count by walking a = 0, 1, ... and testing b = sqrt(n - a^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    root = math.isqrt(n)
    if root > table.limit:
        raise CapacityError(
            f"rep_enumerate({n}) needs primes to {root} but table limit is "
            f"{table.limit}")
    tr = family.traits
    count = 0
    for a in range(root + 1):
        b2 = n - a * a
        b = math.isqrt(b2)
        if b * b != b2 or b < 1:
            continue
        if tr.first_prime and not table.is_prime(a):
            continue
        if tr.distinct and a == b:
            continue
        if tr.unordered and not a < b:
            continue
        if not _base_member(tr.base, b, table):
            continue
        if tr.coprime and math.gcd(a, b) != 1:
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Bulk membership masks for the bucket engine
# ---------------------------------------------------------------------------

def _primes_3mod4(limit):
    """The primes p = 3 (mod 4) up to limit, as Python ints."""
    primes = prime_table(max(limit, 1)).primes
    return [int(p) for p in primes[primes % 4 == 3]]


def r_set_mask(limit):
    """Boolean array s with s[n] true iff n is a sum of two squares (n >= 1)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in _primes_3mod4(limit):
        if p * p > limit:  # v_p(n) <= 1 for n <= limit
            mask[p::p] = False
            continue
        # odd[k]: v_p(k * p) is odd, walked over the multiples of p only
        odd = np.zeros(limit // p + 1, dtype=bool)
        step = 1
        while step * p <= limit:
            odd[step::step] ^= True
            step *= p
        mask[::p] &= ~odd
    return mask


def rprime_set_mask(limit):
    """Boolean array for membership in the coprime-representable set."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    if limit >= 4:
        mask[4::4] = False
    for p in _primes_3mod4(limit):
        mask[p::p] = False
    return mask


def base_values(base, limit, table):
    """Ascending second-coordinate candidates b <= limit for a family base set."""
    if limit > table.limit:
        raise CapacityError(
            f"need base-set values to {limit} but table limit is {table.limit}")
    if base == "any":
        return np.arange(1, limit + 1, dtype=np.int64)
    if base == "prime":
        hi = int(np.searchsorted(table.primes, limit, side="right"))
        return table.primes[:hi].astype(np.int64)
    if base == "R":
        return np.nonzero(r_set_mask(limit))[0].astype(np.int64)
    if base == "Rprime":
        return np.nonzero(rprime_set_mask(limit))[0].astype(np.int64)
    raise ValueError(f"unknown base set {base!r}")


# ---------------------------------------------------------------------------
# Non-diagonal pairs of prime pairs (level 2)
# ---------------------------------------------------------------------------

def _pair_buckets(lo, hi, table):
    """Map s in [lo, hi) -> ordered-pair counts, one per unordered pair of
    primes p <= q with p^2 + q^2 = s: 1 if p = q, else 2.

    Per p, the q >= p with lo <= p^2 + q^2 < hi are one slice of the
    primes, cut by bisection, so a window costs a step per p and per pair.
    """
    root = math.isqrt(hi - 1)
    if root > table.limit:
        raise CapacityError(
            f"prime pairs up to {hi - 1} need primes to {root} but table "
            f"limit is {table.limit}")
    cut = int(np.searchsorted(table.primes, root, side="right"))
    primes = table.primes[:cut].tolist()
    buckets = {}
    for i, p in enumerate(primes):
        pp = p * p
        if 2 * pp >= hi:
            break
        q_lo = math.isqrt(lo - pp - 1) + 1 if lo > pp else 0
        j0 = bisect.bisect_left(primes, max(q_lo, p), i)
        j1 = bisect.bisect_right(primes, math.isqrt(hi - 1 - pp), j0)
        for q in primes[j0:j1]:
            buckets.setdefault(pp + q * q, []).append(1 if p == q else 2)
    return buckets


def _pair_collisions(counts):
    """Ordered 2-tuples of distinct prime pairs in one bucket of counts."""
    tot = sum(counts)
    return tot * tot - sum(c * c for c in counts)
