"""Prime generation, factorization, and classical arithmetic functions.

Everything downstream (representation counts, the moment engine, the sieve)
consumes the PrimeTable built here.  Tables are immutable after construction
and safe to share across workers; all operations are pure given the table.
All logarithms are natural.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

# Hard cap on sieve size: a table beyond this would need > 2 GB for the
# boolean sieve alone.  Raise CapacityError instead of thrashing.
LIMIT_CAP = 2_000_000_000


@dataclass(frozen=True)
class Factorization:
    """n together with its prime-power decomposition, primes ascending."""

    n: int
    factors: tuple  # ((p, e), ...) with e >= 1; empty iff n == 1


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, plus a smallest-prime-factor array on request.

    spf[k] is the smallest prime factor of k for 2 <= k <= spf_limit
    (spf[0] = 0, spf[1] = 1).  spf_limit = min(limit, spf_cap), 0 unless
    prime_table was given an spf_cap.
    """

    limit: int
    primes: np.ndarray
    spf: np.ndarray = field(repr=False)
    spf_limit: int

    def is_prime(self, n):
        """Primality for 1 <= n <= limit**2 using the table."""
        if n < 2:
            return False
        if n <= self.spf_limit:
            return self.spf[n] == n
        if n <= self.limit:
            i = int(np.searchsorted(self.primes, n))
            return i < len(self.primes) and int(self.primes[i]) == n
        if n <= self.limit * self.limit:
            for p in self.primes:
                p = int(p)
                if p * p > n:
                    return True
                if n % p == 0:
                    return False
            return True
        raise CapacityError(
            f"primality of {n} not covered by table with limit {self.limit} "
            f"(guarantee is limit**2 = {self.limit**2})")


def _bool_sieve(limit):
    """Boolean primality array for 0..limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def _spf_sieve(n):
    """Smallest-prime-factor array for 0..n (spf[0]=0, spf[1]=1)."""
    spf = np.zeros(n + 1, dtype=np.uint32)
    if n >= 1:
        spf[1] = 1
    if n >= 2:
        spf[2::2] = 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if spf[p] == 0:
            sl = spf[p * p :: 2 * p]
            sl[sl == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    return spf


def prime_table(limit, spf_cap=0):
    """Sieve all primes <= limit and the spf array up to min(limit, spf_cap).

    The spf array is built only on request: beyond spf_limit, factor() and
    is_prime() fall back to the tabulated primes.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > LIMIT_CAP:
        raise CapacityError(
            f"limit {limit} exceeds prime table cap LIMIT_CAP = {LIMIT_CAP}")
    spf_limit = min(limit, spf_cap)
    if spf_limit == limit:
        spf = _spf_sieve(limit)
        primes = np.nonzero(spf[2:] == np.arange(2, limit + 1, dtype=np.uint32))[0] + 2
        primes = primes.astype(np.int64)
    else:
        primes = np.nonzero(_bool_sieve(limit))[0].astype(np.int64)
        spf = _spf_sieve(spf_limit)
    return PrimeTable(limit=limit, primes=primes, spf=spf, spf_limit=spf_limit)


def factor(n, table):
    """Factorization of n, valid for 1 <= n <= table.limit**2."""
    if n < 1:
        raise ValueError(f"factor requires n >= 1, got {n}")
    if n == 1:
        return Factorization(1, ())
    out = []
    if n <= table.spf_limit:
        m = n
        spf = table.spf
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return Factorization(n, tuple(out))
    if n > table.limit * table.limit:
        raise CapacityError(
            f"factor({n}) beyond guarantee limit**2 = {table.limit**2}; "
            f"build a larger table")
    out, m = trial_divide(n, table.primes)
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def trial_divide(n, primes):
    """Divide n by the ascending primes until p^2 exceeds what is left.

    Returns the prime powers (p, e) found, as a list, and the cofactor
    left: 1, a prime, or a number with no prime factor among `primes`.
    """
    out, m = [], n
    for p in primes:
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    return out, m


# ---------------------------------------------------------------------------
# Classical arithmetic functions (exact)
# ---------------------------------------------------------------------------

def tau(fact):
    """Number of divisors."""
    out = 1
    for _, e in fact.factors:
        out *= e + 1
    return out


def omega(fact):
    """Number of distinct prime factors."""
    return len(fact.factors)


def omega_star(fact):
    """Number of distinct odd prime factors (exponents ignored)."""
    return sum(1 for p, _ in fact.factors if p != 2)


def largest_prime_factor(fact):
    """P(n), defined for n >= 2."""
    if not fact.factors:
        raise ValueError("largest_prime_factor undefined for n = 1")
    return fact.factors[-1][0]


# ---------------------------------------------------------------------------
# Prime counting / reciprocal sums / Li
# ---------------------------------------------------------------------------

def _filtered_primes(x, residue_filter, table):
    if x > table.limit:
        raise CapacityError(
            f"x = {x} exceeds table limit {table.limit}")
    primes = table.primes[: int(np.searchsorted(table.primes, x, side="right"))]
    if residue_filter is None:
        return primes
    if residue_filter not in (1, 3):
        raise ValueError("residue_filter must be None, 1 or 3 (mod 4)")
    return primes[primes % 4 == residue_filter]


def pi_count(x, residue_filter=None, table=None):
    """#{p <= x}, optionally restricted to p = residue_filter (mod 4)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x < 2:
        return 0
    if table is None:
        table = prime_table(x)
    return int(len(_filtered_primes(x, residue_filter, table)))


def prime_recip_sum(x, residue_filter=None, table=None):
    """Sum of 1/p over (filtered) primes <= x, accumulated smallest first."""
    if x < 2:
        raise ValueError("x must be >= 2")
    if table is None:
        table = prime_table(x)
    primes = _filtered_primes(x, residue_filter, table)
    # ascending accumulation keeps the float error well under 1e-12 relative
    return float(np.add.reduce(1.0 / primes.astype(np.float64)))


def log_integral(x):
    """Li(x) = integral of dt/log t from 2 to x, as a positive series.

    Li(x) = log(log x / log 2) + sum_{k>=1} ((log x)^k - (log 2)^k) / (k k!),
    which is li(x) - li(2) with Euler's gamma cancelled.  The k-th difference
    d_k = ((log x)^k - (log 2)^k) / k! is carried by the recurrence
    d_k = (d_{k-1} log x + (log 2)^{k-1}/(k-1)! * log(x/2)) / k, so no term
    subtracts and x near 2 keeps full precision.  The sum stops once a term
    falls below 1e-17 of the running total.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"log_integral requires a finite x, got {x}")
    if x < 2:
        raise ValueError(f"log_integral requires x >= 2, got {x}")
    if x == 2:
        return 0.0
    log_x, log_2, gap = math.log(x), math.log(2.0), math.log(x / 2)
    total = math.log1p(gap / log_2)
    diff, power_2, k = 0.0, 1.0, 0  # d_k and (log 2)^k / k!
    while True:
        k += 1
        diff = diff * (log_x / k) + power_2 * (gap / k)
        power_2 *= log_2 / k
        term = diff / k
        total += term
        if term < 1e-17 * total:
            return total
