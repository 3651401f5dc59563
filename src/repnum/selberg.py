"""Generic Selberg small sieve with exact rational weights.

A SieveProblem sifts the box {(a, b) : 1 <= a, b <= N} by the events

    variant A: p | (a^2 + b^2) * prod_i (u_i a + v_i b)        for sifting p
    variant B: the same events, sifting only primes p = 3 (mod 4)
    variant C: p exactly divides the product, sifting p = 3 (mod 4)

with per-prime weights g(p) given by closed forms.  All weight arithmetic
(g, h, G, lambda, mu_plus, R_d) is exact; only the final bound is a float.
Sums run on int numerators over one common denominator (Halberstam and
Richert, Sieve Methods, ch. 3), and each value handed out is one Fraction.
Primes p <= ell + 2 are never sifted (the closed forms do not cover them).
Primes with g(p) = 0 keep their events in the exact sifted count but take
no part in the lambda system: dropping a sifting condition can only enlarge
the surviving set, so the computed bound still dominates.

Each problem's box is surveyed once (`_box_survey`, cached per problem):
one exhaustive pass over the box, capped at N <= ORACLE_BOX_CAP, gives the
exact |A_d| behind every remainder R_d of the bound and the fully sifted
count, so the bound and the exact count of a problem share one pass.  Its
rows are bits along b, packed into uint64 words: the sifted count is an OR
and each |A_d| an AND, counted by popcount.  The event at p depends on a
only through a mod q, with q = p for variants A and B and q = p^2 for C.
So a prime with q <= N gets a residue table of the event over the rows
a = 0 .. q - 1, repeated for _ROW_CHUNK - 1 more rows, so that each row
chunk of the box reads its rows a % q as one slice; a prime with q > N
would use each table row once and has no table: each row chunk builds its
rows.  The tables take at most the sum over q <= N of
(q + _ROW_CHUNK - 1) * ceil(N / 64) words.

No event is evaluated cell by cell.  For a fixed row a, the b at which a
factor of the product is 0 mod m (m = p, or p^2 for C) form a union of
residue classes (Halberstam and Richert, Sieve Methods, ch. 1): one class,
every b or no b for a linear form, and 0 or +-iota a for the norm, with
iota^2 = -1 lifted to p^2 by Hensel's lemma.  A packed event row is
therefore an OR of class rows (variants A and B), or for C the rows where
exactly one factor's level-p set holds and no level-p^2 set does.  A
modulus m <= min(N, _CLASS_TABLE_MAX) gathers class rows from an
(m + 2)-row table; a class of a larger modulus holds at most N / m + 1 b,
one per byte, whose bits are set by scatter.  The bound keeps a class
table within a row chunk's rows: tables for every m <= N would keep one
of p + 2 rows for each C prime with p <= N < p^2 through the whole pass,
about 43 MiB at N = 1e4, z = 997.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import prime_table
from .errors import CapacityError

Z_CAP = 1000          # divisor enumeration of P(z) is exponential past this
ORACLE_BOX_CAP = 10**4
_ROW_CHUNK = 256
_CLASS_TABLE_MAX = 256


@dataclass(frozen=True)
class LinearForm:
    """Primitive linear form u*a + v*b with positive coefficients."""

    u: int
    v: int

    def __post_init__(self):
        if self.u < 1 or self.v < 1:
            raise ValueError("form coefficients must be positive")
        if math.gcd(self.u, self.v) != 1:
            raise ValueError(f"form ({self.u}, {self.v}) is not primitive")


def pairwise_det_product(m, forms):
    """m times the product of both cross terms over all form pairs."""
    t = m
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            fi, fj = forms[i], forms[j]
            t *= (fi.u * fj.v - fi.v * fj.u) * (fi.u * fj.u + fi.v * fj.v)
    return t


@dataclass(frozen=True)
class SieveProblem:
    """One sieve instance over the box 1 <= a, b <= N."""

    box: int
    z: int
    xi: Fraction = None     # defaults to z
    m: int = 1
    forms: tuple = ()
    variant: str = "A"
    T: int = field(init=False, default=0)
    kappa: int = field(init=False, default=0)  # sifting dimension, metadata

    def __post_init__(self):
        if self.variant not in ("A", "B", "C"):
            raise ValueError("variant must be A, B or C")
        if self.box < 1:
            raise ValueError("box side must be >= 1")
        if self.z < 2:
            raise ValueError("sieve level z must be >= 2")
        if self.z > Z_CAP:
            raise CapacityError(f"z = {self.z} exceeds sieve cap Z_CAP = {Z_CAP}")
        object.__setattr__(self, "forms", tuple(self.forms))
        xi = self.z if self.xi is None else self.xi
        xi = Fraction(xi).limit_denominator(10**12) if isinstance(xi, float) \
            else Fraction(xi)
        object.__setattr__(self, "xi", xi)
        if self.xi < self.z:
            raise ValueError("need z <= xi")
        object.__setattr__(self, "T", pairwise_det_product(self.m, self.forms))
        object.__setattr__(self, "kappa", len(self.forms) + 2)

    @property
    def ell(self):
        return len(self.forms)

    @property
    def prime_set(self):
        """'all' for variant A, '3mod4' for B and C."""
        return "all" if self.variant == "A" else "3mod4"

    @property
    def X(self):
        """The size estimate: the exact box area N^2."""
        return Fraction(self.box * self.box)

    def sifting_primes(self):
        """Primes ell + 2 < p <= z in the configured residue class."""
        return list(_sifting_primes(self))

    def active_primes(self):
        """Sifting primes that carry weight (g(p) > 0)."""
        return list(_active_primes(self))


@lru_cache(maxsize=128)
def _sifting_primes(problem):
    table = prime_table(max(problem.z, 2))
    out = []
    for p in table.primes:
        p = int(p)
        if p <= problem.ell + 2 or p > problem.z:
            continue
        if problem.prime_set == "3mod4" and p % 4 != 3:
            continue
        out.append(p)
    return tuple(out)


@lru_cache(maxsize=128)
def _active_primes(problem):
    return tuple(p for p in _sifting_primes(problem)
                 if weight_g(problem, p) > 0)


def _independent_classes(forms, p):
    """Number of pairwise-independent forms mod p (distinct projective classes)."""
    classes = set()
    for f in forms:
        u, v = f.u % p, f.v % p
        if v:
            classes.add((u * pow(v, -1, p)) % p)
        else:
            classes.add("inf")
    return len(classes)


@lru_cache(maxsize=256)  # > pi(Z_CAP) = 168, the most primes one problem has
def weight_g(problem, p):
    """The sieve weight g(p), exact rational, per the variant's closed form."""
    ell = problem.ell
    if p <= ell + 2:
        raise ValueError(f"p = {p} is below the sifting floor ell + 2 = {ell + 2}")
    if p > problem.z:
        raise ValueError(f"p = {p} exceeds the sieve level z = {problem.z}")
    chi = 0 if p == 2 else (1 if p % 4 == 1 else -1)
    ell_p = _independent_classes(problem.forms, p)
    divides_t = problem.T % p == 0
    if problem.variant == "A":
        if problem.m % p == 0:
            num = 1 + (p - 1) * (1 + chi)
        elif divides_t:
            num = 1 + (p - 1) * (ell_p + 1 + chi)
        else:
            num = 1 + (p - 1) * (ell + 1 + chi)
        return Fraction(num, p * p)
    if problem.variant == "B":
        if p % 4 == 1:
            return Fraction(0)
        eff = ell_p if divides_t else ell
        return Fraction(1 + eff * (p - 1), p * p)
    # variant C
    if p % 4 == 1 or divides_t:
        return Fraction(0)
    return Fraction(ell * p * (p - 1) ** 2, p**4)


def weight_h(problem, p):
    """h(p) = g(p) / (1 - g(p)), exact."""
    g = weight_g(problem, p)
    return g / (1 - g)


@lru_cache(maxsize=128)
def _h_map(problem):
    return {p: weight_h(problem, p) for p in _active_primes(problem)}


def g_value(problem, d):
    """g(d) = product of g(p) over p | d (d a squarefree sifting product)."""
    out = Fraction(1)
    m = d
    for p in _sifting_primes(problem):
        if m % p == 0:
            out *= weight_g(problem, p)
            m //= p
            if m % p == 0:
                raise ValueError(f"d = {d} is not squarefree")
    if m != 1:
        raise ValueError(f"d = {d} is not a product of sifting primes")
    return out


def _squarefree_products(primes, bound):
    """Squarefree products of the given primes that are < bound, with factors.

    Depth first, each product before its extensions by larger primes.  The
    walk keeps an explicit stack: a recursive nested function would be a
    reference cycle, left for the full cyclic collector, on every call.
    An int is below a rational bound iff it is below its ceiling, so the
    walk compares ints only.
    """
    bound = math.ceil(bound)
    out = []
    stack = [(0, 1, ())]
    while stack:
        i, prod, used = stack.pop()
        out.append((prod, used))
        longer = []
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt >= bound:
                break
            longer.append((j + 1, nxt, used + (primes[j],)))
        stack.extend(reversed(longer))
    return out


def _g_parts(hmap, used):
    """(num, den), the products of g(p)'s numerator and denominator over the
    primes `used` of hmap = _h_map(problem), so that g(d) = num / den for d
    their product.

    They are read off h(p) = g(p) / (1 - g(p)): g = n / e in lowest terms
    gives h = n / (e - n) in lowest terms, so n and e are h's numerator and
    the sum of its numerator and denominator.
    """
    num = den = 1
    for p in used:
        h = hmap[p]
        num *= h.numerator
        den *= h.numerator + h.denominator
    return num, den


def _h_products(problem):
    """(H, products): H is the product of h(p)'s denominators over the
    active primes, and products lists (m, used, h(m) H) for the squarefree
    products m < xi of active primes, with m's prime factors `used`.  h(m) H
    is an int, since the denominators of the h(p), p | m, divide H."""
    hmap = _h_map(problem)
    big_h = math.prod(h.denominator for h in hmap.values())
    products = []
    for m, used in _squarefree_products(sorted(hmap), problem.xi):
        hm = big_h
        for p in used:
            hm = hm // hmap[p].denominator * hmap[p].numerator
        products.append((m, used, hm))
    return big_h, products


def big_G(problem):
    """G(xi, z) = sum of h(m) over squarefree m | P(z), m < xi.  Exact."""
    big_h, products = _h_products(problem)
    return Fraction(sum(hm for _, _, hm in products), big_h)


def lambda_weights(problem):
    """Selberg weights lambda_d for squarefree d | P(z), d < xi.  lambda_1 = 1.

    lambda_d = mu(d) S_d / (g(d) G), where S_d sums h(m) over the m < xi
    that d divides and G = S_1 (Halberstam and Richert, Sieve Methods,
    ch. 3), so one list of the m < xi gives every weight.  The S_d are
    summed as ints over the common denominator H of _h_products, which
    cancels from S_d / S_1.
    """
    hmap = _h_map(problem)
    _, products = _h_products(problem)
    sums = dict.fromkeys((m for m, _, _ in products), 0)
    for m, used, hm in products:
        divisors = [1]
        for p in used:
            divisors += [d * p for d in divisors]
        for d in divisors:
            sums[d] += hm
    out = {}
    for d, used, _ in products:
        num, den = _g_parts(hmap, used)
        out[d] = Fraction((-1) ** len(used) * sums[d] * den, num * sums[1])
    return out


def mu_plus(problem, lams=None):
    """mu_plus(d) = sum over lcm(d1, d2) = d of lambda_{d1} lambda_{d2}.

    The products are summed as ints over D^2, with D the lcm of the lambda
    denominators, and each mu_plus(d) is one Fraction of its sum.
    """
    if lams is None:
        lams = lambda_weights(problem)
    den = math.lcm(*(v.denominator for v in lams.values()))
    items = sorted((d, v.numerator * (den // v.denominator))
                   for d, v in lams.items())
    acc = {}
    for d1, n1 in items:
        for d2, n2 in items:
            d = d1 * d2 // math.gcd(d1, d2)
            acc[d] = acc.get(d, 0) + n1 * n2
    square = den * den
    return {d: Fraction(n, square) for d, n in acc.items()}


# ---------------------------------------------------------------------------
# Exact box counting
# ---------------------------------------------------------------------------

def _period(problem, p):
    """The period q of the event at p in a and in b: p, or p^2 for variant C."""
    return p * p if problem.variant == "C" else p


@lru_cache(maxsize=256)
def _sqrt_minus_one(p, m):
    """iota with iota^2 = -1 (mod m), for p = 1 (mod 4) and m in {p, p^2}.

    iota mod p is x^((p - 1) / 4) for the least non-residue x; one Hensel
    step for t^2 + 1 lifts it to mod p^2.
    """
    x = 2
    while pow(x, (p - 1) // 2, p) != p - 1:
        x += 1
    iota = pow(x, (p - 1) // 4, p)
    return (iota - (iota * iota + 1) * pow(2 * iota, -1, m)) % m


def _factor_classes(problem, p, a, m):
    """Per factor, the classes of b that make it 0 mod m, for the rows a.

    m is p or p^2.  A factor's set is the union of its classes (r, c): r is
    p or p^2 and c an int64 vector over a of residues mod r, with c = r for
    every b and c = r + 1 for no b.  The norm a^2 + b^2 needs p | a, then
    p | b, when p = 3 (mod 4); when p = 1 (mod 4) and p does not divide a it
    vanishes at b = +-iota a.  The form u a + v b, with g = gcd(v, m), needs
    g | a (gcd(u, v) = 1), then b = -(u a / g) (v / g)^-1 (mod m / g).
    """
    if p % 4 == 3:
        norm = [(p, np.where(a % p == 0, 0, p + 1))]
    else:
        iota = _sqrt_minus_one(p, m)
        norm = [(m, iota * a % m), (m, (m - iota) * a % m)]
        if m != p:  # p | a: p | b, and then p^2 | a^2 + b^2
            pa = a % p == 0
            norm = [(m, np.where(pa, m + 1, c)) for _, c in norm]
            norm.append((p, np.where(pa, 0, p + 1)))
    out = [norm]
    for f in problem.forms:
        g = math.gcd(f.v, m)
        r = m // g
        if r == 1:  # m | v: every b once m | u a
            out.append([(p, np.where(a % g == 0, p, p + 1))])
            continue
        c = -f.u * pow(f.v // g, -1, r) % r * (a // g) % r
        out.append([(r, c if g == 1 else np.where(a % g == 0, c, r + 1))])
    return out


def _pack(mask, words):
    """The rows of a bool mask packed along b into `words` uint64 words each.

    The bits past the mask's last column are 0, so they never count as hit.
    """
    out = np.zeros((mask.shape[0], 8 * words), dtype=np.uint8)
    out[:, :(mask.shape[1] + 7) // 8] = np.packbits(mask, axis=1)
    return out.view(np.uint64)


def _popcount(words):
    # a row chunk holds at most _ROW_CHUNK * ORACLE_BOX_CAP < 2^32 bits, so
    # the sum fits uint32, which numpy sums faster than the default uint64
    return int(np.bitwise_count(words).sum(dtype=np.uint32))


@lru_cache(maxsize=8)
def _bit_places(n):
    """(byte, bit, every) for b = 0 .. N in _pack's bit order: b's byte and
    bit in a packed row of b = 1 .. N, with bit 0 for b = 0, which is not in
    the row; and the packed row of every b.  Read-only."""
    b = np.arange(n + 1)
    places = (np.maximum(b - 1, 0) >> 3,
              np.where(b > 0, 0x80 >> ((b - 1) & 7), 0).astype(np.uint8),
              _pack(np.ones((1, n), dtype=bool), -(-n // 64))[0])
    for arr in places:
        arr.flags.writeable = False
    return places


def _class_tables(problem, p):
    """The class tables of the moduli p and (variant C) p^2 that are at most
    min(N, _CLASS_TABLE_MAX).

    The table of m has packed rows of b = 1 .. N: row c < m holds the b
    with b = c (mod m), row m every b and row m + 1 no b.  Several b of one
    class share a byte when m < 8, so the bits are ORed in with
    `np.bitwise_or.at`, not assigned.
    """
    n = problem.box
    byte, bit, every = _bit_places(n)
    b = np.arange(n + 1)
    tables = {}
    for m in {p, _period(problem, p)}:
        if m <= min(n, _CLASS_TABLE_MAX):
            table = np.zeros((m + 2, len(every)), dtype=np.uint64)
            np.bitwise_or.at(table.view(np.uint8), (b % m, byte), bit)
            table[m] = every
            tables[m] = table
    return tables


def _class_rows(problem, tables, r, c):
    """Packed rows of the classes c mod r, one per row a.

    A modulus with a class table gathers them from it.  Any other modulus r
    exceeds N or _CLASS_TABLE_MAX >= 8, so a class holds at most N / r + 1
    b, each in its own byte: their bits are assigned by scatter into fresh
    rows.
    """
    if r in tables:
        return tables[r][c]
    n = problem.box
    byte, bit, every = _bit_places(n)
    out = np.zeros((len(c), len(every)), dtype=np.uint64)
    out[c == r] = every
    rows = np.flatnonzero(c < r)
    b = c[rows, None] + r * np.arange(n // r + 1)
    keep = (b >= 1) & (b <= n)
    i = np.broadcast_to(rows[:, None], b.shape)[keep]
    b = b[keep]
    out.view(np.uint8)[i, byte[b]] = bit[b]
    return out


def _event_rows(problem, p, a, tables):
    """The packed event rows at p of the rows a (int64) over b = 1 .. N.

    Each factor's set is a union of residue classes of b (_factor_classes),
    so a row is assembled from class rows: for variants A and B the OR of
    every factor's level-p set; for C the b where exactly one factor's
    level-p set holds and no factor's level-p^2 set does.  tables holds the
    prime's class tables (_class_tables).
    """
    def union(classes):
        rows = _class_rows(problem, tables, *classes[0])
        for cls in classes[1:]:
            rows |= _class_rows(problem, tables, *cls)
        return rows

    level_p = _factor_classes(problem, p, a, p)
    if problem.variant in ("A", "B"):
        return union([cls for factor in level_p for cls in factor])
    level_q = _factor_classes(problem, p, a, p * p)
    once = union(level_p[0])
    # for p = 3 (mod 4) the norm's two levels are the same set
    deep = once.copy() if p % 4 == 3 else union(level_q[0])
    many = np.zeros_like(once)
    for factor in level_p[1:]:
        x = union(factor)
        many |= once & x
        once |= x
    for factor in level_q[1:]:
        deep |= union(factor)
    return once & ~(many | deep)


def _residue_table(problem, p, tables):
    """The packed event at p for a = 0 .. q + _ROW_CHUNK - 2 over b = 1 .. N,
    for q <= N.

    The event depends on a only through a mod q, so row a % q of the table
    is the event row of every a in the box.  Rows 0 .. q - 1 are filled in
    _ROW_CHUNK row chunks and the rows past them repeat them, so the rows of
    any _ROW_CHUNK consecutive a are one slice, from row a % q of the first.
    """
    q = _period(problem, p)
    table = np.empty((q + _ROW_CHUNK - 1, -(-problem.box // 64)),
                     dtype=np.uint64)
    for lo in range(0, q, _ROW_CHUNK):
        a = np.arange(lo, min(lo + _ROW_CHUNK, q), dtype=np.int64)
        table[lo:lo + len(a)] = _event_rows(problem, p, a, tables)
    table[q:] = table[np.arange(q, len(table)) % q]
    return table


@lru_cache(maxsize=128)
def _box_survey(problem):
    """The one box pass of a problem: (ds, counts, sifted).

    ds are the squarefree products d < xi^2 + 1 of active primes with their
    factors, as (d, used); counts[i] is the exact |A_d| of ds[i], the pairs
    hit by the event of every p | d; sifted counts the pairs no sifting
    event hits.  Each sifting prime's event rows are assembled once from
    residue classes of b (_event_rows), on rows packed into uint64 words.
    A prime with period q <= N keeps a residue table, of which every row
    chunk of the box reads a slice, and drops its class tables; a prime with
    q > N would use each table row once, so each row chunk assembles its
    rows.  ds lists each d straight after its parent d / max(p | d), so one
    running AND per depth gives each |A_d| from one AND and one popcount.
    """
    n = problem.box
    if n > ORACLE_BOX_CAP:
        raise CapacityError(f"box {n} exceeds oracle cap {ORACLE_BOX_CAP}")
    primes = problem.sifting_primes()
    ds = tuple(_squarefree_products(problem.active_primes(),
                                    problem.xi * problem.xi + 1))
    counts = [0] * len(ds)
    sifted = 0
    words = -(-n // 64)
    periods = {p: _period(problem, p) for p in primes}
    tables, classes = {}, {}
    for p, q in periods.items():
        if q <= n:
            tables[p] = _residue_table(problem, p, _class_tables(problem, p))
        else:
            classes[p] = _class_tables(problem, p)
    depth = max(len(used) for _, used in ds)
    prefix = np.empty((depth + 1, _ROW_CHUNK, words), dtype=np.uint64)
    prefix[0] = ~np.uint64(0)  # the AND over no primes: d = 1
    for lo in range(1, n + 1, _ROW_CHUNK):
        a = np.arange(lo, min(lo + _ROW_CHUNK, n + 1), dtype=np.int64)
        masks = {p: tables[p][lo % q:lo % q + len(a)] if p in tables else
                 _event_rows(problem, p, a, classes[p])
                 for p, q in periods.items()}
        hit = np.zeros((len(a), words), dtype=np.uint64)
        for mask in masks.values():
            hit |= mask
        sifted += len(a) * n - _popcount(hit)
        acc = prefix[:, :len(a)]
        for i, (_, used) in enumerate(ds):
            k = len(used)
            if k == 0:
                counts[i] += len(a) * n
                continue
            np.bitwise_and(acc[k - 1], masks[used[-1]], out=acc[k])
            counts[i] += _popcount(acc[k])
    return ds, tuple(counts), sifted


def sifted_count_exact(problem):
    """Exact count of box pairs avoiding every sifting event."""
    return _box_survey(problem)[2]


def _remainder_exact(problem, d, used, count):
    """R_d as an exact Fraction, with the paper's size assertion.

    used are d's prime factors, so g(d) = num / den from their g(p), and
    R_d = c / den with the int c = count den - num N^2.
    """
    num, den = _g_parts(_h_map(problem), used)
    c = count * den - num * problem.box * problem.box
    scale = problem.box + 1  # isqrt(X) + 1, with X = N^2
    slack = d * d if problem.variant == "C" else d
    if abs(c) > 2 * slack * scale * den:
        raise AssertionError(
            f"|R_{d}| = {abs(c) / den:.3f} exceeds 2*{slack}*{scale}; "
            f"the weight model does not match this problem's events")
    return Fraction(c, den)


def sieve_upper_bound(problem, return_parts=False):
    """X / G(xi, z) plus the 3^omega(d) |R_d| remainder sum over d <= xi^2.

    Every R_d's denominator divides L, the product of g(p)'s denominators
    over the active primes, so the remainder sum is an int over L.
    """
    ds, counts, _ = _box_survey(problem)
    main = problem.X / big_G(problem)
    hmap = _h_map(problem)
    common = _g_parts(hmap, hmap)[1]  # over every active prime
    rem = 0
    remainders = {}
    for (d, used), count in zip(ds, counts):
        r = _remainder_exact(problem, d, used, count)
        remainders[d] = r
        rem += 3 ** len(used) * abs(r.numerator) * (common // r.denominator)
    bound = float(main + Fraction(rem, common))
    if return_parts:
        return bound, float(main), remainders
    return bound


# ---------------------------------------------------------------------------
# Randomized paper-shaped problems and the golden-file format
# ---------------------------------------------------------------------------

def coprime_representations(m):
    """Ordered pairs (u, v), u, v >= 1, gcd 1, u^2 + v^2 = m."""
    out = []
    for u in range(1, math.isqrt(m) + 1):
        v2 = m - u * u
        v = math.isqrt(v2)
        if v >= 1 and v * v == v2 and math.gcd(u, v) == 1:
            out.append((u, v))
    return out


def random_problems(count, seed=0, box_max=2000, z_max=50):
    """Problems with one to three forms, each a genuine representation of
    the modulus m.

    Keeping every form's u^2 + v^2 equal to m is what makes the closed-form
    weights an exact density model, hence what keeps every remainder small.
    """
    import random as _random

    rng = _random.Random(seed)
    moduli = [m for m in range(5, 3000) if coprime_representations(m)]
    problems = []
    while len(problems) < count:
        variant = rng.choice("ABC")
        ell = rng.randint(1, 3)
        m = rng.choice(moduli)
        reps = coprime_representations(m)
        if len(reps) < ell:
            continue
        forms = tuple(LinearForm(u, v) for u, v in rng.sample(reps, ell))
        z = rng.randint(ell + 4, z_max)
        problems.append(SieveProblem(
            box=rng.randint(50, box_max), z=z, m=m, forms=forms,
            variant=variant))
    return problems


def golden_line(problem, expected):
    forms = "|".join(f"{f.u}:{f.v}" for f in problem.forms)
    return (f"{problem.variant},{problem.box},{problem.z},"
            f"{float(problem.xi):.12g},{problem.m},{problem.ell},"
            f"{forms},{expected}")


def parse_golden_line(line):
    variant, box, z, xi, m, ell, forms, expected = line.strip().split(",")
    form_list = tuple(LinearForm(*(int(t) for t in pair.split(":")))
                      for pair in forms.split("|") if pair)
    if len(form_list) != int(ell):
        raise ValueError(f"form count mismatch in golden line: {line!r}")
    problem = SieveProblem(box=int(box), z=int(z), xi=float(xi), m=int(m),
                           forms=form_list, variant=variant)
    return problem, int(expected)
