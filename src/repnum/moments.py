"""Segmented bulk computation of representation-count moments.

The heavy lifting happens in per-segment kernels: a bucket pass that
generates lattice pairs (a, b) with lo <= a^2 + b^2 < hi and counts them
per n from their sorted offsets, and a factorization pass that sieves
omega-style statistics over the same window.  Segments reduce to exact
integer histograms, independent of segment size and worker schedule by
construction (integer addition is associative and commutative).

Every sweep filtered by omega or omega* runs over windows of odd m, and
takes n = 2^k m from them: omega*(2^k m) = omega*(m) and omega(2^k m) =
omega(m) + [k >= 1], so one walk over the odd m (the walk's odd mode)
keys every n.  The counts at n = 2^k m come from at most four lattice
passes per window: the pairs with a + b odd (k = 0) and with a and b odd
(k = 1) of the family's lattice L, and the same two of L/2, the halved
pairs (a/2, b/2) of L's even pairs, since F(4n) is L/2's count at n
(_VALUATIONS).  Each cutoff's histogram is folded from those of the odd m
up to x >> k (_fold_valuations).  Unfiltered sweeps run over windows of
n.

Three statistics need no sweep, as Fermat's two-square theorem gives
them from the primes = 1 (mod 4): the restricted-set counts rho_k
(nn_omega_histograms) and the unfiltered r0 and r0* histograms
(_counted_histograms).  Each is counted from the prime counts mod 4 at
every x // d (arith.prime_counts) and an enumeration of products of
1-mod-4 prime powers (_restricted_counts).
"""

import contextlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith, repfun
from .errors import CapacityError

DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_X = 10**9          # desk-scale budget for the segment engine
MAX_POWER = 8
MAX_BINOMIAL = 8
_COUNTER_MAX = (1 << 32) - 1
_BLOCK_PAIRS = 1 << 16  # lattice pairs per bucket block; bounds temporaries
_INT32_MAX = 2**31 - 1  # the bucket pass's pair arithmetic is int32


# ---------------------------------------------------------------------------
# Segment kernels
# ---------------------------------------------------------------------------

def _isqrt(v):
    """Elementwise isqrt of a non-negative int64 array, exact after fix-ups."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _prime_columns(bvals, primes):
    """Distinct primes of each base value, as two int64 arrays (row, prime).

    Each pair is the index i of b in bvals and a prime dividing bvals[i]
    (b = 1 has none), ordered by i and each row's primes ascending.  The
    pairs are marked by walking the multiples of every prime <= max(bvals)
    through a position index of the base values.
    """
    bmax = int(bvals[-1]) if len(bvals) else 0
    ps = primes[: int(np.searchsorted(primes, bmax, side="right"))]
    pos = np.full(bmax + 1, -1, dtype=np.int64)
    pos[bvals] = np.arange(len(bvals))
    reps = bmax // ps
    p_rep = np.repeat(ps, reps)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    rows = pos[p_rep * (np.arange(len(p_rep)) - first + 1)]
    keep = rows >= 0
    rows, p_rep = rows[keep], p_rep[keep]
    order = np.argsort(rows, kind="stable")  # each row's primes stay sorted
    return rows[order], p_rep[order]


def _lattice_state(traits, root, table, parity=None, halved=False):
    """What the bucket pass needs for base values b <= root; once per sweep.

    bvals: the base set; bprimes (coprime families only): the distinct
    primes of every b, as _prime_columns' (row, prime) arrays; aprimes: the
    int32 primes <= root that prime first coordinates walk.

    parity "odd": the pass walks only the pairs with a + b odd, so the n it
    counts are the odd n of each window; "both_odd": only the pairs with a
    and b odd, whose n are 2 mod 4, so bvals keeps only the odd b.  With a
    parity, aprimes lists the odd first coordinates, ascending, then the
    even ones ("odd" only), and asplit counts the odd ones; bprimes drops
    the prime 2, as no walked pair has a and b both even.

    halved: the lattice L/2 of (a/2, b/2) over the family's pairs (a, b)
    with a and b even, whose counts at n are the family's at 4n.  Its b
    are the halves of the even base values <= 2 root, and its prime first
    coordinates the halves of the even primes (a = 1, from 2); rules a != b
    and a < b hold for the halves alike.  A coprime family has no such
    pair (gcd(a, b) >= 2), so its L/2 has no b.
    """
    primes = table.primes
    top = 2 * root if halved else root
    bvals = repfun.base_values(traits.base, top, table)
    avals = primes[:int(np.searchsorted(primes, top, side="right"))]
    if halved:
        bvals = bvals[:0] if traits.coprime else bvals[bvals % 2 == 0] // 2
        avals = avals[avals % 2 == 0] // 2
    if parity == "both_odd":
        bvals = bvals[bvals % 2 == 1]
    asplit = None
    if parity:
        odd_a = avals % 2 == 1
        asplit = int(np.count_nonzero(odd_a))
        even = avals[~odd_a] if parity == "odd" else avals[:0]
        avals = np.concatenate([avals[odd_a], even])
    state = {"traits": traits, "parity": parity, "bvals": bvals,
             "bprimes": None, "aprimes": avals.astype(np.int32),
             "asplit": asplit}
    if traits.coprime:
        rows, ps = _prime_columns(bvals, primes)
        keep = ps != 2 if parity else slice(None)
        state["bprimes"] = rows[keep], ps[keep]
    return state


def _scratch(state, name, n, dtype, iota=0):
    """A length-n view of the state's grow-only buffer `name`.

    A sweep's state is one per process (_init_worker), dropped when the
    sweep ends, so its segments reuse these pages, not fresh ones.  A
    buffer too short is replaced by one an eighth longer than n, which
    the next segments fit.  An iota buffer (iota = step >= 1) holds 0,
    step, 2 step, ..., read only.
    """
    bufs = state.setdefault("scratch", {})
    buf = bufs.get(name)
    if buf is None or len(buf) < n:
        size = n + n // 8
        buf = bufs[name] = (np.arange(0, iota * size, iota, dtype=dtype)
                            if iota else np.empty(size, dtype=dtype))
    return buf[:n]


def _pair_blocks(ends, cap):
    """Split rows with cumulative item counts `ends` (lattice pairs, or
    _restricted_counts' children) into blocks of whole rows.

    Each block holds at most `cap` items, or a single row larger than cap.
    """
    r0, base = 0, 0
    while r0 < len(ends):
        r1 = max(int(np.searchsorted(ends, base + cap, side="right")), r0 + 1)
        yield r0, r1
        r0, base = r1, int(ends[r1 - 1])


def _symmetric(traits):
    """The first coordinate runs over the same set as b (r0, r0*, r2, r2*,
    r2unordered), so the pairs a < b determine those with a > b."""
    return traits.base == ("prime" if traits.first_prime else "any")


def _unmirrored_offsets(lo, hi, lattice):
    """n - lo, int32, of the pairs with no mirror for a symmetric family:
    the diagonal (a, a) at n = 2a^2 (none for r2*) and, when a may be 0,
    the axis (0, b) at n = b^2.  A coprime family keeps only a = 1 and
    b = 1, since gcd(a, a) = a and gcd(0, b) = b.  2a^2 = b^2 has no
    solution, so the offsets are distinct.  An odd walk keeps the axis at
    odd b and no diagonal, as 2a^2 is even; a both-odd walk keeps the
    diagonal at odd a and no axis, as a = 0 is even.  A state with no b (a
    coprime family's L/2) has neither.
    """
    traits, parity = lattice["traits"], lattice["parity"]
    both = parity == "both_odd"
    top = 1 if traits.coprime else hi
    if not len(lattice["bvals"]):
        top = 0
    diag = np.arange(0)
    if not (traits.distinct or parity == "odd"):
        a_lo = math.isqrt((lo + 1) // 2 - 1) + 1  # least a >= 1, 2a^2 >= lo
        a_hi = min(math.isqrt((hi - 1) // 2), top)
        if traits.first_prime:
            aprimes = lattice["aprimes"][:lattice["asplit"]]
            diag = aprimes[np.searchsorted(aprimes, a_lo):
                           np.searchsorted(aprimes, a_hi, side="right")]
        else:
            diag = np.arange(a_lo | both, a_hi + 1, 1 + both)
    diag = diag.astype(np.int64)
    off = [2 * diag * diag - lo]
    if not (traits.first_prime or both):
        odd = parity == "odd"
        axis = np.arange((math.isqrt(lo - 1) + 1) | odd,
                         min(math.isqrt(hi - 1), top) + 1, 1 + odd,
                         dtype=np.int64)
        off.append(axis * axis - lo)
    return np.concatenate(off).astype(np.int32)


def _pair_offsets(lo, hi, lattice):
    """int32 offsets n - lo of the family pairs with lo <= n < hi that the
    bucket pass walks, one entry per pair, ascending: a view of the
    lattice's scratch (_scratch), overwritten by its next call.

    One vectorized pass over the base values b <= isqrt(hi - 1) of the
    _lattice_state `lattice`: each b owns a row of first coordinates a
    (integers, or prime indices for the prime-first families) with
    lo <= a^2 + b^2 < hi.  A symmetric family walks only the rows a < b
    with a >= 1, so only b with 2b^2 > lo; its callers count each of
    those pairs twice (once for r2unordered) and add the diagonal and axis
    pairs once (_unmirrored_offsets); r2*'s rule a != b then holds on
    every walked pair.  Blocks of at most _BLOCK_PAIRS pairs (bounding
    their temporaries) write a^2 + b^2 - lo in place into the scratch; a
    coprime family marks the pairs with gcd(a, b) > 1 past the window
    (_strike) and cuts them off after the sort.  An odd lattice state
    walks in each row only the a of the other parity than b, and a
    both-odd one only the odd a (its b are odd): integer a step by 2, and
    prime ones are looked up in the odd or the even part of aprimes.  So
    every walked n is odd, or 2 mod 4.  The int32 offsets need
    hi - 1 <= _INT32_MAX.
    """
    traits = lattice["traits"]
    b0, bb, start, n, step = _pair_rows(lo, hi, lattice)
    sq = (bb - lo).astype(np.int32)
    ends = np.cumsum(n)
    off = _scratch(lattice, "offsets", int(n.sum()), np.int32)
    for r0, r1 in _pair_blocks(ends, _BLOCK_PAIRS):
        nr = n[r0:r1]
        base = int(ends[r0 - 1]) if r0 else 0
        blk = off[base:int(ends[r1 - 1])]
        first = ends[r0:r1] - nr - base  # each row's place in the block
        lead = start[r0:r1] - first  # a = lead + step * place
        if step == 2:
            lead -= first
        np.add(_scratch(lattice, f"iota{step}", len(blk), np.int32,
                        iota=step),
               np.repeat(lead.astype(np.int32), nr), out=blk)
        if traits.first_prime:
            blk[:] = lattice["aprimes"][blk]
        np.square(blk, out=blk)
        blk += np.repeat(sq[r0:r1], nr)
        if traits.coprime:
            _strike(blk, hi - lo, b0 + r0, b0 + r1, start[r0:r1], nr, first,
                    lattice)
    off.sort()
    if traits.coprime:
        off = off[:int(np.searchsorted(off, np.int32(hi - lo)))]
    return off


def _pair_rows(lo, hi, lattice):
    """The rows _pair_offsets walks over [lo, hi): the index b0 in bvals
    of their first b, b^2 of each, each row's first a (or its place in
    aprimes), its pair count n, and the step of a along a row (2 for
    integer a on an odd or a both-odd state).  A coprime family's n still
    counts the pairs with gcd(a, b) > 1."""
    traits, bvals, aprimes = (lattice["traits"], lattice["bvals"],
                              lattice["aprimes"])
    parity = lattice["parity"]
    step = 2 if parity and not traits.first_prime else 1
    b0 = int(np.searchsorted(
        bvals, math.isqrt((lo - 1) // 2) if _symmetric(traits) else 0))
    b = bvals[b0:np.searchsorted(bvals, math.isqrt(hi - 1), side="right")]
    bb = b * b
    a_hi = _isqrt(hi - 1 - bb)
    t = lo - bb
    a_lo = np.where(t <= 0, 0, _isqrt(np.maximum(t - 1, 0)) + 1)
    if _symmetric(traits):
        a_hi = np.minimum(a_hi, b - 1)
        a_lo = np.maximum(a_lo, 1)
    if traits.first_prime and parity:
        split = lattice["asplit"]
        odd_a = (b % 2 == 0) | (parity == "both_odd")
        odds, evens = aprimes[:split], aprimes[split:]
        start = np.where(odd_a, np.searchsorted(odds, a_lo),
                         split + np.searchsorted(evens, a_lo))
        stop = np.where(odd_a, np.searchsorted(odds, a_hi, side="right"),
                        split + np.searchsorted(evens, a_hi, side="right"))
    elif traits.first_prime:
        start = np.searchsorted(aprimes, a_lo, side="left")
        stop = np.searchsorted(aprimes, a_hi, side="right")
    else:
        start, stop = a_lo, a_hi + 1
        if step == 2:  # a + b odd, or a odd
            start = a_lo + ((a_lo + b + (parity == "odd")) & 1)
    n = np.maximum(stop - start, 0)  # every b keeps its row, maybe empty
    if step == 2:
        n = (n + 1) // 2
    return b0, bb, start, n, step


def _strike(blk, mark, i0, i1, start, nr, first, lattice):
    """Write `mark` over the block's offsets of the pairs with gcd(a, b) > 1.

    The block holds the rows of bvals[i0:i1].  A coprime family's first
    coordinates are consecutive integers, so row i holds a = start[i],
    start[i] + 1, ... from place first[i] of the block on, and each prime
    p of its b hits every p-th pair of the row, from (-start[i]) mod p on;
    a = 0 is hit by every prime of b, so it stays only for b = 1.  A row of
    an odd or a both-odd state holds a = start[i] + 2j, so an odd p hits it
    first at j = -start[i] (p + 1) / 2 mod p, the inverse of 2 mod p, and
    p = 2 never (the state lists no 2).  The places are built in int32 (p
    times an index may wrap; the places fit) and copied to intp scratch, so
    the scatter converts no index array.
    """
    prow, p = lattice["bprimes"]
    g0, g1 = np.searchsorted(prow, (i0, i1))
    ri, p = prow[g0:g1] - i0, p[g0:g1]
    o = -start[ri] % p
    if lattice["parity"]:
        o = o * ((p + 1) // 2) % p
    hits = (nr[ri] - o + p - 1) // p  # >= 0, as o < p
    # hit list entry m, of (row, prime) g, is at first + o + p (m - cs[g])
    cs = np.cumsum(hits) - hits
    total = int(hits.sum())
    at = _scratch(lattice, "strike32", total, np.int32)
    np.multiply(np.repeat(p.astype(np.int32), hits),
                _scratch(lattice, "iota1", total, np.int32, iota=1), out=at)
    at += np.repeat((first[ri] + o - p * cs).astype(np.int32), hits)
    place = _scratch(lattice, "strike", total, np.intp)
    place[:] = at
    blk[place] = mark


def _mirrored(traits):
    """The walked pairs stand for two pairs each (symmetric, ordered)."""
    return _symmetric(traits) and not traits.unordered


def _offset_runs(lo, hi, state):
    """The n - lo with a nonzero count in [lo, hi), int32, and their counts,
    intp: views of the state's scratch, overwritten by its next call.

    The sorted pair offsets are cut into runs of equal offsets: a run
    starts where an offset differs from the one before (listed _CHUNK
    offsets at a time, which bounds the temporaries), and its length is
    the distance to the next start.  A symmetric ordered family doubles
    each run and merges its unmirrored offsets: +1 on a run they hit, a
    new entry of count 1 otherwise.  The entries are distinct, unordered.
    """
    traits = state["traits"]
    off = _pair_offsets(lo, hi, state)
    u = (_unmirrored_offsets(lo, hi, state) if _mirrored(traits)
         else off[:0])
    new = _scratch(state, "new", len(off) + 1, bool)  # run starts, the end
    new[0] = new[-1] = True
    np.not_equal(off[1:], off[:-1], out=new[1:-1])
    nruns = int(np.count_nonzero(new)) - 1
    starts = _scratch(state, "runs", nruns + 1 + len(u), np.intp)
    fill = 0
    for i in range(0, len(new), _CHUNK):
        at = np.flatnonzero(new[i:i + _CHUNK])
        at += i
        starts[fill:fill + len(at)] = at
        fill += len(at)
    d = _scratch(state, "distinct", nruns + len(u), np.int32)
    np.take(off, starts[:nruns], out=d[:nruns], mode="clip")
    runs = starts[:nruns]
    np.subtract(starts[1:nruns + 1], runs, out=runs)
    if _mirrored(traits):
        runs *= 2
        pos = np.searchsorted(d[:nruns], u)
        hit = pos < nruns
        hit[hit] = d[pos[hit]] == u[hit]
        runs[pos[hit]] += 1
        miss = u[~hit]
        d[nruns:nruns + len(miss)] = miss
        starts[nruns:nruns + len(miss)] = 1
        nruns += len(miss)
    return d[:nruns], starts[:nruns]


def _reserve_runs(lattice, pairs):
    """Grow the scratch of _offset_runs on `lattice` now, for windows of up
    to `pairs` walked pairs: the offsets and their runs, about one entry
    per pair each, and a coprime family's strike places, of one block of
    pairs at most.  np.empty maps these pages; a window faults in only
    those it writes."""
    for name, dtype in (("offsets", np.int32), ("new", bool),
                        ("runs", np.intp), ("distinct", np.int32)):
        _scratch(lattice, name, pairs, dtype)
    if lattice["traits"].coprime:
        for name, dtype in (("strike32", np.int32), ("strike", np.intp)):
            _scratch(lattice, name, min(pairs, _BLOCK_PAIRS), dtype)


def _next_prime(n):
    """Smallest prime > n, by trial division."""
    n += 1
    while n < 2 or any(n % q == 0 for q in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _window_primes(primes, lo, hi, bound=0):
    """The walk's primes for the window: p <= max(isqrt(hi - 1), bound, 13),
    the presieved primes always included.

    `primes` holds every prime up to some limit (a prime table's primes);
    CapacityError when a prime the window needs lies beyond it.
    """
    pmax = max(math.isqrt(hi - 1), bound, _PRESIEVE[-1])
    cut = int(np.searchsorted(primes, pmax, side="right"))
    last = int(primes[-1]) if len(primes) else 1
    if cut == len(primes) and _next_prime(last) <= pmax:
        raise CapacityError(
            f"window [{lo}, {hi}) needs primes to {pmax} but the prime array "
            f"ends at {last}")
    return primes[:cut].tolist()


@dataclass(frozen=True)
class SegmentProfile:
    """Factorization statistics for n in [lo, hi), one entry per n.

    The walk takes the primes up to a bound B >= isqrt(hi - 1), so n has at
    most one prime factor above B, its leftover; lpf is P(n) wherever
    leftover is False.  A profile from _factor_walk holds None in the
    fields it was not asked for: the omega-filtered moments ask for one
    count and the smooth/squarefull sum for lpf, lpf_sq and leftover;
    segment_profile fills every field.
    """

    lo: int
    hi: int
    omega: np.ndarray       # distinct primes
    omega_star: np.ndarray  # distinct odd primes
    lpf: np.ndarray         # largest walked prime (0 if none)
    lpf_sq: np.ndarray      # P(n)^2 | n
    leftover: np.ndarray    # n has a prime factor above the walk bound


# SegmentProfile's statistics, in field order, with their dtypes
_FIELD_DTYPES = {"omega": np.uint8, "omega_star": np.uint8,
                 "lpf": np.uint16, "lpf_sq": bool, "leftover": bool}
_UINT32_MAX = 2**32 - 1  # the walk's n is uint32
_WALK_MAX = 2**16 - 1    # walked primes: lg(p) is exact and lpf is uint16
_CHUNK = 1 << 15  # entries per step of a chunked pass; bounds its temporaries
_ZERO_CHUNK = 1 << 18  # n per step of the zero column's per-row counts
_PRESIEVE = (2, 3, 5, 7, 11, 13)
_TILE = 4 * 3 * 5 * 7 * 11 * 13  # 60060: n mod 4 and a first power of each
_ODD_TILE = 3 * 5 * 7 * 11 * 13  # 15015: the odd walk's period, in entries
_STRIDED_HITS = 64  # a power with this many multiples in the window or more
                    # is a strided add; the rest go in one np.add.at
_LG_SCALE = 128  # lg(p) = floor(128 log2 p), so lg(2) = 128
_COUNT_BITS = 4  # the walk's word is (W << 4) | count, count <= 9 < 16
_LEFT_GAP = 47   # n in [2^j, 2^(j+1)) has a leftover prime iff W < 128 j - 47
_WORD_COUNTS = ("omega_star", "omega")  # the counts read off the walk's word
_WORD_FIELDS = _WORD_COUNTS + ("leftover",)  # every field read off it


def _lg(p):
    """floor(128 * log2(p)) of each prime p < 2^16, as int64.

    Exact: tests check 2^lg(p) <= p^128 < 2^(lg(p) + 1) in integers for
    every prime below 2^16, so no 128 log2 p lies within float64 rounding
    of an integer.
    """
    logs = _LG_SCALE * np.log2(np.asarray(p, dtype=np.float64))
    return np.floor(logs).astype(np.int64)


@lru_cache(maxsize=2)
def _presieve_tile(odd=False):
    """The share of the primes p <= 13 in the walk's arrays, read-only, for
    two periods of entries: n = 0, ..., 2 * _TILE - 1, or in odd mode the
    odd n = 2t + 1 for t = 0, ..., 2 * _ODD_TILE - 1.  Each entry takes
    the first power of each such p that divides its n: lpf is the largest
    of these primes (0 if none) and lpf_sq False.  "word" is _factor_walk's
    uint16 word over these first powers and 2^2: (sum of their lg(p)) << 4
    plus the count of odd ones; the walk reads omega, omega_star and
    leftover off it, so the tile holds no array of theirs.  The arrays have
    period _TILE (odd mode: _ODD_TILE, as 2 is a unit mod 15015); two
    periods hold every run of up to one period of entries.
    """
    period = _ODD_TILE if odd else _TILE
    r = np.arange(2 * period)
    if odd:
        r = 2 * r + 1
    tile = {f: np.zeros(len(r), dtype=dt) for f, dt in _FIELD_DTYPES.items()
            if f not in _WORD_FIELDS}
    tile["word"] = np.zeros(len(r), dtype=np.uint16)
    for p, lg in zip(_PRESIEVE, _lg(_PRESIEVE).tolist()):
        hit = r % p == 0
        tile["word"][hit] += (lg << _COUNT_BITS) | (p != 2)
        tile["lpf"][hit] = p
    tile["word"][r % 4 == 0] += _LG_SCALE << _COUNT_BITS  # W's 2^2
    for a in tile.values():
        a.setflags(write=False)
    return tile


def _first_hits(first, q, odd):
    """The first entry of the walk at a multiple of each q, entry i standing
    for n = first + i, or n = first + 2i for odd q in odd mode, where
    i = (-first) (q + 1) / 2 mod q, (q + 1) / 2 being the inverse of 2."""
    at = -first % q
    return at * ((q + 1) // 2) % q if odd else at


def _add_powers(word, first, hi, ps, lgs, odd):
    """Add lg(p) << 4 to word at the multiples of every power p^k <= hi - 1,
    k >= 2, of the primes ps (lgs their lg), 2^2 left to the tile; word[i]
    stands for n = first + i, or first + 2i in odd mode (ps then odd).

    Every power is listed at once: the largest k of each p comes from a
    float log and one integer fix-up each way.  A power with at least
    _STRIDED_HITS multiples in the window is a strided add; all the others
    go in one np.add.at.
    """
    size, top = len(word), hi - 1
    has_square = ps * ps <= top
    ps, lgs = ps[has_square], lgs[has_square]
    k = (np.log(top) / np.log(ps)).astype(np.int64)  # floor, as logs > 0
    k -= ps**k > top  # < 2^48: p < 2^16 and p^(k - 1) <= top < 2^32
    k += ps ** (k + 1) <= top
    lowest = 2 + (ps == 2)
    reps = k + 1 - lowest  # >= 0, as p^2 <= top
    ends = np.cumsum(reps)
    exps = np.repeat(lowest - ends + reps, reps) + np.arange(reps.sum())
    q = np.repeat(ps, reps) ** exps
    at = _first_hits(first, q, odd)
    inc = (np.repeat(lgs, reps) << _COUNT_BITS).astype(np.uint16)
    many = q * _STRIDED_HITS <= size
    for s, qk, v in zip(at[many].tolist(), q[many].tolist(), inc[many]):
        view = word[s::qk]
        np.add(view, v, out=view)
    few = ~many
    q, at, inc = q[few], at[few], inc[few]
    hits = (size - at + q - 1) // q  # >= 0, as at < q
    total = int(hits.sum())
    place = (np.repeat(at - q * (np.cumsum(hits) - hits), hits)
             + np.repeat(q, hits) * np.arange(total))
    np.add.at(word, place, np.repeat(inc, hits))


def _leftover_flag(word, a, step):
    """The entries whose n has a prime factor the walk did not take, from
    the walk's words of n = a, a + step, ...: one compare per dyadic piece
    [2^j, 2^(j+1))."""
    left = np.zeros(len(word), dtype=bool)
    last = a + step * (len(word) - 1)
    for j in range(max(a.bit_length() - 1, 1), last.bit_length()):
        s = slice(max(-((a - (1 << j)) // step), 0), -((a - (2 << j)) // step))
        np.less(word[s], (_LG_SCALE * j - _LEFT_GAP) << _COUNT_BITS,
                out=left[s])
    return left


def _repeat_into(out, part):
    """Fill out with part repeated, as np.resize(part, len(out)) would, by
    doubling copies within out."""
    n = min(len(part), len(out))
    out[:n] = part[:n]
    while n < len(out):  # n is a multiple of len(part)
        k = min(n, len(out) - n)
        out[n:n + k] = out[:k]
        n += k


def _factor_walk(lo, hi, primes, fields, bound=0, odd=False, word=None):
    """SegmentProfile of [lo, hi) with only `fields` computed, the rest None.

    In odd mode entry i stands for n = first + 2i, first = lo | 1: the walk
    visits only the odd n of [lo, hi), and the profile's lo and hi are
    still the window's.  The full mode visits every n.  word: a uint16
    buffer of at least the walk's entries to build the words in (a sweep's
    scratch, which the omega or omega_star field then overlays), or None
    for a new one.

    The walk bound is B = max(isqrt(hi - 1), bound, 13).  The primes
    p <= 13 come from the _presieve_tile of the mode (period 15015 in odd
    mode), read from the first entry's place on and repeated over the
    window: the word and each asked lpf or lpf_sq start as the tile's.  One
    walk over the sieving primes 13 < p <= B marks the multiples of each p
    in those fields, from their first entry on (_first_hits; an odd p hits
    every p-th entry in both modes); lpf takes p, so it ends as the largest
    walked prime, and lpf_sq is set at the multiples of p^2, all in prime
    order.  The odd mode walks no 2 and no power of 2.

    What the walk did not take is the leftover prime L of n: the single
    prime > B dividing n, or none, as B >= isqrt(hi - 1).  It is found
    without dividing.  Each n has a uint16 word (W << 4) | c, where c
    counts the walked odd primes of n (<= 9 for n < 2^32) and W is the sum
    of lg(p) = floor(128 log2 p) over the walked prime powers p^k || n.  The
    tile starts the word; each sieving prime adds (lg(p) << 4) | 1 at its
    multiples, as one uint16 add into a strided view, and each power p^k,
    k >= 2, adds lg(p) << 4 at its own (_add_powers).  For n in
    [2^j, 2^(j+1)), n has a leftover prime iff W < 128 j - 47.  Proof:
    lg(2) = 128 exactly, and each odd prime factor of n, counted with
    multiplicity, falls short of its share 128 log2 p by less than 1; there
    are Omega_odd(n) <= 20 of them (3^21 > 2^32).  With no leftover,
    W > 128 log2 n - 20 >= 128 j - 20.  With a leftover L >= 3,
    W <= 128 (log2 n - log2 3) < 128 (j + 1) - 202 = 128 j - 74.
    W <= 128 log2 n < 4096 fits in 12 bits.  The proof is per n, so it
    holds on the odd n alone.

    The flag is the leftover field.  c plus the flag is omega_star, written
    over the front half of the words' buffer, and omega is omega_star plus
    1 at even n (so omega = omega_star in odd mode).  lpf_sq reads only the
    flag, and lpf is P(n) where it is off.  The leftover pass steps through
    the window _CHUNK entries at a time, so no window-sized temporary
    exists.
    """
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi - 1 > _UINT32_MAX:
        raise CapacityError(
            f"range up to {hi - 1} exceeds the factorization walk's uint32 "
            f"cap {_UINT32_MAX}")
    if bound > _WALK_MAX:
        raise CapacityError(
            f"walk bound {bound} exceeds the factorization walk's cap "
            f"{_WALK_MAX}")
    first, step = (lo | 1, 2) if odd else (lo, 1)
    size = (hi - first + step - 1) // step
    walk_primes = _window_primes(primes, lo, hi, bound)
    if odd:
        walk_primes = walk_primes[1:]  # 2 divides no odd n
    tile = _presieve_tile(odd)
    at = first // 2 % _ODD_TILE if odd else lo % _TILE
    head = slice(at, at + min(size, _ODD_TILE if odd else _TILE))

    def start(name, out=None):
        if out is None:
            out = np.empty(size, dtype=tile[name].dtype)
        _repeat_into(out, tile[name][head])
        return out

    counts = [f for f in _WORD_COUNTS if f in fields]
    word = start("word", None if word is None else word[:size])
    out = {f: start(f) for f in fields if f not in _WORD_FIELDS}
    if counts:  # the first count overwrites the words' front half
        out[counts[0]] = word.view(np.uint8)[:size]
    if len(counts) == 2:
        out["omega"] = np.empty(size, dtype=np.uint8)
    if "leftover" in fields:
        out["leftover"] = np.empty(size, dtype=bool)
    omega, omega_star, lpf, lpf_sq, leftover = (
        out.get(f) for f in _FIELD_DTYPES)
    small_lpf = None  # read at p <= 13, before the walk writes to lpf
    if lpf_sq is not None:
        small_lpf = lpf if lpf is not None else start("lpf")
    ps = np.array(walk_primes, dtype=np.int64)
    lgs = _lg(ps)
    big = ps > _PRESIEVE[-1]
    incs = ((lgs[big] << _COUNT_BITS) | 1).astype(np.uint16)
    for s, p, inc in zip(_first_hits(first, ps[big], odd).tolist(),
                         ps[big].tolist(), incs):
        view = word[s::p]
        np.add(view, inc, out=view)
    _add_powers(word, first, hi, ps, lgs, odd)
    marked = lpf is not None or lpf_sq is not None
    for p in walk_primes if marked else ():  # the fields, in prime order
        small = p <= _PRESIEVE[-1]
        if not small:
            sl = slice(_first_hits(first, p, odd), None, p)
            if lpf is not None:
                lpf[sl] = p
            if lpf_sq is not None:
                lpf_sq[sl] = False
        if lpf_sq is not None and p * p <= hi - 1:
            sq = slice(_first_hits(first, p * p, odd), None, p * p)
            lpf_sq[sq] = small_lpf[sq] == p if small else True
    for i in range(0, size, _CHUNK):
        c = slice(i, i + _CHUNK)
        a = first + step * i
        left = _leftover_flag(word[c], a, step)  # L is odd: 2 is walked
        if counts:
            # the count's bytes [i, i + chunk) overlay the words
            # [i / 2, (i + chunk) / 2), all read by now
            count = out[counts[0]][c]
            count[:] = word[c] & ((1 << _COUNT_BITS) - 1)
            count += left  # omega_star
            if len(counts) == 2:
                omega[c] = count
            if omega is not None and not odd:
                omega[c][a % 2::2] += 1
        if lpf_sq is not None:
            lpf_sq[c] &= ~left
        if leftover is not None:
            leftover[c] = left
    return SegmentProfile(lo, hi, **{f: out.get(f) for f in _FIELD_DTYPES})


def _segment_omega(lo, hi, primes, kind):
    """omega(n) or omega_star(n) for n in [lo, hi), as uint8."""
    return getattr(_factor_walk(lo, hi, primes, (kind,)), kind)


def segment_profile(lo, hi, primes):
    """Every SegmentProfile field for n in [lo, hi)."""
    return _factor_walk(lo, hi, primes, tuple(_FIELD_DTYPES))


# ---------------------------------------------------------------------------
# Histogram driver (single entry point for every moment kind)
# ---------------------------------------------------------------------------

_WORKER = {}


def _init_worker(state):
    """Make `state` this process's segment state, where _scratch lives."""
    _WORKER.clear()
    _WORKER.update(state)


def _run_segment(seg):
    lo, hi = seg
    return _WORKER["segment"](lo, hi, _WORKER)


def _family_segment(lo, hi, state):
    """Count histogram of [lo, hi), by omega row when state has an omega kind.

    From the runs of equal pair offsets (_offset_runs) on a full lattice
    state: unfiltered, H[v] for v >= 1 is one bincount of the run lengths
    and H[0] the rest of the window.  With an omega kind, H[j, v] for v >= 1
    is one bincount keyed by kind(n) * width + v over the runs' n, and the
    zero column is the rest of each omega row: #{n : kind(n) = j} minus
    the row's sum, from the counts #{n : kind(n) >= j}, one count_nonzero
    per row and per _ZERO_CHUNK n (_row_counts).  H has max kind(n) + 1
    rows and max count + 1 columns.
    """
    d, runs = _offset_runs(lo, hi, state)
    if runs.max(initial=0) > _COUNTER_MAX:
        raise RuntimeError("per-n counter exceeded 32 bits")  # unreachable
    kind = state["omega_kind"]
    if kind is None:
        out = np.bincount(runs, minlength=1)
        out[0] = hi - lo - len(runs)
        return out
    om = _segment_omega(lo, hi, state["primes"], kind)
    rows = int(om.max()) + 1
    width = int(runs.max(initial=0)) + 1
    out = np.bincount(om[d].astype(np.int64) * width + runs,
                      minlength=rows * width).reshape(rows, width)
    # column 0 is 0 here, as every run counts >= 1
    out[:, 0] = _row_counts(om, rows) - out[:, 1:].sum(axis=1)
    return out


def _row_counts(om, rows):
    """#{i : om[i] = j} for j < rows, int64, from the counts
    #{i : om[i] >= j}: one count_nonzero per row and per _ZERO_CHUNK
    entries, as a bincount would copy the uint8 values to intp."""
    at_least = np.zeros(rows + 1, dtype=np.int64)
    at_least[0] = len(om)
    for i in range(0, len(om), _ZERO_CHUNK):
        chunk = om[i:i + _ZERO_CHUNK]
        for j in range(1, rows):
            at_least[j] += np.count_nonzero(chunk >= j)
    return at_least[:-1] - at_least[1:]


def _odd_part_segment(lo, hi, state):
    """Histograms of n = 2^i m over the odd m of [lo, hi), lo odd, one per
    pass i of state["passes"] (_odd_part_state), stacked.

    out[i][j, v], v >= 1, counts the odd m with omega(m) = j and
    F(2^i m) = v, for m <= top >> i (top: the sweep's largest cutoff);
    out[0][j, 0] is the rest of row j, so out[0]'s row sums count the odd
    m by omega(m), and out[i][:, 0] is 0 for i >= 1.  One odd walk
    (_factor_walk's odd mode, where omega = omega_star) keys every pass.
    Pass i takes the runs of its state on _pass_range: the offsets m - lo
    of an odd state, or 2 (m - lo) of a both-odd one, give walk entry
    (m - lo) >> 1.  The walk's words and the passes' buffers are the
    state's scratch, sized for a full window from the first segment on,
    so the short segments that lead up to one do not grow them step by
    step.
    """
    top = state["top"]
    hi = min(hi, top + 1)
    word = _scratch(state, "word", state["entries"], np.uint16)
    _reserve_runs(state["passes"][0], state["pairs"])
    om = _factor_walk(lo, hi, state["primes"], ("omega",), odd=True,
                      word=word).omega
    rows = int(om.max()) + 1
    hists = []
    for i, lattice in enumerate(state["passes"]):
        a, b = _pass_range(i, lo, hi, top)
        if b <= a:
            break
        d, runs = _offset_runs(a, b, lattice)
        if runs.max(initial=0) > _COUNTER_MAX:
            raise RuntimeError("per-n counter exceeded 32 bits")  # unreachable
        width = int(runs.max(initial=0)) + 1
        d >>= 1 + i % 2  # the walk's entries; d and runs are scratch,
        runs *= rows     # read once, so runs take the key v rows + j
        runs += om[d]
        hists.append(np.bincount(runs, minlength=rows * width)
                     .reshape(width, rows).T)
    out = np.zeros((len(hists), rows, max(h.shape[1] for h in hists)),
                   dtype=np.int64)
    for o, h in zip(out, hists):
        o[:, :h.shape[1]] = h
    out[0, :, 0] = _row_counts(om, rows) - out[0, :, 1:].sum(axis=1)
    return out


def _pass_range(i, lo, hi, top):
    """The n that pass i walks for the odd m of [lo, hi) with m <= top >> i:
    [lo, end) at even i, and [2 lo, 2 end - 1) at odd i (n = 2m), where
    end = min(hi, (top >> i) + 1) keeps n <= top, so no pass needs primes
    or int32 offsets beyond the sweep's.  Empty where end <= lo."""
    end = min(hi, (top >> i) + 1)
    both = i % 2
    return lo << both, (end << both) - both


def _pad_add(acc, h):
    """acc + h, zero-padding both to the larger extent on each axis."""
    if acc is None:
        return h.copy()
    out = np.zeros(np.maximum(acc.shape, h.shape), dtype=np.int64)
    out[tuple(map(slice, acc.shape))] += acc
    out[tuple(map(slice, h.shape))] += h
    return out


def _cutoffs(xs):
    """The distinct cutoffs in xs, ascending, checked before any work."""
    cps = sorted(set(int(x) for x in xs))
    if not cps:
        raise ValueError("empty grid: need at least one moment cutoff")
    if cps[0] < 1:
        raise ValueError("moment cutoffs must be >= 1")
    if cps[-1] > MAX_X:
        raise CapacityError(
            f"x = {cps[-1]} exceeds engine budget MAX_X = {MAX_X}")
    return cps


def _check_schedule(segment_size, workers):
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")


def _hist_sweep(family, xs, table, segment, segment_size, workers, /,
                windows="n", **params):
    """Histograms summed to each cutoff in xs, one per segment of [1, max(xs)].

    windows "n": each segment holds segment_size n and the sweep's state
    is the family's full _lattice_state to isqrt(max(xs)), which checks
    the table.  "odd_m": each segment holds segment_size odd m, over a
    span of 2 segment_size, on the family's _odd_part_state to the largest
    cutoff.  The segments end past each cutoff, or past its odd m at
    (x + 1) | 1.  The state also holds segment, the table's primes and
    params; segment(lo, hi, state) gives a segment's histogram, or any
    int64 array that adds up over segments.
    With workers > 1 the state, segment included, is pickled to the pool.
    The cutoffs, workers and segment_size are checked before any lattice
    is built.
    """
    cps = _cutoffs(xs)
    _check_schedule(segment_size, workers)
    odd_m = windows == "odd_m"
    if odd_m:
        state = _odd_part_state(family, cps[-1], table, segment_size)
    else:
        state = _lattice_state(family.traits, math.isqrt(cps[-1]), table)
    state.update(segment=segment, primes=table.primes, **params)
    ends = {c: (c + 1) | odd_m for c in cps}
    want = set(ends.values())
    bounds = sorted(want.union(range(1, cps[-1] + 1, segment_size << odd_m)))
    segments = list(zip(bounds[:-1], bounds[1:]))
    snapshots = {}
    acc = None
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(state,)))
            results = pool.map(_run_segment, segments,
                               chunksize=max(1, len(segments) // (4 * workers)))
        else:
            _init_worker(state)
            stack.callback(_WORKER.clear)  # drops the scratch
            results = map(_run_segment, segments)
        for (lo, hi), h in zip(segments, results):
            acc = _pad_add(acc, h)
            if hi in want:
                snapshots[hi] = acc.copy()
    return [snapshots[ends[int(x)]] for x in xs]


# n = 2^k m with m odd: F(n) = F(2^i m) for the pass i listed at k, or 0
# where none is, as (the passes of k = 0, 1, ..., whether they repeat past
# the list).  Pass i walks L, the family's lattice, at i = 0, 1, and L/2
# at i = 2, 3, since F(4n) is L/2's count at n (_lattice_state's halved).
# L/2 is empty for the coprime families, r2* and r2unordered, and empties
# in one more halving for r1, r2 and rr'; rr has L/2 = L.  r0 and r0*
# also have F(2m) = F(m), so they walk pass 0 alone.
_VALUATIONS = {f: ((0, 1), False) for f in repfun.RepFamily}
_VALUATIONS.update({
    repfun.RepFamily.R0: ((0,), True),
    repfun.RepFamily.R0_STAR: ((0, 0), False),
    repfun.RepFamily.RBIG: ((0, 1), True),
    **dict.fromkeys((repfun.RepFamily.R1, repfun.RepFamily.R2,
                     repfun.RepFamily.RPRIME), ((0, 1, 2, 3), False))})


def _pass_of(family, k):
    """The pass whose counts F(2^i m) are the family's at n = 2^k m (m
    odd), or None where those are 0."""
    seq, repeat = _VALUATIONS[family]
    if k < len(seq) or repeat:
        return seq[k % len(seq)]
    return None


def _odd_part_state(family, top, table, entries):
    """The state of a sweep of the odd m <= top in windows of `entries`
    odd m (clipped at top).

    passes: the lattice state of each pass i the family walks, L's odd
    state at i = 0 and its both-odd state at i = 1, then L/2's at i = 2,
    3, each to the root of the n it walks (n <= top; n / 4 <= top >> 2 on
    L/2).  The passes share the state's scratch, as a segment runs them in
    turn.  pairs: the most pairs a pass walks on the first full window
    [1, 2 entries] (_pair_rows, before any strike), which the segments
    size the shared buffers for, as a full window's pair count changes
    little along a sweep.
    """
    entries = min(entries, (top + 1) // 2)
    scratch = {}
    passes = []
    for i in range(max(_VALUATIONS[family][0]) + 1):
        passes.append(_lattice_state(
            family.traits, math.isqrt(top >> (i & 2)), table,
            ("odd", "both_odd")[i % 2], halved=i >= 2))
        passes[-1]["scratch"] = scratch
    pairs = 0
    for i, lattice in enumerate(passes):
        a, b = _pass_range(i, 1, 2 * entries + 1, top)
        if a < b:
            pairs = max(pairs, int(_pair_rows(a, b, lattice)[3].sum()))
    return {"passes": passes, "top": top, "entries": entries,
            "pairs": pairs, "scratch": scratch}


def _fold_valuations(hists, x, family, shift):
    """H_x from the histograms A(y) of the odd m <= y, at every y = x >> k.

    n <= x is 2^k m with m odd <= x >> k.  A(y) stacks one histogram per
    pass (_odd_part_segment).  H_x[:, v] for v >= 1 sums pass
    _pass_of(family, k) of A(x >> k) over k, each k >= 1 moved `shift`
    rows down (1 for omega, as omega(2^k m) = omega(m) + 1).
    Column 0 is every n <= x in the row: the row sums of pass 0 of every
    A(x >> k), moved alike, less the row's v >= 1.  Rows and columns that
    came out zero past the last nonzero one are cut, so H_x has the shape
    of a sweep over every n.
    """
    terms = [(k, hists[x >> k]) for k in range(x.bit_length())]
    rows = max(a.shape[1] + shift * (k > 0) for k, a in terms)
    out = np.zeros((rows, max(a.shape[2] for _, a in terms)), dtype=np.int64)
    for k, a in terms:
        place = out[shift * (k > 0):][:a.shape[1]]
        place[:, 0] += a[0].sum(axis=1)
        i = _pass_of(family, k)
        if i is not None:
            place[:, 1:a.shape[2]] += a[i][:, 1:]
    out[:, 0] -= out[:, 1:].sum(axis=1)
    out = out[:np.flatnonzero(out.any(axis=1))[-1] + 1]
    return out[:, :np.flatnonzero(out.any(axis=0))[-1] + 1]


def histogram_grid(family, xs, table, omega_kind=None,
                   segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """Cumulative count-histograms at each cutoff in xs.

    Returns one array per x: H[v] = #{n <= x : family(n) = v}, or with an
    omega kind, H[j, v] = #{n <= x : kind(n) = j, family(n) = v}.  With an
    omega kind, every family sweeps windows of odd m to every x >> k
    (_odd_part_segment) and folds each H_x from the histograms of
    n = 2^k m (_fold_valuations).  Unfiltered, r0 and r0* are counted, not
    swept (_counted_histograms): segment_size and workers are checked but
    do not affect the count, and no process is started.  The other
    unfiltered families sweep every n.
    """
    if omega_kind not in (None, "omega", "omega_star"):
        raise ValueError(f"bad omega kind {omega_kind!r}")
    if omega_kind is None and family in _COUNTED:
        return _counted_histograms(_COUNTED[family], xs, table, segment_size,
                                   workers)
    if omega_kind is None:
        return _hist_sweep(family, xs, table, _family_segment, segment_size,
                           workers, omega_kind=None)
    ys = sorted({x >> k for x in _cutoffs(xs) for k in range(x.bit_length())})
    hists = dict(zip(ys, _hist_sweep(family, ys, table, _odd_part_segment,
                                     segment_size, workers, windows="odd_m")))
    return [_fold_valuations(hists, int(x), family, int(omega_kind == "omega"))
            for x in xs]


# a key of _restricted_counts: (its value at m = 1, its value at m' q^e
# from its value k at m', q a prime not dividing m')
_KEYS = {"omega": (0, lambda k, e: k + 1),
         "tau": (1, lambda k, e: k * (e + 1))}
_NODE_BLOCK = 1 << 11  # children per block of _restricted_counts


def _restricted_counts(counts, p1, roots, key):
    """[#{(u, m) : u in roots, u m <= x, key(m) = v} for v = 0 .. V], where
    x = counts.x, m runs over the odd m whose primes are all = 1 (mod 4),
    key is "omega" or "tau" (_KEYS) and V is the largest v with a nonzero
    entry.

    p1 lists the primes = 1 (mod 4) up to isqrt(x) at least, ascending.
    The pairs are counted over nodes u m', m' = p1[i_1]^e_1 ...
    p1[i_l]^e_l with i_1 < ... < i_l, each carrying d = u m', key(m') and
    j = i_l + 1 (0 for m' = 1).  Each root counts itself (m = 1).  A node
    adds pi_1(x // d) - j at key(m' q), the count of its one-prime
    extensions m' q with q > p1[j - 1], or 0 where that is negative (a
    last exponent >= 2 can leave x // d < p1[j - 1]).  Its children
    m' q^e, over q = p1[i] with i >= j and d q^2 <= x, and e >= 1 with
    d q^e <= x, are nodes in turn, and a child with e >= 2 counts itself.
    So an m whose largest prime has exponent 1 is counted by its parent,
    and any other m by itself.  The children are expanded depth first, in
    blocks of at most _NODE_BLOCK (_pair_blocks; one node's may be more),
    so the temporaries stay small.
    """
    x = counts.x
    base, step = _KEYS[key]
    out = np.zeros(base + 1, dtype=np.int64)
    out[base] = len(roots)

    def add(keys, found):
        nonlocal out
        if int(keys.max(initial=0)) >= len(out):
            out = np.concatenate(
                [out, np.zeros(int(keys.max()) + 1 - len(out), np.int64)])
        np.add.at(out, keys, found)

    squares = p1 * p1

    def expand(d, k, j):
        add(step(k, 1), np.maximum(counts.one_mod_4(d) - j, 0))
        kids = np.maximum(np.searchsorted(squares, x // d, "right") - j, 0)
        for r0, r1 in _pair_blocks(np.cumsum(kids), _NODE_BLOCK):
            n = kids[r0:r1]
            node = np.repeat(np.arange(r0, r1), n)
            if not node.size:
                continue
            i = j[node] + np.arange(node.size) - np.repeat(np.cumsum(n) - n, n)
            q, k1, j1 = p1[i], k[node], i + 1
            power = d[node] * q
            level = [(power, step(k1, 1), j1)]
            for e in itertools.count(2):
                power = power * q
                keep = power <= x
                if not keep.any():
                    break
                power, q, k1, j1 = (a[keep] for a in (power, q, k1, j1))
                level.append((power, step(k1, e), j1))
            d1, k1, j1 = (np.concatenate(a) for a in zip(*level))
            add(k1[node.size:], 1)  # the children with e >= 2
            expand(d1, k1, j1)

    expand(roots, np.full(len(roots), base), np.zeros(len(roots), np.int64))
    return np.trim_zeros(out, "b")


def _rho_counts(counts, primes):
    """[rho_k(x) for k = 0 .. K] (nn_omega_histograms), x = counts.x.

    An n free of 4 and of 3-mod-4 primes is u m with u = 1 or 2 and m odd
    with every prime = 1 (mod 4), and omega_star(n) = omega(m).
    """
    roots = np.array([1, 2][:min(counts.x, 2)], dtype=np.int64)
    return _restricted_counts(counts, primes[primes % 4 == 1], roots, "omega")


def _r0_star_counts(counts, primes):
    """H[v] = #{n <= x : r0*(n) = v}, x = counts.x: r0*(n) = 2^omega_star(n)
    on rho's set and 0 off it, so H[2^k] = rho_k(x) and H[0] is the rest."""
    rho = _rho_counts(counts, primes)
    out = np.zeros((1 << (len(rho) - 1)) + 1, dtype=np.int64)
    out[1 << np.arange(len(rho))] = rho
    out[0] = counts.x - rho.sum()
    return out


def _r0_counts(counts, primes):
    """H[v] = #{n <= x : r0(n) = v}, x = counts.x.

    r0(n) = sum_{d | n} chi_4(d) is tau(m) at n = u m, where u = 2^a s^2
    with s odd and every prime of s = 3 (mod 4) and m is odd with every
    prime = 1 (mod 4), and 0 at every other n.  So H[v], v >= 1, counts
    the pairs (u, m) with u m <= x and tau(m) = v, and H[0] is the rest.
    The s <= isqrt(x) are sieved free of 2 and of the 1-mod-4 primes.
    """
    x = counts.x
    r = math.isqrt(x)
    free = np.ones(r + 1, dtype=bool)
    for p in primes[(primes <= r) & (primes % 4 != 3)].tolist():
        free[p::p] = False
    s = np.flatnonzero(free[1:]) + 1
    sq = s * s
    reps = np.frexp(x // sq)[1]  # bit lengths: 2^a s^2 <= x for a < reps
    shift = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    out = _restricted_counts(counts, primes[primes % 4 == 1],
                             np.repeat(sq, reps) << shift, "tau")
    out[0] = x - out.sum()
    return out


_COUNTED = {repfun.RepFamily.R0: _r0_counts,
            repfun.RepFamily.R0_STAR: _r0_star_counts}


def _counted_histograms(count, xs, table, segment_size, workers):
    """count(arith.prime_counts(x, table), primes) at each cutoff x in xs,
    primes being the table's to isqrt(max(xs)), which the table must hold.

    One prime-count table per cutoff (x // (u m) is some x // d), done
    in-process, largest cutoff first, so a table too short for it fails
    before any count.  segment_size and workers are checked (each must be
    >= 1) but do not affect the count.
    """
    cps = _cutoffs(xs)
    _check_schedule(segment_size, workers)
    primes = table.primes[:int(np.searchsorted(table.primes,
                                               math.isqrt(cps[-1]), "right"))]
    hists = {x: count(arith.prime_counts(x, table), primes)
             for x in reversed(cps)}
    return [hists[int(x)] for x in xs]


def nn_omega_histograms(xs, table, segment_size=DEFAULT_SEGMENT_SIZE,
                        workers=1):
    """Per-cutoff histograms of omega_star over the 4-free, 3-mod-4-free set.

    h[k] = rho_k(x) = #{n <= x : 4 does not divide n, no prime = 3 (mod 4)
    divides n, omega_star(n) = k}, for k up to the largest with h[k] > 0.
    Counted, not swept: such an n is m or 2m with m odd and every prime of
    m = 1 (mod 4), and omega_star(n) = omega(m) (_rho_counts), from the
    prime counts mod 4 at every x // d (_counted_histograms).  The table
    must hold the primes to isqrt(max(xs)).  segment_size and workers are
    checked (each must be >= 1) but do not affect the count, and no
    process is started.
    """
    return _counted_histograms(_rho_counts, xs, table, segment_size, workers)


# ---------------------------------------------------------------------------
# Public moment operations (exact integers throughout)
# ---------------------------------------------------------------------------

def accumulate_counts(family, lo, hi, table):
    """uint32 per-n counts over [lo, hi), index n - lo: the _offset_runs
    of the bucket pass, scattered into the window."""
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi - 1 > _INT32_MAX:
        raise CapacityError(
            f"range up to {hi - 1} exceeds the bucket kernel's int32 cap "
            f"_INT32_MAX = {_INT32_MAX}")
    root = math.isqrt(hi - 1)
    if root > table.limit:
        raise CapacityError(
            f"range up to {hi - 1} needs primes to {root}, table limit "
            f"{table.limit}")
    d, runs = _offset_runs(lo, hi, _lattice_state(family.traits, root, table))
    if runs.max(initial=0) > _COUNTER_MAX:
        raise RuntimeError("per-n counter exceeded 32 bits")  # unreachable
    counts = np.zeros(hi - lo, dtype=np.uint32)
    counts[d] = runs
    return counts


def _omega_kind(omega_filter):
    """The kind of an omega filter (kind, j), or None; checks kind and j."""
    if omega_filter is None:
        return None
    kind, value = omega_filter
    if kind not in ("omega", "omega_star"):
        raise ValueError(f"bad omega kind {kind!r}")
    if value < 0:
        raise ValueError(f"omega filter value must be >= 0, got {value}")
    return kind


def _select_row(hist, omega_filter):
    if _omega_kind(omega_filter) is None:
        return hist if hist.ndim == 1 else hist.sum(axis=0)
    _, value = omega_filter
    if hist.ndim != 2:
        raise ValueError("histogram lacks the omega dimension")
    if value >= hist.shape[0]:
        return np.zeros(hist.shape[1], dtype=np.int64)
    return hist[value]


# moment mode -> (weight of a representation count v, largest index k the
# grids take; None when k is unused)
_MOMENTS = {
    "power": (lambda v, k: v**k, MAX_POWER),
    "binomial": (math.comb, MAX_BINOMIAL),
    "zeroth": (lambda v, k: v >= 1, None),
}


def _weight(mode, k=None):
    """The weight of a moment mode; checks the mode, and k when given."""
    if mode not in _MOMENTS:
        raise ValueError(f"unknown moment mode {mode!r}")
    weight, kmax = _MOMENTS[mode]
    if k is not None and kmax is not None and not 0 <= k <= kmax:
        raise ValueError(f"{mode} index k must be in 0..{kmax}")
    return weight


def moment_from_histogram(hist, mode, k, omega_filter=None):
    """Exact sum of weight(v) * H[v] over a count histogram H, in Python ints.

    weight(v) is v^k for 'power', C(v, k) for 'binomial' and [v >= 1] for
    'zeroth'; an omega filter (kind, j) reads row j of a 2-D histogram.
    """
    weight = _weight(mode)
    row = _select_row(hist, omega_filter)
    return sum(int(c) * weight(v, k) for v, c in enumerate(row) if c)


def _moment_grid(family, xs, mode, k, table, omega_filter, segment_size,
                 workers):
    _weight(mode, k)
    hists = histogram_grid(family, xs, table,
                           omega_kind=_omega_kind(omega_filter),
                           segment_size=segment_size, workers=workers)
    return [moment_from_histogram(h, mode, k, omega_filter) for h in hists]


def power_moment_grid(family, xs, k, table, omega_filter=None,
                      segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """Exact sum of family(n)^k over n <= x, for each x in xs."""
    return _moment_grid(family, xs, "power", k, table, omega_filter,
                        segment_size, workers)


def binomial_moment_grid(family, xs, ell, table, omega_filter=None,
                         segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """Exact sum of C(family(n), ell) over n <= x, for each x in xs."""
    return _moment_grid(family, xs, "binomial", ell, table, omega_filter,
                        segment_size, workers)


def zeroth_moment_grid(family, xs, table, omega_filter=None,
                       segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """#{n <= x : family(n) >= 1} for each x in xs."""
    return _moment_grid(family, xs, "zeroth", None, table, omega_filter,
                        segment_size, workers)


def power_moment(family, x, k, table, **kw):
    return power_moment_grid(family, [x], k, table, **kw)[0]


def binomial_moment(family, x, ell, table, **kw):
    return binomial_moment_grid(family, [x], ell, table, **kw)[0]


def zeroth_moment(family, x, table, **kw):
    return zeroth_moment_grid(family, [x], table, **kw)[0]


# ---------------------------------------------------------------------------
# Stirling numbers and the power <-> binomial conversion
# ---------------------------------------------------------------------------

MAX_STIRLING = 64


@lru_cache(maxsize=None)
def stirling(k, l):
    """Stirling number of the second kind, exact, 0 <= l <= k <= 64."""
    if not (0 <= l <= k <= MAX_STIRLING):
        raise ValueError(f"need 0 <= l <= k <= {MAX_STIRLING}")
    if k == 0:
        return 1
    if l == 0:
        return 0
    if l == k:
        return 1
    return l * stirling(k - 1, l) + stirling(k - 1, l - 1)


def falling_factorial(x, l):
    """x (x-1) ... (x-l+1), exact for integer x."""
    out = 1
    for i in range(l):
        out *= x - i
    return out


def moment_identity_residual(hist, k):
    """hist's k-th power moment minus its Stirling expansion; always 0."""
    if not 1 <= k <= 6:
        raise ValueError("identity checked for 1 <= k <= 6")
    expansion = sum(stirling(k, l) * math.factorial(l)
                    * moment_from_histogram(hist, "binomial", l)
                    for l in range(1, k + 1))
    return moment_from_histogram(hist, "power", k) - expansion


def rho_kN_grid(xs, table, segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """Histograms h with h[k] = #{n <= x : n in the restricted set, omega_star = k}.

    A count, not a sweep (nn_omega_histograms): segment_size and workers
    must be >= 1 but do not affect it, and no process is started.
    """
    return nn_omega_histograms(xs, table, segment_size=segment_size,
                               workers=workers)


def rho_kN(x, k, table, **kw):
    """#{n <= x : 4 does not divide n, no 3-mod-4 prime divides n, omega_star = k}."""
    if x < 1 or k < 0:
        raise ValueError("need x >= 1 and k >= 0")
    h = rho_kN_grid([x], table, **kw)[0]
    return int(h[k]) if k < len(h) else 0
