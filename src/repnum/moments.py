"""Segmented bulk computation of representation-count moments.

The heavy lifting happens in per-segment kernels: a bucket pass that
generates lattice pairs (a, b) with lo <= a^2 + b^2 < hi and counts them
per n from their sorted offsets, and a factorization pass that sieves
omega-style statistics over the same window.  Segments reduce to exact
integer histograms, independent of segment size and worker schedule by
construction (integer addition is associative and commutative).  r0 and
r0* ignore the power of 2 in n, so their sweeps walk only the pairs with
a + b odd (the odd n) and fold each cutoff's histogram from those of the
odd n up to x >> k (_fold_even).
"""

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import repfun
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


def _lattice_state(traits, root, table, odd=False):
    """What the bucket pass needs for base values b <= root; once per sweep.

    bvals: the base set; bprimes (coprime families only): the distinct
    primes of every b, as _prime_columns' (row, prime) arrays; aprimes: the
    int32 primes <= root that prime first coordinates walk.  odd: the pass
    walks only the pairs with a + b odd, so the n it counts are the odd n
    of each window (for families whose first coordinate is any integer);
    a is then odd wherever b is even, so bprimes drops the prime 2.
    """
    bvals = repfun.base_values(traits.base, root, table)
    cut = int(np.searchsorted(table.primes, root, side="right"))
    state = {"traits": traits, "odd": odd, "bvals": bvals, "bprimes": None,
             "aprimes": table.primes[:cut].astype(np.int32)}
    if traits.coprime:
        rows, ps = _prime_columns(bvals, table.primes)
        keep = ps != 2 if odd else slice(None)
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
    """Split rows with cumulative pair counts `ends` into blocks of whole rows.

    Each block holds at most `cap` pairs, or a single row larger than cap.
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


def _unmirrored_offsets(lo, hi, traits, aprimes, odd):
    """n - lo, int32, of the pairs with no mirror for a symmetric family:
    the diagonal (a, a) at n = 2a^2 (none for r2*) and, when a may be 0,
    the axis (0, b) at n = b^2.  A coprime family keeps only a = 1 and
    b = 1, since gcd(a, a) = a and gcd(0, b) = b.  2a^2 = b^2 has no
    solution, so the offsets are distinct.  An odd walk keeps the axis at
    odd b and no diagonal, as 2a^2 is even.
    """
    top = 1 if traits.coprime else hi
    diag = np.arange(0)
    if not (traits.distinct or odd):
        a_lo = math.isqrt((lo + 1) // 2 - 1) + 1  # least a >= 1, 2a^2 >= lo
        a_hi = min(math.isqrt((hi - 1) // 2), top)
        if traits.first_prime:
            diag = aprimes[np.searchsorted(aprimes, a_lo):
                           np.searchsorted(aprimes, a_hi, side="right")]
        else:
            diag = np.arange(a_lo, a_hi + 1)
    diag = diag.astype(np.int64)
    off = [2 * diag * diag - lo]
    if not traits.first_prime:
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
    walks in each row only the a of the other parity than b, stepping a
    by 2, so every walked n is odd.  The int32 offsets need
    hi - 1 <= _INT32_MAX.
    """
    traits, bvals, aprimes = (lattice["traits"], lattice["bvals"],
                              lattice["aprimes"])
    step = 2 if lattice["odd"] else 1
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
    if traits.first_prime:
        start = np.searchsorted(aprimes, a_lo, side="left")
        stop = np.searchsorted(aprimes, a_hi, side="right")
    else:
        start, stop = a_lo, a_hi + 1
        if step == 2:
            start = a_lo + ((a_lo + b + 1) & 1)  # a + b odd
    n = np.maximum(stop - start, 0)  # every b keeps its row, maybe empty
    if step == 2:
        n = (n + 1) // 2
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
            blk[:] = aprimes[blk]
        np.square(blk, out=blk)
        blk += np.repeat(sq[r0:r1], nr)
        if traits.coprime:
            _strike(blk, hi - lo, b0 + r0, b0 + r1, start[r0:r1], nr, first,
                    lattice)
    off.sort()
    if traits.coprime:
        off = off[:int(np.searchsorted(off, np.int32(hi - lo)))]
    return off


def _strike(blk, mark, i0, i1, start, nr, first, lattice):
    """Write `mark` over the block's offsets of the pairs with gcd(a, b) > 1.

    The block holds the rows of bvals[i0:i1].  A coprime family's first
    coordinates are consecutive integers, so row i holds a = start[i],
    start[i] + 1, ... from place first[i] of the block on, and each prime
    p of its b hits every p-th pair of the row, from (-start[i]) mod p on;
    a = 0 is hit by every prime of b, so it stays only for b = 1.  An odd
    state's row holds a = start[i] + 2j, so an odd p hits it first at
    j = -start[i] (p + 1) / 2 mod p, the inverse of 2 mod p, and p = 2
    never (the state lists no 2).  The places are built in int32 (p times
    an index may wrap; the places fit) and copied to intp scratch, so the
    scatter converts no index array.
    """
    prow, p = lattice["bprimes"]
    g0, g1 = np.searchsorted(prow, (i0, i1))
    ri, p = prow[g0:g1] - i0, p[g0:g1]
    o = -start[ri] % p
    if lattice["odd"]:
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
    u = (_unmirrored_offsets(lo, hi, traits, state["aprimes"], state["odd"])
         if _mirrored(traits) else off[:0])
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


@lru_cache(maxsize=1)
def _presieve_tile():
    """The share of the primes p <= 13 in the walk's arrays, for
    n = 0, ..., 2 * _TILE - 1, read-only, from the first power of each
    such p that divides n: lpf is the largest of these primes (0 if none)
    and lpf_sq False.  "word" is _factor_walk's uint16
    word over these first powers and 2^2: (sum of their lg(p)) << 4 plus
    the count of odd ones; the walk reads omega, omega_star and leftover
    off it, so the tile holds no array of theirs.  The arrays have period
    _TILE; two periods hold every run of up to _TILE consecutive n,
    starting at n mod _TILE.
    """
    r = np.arange(2 * _TILE)
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


def _add_powers(word, lo, hi, ps, lgs):
    """Add lg(p) << 4 to word at the multiples in [lo, hi) of every power
    p^k <= hi - 1, k >= 2, of the primes ps (lgs their lg).  A power below
    the window size is a strided add; every other power hits the window at
    most once, so all of those go in one np.add.at.
    """
    size = len(word)
    q = ps * ps  # < 2^48: p < 2^16 and every q kept is <= hi - 1 < 2^32
    q[ps == 2] = 8  # the tile holds the 2^2
    at, add = [np.arange(0)], [np.arange(0)]
    while len(q):
        keep = q <= hi - 1
        ps, lgs, q = ps[keep], lgs[keep], q[keep]
        many = q < size
        for qk, lg in zip(q[many].tolist(), lgs[many].tolist()):
            word[-lo % qk::qk] += lg << _COUNT_BITS
        off = -lo % q[~many]
        hit = off < size
        at.append(off[hit])
        add.append(lgs[~many][hit])
        q = q * ps
    np.add.at(word, np.concatenate(at),
              (np.concatenate(add) << _COUNT_BITS).astype(np.uint16))


def _leftover_flag(word, a, b):
    """n in [a, b) with a prime factor the walk did not take, from the
    walk's words of those n: one compare per dyadic piece [2^j, 2^(j+1))."""
    left = np.zeros(b - a, dtype=bool)
    for j in range(max(a.bit_length() - 1, 1), (b - 1).bit_length()):
        s = slice(max(a, 1 << j) - a, min(b, 2 << j) - a)
        np.less(word[s], (_LG_SCALE * j - _LEFT_GAP) << _COUNT_BITS,
                out=left[s])
    return left


def _factor_walk(lo, hi, primes, fields, bound=0):
    """SegmentProfile of [lo, hi) with only `fields` computed, the rest None.

    The walk bound is B = max(isqrt(hi - 1), bound, 13).  The primes
    p <= 13 come from the _presieve_tile, read from lo on and repeated
    over the window: the word and each asked lpf or lpf_sq start as the
    tile's.  One walk over the sieving primes 13 < p <= B marks the
    multiples of each p in those fields; lpf takes p, so it ends as the
    largest walked prime, and lpf_sq is set at the multiples of p^2, all
    in prime order.

    What the walk did not take is the leftover prime L of n: the single
    prime > B dividing n, or none, as B >= isqrt(hi - 1).  It is found
    without dividing.  Each n has a uint16 word (W << 4) | c, where c
    counts the walked odd primes of n (<= 9 for n < 2^32) and W is the sum
    of lg(p) = floor(128 log2 p) over the walked prime powers p^k || n.  The
    tile starts the word; each sieving prime adds (lg(p) << 4) | 1 at its
    multiples and each power p^k, k >= 2, adds lg(p) << 4 at its own
    (_add_powers).  For n in [2^j, 2^(j+1)), n has a leftover prime iff
    W < 128 j - 47.  Proof: lg(2) = 128 exactly, and each odd prime factor
    of n, counted with multiplicity, falls short of its share 128 log2 p
    by less than 1; there are Omega_odd(n) <= 20 of them (3^21 > 2^32).
    With no leftover, W > 128 log2 n - 20 >= 128 j - 20.  With a leftover
    L >= 3, W <= 128 (log2 n - log2 3) < 128 (j + 1) - 202 = 128 j - 74.
    W <= 128 log2 n < 4096 fits in 12 bits.

    The flag is the leftover field.  c plus the flag is omega_star, written
    over the front half of the words' buffer, and omega is omega_star plus
    1 at even n.  lpf_sq reads only the flag, and lpf is P(n) where it is
    off.  The leftover pass steps through the window _CHUNK n at a time,
    so no window-sized temporary exists.
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
    size = hi - lo
    walk_primes = _window_primes(primes, lo, hi, bound)
    tile = _presieve_tile()
    head = slice(lo % _TILE, lo % _TILE + min(size, _TILE))

    def start(name):
        return np.resize(tile[name][head], size)

    counts = [f for f in _WORD_COUNTS if f in fields]
    word = start("word")
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
    for p, inc in zip(ps[big].tolist(),
                      ((lgs[big] << _COUNT_BITS) | 1).tolist()):
        word[-lo % p::p] += inc
    _add_powers(word, lo, hi, ps, lgs)
    marked = lpf is not None or lpf_sq is not None
    for p in walk_primes if marked else ():  # the fields, in prime order
        small = p <= _PRESIEVE[-1]
        if not small:
            sl = slice(-lo % p, None, p)
            if lpf is not None:
                lpf[sl] = p
            if lpf_sq is not None:
                lpf_sq[sl] = False
        if lpf_sq is not None and p * p <= hi - 1:
            sq = slice(-lo % (p * p), None, p * p)
            lpf_sq[sq] = small_lpf[sq] == p if small else True
    for i in range(0, size, _CHUNK):
        c = slice(i, i + _CHUNK)
        a, b = lo + i, min(lo + i + _CHUNK, hi)
        left = _leftover_flag(word[c], a, b)  # L is odd: 2 is always walked
        if counts:
            # the count's bytes [i, i + chunk) overlay the words
            # [i / 2, (i + chunk) / 2), all read by now
            first = out[counts[0]][c]
            first[:] = word[c] & ((1 << _COUNT_BITS) - 1)
            first += left  # omega_star
            if omega is not None:
                omega[c] = first
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

    From the runs of equal pair offsets (_offset_runs): unfiltered, H[v]
    for v >= 1 is one bincount of the run lengths and H[0] the rest of
    the window.  With an omega kind, H[j, v] for v >= 1 is one bincount
    keyed by kind(n) * width + v over the runs' n, and the zero column is
    the rest of each omega row: #{n : kind(n) = j} minus the row's sum,
    from the counts #{n : kind(n) >= j}, one count_nonzero per row and per
    _ZERO_CHUNK n.  H has max kind(n) + 1 rows and max count + 1 columns.
    On an odd lattice state the histogram is that of the window's odd n:
    the runs hold only odd n, and the zero column counts the odd n alone
    (the rows still reach the largest kind(n) of the whole window).
    """
    d, runs = _offset_runs(lo, hi, state)
    if runs.max(initial=0) > _COUNTER_MAX:
        raise RuntimeError("per-n counter exceeded 32 bits")  # unreachable
    kind, odd = state["omega_kind"], state["odd"]
    if kind is None:
        out = np.bincount(runs, minlength=1)
        out[0] = (hi // 2 - lo // 2 if odd else hi - lo) - len(runs)
        return out
    om = _segment_omega(lo, hi, state["primes"], kind)
    rows = int(om.max()) + 1
    width = int(runs.max(initial=0)) + 1
    out = np.bincount(om[d].astype(np.int64) * width + runs,
                      minlength=rows * width).reshape(rows, width)
    # column 0 is 0 here, as every run counts >= 1
    part = om[(lo + 1) % 2::2] if odd else om
    at_least = np.zeros(rows + 1, dtype=np.int64)
    at_least[0] = len(part)
    for i in range(0, len(part), _ZERO_CHUNK):
        chunk = part[i:i + _ZERO_CHUNK]
        for j in range(1, rows):
            at_least[j] += np.count_nonzero(chunk >= j)
    out[:, 0] = at_least[:-1] - at_least[1:] - out[:, 1:].sum(axis=1)
    return out


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


def _hist_sweep(family, xs, table, segment, segment_size, workers, /,
                odd=False, **params):
    """Histograms summed to each cutoff in xs, one per segment of [1, max(xs)].

    The sweep's state is the family's _lattice_state to isqrt(max(xs)),
    which checks the table and holds the odd flag, plus segment, the
    table's primes and params; segment(lo, hi, state) gives a segment's
    histogram, or any int64 array that adds up over segments.  With
    workers > 1 the state, segment included, is pickled to the pool.  The
    cutoffs, workers and segment_size are checked before the lattice is
    built.
    """
    cps = _cutoffs(xs)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    state = _lattice_state(family.traits, math.isqrt(cps[-1]), table, odd)
    state.update(segment=segment, primes=table.primes, **params)
    want = {c + 1 for c in cps}  # the segments end at each cutoff
    bounds = sorted(want.union(range(1, cps[-1] + 1, segment_size)))
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
                snapshots[hi - 1] = acc.copy()
    return [snapshots[int(x)] for x in xs]


# r0(2^k m) = r0(m) and r0*(2m) = r0*(m), r0*(4m) = 0 for odd m: the fold
# depth K of each family whose even n take the counts of odd n
_EVEN_FOLD = {repfun.RepFamily.R0: math.inf, repfun.RepFamily.R0_STAR: 1}


def _fold_even(odd_hists, x, depth, shift):
    """H_x of a 2-invariant family from the histograms O(y) of its odd n <= y.

    n = 2^k m with m odd <= x >> k, so H_x[:, v] = sum over k <= depth of
    O(x >> k)[:, v] for v >= 1, each k >= 1 moved `shift` rows down (1 for
    omega, as omega(2^k m) = omega(m) + 1).  Column 0 is every n <= x in
    the row, the row sums of all the O(x >> k) moved alike, less the
    row's v >= 1.  Rows and columns that came out zero past the last
    nonzero one are cut, so H_x has the shape of a sweep over every n.
    """
    terms = [(k, np.atleast_2d(odd_hists[x >> k]))
             for k in range(x.bit_length())]
    rows = max(len(h) + shift * (k > 0) for k, h in terms)
    out = np.zeros((rows, max(h.shape[1] for _, h in terms)), dtype=np.int64)
    for k, h in terms:
        place = out[shift * (k > 0):][:len(h)]
        place[:, 0] += h.sum(axis=1)
        if k <= depth:
            place[:, 1:h.shape[1]] += h[:, 1:]
    out[:, 0] -= out[:, 1:].sum(axis=1)
    out = out[:np.flatnonzero(out.any(axis=1))[-1] + 1]
    out = out[:, :np.flatnonzero(out.any(axis=0))[-1] + 1]
    return out if odd_hists[x].ndim == 2 else out[0]


def histogram_grid(family, xs, table, omega_kind=None,
                   segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """Cumulative count-histograms at each cutoff in xs.

    Returns one array per x: H[v] = #{n <= x : family(n) = v}, or with an
    omega kind, H[j, v] = #{n <= x : kind(n) = j, family(n) = v}.  r0 and
    r0* sweep only the odd n, to every x >> k, and fold the even n in
    (_fold_even).
    """
    if omega_kind not in (None, "omega", "omega_star"):
        raise ValueError(f"bad omega kind {omega_kind!r}")
    if family not in _EVEN_FOLD:
        return _hist_sweep(family, xs, table, _family_segment, segment_size,
                           workers, omega_kind=omega_kind)
    ys = sorted({x >> k for x in _cutoffs(xs) for k in range(x.bit_length())})
    odd_hists = dict(zip(ys, _hist_sweep(
        family, ys, table, _family_segment, segment_size, workers, odd=True,
        omega_kind=omega_kind)))
    return [_fold_even(odd_hists, int(x), _EVEN_FOLD[family],
                       int(omega_kind == "omega")) for x in xs]


def nn_omega_histograms(xs, table, segment_size=DEFAULT_SEGMENT_SIZE,
                        workers=1):
    """Per-cutoff histograms of omega_star over the 4-free, 3-mod-4-free set.

    That set is where r0* is nonzero, and there r0*(n) = 2^omega_star(n),
    so h[k] = H[2^k] of the unfiltered R0_STAR histogram H; H[0] counts
    the n off the set.
    """
    out = []
    for hist in histogram_grid(repfun.RepFamily.R0_STAR, xs, table,
                               segment_size=segment_size, workers=workers):
        powers = 1 << np.arange((len(hist) - 1).bit_length())
        if hist[powers].sum() != hist[1:].sum():
            raise RuntimeError("r0* count off a power of two")  # unreachable
        out.append(hist[powers])
    return out


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
    """Histograms h with h[k] = #{n <= x : n in the restricted set, omega_star = k}."""
    return nn_omega_histograms(xs, table, segment_size=segment_size,
                               workers=workers)


def rho_kN(x, k, table, **kw):
    """#{n <= x : 4 does not divide n, no 3-mod-4 prime divides n, omega_star = k}."""
    if x < 1 or k < 0:
        raise ValueError("need x >= 1 and k >= 0")
    h = rho_kN_grid([x], table, **kw)[0]
    return int(h[k]) if k < len(h) else 0
