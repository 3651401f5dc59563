"""Differential tests of the segment kernels at heights up to 1e9.

The engine's per-n counts must equal the lattice-walk oracle
`rep_enumerate` on random small windows anywhere below MAX_X, for every
family, and the full-lattice bucket pass kept here as a reference on wider
windows and on the windows that hold the unmirrored pairs n = k^2 and
n = 2k^2; splitting the lattice into tiny pair blocks or the sweep into
other segment sizes must not change a single count.  The omega-filtered
segment histogram, built from the sorted pair offsets, must equal the
dense per-n histogram kept here as a reference, unfiltered and by omega
row; no histogram may alias the scratch the next segment reuses; and
rho_kN's r0* histogram must match the restricted set and omega* from
`arith.factor`.  The
coprime reference tests gcd(a, b) = 1 itself.  The factorization walk
must agree with `arith.factor` field by field, up to its uint32 cap, and
with the walk without the small-prime presieve kept here as a reference,
which divides by the smooth part: the walk's leftover flag is checked
against it where its threshold steps and at the words nearest it.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repnum import arith, asymp, moments, repfun
from repnum.errors import CapacityError
from repnum.repfun import RepFamily

TOP = 10**9
MAX_WIDTH = 8


@pytest.fixture(scope="module")
def big_table():
    return arith.prime_table(math.isqrt(TOP + 64) + 1, spf_cap=0)


@pytest.mark.parametrize("family", list(RepFamily), ids=lambda f: f.value)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(1, TOP - MAX_WIDTH), width=st.integers(1, MAX_WIDTH))
def test_counts_match_oracle_high(big_table, family, lo, width):
    hi = lo + width
    seg = moments.accumulate_counts(family, lo, hi, big_table)
    expected = [repfun.rep_enumerate(family, n, big_table)
                for n in range(lo, hi)]
    assert seg.tolist() == expected


# n with many representations, which random windows rarely hit:
# 2^2 5^2 13 17 29 37 41 (r0* = 0 since 4 | n) and 2 5^2 13 17 29 37 41
RICH = (972_245_300, 486_122_650)


@pytest.mark.parametrize("family", list(RepFamily), ids=lambda f: f.value)
def test_counts_match_oracle_at_rich_n(big_table, family):
    for n in RICH:
        lo = n - 2
        seg = moments.accumulate_counts(family, lo, lo + 4, big_table)
        expected = [repfun.rep_enumerate(family, m, big_table)
                    for m in range(lo, lo + 4)]
        assert seg.tolist() == expected, n


@pytest.mark.parametrize("lo", [10**7, TOP - (1 << 16) + 1])
def test_tiny_pair_blocks_change_nothing(big_table, monkeypatch, lo):
    hi = lo + (1 << 16)
    default = {f: moments.accumulate_counts(f, lo, hi, big_table)
               for f in RepFamily}
    monkeypatch.setattr(moments, "_BLOCK_PAIRS", 7)
    for fam in RepFamily:
        tiny = moments.accumulate_counts(fam, lo, hi, big_table)
        assert np.array_equal(tiny, default[fam]), fam


# ---------------------------------------------------------------------------
# The half-lattice bucket pass against the full-lattice reference
# ---------------------------------------------------------------------------

def _segment_counts_reference(lo, hi, lattice):
    """The bucket pass that walks every pair (a, b) of the family, both
    orders of a symmetric pair included, and adds a bincount per block."""
    traits, bvals, aprimes = (lattice["traits"], lattice["bvals"],
                              lattice["aprimes"])
    size = hi - lo
    counts = np.zeros(size, dtype=np.int64)
    nb = int(np.searchsorted(bvals, math.isqrt(hi - 1), side="right"))
    b = bvals[:nb]
    bb = b * b
    a_hi = moments._isqrt(hi - 1 - bb)
    t = lo - bb
    a_lo = np.where(t <= 0, 0, moments._isqrt(np.maximum(t - 1, 0)) + 1)
    if traits.unordered:
        a_hi = np.minimum(a_hi, b - 1)
    if traits.first_prime:
        start = np.searchsorted(aprimes, a_lo, side="left")
        stop = np.searchsorted(aprimes, a_hi, side="right")
    else:
        start, stop = a_lo, a_hi + 1
    rows = np.nonzero(stop > start)[0]
    n = (stop - start)[rows]
    start = start[rows].astype(np.int32)
    b = b[rows].astype(np.int32)
    off = (bb[rows] - lo).astype(np.int32)
    ends = np.cumsum(n)
    for r0, r1 in moments._pair_blocks(ends, moments._BLOCK_PAIRS):
        nr = n[r0:r1]
        first = ends[r0:r1] - nr - (ends[r0 - 1] if r0 else 0)
        a = np.arange(int(nr.sum()), dtype=np.int32)
        a += np.repeat(start[r0:r1] - first.astype(np.int32), nr)
        if traits.first_prime:
            a = aprimes[a]
        keep = None
        if traits.distinct:
            keep = a != np.repeat(b[r0:r1], nr)
        if traits.coprime:
            cop = np.gcd(a, np.repeat(b[r0:r1], nr)) == 1
            keep = cop if keep is None else keep & cop
        v = a * a + np.repeat(off[r0:r1], nr)
        if keep is not None:
            v = v[keep]
        np.add(counts, np.bincount(v, minlength=size), out=counts)
    return counts


INT32_TOP = moments._INT32_MAX
MAX_DIFF_WIDTH = 4096


@pytest.fixture(scope="module")
def int32_table():
    return arith.prime_table(math.isqrt(INT32_TOP) + 1, spf_cap=0)


@pytest.fixture(scope="module")
def lattices(int32_table):
    """Every family's lattice state for windows up to the int32 top."""
    return {f: moments._lattice_state(f.traits, math.isqrt(INT32_TOP),
                                      int32_table)
            for f in RepFamily}


@pytest.fixture(scope="module")
def odd_lattices(int32_table):
    """The odd-n lattice states of r0 and r0*, which the sweeps fold."""
    return {f: moments._lattice_state(f.traits, math.isqrt(INT32_TOP),
                                      int32_table, odd=True)
            for f in (RepFamily.R0, RepFamily.R0_STAR)}


def check_against_reference(lattices, odd_lattices, lo, hi):
    """The runs of sorted pair offsets, scattered over the window, and the
    unfiltered segment histogram built from them, against the reference's
    counts; an odd state's against the reference's counts at odd n."""
    for lattice in (*lattices.values(), *odd_lattices.values()):
        fam = (lattice["traits"], lattice["odd"])
        want = _segment_counts_reference(lo, hi, lattice)
        if lattice["odd"]:
            want[lo % 2::2] = 0  # the even n of the window
        d, runs = moments._offset_runs(lo, hi, lattice)
        assert len(np.unique(d)) == len(d), (fam, lo, hi)
        got = np.zeros(hi - lo, dtype=np.int64)
        got[d] = runs
        assert np.array_equal(got, want), (fam, lo, hi)
        hist = moments._family_segment(lo, hi, dict(lattice, omega_kind=None))
        want = np.bincount(want[(lo + 1) % 2::2] if lattice["odd"] else want,
                           minlength=1)
        assert hist.dtype == want.dtype, fam
        assert hist.shape == want.shape, (fam, lo, hi)
        assert np.array_equal(hist, want), (fam, lo, hi)


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(1, TOP), width=st.integers(1, MAX_DIFF_WIDTH))
def test_counts_match_reference_high(lattices, odd_lattices, lo, width):
    check_against_reference(lattices, odd_lattices, lo, lo + width)


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(TOP, INT32_TOP - MAX_DIFF_WIDTH + 1),
       width=st.integers(1, MAX_DIFF_WIDTH))
def test_counts_match_reference_to_int32_top(lattices, odd_lattices, lo,
                                             width):
    check_against_reference(lattices, odd_lattices, lo, lo + width)


@pytest.mark.parametrize("lo, hi", [(1, 4097), (10**7, 10**7 + 4096),
                                    (INT32_TOP - 4095, INT32_TOP + 1)])
def test_tiny_pair_blocks_match_reference(lattices, odd_lattices,
                                          monkeypatch, lo, hi):
    """Blocks of 7 pairs: most rows of a coprime family's strike then span
    several blocks' worth of calls, and a single row fills a block."""
    monkeypatch.setattr(moments, "_BLOCK_PAIRS", 7)
    check_against_reference(lattices, odd_lattices, lo, hi)


SCRATCH_FAMILIES = (RepFamily.R0, RepFamily.R0_STAR, RepFamily.R1)


@pytest.mark.parametrize("omega_kind", [None, "omega_star"])
def test_segment_results_do_not_alias_scratch(lattices, int32_table,
                                              omega_kind):
    """A state's scratch is reused by its next segment: a 2^20 window, a
    7-wide one and the 2^20 window again give equal histograms, and the
    first one is unchanged after the others."""
    lo = 10**8 - 2**20
    for fam in SCRATCH_FAMILIES:
        state = dict(lattices[fam], primes=int32_table.primes,
                     omega_kind=omega_kind)
        first = moments._family_segment(lo, lo + 2**20, state)
        kept = first.copy()
        small = moments._family_segment(lo + 3, lo + 10, state)
        again = moments._family_segment(lo, lo + 2**20, state)
        fresh = dict(lattices[fam], primes=int32_table.primes,
                     omega_kind=omega_kind)
        assert np.array_equal(
            small, moments._family_segment(lo + 3, lo + 10, fresh)), fam
        assert np.array_equal(first, kept), fam
        assert np.array_equal(again, kept), fam


@pytest.mark.parametrize("lo", [10**8 - 2**20, INT32_TOP - 2**20 + 1])
@pytest.mark.parametrize("family", SCRATCH_FAMILIES, ids=lambda f: f.value)
def test_segment_scratch_peak(lattices, odd_lattices, family, lo):
    """A warmed unfiltered segment of a 2^20 window allocates at most
    4 MiB of numpy memory, on the full and the odd state: the pair
    offsets, their run starts and the strike's places live in the state's
    scratch, filled in place."""
    for lattice in (lattices[family], odd_lattices.get(family)):
        if lattice is None:
            continue
        state = dict(lattice, omega_kind=None)
        moments._family_segment(lo, lo + 2**20, state)
        tracemalloc.start()
        try:
            moments._family_segment(lo, lo + 2**20, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, lattice["odd"]


def _edge_windows():
    """Windows holding the pairs with no mirror, n = k^2 (axis) and
    n = 2k^2 (diagonal, with k prime for r2), near 1e7 and 1e9: one window
    around n, one starting at n and one ending at n; plus n = 1, 2 and the
    int32 top.  The edge n are int64, since 2k^2 passes 2^31 near the top."""
    primes = arith.prime_table(math.isqrt(TOP) + 1, spf_cap=0).primes
    edges = []
    for h in (10**7, TOP):
        k = np.int64(math.isqrt(h))
        j = np.int64(math.isqrt(h // 2))
        p = primes[primes <= j].astype(np.int64)[-1]
        edges += [k * k, 2 * j * j, 2 * p * p]
    windows = [(int(n) - 3, int(n) + 4) for n in edges]
    windows += [(int(n), int(n) + 64) for n in edges]
    windows += [(int(n) - 63, int(n) + 1) for n in edges]
    windows += [(1, 2), (1, 3), (2, 3), (1, 65), (2, 66),
                (46340**2 + 10**2 - 3, 46340**2 + 10**2 + 5),
                (46340**2 - 4, 46340**2 + 4), (INT32_TOP - 7, INT32_TOP + 1),
                (TOP - (1 << 12) + 1, TOP + 1)]
    return windows


@pytest.mark.parametrize("lo, hi", _edge_windows())
def test_counts_match_reference_at_edges(lattices, odd_lattices, lo, hi):
    check_against_reference(lattices, odd_lattices, lo, hi)


@pytest.mark.parametrize("lo, hi", [w for w in _edge_windows()
                                    if w[1] - w[0] <= 64])
def test_odd_runs_match_oracle_at_edges(odd_lattices, int32_table, lo, hi):
    """An odd state's runs hold every odd n of the window with its
    rep_enumerate count, and no even n."""
    for fam, lattice in odd_lattices.items():
        d, runs = moments._offset_runs(lo, hi, lattice)
        got = dict(zip((d.astype(np.int64) + lo).tolist(), runs.tolist()))
        want = {n: repfun.rep_enumerate(fam, n, int32_table)
                for n in range(lo | 1, hi, 2)}
        assert got == {n: c for n, c in want.items() if c}, (fam, lo, hi)


@pytest.mark.parametrize("family, omega_kind", [
    pytest.param(RepFamily.R0_STAR, None, id="r0star"),
    pytest.param(RepFamily.R2_UNORDERED, None, id="r2unordered"),
    pytest.param(RepFamily.R1, "omega_star", id="r1-omega_star"),
])
def test_histogram_grid_segment_size_independent(table, family, omega_kind):
    xs = [10**6, 3 * 10**6]
    ref = moments.histogram_grid(family, xs, table, omega_kind=omega_kind,
                                 segment_size=1 << 20)
    for size in (4096, 700001):
        got = moments.histogram_grid(family, xs, table, omega_kind=omega_kind,
                                     segment_size=size)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), size


FOLD_XS = [1, 2, 3, 4, 7, 8, 9, 2**20 - 1, 2**20 + 1, 10**6, 12345677]


@pytest.mark.parametrize("omega_kind", [None, "omega", "omega_star"])
def test_folded_grid_matches_unfolded_sweep(table, omega_kind):
    """r0 and r0* histograms folded from odd-n sweeps are == (values and
    shape) the sweep over every n, with 2^20 segments on 1 worker, 1000
    on 2 workers (to 2^20 + 1) and 7 (to 9)."""
    for fam in (RepFamily.R0, RepFamily.R0_STAR):
        ref = moments._hist_sweep(fam, FOLD_XS, table, moments._family_segment,
                                  1 << 20, 1, omega_kind=omega_kind)
        for size, workers, top in ((1 << 20, 1, 12345677),
                                   (1000, 2, 2**20 + 1), (7, 1, 9)):
            xs = [x for x in FOLD_XS if x <= top]
            got = moments.histogram_grid(fam, xs, table, omega_kind=omega_kind,
                                         segment_size=size, workers=workers)
            for x, a, b in zip(xs, got, ref):
                assert a.shape == b.shape, (fam, size, x)
                assert np.array_equal(a, b), (fam, size, x)


def test_rho_kN_grid_segment_size_independent(table):
    xs = [10**6, 3 * 10**6]
    ref = moments.rho_kN_grid(xs, table, segment_size=1 << 20)
    for size in (4096, 700001):
        got = moments.rho_kN_grid(xs, table, segment_size=size)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), size


# ---------------------------------------------------------------------------
# rho_kN's segment function, the r0* runs, against arith.factor
# ---------------------------------------------------------------------------

RUNS_WIDTH = 3000


@pytest.fixture(scope="module")
def r0star_lattice(big_table):
    return dict(moments._lattice_state(RepFamily.R0_STAR.traits,
                                       math.isqrt(TOP), big_table),
                omega_kind=None)


def check_runs_segment(lattice, table, lo, hi):
    """H[v] = #{n in [lo, hi) : r0*(n) = v}, where r0*(n) is
    2^omega_star(n) on the restricted set (4 does not divide n and no
    prime = 3 (mod 4) does) and 0 off it, from arith.factor: H[0] is the
    number of n off the set."""
    stars = []
    for n in range(lo, hi):
        fact = arith.factor(n, table)
        if n % 4 and all(p % 4 != 3 for p, _ in fact.factors):
            stars.append(arith.omega_star(fact))
    got = moments._family_segment(lo, hi, lattice)
    want = np.bincount(np.left_shift(1, np.array(stars, dtype=np.int64)),
                       minlength=1)
    assert got[0] == hi - lo - len(stars), (lo, hi)
    assert np.array_equal(got[1:], want[1:]), (lo, hi)
    return stars


def test_runs_segment_matches_factor_at_rich_n(r0star_lattice, big_table):
    for n in RICH:
        check_runs_segment(r0star_lattice, big_table, n - 2, n + 2)


def test_runs_segment_matches_factor_low_and_top(r0star_lattice, big_table):
    check_runs_segment(r0star_lattice, big_table, TOP - RUNS_WIDTH + 1,
                       TOP + 1)
    stars = check_runs_segment(r0star_lattice, big_table, 1, 400)
    (h,) = moments.rho_kN_grid([399], big_table)
    assert h.tolist() == np.bincount(stars).tolist()


@settings(max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(1, TOP - RUNS_WIDTH + 1),
       width=st.integers(1, RUNS_WIDTH))
def test_runs_segment_matches_factor_high(r0star_lattice, big_table, lo,
                                          width):
    check_runs_segment(r0star_lattice, big_table, lo, lo + width)


@pytest.mark.parametrize("x", [10**6, 3 * 10**6])
def test_smooth_squarefull_sum_schedule_independent(table, x):
    sums = {(size, workers): asymp.smooth_squarefull_rstar_sum(
                x, 1, table, segment_size=size, workers=workers)
            for size in (4096, 700001, 1 << 20) for workers in (1, 2)}
    assert len(set(sums.values())) == 1, sums


# ---------------------------------------------------------------------------
# The factorization walk against arith.factor
# ---------------------------------------------------------------------------

PROFILE_DTYPES = {"omega": np.uint8, "omega_star": np.uint8,
                  "lpf": np.uint16, "lpf_sq": np.bool_, "leftover": np.bool_}
U32_TOP = 2**32 - 1


def walk_bound(hi, bound=0):
    """The walk's bound B for a window ending at hi: max(isqrt(hi - 1),
    bound, 13)."""
    return max(math.isqrt(hi - 1), bound, 13)


def oracle_profile(n, table, big):
    """The profile fields of n for a walk bound `big`."""
    fact = arith.factor(n, table)
    primes = [p for p, _ in fact.factors]
    lpf = arith.largest_prime_factor(fact) if n > 1 else 0
    return {
        "omega": arith.omega(fact),
        "omega_star": arith.omega_star(fact),
        "lpf": max((p for p in primes if p <= big), default=0),
        "lpf_sq": n > 1 and n % (lpf * lpf) == 0,
        "leftover": lpf > big,
    }


def check_walk(lo, hi, table):
    big = walk_bound(hi)
    expected = [oracle_profile(n, table, big) for n in range(lo, hi)]
    prof = moments.segment_profile(lo, hi, table.primes)
    assert [f.name for f in dataclasses.fields(prof)][2:] == list(
        PROFILE_DTYPES)
    for name, dtype in PROFILE_DTYPES.items():
        got = getattr(prof, name)
        assert got.dtype == dtype, name
        assert got.tolist() == [e[name] for e in expected], (lo, name)
    for kind in ("omega", "omega_star"):
        got = moments._segment_omega(lo, hi, table.primes, kind)
        assert got.dtype == np.uint8
        assert got.tolist() == [e[kind] for e in expected], (lo, kind)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(1, TOP - 64), width=st.integers(1, 64))
def test_walk_matches_factor_high(big_table, lo, width):
    check_walk(lo, lo + width, big_table)


@pytest.mark.parametrize("lo, hi", [(1, 2), (1, 3), (1, 301), (2, 3),
                                    (2, 4), (2, 302)])
def test_walk_matches_factor_low(big_table, lo, hi):
    check_walk(lo, hi, big_table)


def _prime_powers_near_top(table):
    """p^2 for the three largest p <= isqrt(TOP), p^3 below TOP, and 2^29."""
    primes = [int(p) for p in table.primes]
    squares = [p * p for p in primes if p * p <= TOP][-3:]
    cubes = [p**3 for p in primes if p**3 <= TOP][-3:]
    return squares + cubes + [2**29, 3**18]


@pytest.mark.parametrize("which", range(8))
def test_walk_at_prime_powers(big_table, which):
    """Windows ending at p^k, where p^k is the last power the walk takes,
    and windows straddling it, where p^k and its neighbours are inside."""
    n = _prime_powers_near_top(big_table)[which]
    check_walk(n - 4, n + 1, big_table)
    check_walk(n - 8, n + 9, big_table)


def test_walk_uint32_cap():
    table = arith.prime_table(1 << 16, spf_cap=0)
    check_walk(U32_TOP - 15, U32_TOP + 1, table)  # 2^32 - 1 = 3 5 17 257 65537
    for call in (lambda: moments.segment_profile(U32_TOP - 3, U32_TOP + 2,
                                                 table.primes),
                 lambda: moments._segment_omega(U32_TOP, U32_TOP + 2,
                                                table.primes, "omega")):
        with pytest.raises(CapacityError):
            call()
    with pytest.raises(CapacityError, match="walk bound 65536"):
        moments._factor_walk(1, 10, table.primes, ("lpf",), bound=2**16)


def test_walk_rejects_short_prime_array(big_table):
    """The walk takes a bare prime array; it must reach the window's primes."""
    short = arith.prime_table(10).primes  # ends at 7; [100, 200) needs 11, 13
    full = arith.prime_table(14).primes   # ends at 13; the next prime, 17, > 14
    with pytest.raises(CapacityError, match="ends at 7"):
        moments.segment_profile(100, 200, short)
    for kind in ("omega", "omega_star"):
        with pytest.raises(CapacityError, match="ends at 7"):
            moments._segment_omega(100, 200, short, kind)
    expected = [oracle_profile(n, big_table, walk_bound(200))
                for n in range(100, 200)]
    prof = moments.segment_profile(100, 200, full)
    for name in PROFILE_DTYPES:
        assert getattr(prof, name).tolist() == [e[name] for e in expected]
    for kind in ("omega", "omega_star"):
        got = moments._segment_omega(100, 200, full, kind)
        assert got.tolist() == [e[kind] for e in expected]


def test_walk_rejects_bad_windows(big_table):
    for lo, hi in ((0, 10), (10, 5), (7, 7)):
        with pytest.raises(ValueError, match=r"need 1 <= lo < hi"):
            moments.segment_profile(lo, hi, big_table.primes)
        with pytest.raises(ValueError, match=r"need 1 <= lo < hi"):
            moments._segment_omega(lo, hi, big_table.primes, "omega")


# ---------------------------------------------------------------------------
# The presieved walk against the walk without a presieve
# ---------------------------------------------------------------------------

def _factor_walk_reference(lo, hi, primes, fields, bound=0):
    """The walk that marks every sieving prime p <= walk_bound(hi, bound)
    itself, 2 to 13 included, into fields that start at zero, and divides
    n // sm over the whole window."""
    size = hi - lo
    out = {f: np.zeros(size, dtype=moments._FIELD_DTYPES[f]) for f in fields}
    omega, omega_star, lpf, lpf_sq, leftover = (
        out.get(f) for f in moments._FIELD_DTYPES)
    sm = np.ones(size, dtype=np.uint32)
    for p in primes[primes <= walk_bound(hi, bound)].tolist():
        sl = slice(-lo % p, None, p)
        if omega is not None:
            omega[sl] += 1
        if p != 2 and omega_star is not None:
            omega_star[sl] += 1
        if lpf is not None:
            lpf[sl] = p
        if lpf_sq is not None:
            lpf_sq[sl] = False
            lpf_sq[-lo % (p * p)::p * p] = True
        q = p
        while q <= hi - 1:
            sm[-lo % q::q] *= p
            q *= p
    rem = np.arange(lo, hi, dtype=np.uint32) // sm
    left = rem > 1
    if omega is not None:
        omega += left
    if omega_star is not None:
        omega_star += left
    if lpf_sq is not None:
        lpf_sq &= ~left
    if leftover is not None:
        leftover |= left
    return moments.SegmentProfile(
        lo, hi, **{f: out.get(f) for f in moments._FIELD_DTYPES})


ALL_FIELDS = tuple(moments._FIELD_DTYPES)
# the field sets the engine asks the walk for
WALK_FIELDS = {
    "omega": ("omega",),
    "omega_star": ("omega_star",),
    "smooth": asymp._SMOOTH_FIELDS,
    "profile": ALL_FIELDS,
}


@pytest.fixture(scope="module")
def u32_primes():
    return arith.prime_table(1 << 16, spf_cap=0).primes


def assert_walk_equal(got, want, fields, where, skip=0):
    """got's asked fields == want's from entry `skip` on, dtypes included;
    the rest None.  want may hold more fields: the reference fills each
    field by itself."""
    for name in ALL_FIELDS:
        g = getattr(got, name)
        if name not in fields:
            assert g is None, (where, name)
            continue
        w = getattr(want, name)[skip:]
        assert g.dtype == w.dtype, (where, name)
        assert np.array_equal(g, w), (where, name)


def check_walk_against_reference(lo, hi, primes, field_sets):
    want = _factor_walk_reference(lo, hi, primes, ALL_FIELDS)
    for fields in field_sets:
        got = moments._factor_walk(lo, hi, primes, fields)
        assert_walk_equal(got, want, fields, (lo, hi, fields))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(1, U32_TOP + 1 - MAX_DIFF_WIDTH),
       width=st.integers(1, MAX_DIFF_WIDTH),
       which=st.sampled_from(sorted(WALK_FIELDS)))
def test_walk_matches_reference_high(u32_primes, lo, width, which):
    fields = WALK_FIELDS[which]
    want = _factor_walk_reference(lo, lo + width, u32_primes, fields)
    got = moments._factor_walk(lo, lo + width, u32_primes, fields)
    assert_walk_equal(got, want, fields, (lo, width))


def test_walk_matches_reference_every_low_window(u32_primes):
    """Every window [lo, lo + w) with lo, w <= 200, each with one of the
    engine's field sets in turn.  The reference values of n depend only on
    n and isqrt(hi - 1), so one reference window [1, hi) serves every lo."""
    field_sets = list(WALK_FIELDS.values())
    count = 0
    for hi in range(2, 401):
        want = _factor_walk_reference(1, hi, u32_primes, ALL_FIELDS)
        for lo in range(max(1, hi - 200), min(hi - 1, 200) + 1):
            fields = field_sets[count % len(field_sets)]
            got = moments._factor_walk(lo, hi, u32_primes, fields)
            assert_walk_equal(got, want, fields, (lo, hi, fields), lo - 1)
            count += 1
    assert count == 200 * 200


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(1, 10**6), width=st.integers(1, MAX_DIFF_WIDTH),
       bound=st.integers(0, 1000), which=st.sampled_from(sorted(WALK_FIELDS)))
def test_walk_with_bound_matches_reference(u32_primes, lo, width, bound,
                                           which):
    """A walk bound that may lie above isqrt(hi - 1), as the smooth sum's
    z does on low windows."""
    fields = WALK_FIELDS[which]
    want = _factor_walk_reference(lo, lo + width, u32_primes, fields, bound)
    got = moments._factor_walk(lo, lo + width, u32_primes, fields,
                               bound=bound)
    assert_walk_equal(got, want, fields, (lo, width, bound))


def test_walk_with_bound_matches_reference_low(u32_primes):
    """Windows [lo, hi) with hi <= 400, lo in steps of 13, under the
    bound 75, the smooth sum's z at x = 20000, above isqrt(hi - 1)."""
    for hi in range(2, 401):
        want = _factor_walk_reference(1, hi, u32_primes, ALL_FIELDS, 75)
        for lo in range(max(1, hi - 200), hi, 13):
            got = moments._factor_walk(lo, hi, u32_primes, ALL_FIELDS,
                                       bound=75)
            assert_walk_equal(got, want, ALL_FIELDS, (lo, hi), lo - 1)


@pytest.mark.parametrize("lo, hi, bound", [(1, 301, 75), (2, 4, 931),
                                           (5000, 5100, 931),
                                           (99000, 99100, 400)])
def test_walk_with_bound_matches_factor(big_table, lo, hi, bound):
    big = walk_bound(hi, bound)
    assert big > math.isqrt(hi - 1)
    expected = [oracle_profile(n, big_table, big) for n in range(lo, hi)]
    prof = moments._factor_walk(lo, hi, big_table.primes, ALL_FIELDS,
                                bound=bound)
    for name in PROFILE_DTYPES:
        assert getattr(prof, name).tolist() == [e[name] for e in expected], (
            lo, name)


def _tile_windows():
    """Windows straddling a multiple of the presieve period near 1, 1e9 and
    the uint32 top, and the windows that end at the top."""
    period = moments._TILE
    windows = []
    for m in (1, 2, 10**9 // period):
        windows += [(m * period - 3, m * period + 4),
                    (m * period - 1000, m * period + 3000)]
    top = U32_TOP // period * period
    windows += [(top - 1000, top + 3000), (U32_TOP - 4095, U32_TOP + 1),
                (U32_TOP, U32_TOP + 1), (1, 2 * period + 7)]
    return windows


@pytest.mark.parametrize("lo, hi", _tile_windows())
def test_walk_matches_reference_across_tiles(u32_primes, lo, hi):
    check_walk_against_reference(lo, hi, u32_primes, WALK_FIELDS.values())


# ---------------------------------------------------------------------------
# The leftover flag read off the walk's log word
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", range(2, 32))
def test_walk_matches_reference_across_powers_of_two(u32_primes, j):
    """Windows straddling 2^j, where the flag's threshold 128 j - 47
    steps."""
    check_walk_against_reference(max(1, (1 << j) - 64), (1 << j) + 64,
                                 u32_primes, WALK_FIELDS.values())


# n whose word lies nearest the threshold, or whose powers meet
EXTREME_N = {
    "3^20": 3**20,          # Omega_odd(n) = 20, the most below 2^32
    "3^16*5^2": 3**16 * 5**2,  # W = 128 * 30 - 14: nearest the threshold
                               # of the 47-smooth n
    "3^18*5": 3**18 * 5,    # 3^19 * 5 is above 2^32
    "3^19*2": 3**19 * 2,
    "2^32-1": U32_TOP,
    "251^2*257^2": 251**2 * 257**2,
}


@pytest.mark.parametrize("n", EXTREME_N.values(), ids=EXTREME_N.keys())
def test_walk_matches_reference_at_extreme_words(u32_primes, n):
    check_walk_against_reference(n - 100, min(n + 101, U32_TOP + 1),
                                 u32_primes, WALK_FIELDS.values())


def test_walk_two_single_hit_squares_on_one_n(u32_primes):
    """251^2 and 257^2 each hit a window of 201 n at most once; both land
    on n = 251^2 257^2, whose word takes both."""
    n = 251**2 * 257**2
    prof = moments._factor_walk(n - 100, n + 101, u32_primes, ALL_FIELDS)
    assert 201 < 251**2
    assert (prof.omega[100], prof.lpf[100], prof.leftover[100]) == (2, 257,
                                                                    False)
    assert prof.lpf_sq[100]


def test_lg_is_exact(u32_primes):
    """2^lg(p) <= p^128 < 2^(lg(p) + 1) in integers, for every prime
    below 2^16, and lg(2) = 128."""
    lgs = moments._lg(u32_primes).tolist()
    assert lgs[0] == 128
    for p, lg in zip(u32_primes.tolist(), lgs):
        assert 1 << lg <= p**128 < 1 << (lg + 1), p


def test_omega_walk_scratch_peak(u32_primes):
    """The omega_star walk of a 2^20 window below 1e8 peaks at no more
    than 4 MiB of numpy memory (its word takes 2 MiB), once a first call
    has built the presieve tile."""
    lo, hi = 10**8 - 2**20, 10**8
    moments._segment_omega(lo, hi, u32_primes, "omega_star")
    tracemalloc.start()
    try:
        moments._segment_omega(lo, hi, u32_primes, "omega_star")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# ---------------------------------------------------------------------------
# The sparse omega-filtered histogram against the dense reference
# ---------------------------------------------------------------------------

def _family_segment_reference(lo, hi, state):
    """H[j, v] = #{n : kind(n) = j, count(n) = v} from one bincount of
    kind(n) * width + count(n) over every n of [lo, hi), or over its odd
    n for an odd state; the rows reach the largest kind(n) of the window."""
    counts = _segment_counts_reference(lo, hi, state)
    om = moments._segment_omega(lo, hi, state["primes"], state["omega_kind"])
    rows = int(om.max()) + 1
    if state["odd"]:
        counts, om = counts[(lo + 1) % 2::2], om[(lo + 1) % 2::2]
    width = int(counts.max(initial=0)) + 1
    flat = np.bincount(om.astype(np.int64) * width + counts,
                       minlength=rows * width)
    return flat.reshape(rows, width)


def check_filtered_histograms(lattices, odd_lattices, primes, lo, hi):
    """Every family, full and odd states, and both kinds.  The walk is
    checked against its own reference above; here each kind's omega
    values are walked once per window and handed to all 13 states."""
    for kind in ("omega", "omega_star"):
        om = moments._segment_omega(lo, hi, primes, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "_segment_omega",
                       lambda *args: om.copy())
            for lattice in (*lattices.values(), *odd_lattices.values()):
                fam = (lattice["traits"], lattice["odd"])
                state = dict(lattice, primes=primes, omega_kind=kind)
                got = moments._family_segment(lo, hi, state)
                want = _family_segment_reference(lo, hi, state)
                assert got.dtype == want.dtype, (fam, kind)
                assert got.shape == want.shape, (fam, kind, lo, hi)
                assert np.array_equal(got, want), (fam, kind, lo, hi)


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(1, TOP), width=st.integers(1, MAX_DIFF_WIDTH))
def test_filtered_histogram_matches_dense_high(lattices, odd_lattices,
                                               int32_table, lo, width):
    check_filtered_histograms(lattices, odd_lattices, int32_table.primes, lo,
                              lo + width)


@pytest.mark.parametrize("lo, hi", _edge_windows() + [
    (1, 1 << 12), (10**8, 10**8 + (1 << 16)),
    (TOP - (1 << 16) + 1, TOP + 1)])
def test_filtered_histogram_matches_dense_at_edges(lattices, odd_lattices,
                                                   int32_table, lo, hi):
    check_filtered_histograms(lattices, odd_lattices, int32_table.primes, lo,
                              hi)
