import math

import numpy as np
import pytest

from repnum import arith, moments, repfun
from repnum.errors import CapacityError
from repnum.repfun import RepFamily


def test_accumulate_examples(table):
    seg = moments.accumulate_counts(RepFamily.R0, 1, 11, table)
    assert seg.tolist() == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]
    assert seg.dtype == np.uint32
    seg2 = moments.accumulate_counts(RepFamily.R2, 1, 9, table)
    assert seg2.tolist() == [0, 0, 0, 0, 0, 0, 0, 1]


def test_accumulate_concat(table):
    a = moments.accumulate_counts(RepFamily.R0, 1, 6, table)
    b = moments.accumulate_counts(RepFamily.R0, 6, 11, table)
    whole = moments.accumulate_counts(RepFamily.R0, 1, 11, table)
    assert np.array_equal(np.concatenate([a, b]), whole)
    with pytest.raises(ValueError):
        moments.accumulate_counts(RepFamily.R0, 5, 5, table)


def test_accumulate_matches_enumeration(table):
    for fam in RepFamily:
        seg = moments.accumulate_counts(fam, 1, 201, table)
        expected = [repfun.rep_enumerate(fam, n, table) for n in range(1, 201)]
        assert seg.tolist() == expected, fam


def test_power_moment_examples(table):
    assert moments.power_moment(RepFamily.R0, 10, 1, table) == 9
    assert moments.power_moment(RepFamily.R0, 10, 2, table) == 13
    assert moments.power_moment(RepFamily.R1, 10, 1, table) == 5


def test_binomial_moment_examples(table):
    assert moments.binomial_moment(RepFamily.R0, 10, 2, table) == 2
    for fam in (RepFamily.R0, RepFamily.R2, RepFamily.RBIG_STAR):
        assert moments.binomial_moment(fam, 10, 0, table) == 10
    assert moments.binomial_moment(
        RepFamily.R1, 10, 1, table, omega_filter=("omega_star", 1)) == 3


def test_zeroth_moment_examples(table):
    assert moments.zeroth_moment(RepFamily.R0, 10, table) == 7
    assert moments.zeroth_moment(RepFamily.R1, 10, table) == 5
    assert moments.zeroth_moment(RepFamily.R2, 50, table) == 6


def test_coprime_gap_spot_value(table):
    # n <= 10: the pairs lost to a common factor sit at n = 4, 8, 9
    r1 = moments.power_moment(RepFamily.R1, 10, 1, table)
    r1s = moments.power_moment(RepFamily.R1_STAR, 10, 1, table)
    assert r1 - r1s == 3


def test_binomial_one_equals_power_one(table):
    for fam in RepFamily:
        assert (moments.binomial_moment(fam, 500, 1, table)
                == moments.power_moment(fam, 500, 1, table)), fam


def test_filtered_moments_against_brute_force(table):
    x = 2000
    omegas = {kind: [fn(arith.factor(n, table)) for n in range(1, x + 1)]
              for kind, fn in (("omega", arith.omega),
                               ("omega_star", arith.omega_star))}
    for fam in (RepFamily.R1, RepFamily.RBIG_STAR):
        counts = [repfun.rep_enumerate(fam, n, table) for n in range(1, x + 1)]
        for kind in ("omega", "omega_star"):
            # no n <= x has 40 prime factors: row 40 is past the histogram
            for kval in (1, 2, 40):
                sel = [c for c, om in zip(counts, omegas[kind])
                       if om == kval]
                kw = dict(omega_filter=(kind, kval))
                got = (moments.binomial_moment(fam, x, 2, table, **kw),
                       moments.power_moment(fam, x, 3, table, **kw),
                       moments.zeroth_moment(fam, x, table, **kw))
                brute = (sum(math.comb(c, 2) for c in sel),
                         sum(c**3 for c in sel),
                         sum(c >= 1 for c in sel))
                assert got == brute, (fam, kind, kval)
                assert kval != 40 or brute == (0, 0, 0)


def test_stirling(table):
    assert moments.stirling(3, 2) == 3
    assert moments.stirling(4, 2) == 7
    assert all(moments.stirling(k, 1) == 1 for k in range(1, 20))
    assert all(moments.stirling(k, k) == 1 for k in range(0, 20))
    with pytest.raises(ValueError):
        moments.stirling(2, 3)
    with pytest.raises(ValueError):
        moments.stirling(65, 1)


def test_identity_residual(table):
    for fam in (RepFamily.R0, RepFamily.R1, RepFamily.R2):
        (hist,) = moments.histogram_grid(fam, [2000], table)
        for k in range(1, 5):
            assert moments.moment_identity_residual(hist, k) == 0


def test_rho_examples(table):
    assert moments.rho_kN(10, 1, table) == 2
    assert moments.rho_kN(10, 0, table) == 2
    assert moments.rho_kN(100, 2, table) == 2
    # brute check against the definition
    for x in (50, 500):
        for k in (0, 1, 2, 3):
            brute = 0
            for n in range(1, x + 1):
                f = arith.factor(n, table)
                in_nn = n % 4 != 0 and all(p % 4 != 3 for p, _ in f.factors)
                if in_nn and arith.omega_star(f) == k:
                    brute += 1
            assert moments.rho_kN(x, k, table) == brute, (x, k)


def test_fold_rule_against_closed_forms(table):
    """For n = 2^k m <= 10^4, m odd: r0(n) = r0(m), r0*(n) = r0*(m) for
    k <= 1 and 0 beyond, omega(n) = omega(m) + [k >= 1] and omega*(n) =
    omega*(m).  The r0 and r0* histograms folded from odd n then equal,
    value and shape, those of r0_formula and r0_star over every n, at
    each x <= 300, at 2^j +- 1 and at 10^4, unfiltered and by omega row."""
    top = 10**4
    facts = [None] + [arith.factor(n, table) for n in range(1, top + 1)]
    for n in range(1, top + 1):
        k = (n & -n).bit_length() - 1
        m = facts[n >> k]
        assert repfun.r0_formula(facts[n]) == repfun.r0_formula(m)
        assert repfun.r0_star(facts[n]) == (repfun.r0_star(m) if k <= 1
                                            else 0)
        assert arith.omega(facts[n]) == arith.omega(m) + (k >= 1)
        assert arith.omega_star(facts[n]) == arith.omega_star(m)
    xs = [*range(1, 301), *(2**j + d for j in range(9, 14) for d in (-1, 1)),
          top]
    kinds = {None: None, "omega": arith.omega, "omega_star": arith.omega_star}
    for fam, value in ((RepFamily.R0, repfun.r0_formula),
                       (RepFamily.R0_STAR, repfun.r0_star)):
        vals = np.array([value(f) for f in facts[1:]])
        for kind, fn in kinds.items():
            rows = np.array([fn(f) if fn else 0 for f in facts[1:]])
            got = moments.histogram_grid(fam, xs, table, omega_kind=kind)
            for x, h in zip(xs, got):
                width = int(vals[:x].max()) + 1
                size = (int(rows[:x].max()) + 1) * width
                want = np.bincount(rows[:x] * width + vals[:x],
                                   minlength=size).reshape(-1, width)
                if kind is None:
                    want = want[0]
                assert h.shape == want.shape, (fam, kind, x)
                assert np.array_equal(h, want), (fam, kind, x)


def test_segment_size_and_worker_independence(table):
    x = 3 * 10**4
    baseline = moments.power_moment(RepFamily.R1, x, 2, table)
    for seg in (1000, 4096, 1 << 20):
        assert moments.power_moment(RepFamily.R1, x, 2, table,
                                    segment_size=seg) == baseline
    assert moments.power_moment(RepFamily.R1, x, 2, table,
                                segment_size=4096, workers=2) == baseline
    hist_grid = moments.histogram_grid(RepFamily.R0, [10, 100, 1000], table,
                                       segment_size=64)
    assert [int(h.sum()) for h in hist_grid] == [10, 100, 1000]


def test_grid_matches_single_runs(table):
    xs = [10, 100, 1000, 30000]
    grid = moments.power_moment_grid(RepFamily.RBIG, xs, 1, table)
    singles = [moments.power_moment(RepFamily.RBIG, x, 1, table) for x in xs]
    assert grid == singles


def test_evaluate_dispatch(table):
    assert moments.power_moment(RepFamily.R0, 10, 2, table) == 13
    assert moments.binomial_moment(RepFamily.R0, 10, 2, table) == 2
    assert moments.zeroth_moment(RepFamily.R0, 10, table) == 7
    hist = moments.histogram_grid(RepFamily.R0, [10], table)[0]
    with pytest.raises(ValueError, match="unknown moment mode 'median'"):
        moments.moment_from_histogram(hist, "median", 2)


def test_validation(table):
    with pytest.raises(ValueError):
        moments.power_moment(RepFamily.R0, 100, 9, table)
    with pytest.raises(ValueError):
        moments.binomial_moment(RepFamily.R0, 100, -1, table)
    with pytest.raises(ValueError):
        moments.power_moment(RepFamily.R0, 100, 1, table,
                             omega_filter=("bigomega", 1))
    with pytest.raises(CapacityError):
        moments.power_moment(RepFamily.R0, moments.MAX_X * 10, 1, table)
    small = arith.prime_table(10)
    with pytest.raises(CapacityError):
        moments.power_moment(RepFamily.R0, 10**6, 1, small)
    with pytest.raises(ValueError):
        moments.moment_identity_residual(np.ones(5, dtype=np.int64), 7)
    for size in (0, -5):
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            moments.histogram_grid(RepFamily.R0, [100], table,
                                   segment_size=size)


def test_cutoffs_checked_before_any_work(table, monkeypatch):
    """An empty grid or a cutoff below 1 is a ValueError before any isqrt
    or lattice build, on every sweep entry point."""
    def no_lattice(*args, **kw):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(moments, "_lattice_state", no_lattice)
    calls = [
        lambda xs: moments.histogram_grid(RepFamily.R0, xs, table),
        lambda xs: moments.rho_kN_grid(xs, table),
        lambda xs: moments.nn_omega_histograms(xs, table),
        lambda xs: moments._hist_sweep(RepFamily.R0, xs, table,
                                       moments._family_segment, 1 << 20, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="empty grid"):
            call([])
        for xs in ([-5], [0, 100]):
            with pytest.raises(ValueError,
                               match="moment cutoffs must be >= 1"):
                call(xs)
        with pytest.raises(CapacityError, match="MAX_X"):
            call([moments.MAX_X + 1])


def test_omega_filter_validated_before_the_sweep(table, monkeypatch):
    """A negative row must not read H[-j], and a bad filter must fail
    before any segment runs."""
    def no_sweep(*args, **kw):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(moments, "_hist_sweep", no_sweep)
    for filt in (("omega_star", -2), ("omega", -1), ("bigomega", 1)):
        with pytest.raises(ValueError):
            moments.power_moment(RepFamily.R0, 100000, 1, table,
                                 omega_filter=filt)
        with pytest.raises(ValueError):
            moments.moment_from_histogram(np.ones((5, 3), dtype=np.int64),
                                          "power", 1, filt)


def test_accumulate_counts_int32_cap():
    # the lattice arithmetic is int32: exact up to 2^31 - 1, refused beyond
    top = moments._INT32_MAX
    big = arith.prime_table(math.isqrt(top + 1) + 1, spf_cap=0)
    for lo in (46340**2 + 10**2 - 3, top - 7):  # the first holds r0 = 24
        for fam in (RepFamily.R0, RepFamily.R0_STAR, RepFamily.R2):
            seg = moments.accumulate_counts(fam, lo, lo + 8, big)
            assert seg.tolist() == [repfun.rep_enumerate(fam, n, big)
                                           for n in range(lo, lo + 8)]
    with pytest.raises(CapacityError, match="_INT32_MAX"):
        moments.accumulate_counts(RepFamily.R0, top - 7, top + 2, big)


def test_prime_columns(table):
    bvals = np.array([1, 2, 6, 9, 30, 30030, 31637], dtype=np.int64)
    rows, primes = moments._prime_columns(bvals, table.primes)
    assert rows.dtype == primes.dtype == np.int64
    # row 0 is b = 1, which has no primes
    assert rows.tolist() == [1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6]
    assert primes.tolist() == [2, 2, 3, 3, 2, 3, 5, 2, 3, 5, 7, 11, 13,
                               17, 1861]


def test_falling_factorial():
    assert moments.falling_factorial(5, 0) == 1
    assert moments.falling_factorial(5, 3) == 60
    assert moments.falling_factorial(2, 4) == 0
