"""Differential tests of the bucket kernel at heights up to 1e9.

The engine's per-n counts must equal the lattice-walk oracle
`rep_enumerate` on random small windows anywhere below MAX_X, for every
family; splitting the lattice into tiny pair blocks or the sweep into
other segment sizes must not change a single count.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repnum import arith, moments, repfun
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
    assert seg.counts.tolist() == expected


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
        assert seg.counts.tolist() == expected, n


@pytest.mark.parametrize("lo", [10**7, TOP - (1 << 16) + 1])
def test_tiny_pair_blocks_change_nothing(big_table, monkeypatch, lo):
    hi = lo + (1 << 16)
    default = {f: moments.accumulate_counts(f, lo, hi, big_table).counts
               for f in RepFamily}
    monkeypatch.setattr(moments, "_BLOCK_PAIRS", 7)
    for fam in RepFamily:
        tiny = moments.accumulate_counts(fam, lo, hi, big_table).counts
        assert np.array_equal(tiny, default[fam]), fam


@pytest.mark.parametrize("family", [RepFamily.R0_STAR,
                                    RepFamily.R2_UNORDERED],
                         ids=lambda f: f.value)
def test_histogram_grid_segment_size_independent(table, family):
    xs = [10**6, 3 * 10**6]
    ref = moments.histogram_grid(family, xs, table, segment_size=1 << 20)
    for size in (4096, 700001):
        got = moments.histogram_grid(family, xs, table, segment_size=size)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), size
