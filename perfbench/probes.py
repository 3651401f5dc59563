"""Fixed-input layer probes for the traced run.

Each probe times calls into public repnum functions on inputs that do not
depend on the seed, so every traced run reports the same quantities:

- arith: the prime table a moment query at x = 1e9 builds;
- repfun: the four base sets at the same height;
- moments: the bucket kernel (`accumulate_counts`) and the profile pass
  (`segment_profile`) on one 2^20 window at each height; the omega pass;
  a full sweep up to 1e7 on 1 and 2 workers; the reducer and the CLI layer,
  read from the spans of a traced `repnum moments` call;
- moments counts: segments, pairs and histogram width of that sweep.

The omega pass has no public per-window entry point, and timing it as the
filtered minus the unfiltered `histogram_grid` needs a sweep from 1, which
takes minutes at 1e9.  It is the one private function timed here.
"""

import math
import statistics
import time

from repnum import arith, moments, repfun
from repnum.repfun import RepFamily

import workloads
from tracing import duration

WINDOW = 1 << 20
HEIGHTS = {"1e7": 10**7, "1e8": 10**8, "1e9": 10**9}
BUCKET_FAMILIES = ("r0", "r0star", "r1")
SWEEP_X = 10**7
SWEEP_FAMILY = RepFamily.R0_STAR
KERNEL_REPS = 5  # one window is 10-350 ms; the host's speed drifts
SWEEP_REPS = 3


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def median_seconds(fn, reps=KERNEL_REPS):
    times, outs = zip(*(timed(fn) for _ in range(reps)))
    return statistics.median(times), outs[-1]


def first_moment(hist):
    return sum(v * int(c) for v, c in enumerate(hist))


def run(tracer):
    """All probe metrics, name -> value; the calls are traced under `tracer`."""
    m = {}
    limit = math.isqrt(10**9 + WINDOW) + 1
    m["arith.prime_table_s"], table = median_seconds(
        lambda: arith.prime_table(limit), reps=5)
    m["arith.primes"] = len(table.primes)

    root = math.isqrt(10**9 + WINDOW)
    total_s, total_n = 0.0, 0
    for base in ("any", "prime", "R", "Rprime"):
        secs, vals = median_seconds(
            lambda: repfun.base_values(base, root, table))
        total_s += secs
        total_n += len(vals)
    m["repfun.base_values_s"] = total_s
    m["repfun.base_values"] = total_n

    for label, lo in HEIGHTS.items():
        hi = lo + WINDOW
        for name in BUCKET_FAMILIES:
            fam = RepFamily.from_name(name)
            secs, _ = median_seconds(
                lambda: moments.accumulate_counts(fam, lo, hi, table))
            m[f"moments.bucket_ms_per_seg.{name}.{label}"] = 1e3 * secs
        if label == "1e8":
            continue
        secs, _ = median_seconds(
            lambda: moments.segment_profile(lo, hi, table.primes))
        m[f"moments.profile_ms_per_seg.{label}"] = 1e3 * secs
        secs, _ = median_seconds(
            lambda: moments._segment_omega(lo, hi, table.primes, "omega_star"))
        m[f"moments.omega_ms_per_seg.{label}"] = 1e3 * secs

    m.update(sweep_probe(tracer, table))
    return m


def sweep_probe(tracer, table):
    """Sweep, pool, reducer and CLI timings, and the sweep's exact counts."""
    w1, w2, reduce_s, cli_s = [], [], [], []
    argv = ["moments", "--family", SWEEP_FAMILY.value, "--x", str(SWEEP_X),
            "--power", "2", "--workers", "1"]
    for _ in range(SWEEP_REPS):
        secs, (hist,) = timed(lambda: moments.histogram_grid(
            SWEEP_FAMILY, [SWEEP_X], table, workers=1))
        w1.append(secs)
        secs, _ = timed(lambda: moments.histogram_grid(
            SWEEP_FAMILY, [SWEEP_X], table, workers=2))
        w2.append(secs)
        with tracer.span("probe.cli", "bench") as probe:
            workloads.cli_run(argv)
        (main,) = tracer.children(probe["id"], "cli.main")
        (grid,) = tracer.children(main["id"], "moments.power_moment_grid")
        (sweep,) = tracer.children(grid["id"], "moments.histogram_grid")
        w1.append(duration(sweep))
        reduce_s.append(duration(grid) - duration(sweep))
        cli_s.append(duration(main) - duration(grid))
    candidates = moments.histogram_grid(RepFamily.R0, [SWEEP_X], table)[0]
    pairs = first_moment(hist)
    sweep_w1 = statistics.median(w1)
    sweep_w2 = statistics.median(w2)
    return {
        "moments.sweep_s.w1": sweep_w1,
        "moments.sweep_s.w2": sweep_w2,
        "moments.pool_overhead_s": sweep_w2 - sweep_w1 / 2,
        "moments.reduce_s": statistics.median(reduce_s),
        "cli.overhead_s": statistics.median(cli_s),
        "moments.segments": math.ceil(SWEEP_X / moments.DEFAULT_SEGMENT_SIZE),
        "moments.pairs": pairs,
        "moments.candidate_pairs": first_moment(candidates),
        "moments.pair_yield": pairs / first_moment(candidates),
        "moments.hist_width": len(hist),
        "moments.pairs_per_s": pairs / sweep_w1,
    }
