"""The package's acceptance checklist.

Every advertised tolerance lives here, one pass/fail row per check, shared
by `repnum verify` and the test suite.  Checks come in named suites; each
returns CheckResult rows so callers can print or assert on them.

Four clauses checked here are known not to hold at their stated points
(the r1/r2 first-moment ratio windows, the rR window, and the monotone
clause of the r1 binomial check): the leading-term corrections decay like
1/log x with coefficients near 3.  Exact first moments put the r1 and r2
windows' closing between x = 1e12 and 1e13, beyond MAX_X, and the rR
window's between 1e8 and 1e9, inside it, though the check stays at 1e7.
They are asserted as stated anyway; the rows report the measured values.
The asymptotics checks read those values from asymp.ratio_report, so every
main term they compare with is asymp.predicted_main's, from the statistic
and x alone; the Landau checks' products stop at asymp.LANDAU_CUTOFF.
"""

import itertools
import math
import os
import random
import tempfile
from dataclasses import dataclass

import numpy as np

from . import arith, asymp, moments, repfun, selberg
from .errors import CapacityError
from .repfun import RepFamily


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _row(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# Suite: oracle  (closed forms against the lattice-enumeration oracle)
# ---------------------------------------------------------------------------

ORACLE_MAX_X = 3 * 10**5  # two lattice enumerations per n: about a minute


def check_oracle(table, x=10**5):
    if x > ORACLE_MAX_X:
        raise CapacityError(
            f"x = {x} exceeds the oracle suite's cap ORACLE_MAX_X = "
            f"{ORACLE_MAX_X}")
    bad = []
    for n in range(1, x + 1):
        f = arith.factor(n, table)
        if repfun.r0_formula(f) != repfun.rep_enumerate(RepFamily.R0, n, table):
            bad.append(("r0", n))
        if repfun.r0_star(f) != repfun.rep_enumerate(RepFamily.R0_STAR, n,
                                                     table):
            bad.append(("r0star", n))
    return [_row("oracle_r0_and_r0star_equal_enumeration", not bad,
                 f"n <= {x}, mismatches: {bad[:5]}")]


# ---------------------------------------------------------------------------
# Suite: asymptotics  (first/zeroth moments against predicted main terms)
# ---------------------------------------------------------------------------

def check_r0_first_moment(table, workers=1):
    (row,) = asymp.ratio_report("r0_first", [10**6], table, workers=workers)
    err = abs(row.residual)
    tol = 3 * math.sqrt(row.x)
    return [_row("r0_first_moment_error", err <= tol,
                 f"|{int(row.empirical)} - pi x/4| = {err:.2f}, "
                 f"tolerance {tol:.0f}")]

def check_r1_first_moment(table, workers=1):
    ratios = [r.ratio for r in asymp.ratio_report(
        "r1_first", [10**7, 10**8], table, workers=workers)]
    return [
        _row("r1_first_moment_window", 0.90 <= ratios[0] <= 1.10,
             f"ratio at 1e7 = {ratios[0]:.4f}, window [0.90, 1.10]"),
        _row("r1_first_moment_improves",
             abs(ratios[1] - 1) < abs(ratios[0] - 1),
             f"|ratio-1|: 1e7 {abs(ratios[0]-1):.4f} -> 1e8 "
             f"{abs(ratios[1]-1):.4f}"),
    ]

def check_r2_first_moment(table, workers=1):
    (row,) = asymp.ratio_report("r2_first", [10**8], table, workers=workers)
    return [_row("r2_first_moment_window", 0.80 <= row.ratio <= 1.20,
                 f"ratio at 1e8 = {row.ratio:.4f}, window [0.80, 1.20]")]

def check_landau_zeroth_moment(table, workers=1):
    rel = [abs(r.ratio - 1) for r in asymp.ratio_report(
        "M0", [10**4, 10**7], table, workers=workers)]
    return [
        _row("landau_zeroth_moment_within_10pct", rel[1] <= 0.10,
             f"relative gap at 1e7 = {rel[1]:.4f}"),
        _row("landau_zeroth_moment_improves", rel[1] < rel[0],
             f"relative gap 1e4 {rel[0]:.4f} -> 1e7 {rel[1]:.4f}"),
    ]

def check_sum_of_squares_first_moments(table, workers=1):
    rows = []
    for stat in ("rR_first", "rRprime_first", "M0star"):
        (row,) = asymp.ratio_report(stat, [10**7], table, workers=workers)
        rows.append(_row(f"{stat}_window", 0.90 <= row.ratio <= 1.10,
                         f"ratio at 1e7 = {row.ratio:.4f}, "
                         "window [0.90, 1.10]"))
    return rows

def check_r1_binomial_second_moment(table, workers=1):
    ratios = [r.ratio for r in asymp.ratio_report(
        "r1_binom2", [10**6, 10**7, 10**8], table, workers=workers)]
    dist = [abs(r - 1) for r in ratios]
    return [
        _row("r1_binom2_window", 0.5 <= ratios[2] <= 2.0,
             f"ratio at 1e8 = {ratios[2]:.4f}, window [0.5, 2.0]"),
        _row("r1_binom2_monotone_toward_1",
             dist[0] >= dist[1] >= dist[2],
             "raw ratios " + ", ".join(f"{r:.4f}" for r in ratios)),
    ]


# ---------------------------------------------------------------------------
# Suite: identities  (exact, tolerance zero)
# ---------------------------------------------------------------------------

def _r2_square_segment(lo, hi, state):
    """The number of n in [lo, hi) with r2(n)^2 != 2 r2(n) + D(n) - [n = 2p^2]
    or with r2(n) != the number of ordered prime pairs with square-sum n.

    r2(n) is the bucket pass's count (_offset_runs); D(n), the ordered
    2-tuples of distinct prime pairs with square-sum n, the diagonal p = q
    and the ordered pairs themselves come from the window's own count of
    prime pairs p <= q (repfun._pair_buckets).  The square identity alone
    holds for r2(n) = 0 and 2 alike where D(n) = 0, so it cannot see a lone
    pair lost; the pair count can.  An n in neither holds both as 0 = 0.
    """
    d, runs = moments._offset_runs(lo, hi, state)
    r2 = dict(zip((d.astype(np.int64) + lo).tolist(), runs.tolist()))
    buckets = repfun._pair_buckets(lo, hi, state["table"])
    bad = 0
    for n in r2.keys() | buckets.keys():
        v, counts = r2.get(n, 0), buckets.get(n, ())
        bad += (v != sum(counts) or v * v != 2 * v
                + repfun._pair_collisions(counts) - (1 in counts))
    return np.array([bad])


def check_identities(table, x=10**4, workers=1):
    xs = [x, 10**3, 10**4, 10**5, 10**6]  # x, then the sandwich's grid
    residuals, cs_bad = [], []
    for fam in (RepFamily.R0, RepFamily.R1, RepFamily.R2):
        hists = moments.histogram_grid(fam, xs, table, workers=workers)
        for k in range(1, 7):
            r = moments.moment_identity_residual(hists[0], k)
            if r:
                residuals.append((fam.value, k, r))
        for xx, h in zip(xs[1:], hists[1:]):
            a = moments.moment_from_histogram(h, "power", 1)
            b = moments.moment_from_histogram(h, "power", 2)
            m = moments.moment_from_histogram(h, "zeroth", None)
            if not (a * a <= m * b and m <= a):
                cs_bad.append((fam.value, xx))
    rows = [_row("stirling_moment_conversion_residuals", not residuals,
                 f"k <= 6, x = {x}, nonzero: {residuals[:3]}")]

    bad = [(xx, k) for xx in range(0, 21) for k in range(0, 11)
           if sum(moments.stirling(k, l) * moments.falling_factorial(xx, l)
                  for l in range(k + 1)) != xx**k]
    rows.append(_row("stirling_falling_factorial_identity", not bad,
                     f"x <= 20, k <= 10, failures: {bad[:3]}"))

    # the cumulative identity holds at every cutoff <= x iff it holds per n
    (bad,) = moments._hist_sweep(RepFamily.R2, [x], table, _r2_square_segment,
                                 moments.DEFAULT_SEGMENT_SIZE, workers,
                                 table=table)
    rows.append(_row("r2_square_identity_with_diagonal", bad[0] == 0,
                     f"all cutoffs <= {x}"))

    rows.append(_row("cauchy_schwarz_sandwich", not cs_bad,
                     f"families r0/r1/r2, x up to 1e6, failures: {cs_bad}"))
    return rows


# ---------------------------------------------------------------------------
# Suite: sieve  (dominance and admissibility on randomized problems)
# ---------------------------------------------------------------------------

def check_sieve_dominance(count=100, seed=20260810):
    problems = selberg.random_problems(count, seed=seed)
    viol, admiss_bad = [], []
    for i, pr in enumerate(problems):
        bound = selberg.sieve_upper_bound(pr)
        exact = selberg.sifted_count_exact(pr)
        if bound < exact:
            viol.append((i, bound, exact))
        lams = selberg.lambda_weights(pr)
        mp = selberg.mu_plus(pr, lams)
        # the subset sums in ints over the common denominator of mu_plus
        den = math.lcm(*(v.denominator for v in mp.values()))
        nums = [(d, v.numerator * (den // v.denominator))
                for d, v in mp.items()]
        primes = pr.active_primes()
        if len(primes) <= 12:
            subsets = itertools.chain.from_iterable(
                itertools.combinations(primes, r)
                for r in range(len(primes) + 1))
        else:
            rng = random.Random(i)
            subsets = [tuple(p for p in primes if rng.random() < 0.5)
                       for _ in range(256)] + [()]
        for sub in subsets:
            n = math.prod(sub) if sub else 1
            s = sum(v for d, v in nums if n % d == 0)
            if s < (den if n == 1 else 0):
                admiss_bad.append((i, n))
    return [
        _row("sieve_bound_dominates_exact_count", not viol,
             f"{count} randomized problems, violations: {viol[:3]}"),
        _row("mu_plus_admissibility_exact", not admiss_bad,
             f"checked in rationals, failures: {admiss_bad[:3]}"),
    ]


# ---------------------------------------------------------------------------
# Suite: calibrated  (replay against the constants file)
# ---------------------------------------------------------------------------

def check_calibrated(table, constants, workers=1):
    if not constants:
        raise ValueError("the calibrated suite needs a constants file; "
                         "run `repnum calibrate` first")
    rows = []
    xs = [10**4, 10**5, 10**6, 10**7]

    best = asymp.gss_shape_max(xs, table, workers=workers)
    stored = constants["gss_bound"]
    rows.append(_row("gss_shape_ratios_replay_within_1pct",
                     abs(best - stored) <= 0.01 * stored,
                     f"recomputed max {best:.6f}, stored {stored:.6f}"))

    vals = [asymp.smooth_squarefull_rstar_sum(x, 1, table, workers=workers)
            for x in xs]
    ratios = [v / x for v, x in zip(vals, xs)]
    dec = all(a > b for a, b in zip(ratios, ratios[1:]))
    rows.append(_row("smooth_squarefull_ratio_strictly_decreasing", dec,
                     "ratios " + ", ".join(f"{r:.6f}" for r in ratios)))

    g1, g2 = constants["gamma1"], constants["gamma2"]
    rho = asymp.rho_bound_ratios(xs, g2, table)
    bad = [(x, k, r) for (x, k), r in rho.items() if r > g1]
    rows.append(_row("rho_restricted_count_bound", not bad,
                     f"gamma1 {g1:.4f}, gamma2 {g2:.4f}, failures: {bad[:3]}"))

    c = constants["C"]
    xs_c = [10**3, 10**4, 10**5, 10**6, 10**7]
    gaps = asymp.coprime_gap_ratios(xs_c, table)
    bad = [(x, r) for x, r in zip(xs_c, gaps) if r > c]
    rows.append(_row("coprime_gap_bound", not bad,
                     f"C = {c:.4f}, failures: {bad}"))
    return rows


# ---------------------------------------------------------------------------
# Suite: mertens
# ---------------------------------------------------------------------------

def check_mertens():
    table = arith.prime_table(10**7)
    d = abs(arith.prime_recip_sum(10**7, 1, table)
            - arith.prime_recip_sum(10**7, 3, table))
    rows = [_row("prime_recip_class_difference", d <= 0.5,
                 f"|sum 1/p (1 mod 4) - (3 mod 4)| at 1e7 = {d:.4f}")]
    for a in (1, 3):
        m6 = asymp.mertens_ap_constant(a, 10**6, table)
        m7 = asymp.mertens_ap_constant(a, 10**7, table)
        rows.append(_row(f"mertens_constant_stability_{a}mod4",
                         abs(m7 - m6) < 0.01,
                         f"{m6:.6f} -> {m7:.6f}"))
    return rows


# ---------------------------------------------------------------------------
# Suite: determinism
# ---------------------------------------------------------------------------

def check_determinism(table):
    vals = [moments.power_moment(RepFamily.R1, 10**6, 2, table,
                                 segment_size=seg, workers=w)
            for seg in (1 << 14, 1 << 20) for w in (1, 8)]
    rows = [_row("moment_invariant_under_segmenting_and_workers",
                 len(set(vals)) == 1, f"values {sorted(set(vals))}")]

    from . import cli
    outs = []
    with tempfile.TemporaryDirectory() as td:
        for i, (seg, w) in enumerate([(1 << 14, 1), (1 << 20, 8)]):
            path = os.path.join(td, f"out{i}.csv")
            code = cli.main(["moments", "--family", "r1", "--x", "1000000",
                             "--power", "2", "--segment-size", str(seg),
                             "--workers", str(w), "--out", path])
            with open(path, "rb") as fh:
                outs.append((code, fh.read()))
    rows.append(_row("csv_byte_identical_across_schedules",
                     outs[0] == outs[1] and outs[0][0] == 0,
                     f"{len(outs[0][1])} bytes"))
    return rows


# ---------------------------------------------------------------------------
# Suite: argmax
# ---------------------------------------------------------------------------

def check_argmax():
    bad = []
    for l in (1, 2, 3):
        for i in range(0, 57):
            big_l = 2 + 0.5 * i
            k = asymp.argmax_k(big_l, l)
            if abs(k - 2 ** (l - 1) * big_l) > 1:
                bad.append((big_l, l, k))
    return [_row("argmax_tracks_2_to_ell_minus_1_L", not bad,
                 f"L in [2, 30] step 0.5, ell in 1..3, failures: {bad[:3]}")]


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

_ASYMPTOTICS = (check_r0_first_moment, check_r1_first_moment,
                check_r2_first_moment, check_landau_zeroth_moment,
                check_sum_of_squares_first_moments,
                check_r1_binomial_second_moment)

# the suites that read x, and the largest x each takes
X_CAPS = {"oracle": ORACLE_MAX_X, "identities": moments.MAX_X}

# suite name -> its rows from (table, constants, workers, x), in the order
# `repnum verify --suite all` runs them
SUITES = {
    "oracle": lambda t, c, w, x: check_oracle(t, x=x or 10**5),
    "identities": lambda t, c, w, x: check_identities(t, x=x or 10**4,
                                                      workers=w),
    "asymptotics": lambda t, c, w, x: [row for check in _ASYMPTOTICS
                                       for row in check(t, w)],
    "sieve": lambda t, c, w, x: check_sieve_dominance(),
    "calibrated": lambda t, c, w, x: check_calibrated(t, c, w),
    "mertens": lambda t, c, w, x: check_mertens(),
    "determinism": lambda t, c, w, x: check_determinism(t),
    "argmax": lambda t, c, w, x: check_argmax(),
}


def run_suite(name, table, constants=None, workers=1, x=None):
    """Run a named suite and return its CheckResult rows."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](table, constants, workers, x)
