"""Reference constants, predicted main terms, and empirical-vs-predicted reports.

Every statistic the moment engine can measure has exactly one predicted main
term here, a function of the statistic and x alone: one _STATISTICS entry
per statistic id, and shape_main for the shape ratios, keyed by family and
(ell, k).  Infinite products over primes = 3 (mod 4) are truncated at
LANDAU_CUTOFF with an explicit tail bound (sum of p^-2 beyond the cutoff is
below 1/(cutoff-1)), and the r0 second-moment constant H is in closed
form, so no constant is ever invented.  The bounds that calibrate() takes
as maxima over deterministic grids are stored in a text constants file
that verification replays.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import moments
from .arith import prime_recip_sum, prime_table
from .errors import CapacityError
from .repfun import RepFamily

# where every product over p = 3 mod 4 stops; its tail bound is 1e-6
LANDAU_CUTOFF = 10**6

GSS_FAMILIES = (RepFamily.R1, RepFamily.RBIG_STAR, RepFamily.RPRIME_STAR)


@dataclass(frozen=True)
class RatioReport:
    statistic: str
    x: int
    empirical: float
    predicted: float
    ratio: float
    residual: float


# ---------------------------------------------------------------------------
# The Landau-Ramanujan product, derived constants, and H
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def landau_ramanujan(cutoff):
    """Partial value of (2 prod_{p=3 mod 4} (1 - p^-2))^(-1/2) and a tail bound.

    tail_bound dominates |log(true/partial)| since the missing factors
    contribute at most sum_{p > cutoff} p^-2 < 1/(cutoff - 1) to the log.
    """
    if cutoff < 3:
        raise ValueError("cutoff must be >= 3")
    primes = prime_table(cutoff).primes
    p3 = primes[primes % 4 == 3].astype(np.float64)
    log_prod = float(np.log1p(-1.0 / (p3 * p3)).sum())
    value = math.exp(-0.5 * (math.log(2.0) + log_prod))
    return value, 1.0 / (cutoff - 1)


def _landau_value():
    return landau_ramanujan(LANDAU_CUTOFF)[0]


def _three_mod4_square_product():
    """prod_{p = 3 mod 4} (1 - p^-2), via the cached Landau value."""
    k = _landau_value()
    return 1.0 / (2.0 * k * k)


def _zeta_prime_2():
    """zeta'(2) = -sum_{k >= 2} log k / k^2: the terms below n = 50, then the
    Euler-Maclaurin tail at n through g^(5), g(t) = log t / t^2."""
    n = 50
    head = sum(math.log(k) / (k * k) for k in range(2, n))
    big_l = math.log(n)
    tail = ((big_l + 1) / n + big_l / (2 * n * n)
            - (1 - 2 * big_l) / (12 * n**3)        # B2 g'(n) / 2!
            + (26 - 24 * big_l) / (720 * n**5)     # B4 g'''(n) / 4!
            - (1044 - 720 * big_l) / (30240 * n**7))  # B6 g^(5)(n) / 6!
    return -(head + tail)


ZETA_PRIME_2 = _zeta_prime_2()

# sum r0(n)^2 n^-s = zeta(s)^2 L(s, chi_4)^2 / ((1 + 2^-s) zeta(2s)) has a
# double pole at s = 1 whose residue against x^s / s is x log x / 4 + H x,
# H = (2 gamma - 1 + 2 L'/L(1, chi_4) + (log 2)/3 - 2 zeta'/zeta(2)) / 4.
# With L'/L(1, chi_4) = gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4),
# zeta(2) = pi^2 / 6 and Euler's gamma = 0.5772156649015329, that is
R0_SECOND_H = (0.5772156649015329 - 0.25 + 13 / 12 * math.log(2)
               + 1.5 * math.log(math.pi) - 2 * math.lgamma(0.25)
               - 3 * ZETA_PRIME_2 / math.pi**2)


# ---------------------------------------------------------------------------
# Predicted main terms
# ---------------------------------------------------------------------------

# statistic id -> (family, moment mode, index, least x, main term of x and
# log x); the least x is 1 for the linear main term and 2 wherever a log x
# appears
_STATISTICS = {
    "r0_first": (RepFamily.R0, "power", 1, 1,
                 lambda x, lx: math.pi / 4 * x),
    "r0_second": (RepFamily.R0, "power", 2, 2,
                  lambda x, lx: x * lx / 4 + R0_SECOND_H * x),
    "r1_first": (RepFamily.R1, "power", 1, 2,
                 lambda x, lx: math.pi / 2 * x / lx),
    "r2_first": (RepFamily.R2, "power", 1, 2,
                 lambda x, lx: math.pi * x / lx**2),
    "r1_binom2": (RepFamily.R1, "binomial", 2, 2,
                  lambda x, lx: 9.0 / 8.0 * x / lx),
    "r1_second": (RepFamily.R1, "power", 2, 2,
                  lambda x, lx: (math.pi / 2 + 9.0 / 4.0) * x / lx),
    "M0": (RepFamily.R0, "zeroth", None, 2,
           lambda x, lx: _landau_value() * x / math.sqrt(lx)),
    "M2": (RepFamily.R2, "zeroth", None, 2,
           lambda x, lx: math.pi / 2 * x / lx**2),
    # The counting function of the multiplicative set behind M0* has
    # Dirichlet-series square zeta * L * (1 - 2^-s) * prod(1 - p^-2s), so
    # the squared residue at s = 1 is (pi/4) * (1/2) * prod, and the
    # Tauberian main term is (3/4) sqrt(prod/2) x / sqrt(log x).
    "M0star": (RepFamily.R0_STAR, "zeroth", None, 2,
               lambda x, lx: 0.75 * math.sqrt(_three_mod4_square_product()
                                              / 2.0) * x / math.sqrt(lx)),
    "rR_first": (RepFamily.RBIG, "power", 1, 2,
                 lambda x, lx: math.pi / 4 * math.sqrt(2.0) * _landau_value()
                 * x / math.sqrt(lx)),
    # (pi/4) * sqrt(2) * (M0* constant): same transform as rR_first
    "rRprime_first": (RepFamily.RPRIME, "power", 1, 2,
                      lambda x, lx: 3 * math.pi / 16
                      * math.sqrt(_three_mod4_square_product())
                      * x / math.sqrt(lx)),
}


def _statistic(stat):
    """The _STATISTICS entry of a statistic id; ValueError if it has none."""
    if stat not in _STATISTICS:
        raise ValueError(f"unknown statistic {stat!r}")
    return _STATISTICS[stat]


def predicted_main(stat, x):
    """Closed-form main term for a statistic at cutoff x."""
    *_, least, main = _statistic(stat)
    if x < least:
        raise ValueError(f"statistic {stat!r} needs x >= {least}, got {x}")
    return main(x, math.log(x))


def empirical_grid(stat, xs, table, segment_size=moments.DEFAULT_SEGMENT_SIZE,
                   workers=1):
    """Exact empirical values of a statistic at each x, one engine sweep."""
    family, mode, k, _, _ = _statistic(stat)
    hists = moments.histogram_grid(family, xs, table,
                                   segment_size=segment_size, workers=workers)
    return [moments.moment_from_histogram(h, mode, k) for h in hists]


def ratio_report(stat, xs, table, segment_size=moments.DEFAULT_SEGMENT_SIZE,
                 workers=1):
    """Empirical vs predicted rows for each x (ascending)."""
    xs = sorted(int(x) for x in xs)
    values = empirical_grid(stat, xs, table, segment_size=segment_size,
                            workers=workers)
    rows = []
    for x, emp in zip(xs, values):
        pred = predicted_main(stat, x)
        ratio = emp / pred if pred != 0 else math.inf
        rows.append(RatioReport(stat, x, float(emp), pred, ratio,
                                float(emp) - pred))
    return rows


# ---------------------------------------------------------------------------
# Mertens constants, the prime-power claim sum, and the argmax rule
# ---------------------------------------------------------------------------

def mertens_ap_constant(a, x, table=None):
    """Estimate of the Mertens constant M(4, a): recip sum minus (log log x)/2."""
    if a not in (1, 3):
        raise ValueError("a must be 1 or 3")
    if x < 3:
        raise ValueError("x must be >= 3 (log log x must be defined)")
    return prime_recip_sum(x, a, table) - 0.5 * math.log(math.log(x))


def argmax_k(l_value, l=1):
    """Smallest k maximizing (2^(l-1) L)^k / k!; ties broken downward."""
    if l_value <= 0 or l < 1:
        raise ValueError("need L > 0 and l >= 1")
    b = 2 ** (l - 1) * l_value
    return max(math.ceil(b) - 1, 0)


def inductive_claim_sum(x, table):
    """Sum of x/(q log(x/q)) over prime powers q <= sqrt(x), base p = 1 mod 4."""
    if x < 16:
        raise ValueError("x must be >= 16")
    root = math.isqrt(x)
    idx = int(np.searchsorted(table.primes, root, side="right"))
    total = 0.0
    for p in table.primes[:idx]:
        p = int(p)
        if p % 4 != 1:
            continue
        q = p
        while q <= root:
            total += x / (q * math.log(x / q))
            q *= p
    return total


# ---------------------------------------------------------------------------
# Profile-driven sums (smooth/squarefull, shape ratios)
# ---------------------------------------------------------------------------

_SMOOTH_FIELDS = ("lpf", "lpf_sq", "leftover")  # P(n) <= z or P(n)^2 | n


def _smooth_squarefull_segment(lo, hi, state):
    """r0* histogram of the n in [lo, hi) with P(n) <= z or P(n)^2 | n.

    r0* is the bucket kernel's R0_STAR count.  The walk runs to
    max(isqrt(hi - 1), z), so a leftover n has P(n) > z and P(n)^2 not
    dividing it; every other n has lpf = P(n).
    """
    prof = moments._factor_walk(lo, hi, state["primes"], _SMOOTH_FIELDS,
                                bound=state["z"])
    keep = prof.lpf <= state["z"]
    keep &= ~prof.leftover
    keep |= prof.lpf_sq
    d, runs = moments._offset_runs(lo, hi, state)
    kept = keep[d]
    out = np.bincount(runs[kept], minlength=1)
    out[0] = np.count_nonzero(keep) - np.count_nonzero(kept)
    return out


def smooth_squarefull_rstar_sum(x, m, table,
                                segment_size=moments.DEFAULT_SEGMENT_SIZE,
                                workers=1):
    """Exact sum of r0*(n)^m over n <= x that are z-smooth or squarefull-topped.

    z = x^(1/log log x); the condition is P(n) <= z or P(n)^2 | n, read off
    a segmented factorization pass, and r0* off the bucket kernel.
    """
    if x < 16:
        raise ValueError("x must be >= 16")
    if m < 1:
        raise ValueError("m must be >= 1")
    z = math.floor(x ** (1.0 / math.log(math.log(x))))
    (hist,) = moments._hist_sweep(RepFamily.R0_STAR, [x], table,
                                  _smooth_squarefull_segment, segment_size,
                                  workers, z=z)
    return moments.moment_from_histogram(hist, "power", m)


# the shape ratios' binomial indices ell and their largest omega_star = k
SHAPE_ELLS = (1, 2)
SHAPE_KMAX = 8


def shape_main(family, ell, k, x):
    """Main term of a GSS family's omega_star = k binomial-ell moment.

    x (2^(ell-1) L)^k / (k! D^(ell+1)) with L = log log x, where D is
    log x for r1 and sqrt(log x) for rrstar and rrprimestar.
    """
    if family not in GSS_FAMILIES:
        raise ValueError("family must be one of r1, rrstar, rrprimestar")
    if x < 3:
        raise ValueError(f"shape main terms need x >= 3, got {x}")
    logx = math.log(x)
    denom = logx if family is RepFamily.R1 else math.sqrt(logx)
    return x * (2 ** (ell - 1) * math.log(logx)) ** k \
        / (math.factorial(k) * denom ** (ell + 1))


def gss_shape_ratios_grid(family, xs, table,
                          segment_size=moments.DEFAULT_SEGMENT_SIZE,
                          workers=1):
    """All shape ratios for one family over a grid, one engine sweep.

    Returns {(x, ell, k): ratio} for ell in SHAPE_ELLS and k <= SHAPE_KMAX,
    the omega_star = k filtered binomial moment over shape_main.
    """
    if family not in GSS_FAMILIES:
        raise ValueError("family must be one of r1, rrstar, rrprimestar")
    hists = moments.histogram_grid(family, xs, table, omega_kind="omega_star",
                                   segment_size=segment_size, workers=workers)
    out = {}
    for x, hist in zip(xs, hists):
        for ell in SHAPE_ELLS:
            for k in range(SHAPE_KMAX + 1):
                b = moments.moment_from_histogram(hist, "binomial", ell,
                                                  ("omega_star", k))
                out[(x, ell, k)] = b / shape_main(family, ell, k, x)
    return out


# ---------------------------------------------------------------------------
# Constants file: one "key = value # provenance" line each
# ---------------------------------------------------------------------------

# what calibrate() writes and the calibrated suite reads
CONSTANT_KEYS = ("C", "gamma1", "gamma2", "gss_bound")


def write_constants(path, values, provenance):
    """Write each value as repr(float), so read_constants gives it back ==."""
    lines = []
    for key in sorted(values):
        note = provenance.get(key, "")
        lines.append(f"{key} = {float(values[key])!r} # {note}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_constants(path):
    """The CONSTANT_KEYS of the constants file at `path`, key -> float.

    Raises ValueError naming the file when it does not exist, naming the
    file and the line when a line is not "key = number" with a finite
    number (a nan or inf makes every replay test "ratio > stored" false)
    and a key no earlier line sets, or naming the CONSTANT_KEYS the file
    lacks.  Other keys are dropped, so files that an older calibrate()
    wrote with H and the Landau value still replay.
    """
    if not os.path.exists(path):
        raise ValueError(f"constants file {path!r} not found; run "
                         "`repnum calibrate` first")
    out = {}
    with open(path) as fh:
        for num, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            try:
                number = float(value) if eq and key else math.nan
            except ValueError:
                number = math.nan
            if not math.isfinite(number) or key in out:
                raise ValueError(f"{path}:{num}: expected 'key = number' with "
                                 "a finite number and a new key, got "
                                 f"{raw.strip()!r}")
            out[key] = number
    missing = [k for k in CONSTANT_KEYS if k not in out]
    if missing:
        raise ValueError(f"{path}: missing constant(s) {', '.join(missing)}")
    return {k: out[k] for k in CONSTANT_KEYS}


def coprime_gap(x, table):
    """sum(r1 - r1*) over n <= x, exact: the pairs (a, p) with p | a.

    With a = p t, p^2 (t^2 + 1) <= x, so each prime p <= sqrt(x) gives
    isqrt(x // p^2 - 1) + 1 pairs.
    """
    root = math.isqrt(x)
    if root > table.limit:
        raise CapacityError(
            f"x = {x} needs primes to {root} but table limit is {table.limit}")
    ps = table.primes[: int(np.searchsorted(table.primes, root, side="right"))]
    return int((moments._isqrt(x // (ps * ps) - 1) + 1).sum())


def coprime_gap_ratios(xs, table):
    """sum(r1 - r1*) over n <= x, over sqrt(x) log log x, for each x in xs."""
    return [coprime_gap(x, table) / (math.sqrt(x) * math.log(math.log(x)))
            for x in xs]


def rho_bound_ratios(xs, gamma2, table):
    """{(x, k): rho_kN(x) / (x / log x * (L/2 + gamma2)^(k-1) / (k-1)!)}
    for x in xs and 1 <= k <= 8, L = log log x."""
    out = {}
    for x, hist in zip(xs, moments.rho_kN_grid(xs, table)):
        for k in range(1, 9):
            rho = int(hist[k]) if k < len(hist) else 0
            core = (x / math.log(x)
                    * (0.5 * math.log(math.log(x)) + gamma2) ** (k - 1)
                    / math.factorial(k - 1))
            out[(x, k)] = rho / core
    return out


def gss_shape_max(xs, table, segment_size=moments.DEFAULT_SEGMENT_SIZE,
                  workers=1):
    """Max shape ratio over GSS_FAMILIES, x in xs, ell in SHAPE_ELLS and
    k <= SHAPE_KMAX."""
    return max(max(gss_shape_ratios_grid(family, xs, table,
                                         segment_size=segment_size,
                                         workers=workers).values())
               for family in GSS_FAMILIES)


def calibrate(table, grid_max=10**7, segment_size=moments.DEFAULT_SEGMENT_SIZE,
              workers=1):
    """Compute the fitted constants (C, gamma1, gamma2, gss_bound).

    C, gamma1 and gss_bound are the max of coprime_gap_ratios,
    rho_bound_ratios and gss_shape_max over deterministic grids, which the
    calibrated suite replays against the stored values.
    """
    if grid_max < 10**4:
        raise ValueError("grid_max must be >= 10000, the first x of the "
                         f"gss_bound grid; got {grid_max}")
    if grid_max > moments.MAX_X:
        raise CapacityError(f"grid_max = {grid_max} exceeds engine budget "
                            f"MAX_X = {moments.MAX_X}")

    def decades(lo):
        xs, x = [], lo
        while x <= grid_max:
            xs.append(x)
            x *= 10
        return xs

    values, notes = {}, {}

    xs_c = decades(10**3)
    values["C"] = max(coprime_gap_ratios(xs_c, table))
    notes["C"] = ("max of sum(r1 - r1*) / (sqrt(x) log log x) over x in "
                  f"{xs_c}")

    xs_g2 = decades(10**2)
    g2 = [inductive_claim_sum(x, table) * math.log(x) / x
          - 0.5 * math.log(math.log(x)) for x in xs_g2]
    values["gamma2"] = max(g2)
    notes["gamma2"] = ("max of claim-sum * log x / x - L/2 over x in "
                       f"{xs_g2}")

    xs_rho = decades(10**3)
    values["gamma1"] = max(rho_bound_ratios(xs_rho, values["gamma2"],
                                            table).values())
    notes["gamma1"] = f"max of rho_kN / bound core over x in {xs_rho}, k <= 8"

    xs_gss = decades(10**4)
    values["gss_bound"] = gss_shape_max(xs_gss, table,
                                        segment_size=segment_size,
                                        workers=workers)
    notes["gss_bound"] = ("max shape ratio over families r1/rrstar/"
                          f"rrprimestar, x in {xs_gss}, ell in {SHAPE_ELLS}, "
                          f"k <= {SHAPE_KMAX}")

    return values, notes
