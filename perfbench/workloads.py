"""The benchmark's workloads: their inputs, operations and output checks.

One operation is one moment query or one sieve problem.  `Op.run` is the
timed call into repnum; `Op.check` runs after the pass, outside the timed
region, and returns whether the output is correct.

Moment inputs are fixed and checked byte for byte against expected.json.

Every sieve pass has the same problem shapes (box, z, variant, number of
forms), taken from the `verify --suite sieve` problems; the seed draws each
problem's modulus and forms.  The shapes set the cost of a problem, so pass
times from different seeds are comparable: with the whole problem drawn
from the seed, pass_s spread by 16% and op_s.p50 by 44% across five seeds.
The selberg module caches per problem (`_sifting_primes`, `_active_primes`,
`_h_map`, `weight_g`), so no problem is used twice in a process: every pass
takes fresh problems, as a user's first call on a problem would.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from repnum import arith, cli, moments, selberg

WORKERS = 2  # nproc of the baseline machine, passed, never the CLI default
EXPECTED_PATH = Path(__file__).with_name("expected.json")

MOMENT_OPS = {
    "moments-bucket": {
        "r0": ["moments", "--family", "r0", "--x", "100000000",
               "--power", "2"],
        "r0star": ["moments", "--family", "r0star", "--x", "100000000",
                   "--power", "2"],
    },
    "moments-profile": {
        "r1-grid": ["moments", "--family", "r1",
                    "--grid", "1000000:100000000:10", "--binomial", "2",
                    "--omega-star", "3"],
        "rho_kN_grid": [10**6, 10**7, 10**8],
    },
}

SIEVE_PER_PASS = {"sieve-box": 10}  # problems per pass
SUITE_SEED = 20260810  # the seed of `repnum verify --suite sieve`
MAX_PASSES = 40  # more than a run of 60 s gets through


@dataclass(frozen=True)
class Op:
    name: str
    run: object    # () -> output
    check: object  # output -> bool
    problem: object = None  # the SieveProblem of a sieve operation


def cli_run(argv):
    """repnum.cli.main in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_op(name, argv, expected_csv):
    argv = list(argv) + ["--workers", str(WORKERS)]
    return Op(name, lambda: cli_run(argv),
              lambda out: out == (0, expected_csv))


def rho_op(name, xs, table, expected):
    def run():
        return [h.tolist() for h in moments.rho_kN_grid(xs, table,
                                                        workers=WORKERS)]
    return Op(name, run, lambda out: out == expected)


def moment_ops(workload, expected):
    ops = []
    for name, spec in MOMENT_OPS[workload].items():
        if name == "rho_kN_grid":
            table = arith.prime_table(math.isqrt(max(spec)) + 1)
            ops.append(rho_op(name, spec, table, expected[name]))
        else:
            ops.append(cli_op(name, spec, expected[name]))
    return ops


# ---------------------------------------------------------------------------
# Sieve problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveOutput:
    bound: float
    remainders: dict
    exact: int
    lams: dict
    mu: dict


def sieve_run(problem):
    bound, _, rem = selberg.sieve_upper_bound(problem, return_parts=True)
    exact = selberg.sifted_count_exact(problem)
    lams = selberg.lambda_weights(problem)
    return SieveOutput(bound, rem, exact, lams, selberg.mu_plus(problem, lams))


def sieve_counts(problem, out):
    """Exact work counts of one solved problem.

    rd_ratio is the largest |R_d| / (2 * slack * scale), the quantity
    `_remainder_exact` asserts to be at most 1.
    """
    scale = max(problem.box, math.isqrt(int(problem.X)) + 1)
    ratio = max(abs(r) / (2 * (d * d if problem.variant == "C" else d) * scale)
                for d, r in out.remainders.items())
    return {
        "cells": problem.box ** 2,
        "event_evals": problem.box ** 2 * len(problem.sifting_primes()),
        "active_primes": len(problem.active_primes()),
        "d_count": len(out.remainders),
        "lambda_size": len(out.lams),
        "mu_plus_size": len(out.mu),
        "rd_ratio": float(ratio),
    }


def sieve_check(problem, out, salt):
    """Dominance, lambda_1 = 1 and exact-rational mu_plus admissibility.

    For n a product of active primes, sum_{d | n} mu_plus(d) must equal
    (sum_{d | n} lambda_d)^2, which is >= 1 at n = 1 and >= 0 elsewhere.
    """
    if not out.bound >= out.exact or out.lams.get(1) != 1:
        return False
    primes = problem.active_primes()
    rng = random.Random(salt)
    subsets = [tuple(p for p in primes if rng.random() < 0.5)
               for _ in range(12)] + [(), tuple(primes)]
    for sub in subsets:
        n = math.prod(sub)
        lam = sum(v for d, v in out.lams.items() if n % d == 0)
        mu = sum(v for d, v in out.mu.items() if n % d == 0)
        if mu != lam * lam or mu < (1 if n == 1 else 0):
            return False
    return True


def sieve_op(index, problem):
    return Op(f"problem{index}", lambda: sieve_run(problem),
              lambda out: sieve_check(problem, out, index), problem)


def predicted_cost(problem):
    """Rough seconds: the box survey plus the d-indexed rational algebra."""
    n = sum(1 for p in range(problem.ell + 3, problem.z + 1)
            if all(p % q for q in range(2, math.isqrt(p) + 1))
            and (problem.prime_set == "all" or p % 4 == 3))
    survey = problem.box ** 2 * n * (problem.ell + 1)
    if problem.variant == "C":
        survey *= 2.5
    return 1.5e-8 * survey + 2e-6 * n ** 3


def pass_shapes(count):
    """`count` suite problems spread evenly over the suite's cost ranks.

    The suite is the 100 problems `repnum verify --suite sieve` draws.
    Taking problems at ranks 5%, 15%, ... keeps its mix of cheap and heavy
    problems in every pass.
    """
    suite = selberg.random_problems(100, seed=SUITE_SEED)
    ranked = sorted(suite, key=predicted_cost)
    return [ranked[(2 * k + 1) * len(ranked) // (2 * count)]
            for k in range(count)]


def redraw(shape, rng, moduli, seen):
    """A problem of the same box, z, variant and form count, new m and forms.

    m and the forms are drawn as random_problems draws them, so every form
    still represents m.  Problems already in `seen` are drawn again.
    """
    while True:
        m = rng.choice(moduli)
        reps = selberg.coprime_representations(m)
        if len(reps) < shape.ell:
            continue
        forms = tuple(selberg.LinearForm(u, v)
                      for u, v in rng.sample(reps, shape.ell))
        problem = selberg.SieveProblem(box=shape.box, z=shape.z, m=m,
                                       forms=forms, variant=shape.variant)
        if problem not in seen:
            seen.add(problem)
            return problem


def sieve_passes(workload, seed):
    shapes = pass_shapes(SIEVE_PER_PASS[workload])
    moduli = [m for m in range(5, 3000) if selberg.coprime_representations(m)]
    rng = random.Random(seed)
    seen = set()
    passes = []
    for j in range(MAX_PASSES):
        problems = [redraw(shape, rng, moduli, seen) for shape in shapes]
        passes.append([sieve_op(j * len(shapes) + k, pr)
                       for k, pr in enumerate(problems)])
    return passes


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build(workload, seed):
    """Inputs for one run: a list of passes, each a list of Ops."""
    if workload in MOMENT_OPS:
        expected = json.loads(EXPECTED_PATH.read_text())[workload]
        return [moment_ops(workload, expected)] * MAX_PASSES
    return sieve_passes(workload, seed)
