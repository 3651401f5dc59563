"""Command-line front end: evaluation, bulk moments, verification, calibration.

Output is CSV (comma separator, '.' decimal, header row, LF line ends,
reals printed with 12 significant digits) to stdout or --out.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 capacity exceeded.
"""

import argparse
import csv
import io
import math
import os
import sys

import numpy as np

from . import acceptance, arith, asymp, moments, repfun, selberg
from .errors import CapacityError
from .repfun import RepFamily

DEFAULT_CONSTANTS = "./repnum-constants.txt"


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(header, rows, out_path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _parse_grid(spec):
    try:
        lo, hi, factor = (int(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"--grid wants lo:hi:factor, got {spec!r}")
    if lo < 1 or hi < lo or factor < 2:
        raise ValueError("--grid needs 1 <= lo <= hi and factor >= 2")
    xs, x = [], lo
    while x <= hi:
        xs.append(x)
        x *= factor
    return xs


def _xs_from(args):
    if args.grid:
        return _parse_grid(args.grid)
    if args.x is None:
        raise ValueError("need --x or --grid")
    return [args.x]


def _table(x, cap=None):
    """Primes to isqrt(x) + 1, at least 10^4, and no spf array.

    CapacityError first, with no sieve, when x exceeds `cap`.
    """
    if cap is not None and x > cap:
        raise CapacityError(f"x = {x} exceeds this verb's cap {cap}")
    return arith.prime_table(max(math.isqrt(max(x, 0)) + 1, 10**4))


def _default_workers():
    """CPUs this process may run on (its affinity set), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_flags(p, *flags):
    """--out, plus the shared flags (by name) that this verb reads."""
    shared = {
        "--segment-size": dict(type=int, default=moments.DEFAULT_SEGMENT_SIZE),
        "--workers": dict(type=int, default=_default_workers()),
        "--constants": dict(default=DEFAULT_CONSTANTS),
    }
    p.add_argument("--out", help="write CSV here instead of stdout")
    for flag in flags:
        p.add_argument(flag, **shared[flag])


def _build_parser():
    top = argparse.ArgumentParser(
        prog="repnum",
        description="representation-number moments, sieve bounds, and "
                    "asymptotic verification")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate one representation function")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_flags(p)

    p = sub.add_parser("table", help="build a prime table")
    p.add_argument("--limit", type=int, required=True)
    _add_flags(p)

    p = sub.add_parser("moments", help="bulk power/binomial moments")
    p.add_argument("--family", required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--grid", help="geometric grid lo:hi:factor")
    p.add_argument("--power", type=int)
    p.add_argument("--binomial", type=int)
    p.add_argument("--omega", type=int,
                   help="restrict to omega(n) = K")
    p.add_argument("--omega-star", type=int, dest="omega_star",
                   help="restrict to omega_star(n) = K")
    _add_flags(p, "--segment-size", "--workers")

    p = sub.add_parser("zeroth", help="zeroth moments (positivity counts)")
    p.add_argument("--family", required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--grid")
    _add_flags(p, "--segment-size", "--workers")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=(*acceptance.SUITES, "all"))
    p.add_argument("--x", type=int, help="scale override for oracle/identities")
    _add_flags(p, "--workers", "--constants")

    p = sub.add_parser("sieve-demo", help="bound vs exact count on random problems")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    _add_flags(p)

    p = sub.add_parser("constants", help="print the constants file")
    _add_flags(p, "--constants")

    p = sub.add_parser("calibrate", help="fit and store the tuned constants")
    p.add_argument("--grid-max", type=int, default=10**7)
    _add_flags(p, "--segment-size", "--workers", "--constants")
    return top


def _factor(n):
    """arith.factor(n), by the primes to 10^4 and then, only when the
    cofactor they leave may be composite, by a table to its isqrt."""
    small = _table(0)
    if n <= small.limit ** 2:
        return arith.factor(n, small)
    found, rest = arith.trial_divide(n, small.primes)
    if rest > small.limit ** 2:
        found += arith.factor(rest, _table(rest)).factors
    elif rest > 1:
        found.append((rest, 1))
    return arith.Factorization(n, tuple(found))


def _cmd_eval(args):
    fam = RepFamily.from_name(args.family)
    if fam is RepFamily.R0:
        value = repfun.r0_formula(_factor(args.n))
    elif fam is RepFamily.R0_STAR:
        value = repfun.r0_star(_factor(args.n))
    else:
        value = repfun.rep_enumerate(fam, args.n, _table(args.n))
    _emit(["family", "n", "value"], [[fam.value, args.n, value]], args.out)
    return 0


def _cmd_table(args):
    # the spf array this verb has always built and reported, to at most 1e8
    table = arith.prime_table(args.limit, spf_cap=10**8)
    _emit(["limit", "primes", "spf_limit"],
          [[table.limit, len(table.primes), table.spf_limit]], args.out)
    return 0


def _cmd_moments(args):
    fam = RepFamily.from_name(args.family)
    xs = _xs_from(args)
    if args.power is not None and args.binomial is not None:
        raise ValueError("choose one of --power / --binomial")
    if args.omega is not None and args.omega_star is not None:
        raise ValueError("choose one of --omega / --omega-star")
    omega_filter = None
    filt_label = ""
    if args.omega is not None:
        omega_filter = ("omega", args.omega)
        filt_label = f"omega={args.omega}"
    elif args.omega_star is not None:
        omega_filter = ("omega_star", args.omega_star)
        filt_label = f"omega_star={args.omega_star}"
    table = _table(max(xs), moments.MAX_X)
    kw = dict(omega_filter=omega_filter, segment_size=args.segment_size,
              workers=args.workers)
    if args.binomial is not None:
        mode, idx = "binomial", args.binomial
        vals = moments.binomial_moment_grid(fam, xs, idx, table, **kw)
    else:
        mode, idx = "power", 1 if args.power is None else args.power
        vals = moments.power_moment_grid(fam, xs, idx, table, **kw)
    rows = [[fam.value, x, mode, idx, filt_label, v]
            for x, v in zip(xs, vals)]
    _emit(["family", "x", "mode", "index", "filter", "value"], rows, args.out)
    return 0


def _cmd_zeroth(args):
    fam = RepFamily.from_name(args.family)
    xs = _xs_from(args)
    table = _table(max(xs), moments.MAX_X)
    vals = moments.zeroth_moment_grid(fam, xs, table,
                                      segment_size=args.segment_size,
                                      workers=args.workers)
    _emit(["family", "x", "value"],
          [[fam.value, x, v] for x, v in zip(xs, vals)], args.out)
    return 0


def _cmd_verify(args):
    if args.x is not None and args.x < 1:
        raise ValueError(f"--x must be >= 1, got {args.x}")
    suites = acceptance.SUITES if args.suite == "all" else (args.suite,)
    constants = None
    if "calibrated" in suites:
        constants = asymp.read_constants(args.constants)
    caps = [acceptance.X_CAPS[s] for s in suites if s in acceptance.X_CAPS]
    table = _table((args.x or 0) if caps else 0, min(caps, default=None))
    rows, ok = [], True
    for suite in suites:
        for res in acceptance.run_suite(suite, table, constants=constants,
                                        workers=args.workers, x=args.x):
            ok &= res.passed
            rows.append([suite, res.name,
                         "pass" if res.passed else "FAIL", res.detail])
    _emit(["suite", "check", "status", "detail"], rows, args.out)
    return 0 if ok else 1


def _cmd_sieve_demo(args):
    problems = selberg.random_problems(args.count, seed=args.seed,
                                       box_max=500, z_max=40)
    rows = []
    for pr in problems:
        bound = selberg.sieve_upper_bound(pr)
        exact = selberg.sifted_count_exact(pr)
        forms = "|".join(f"{f.u}:{f.v}" for f in pr.forms)
        rows.append([pr.variant, pr.box, pr.z, float(pr.xi), pr.m, pr.ell,
                     forms, bound, exact, bound >= exact])
    _emit(["variant", "box", "z", "xi", "m", "ell", "forms",
           "upper_bound", "exact", "dominates"], rows, args.out)
    return 0


def _cmd_constants(args):
    values = asymp.read_constants(args.constants)
    _emit(["key", "value"], [[k, v] for k, v in sorted(values.items())],
          args.out)
    return 0


def _cmd_calibrate(args):
    table = _table(args.grid_max, moments.MAX_X)
    values, notes = asymp.calibrate(table, grid_max=args.grid_max,
                                    segment_size=args.segment_size,
                                    workers=args.workers)
    asymp.write_constants(args.constants, values, notes)
    _emit(["key", "value"], [[k, values[k]] for k in sorted(values)],
          args.out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "moments": _cmd_moments,
    "zeroth": _cmd_zeroth,
    "verify": _cmd_verify,
    "sieve-demo": _cmd_sieve_demo,
    "constants": _cmd_constants,
    "calibrate": _cmd_calibrate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.verb](args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
