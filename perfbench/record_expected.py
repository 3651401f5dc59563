"""Record the expected moment outputs in expected.json, after cross-checks.

    python3 perfbench/record_expected.py

Each moment operation of the benchmark is run on 1 and 2 workers and with
two segment sizes; the outputs must be identical before they are recorded.
The same code paths are then checked at small x against the enumeration
oracle (rep_enumerate) and the closed form r0_formula.  Takes about two
minutes on 2 cores.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repnum import arith, moments, repfun  # noqa: E402
from repnum.repfun import RepFamily  # noqa: E402

import workloads  # noqa: E402

SEG = moments.DEFAULT_SEGMENT_SIZE
SCHEDULES = [(1, SEG), (2, SEG), (2, 700001)]  # (workers, segment size)


def run_op(name, spec, workers, segment_size):
    if name == "rho_kN_grid":
        table = arith.prime_table(math.isqrt(max(spec)) + 1)
        return [h.tolist() for h in moments.rho_kN_grid(
            spec, table, segment_size=segment_size, workers=workers)]
    argv = list(spec) + ["--workers", str(workers),
                         "--segment-size", str(segment_size)]
    code, out = workloads.cli_run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out


def oracle_checks(x=3000):
    """The benchmark's query shapes at small x against independent routes."""
    table = arith.prime_table(x, spf_cap=x)
    facts = {n: arith.factor(n, table) for n in range(1, x + 1)}
    for fam, rule in ((RepFamily.R0, repfun.r0_formula),
                      (RepFamily.R0_STAR, repfun.r0_star)):
        want = sum(rule(facts[n]) ** 2 for n in range(1, x + 1))
        enum = sum(repfun.rep_enumerate(fam, n, table) ** 2
                   for n in range(1, x + 1))
        argv = ["moments", "--family", fam.value, "--x", str(x),
                "--power", "2", "--workers", "2", "--segment-size", "97"]
        _, csv = workloads.cli_run(argv)
        got = int(csv.splitlines()[1].split(",")[-1])
        assert got == want == enum, (fam, got, want, enum)
    xs = [x // 9, x // 3, x]
    for cut in xs:
        want = sum(math.comb(repfun.rep_enumerate(RepFamily.R1, n, table), 2)
                   for n in range(1, cut + 1)
                   if arith.omega_star(facts[n]) == 3)
        got = moments.binomial_moment_grid(
            RepFamily.R1, [cut], 2, table, omega_filter=("omega_star", 3),
            segment_size=97, workers=2)[0]
        assert got == want, ("r1", cut, got, want)
    def in_set(n):
        return n % 4 and all(p % 4 != 3 for p, _ in facts[n].factors)

    hists = moments.rho_kN_grid(xs, table, segment_size=97, workers=2)
    for cut, hist in zip(xs, hists):
        members = [n for n in range(1, cut + 1) if in_set(n)]
        assert sum(hist) == len(members), ("rho", cut)
        for k, count in enumerate(hist):
            want = sum(1 for n in members if arith.omega_star(facts[n]) == k)
            assert count == want, ("rho", cut, k, count, want)
    print(f"oracle checks at x = {x}: ok")


def main():
    oracle_checks()
    expected = {}
    for workload, ops in workloads.MOMENT_OPS.items():
        expected[workload] = {}
        for name, spec in ops.items():
            outs = [run_op(name, spec, w, s) for w, s in SCHEDULES]
            if any(out != outs[0] for out in outs):
                raise SystemExit(f"{name}: outputs differ across schedules")
            print(f"{workload} {name}: identical on {SCHEDULES}")
            expected[workload][name] = outs[0]
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
