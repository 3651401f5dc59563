"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

A wrong expected value, an operation that raises CapacityError, a query the
CLI refuses for capacity and a sieve output that breaks dominance must each
count as a failed operation; correct operations must not.  Exits 0 when all
hold.  Takes a few seconds.
"""

import dataclasses
import sys

import run

run.import_repnum()

from repnum import arith, moments, selberg  # noqa: E402

import workloads  # noqa: E402

QUERY = ["moments", "--family", "r0", "--x", "10000", "--power", "2"]


def outcomes(ops):
    record = run.run_pass(ops)
    return [res.ok for res in record.results]


def main():
    _, right = workloads.cli_run(QUERY + ["--workers", "1"])
    wrong = right.replace(right.split(",")[-1], "1\n")
    table = arith.prime_table(200)
    too_big = moments.MAX_X + 1

    problem = selberg.random_problems(1, seed=7, box_max=200, z_max=20)[0]
    good_sieve = workloads.sieve_op(0, problem)
    broken = dataclasses.replace(
        good_sieve, run=lambda: dataclasses.replace(
            workloads.sieve_run(problem), bound=-1.0))

    cases = [
        ("correct moment query", workloads.cli_op("ok", QUERY, right), True),
        ("corrupted expected value", workloads.cli_op("bad", QUERY, wrong),
         False),
        ("CapacityError raised", workloads.rho_op(
            "raises", [too_big], table, []), False),
        ("CLI capacity exit", workloads.cli_op(
            "cap", ["moments", "--family", "r0", "--x", str(too_big)], ""),
         False),
        ("correct sieve problem", good_sieve, True),
        ("bound below the exact count", broken, False),
    ]
    got = outcomes([op for _, op, _ in cases])
    bad = [(label, want, ok) for (label, _, want), ok in zip(cases, got)
           if ok != want]
    for label, want, ok in bad:
        print(f"selftest: {label}: expected ok={want}, got ok={ok}")
    print("selftest:", "FAILED" if bad else f"{len(cases)} cases ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
