"""repnum benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls the public API of repnum in this process, operations back
to back; moment queries use the library's own process pool on
--workers 2.  Passes run until S seconds have gone by.  Outputs are checked
after each pass, outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes, runs the fixed layer probes, prints
each layer's share of self time and the per-layer metrics, and writes the
spans to perfbench/traces/.  Human-readable lines start with '#'; the last
line of stdout is the JSON result.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from tracing import duration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 4
MAX_FAILURE_LINES = 5

SHARE_LAYERS = (
    "bench", "cli", "arith", "repfun", "moments.reduce",
    "moments.sweep.bucket", "moments.sweep.bucket_omega",
    "moments.sweep.profile", "selberg.bound", "selberg.survey",
    "selberg.lambda", "selberg.G", "selberg.mu_plus", "selberg.remainder",
)
# Layer groups whose share shows what each workload was chosen to stress.
PURPOSE = {
    "moments-bucket": ("bucket kernel sweeps", ("moments.sweep.bucket",)),
    "moments-profile": ("profile/omega sweeps", ("moments.sweep.profile",
                                                 "moments.sweep.bucket_omega")),
    "sieve-box": ("box survey", ("selberg.survey", "selberg.bound")),
}
SELBERG_SPANS = {
    "selberg.survey_s": "selberg.sifted_count_exact",
    "selberg.bound_s": "selberg.sieve_upper_bound",
    "selberg.lambda_s": "selberg.lambda_weights",
    "selberg.mu_plus_s": "selberg.mu_plus",
}


@dataclass
class OpResult:
    op: object
    seconds: float
    output: object
    span: dict = None  # the op's span when traced
    ok: bool = False


@dataclass
class PassRecord:
    wall: float
    cpu: float
    results: list
    root: int = None  # id of the pass span when traced


def import_repnum():
    """Put the checkout's own sources first on sys.path; fail without them."""
    src = ROOT / "src"
    if not (src / "repnum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repnum sources under {src}")
    sys.path.insert(0, str(src))


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def set_up(workload, seed):
    """Import, table build and input generation; returns (seconds, passes)."""
    start = time.perf_counter()
    import workloads
    passes = workloads.build(workload, seed)
    return time.perf_counter() - start, passes


def setup_samples(args, own):
    """Set-up seconds of this process plus those of fresh child processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_pass(ops, tracer=None, keep_outputs=False):
    """Run ops back to back, then check them; outputs of passed ops are dropped."""
    import workloads

    def span(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name, "bench")

    results = []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with span("pass") as root:
        for op in ops:
            t = time.perf_counter()
            try:
                with span(op.name) as op_span:
                    out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
            results.append(OpResult(op, time.perf_counter() - t, out, op_span))
    record = PassRecord(time.perf_counter() - start, cpu_seconds() - cpu0,
                        results, root["id"] if tracer else None)
    for res in results:
        if isinstance(res.output, Exception):
            continue
        try:
            res.ok = bool(res.op.check(res.output))
        except Exception as exc:  # a check that cannot run is a wrong output
            res.output = exc
            continue
        if res.ok and res.span and res.op.problem:
            res.span["counts"] = workloads.sieve_counts(res.op.problem,
                                                        res.output)
        if res.ok and not keep_outputs:
            res.output = None  # so peak_rss_mb is the library's, not ours
    return record


def measure(passes, seconds, tracer=None):
    """Closed loop over passes for `seconds`; odd passes traced if tracing."""
    records = []
    start = time.perf_counter()
    min_passes = 2 if tracer else 1
    for j, ops in enumerate(passes):
        elapsed = time.perf_counter() - start
        if len(records) >= min_passes and elapsed >= seconds:
            break
        if tracer and j % 2 == 1:
            with tracing.instrumented(tracer):
                records.append(run_pass(ops, tracer))
        else:
            keep = tracer is not None and not records  # counts need pass 0
            records.append(run_pass(ops, keep_outputs=keep))
    return records


def failures(records):
    out = []
    for rec in records:
        for res in rec.results:
            if not res.ok:
                out.append(f"{res.op.name}: {res.output!r}"[:300])
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, setup):
    walls = [r.wall for r in records]
    ops = [res.seconds for r in records for res in r.results]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(walls), len(walls)),
        "cpu_s": (statistics.median(r.cpu for r in records), len(records)),
        "op_s.p50": (quantile(ops, 50), len(ops)),
        "op_s.p90": (quantile(ops, 90), len(ops)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def selberg_metrics(tracer, traced, first):
    """Sieve seconds per traced pass, and exact counts of the first pass."""
    import workloads
    m = {}
    for metric, name in SELBERG_SPANS.items():
        m[metric] = statistics.median(
            sum(duration(s) for s in tracer.spans
                if s["root"] == rec.root and s["name"] == name)
            for rec in traced)
    per_op = [workloads.sieve_counts(res.op.problem, res.output)
              for res in first.results if res.op.problem and res.ok]
    for key in ("cells", "event_evals", "active_primes", "d_count",
                "lambda_size", "mu_plus_size"):
        m[f"selberg.{key}"] = sum(c[key] for c in per_op)
    m["selberg.rd_ratio_max"] = max((c["rd_ratio"] for c in per_op), default=0)
    return m


def layer_shares(tracer, traced):
    """Percent of traced pass time that each layer spends in itself."""
    total = sum(r.wall for r in traced)
    self_s = tracer.self_times(r.root for r in traced)
    unknown = set(self_s) - set(SHARE_LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the share layers: {unknown}")
    return {lay: 100.0 * self_s.get(lay, 0.0) / total for lay in SHARE_LAYERS}


def traced_run(args, records, tracer):
    import probes
    traced = [r for r in records if r.root is not None]
    plain = [r for r in records if r.root is None]
    shares = layer_shares(tracer, traced)
    label, group = PURPOSE[args.workload]
    print(f"# layer shares of self time, {len(traced)} traced passes:")
    for lay in sorted(shares, key=shares.get, reverse=True):
        if shares[lay] >= 0.05:
            print(f"#   {lay:28s} {shares[lay]:6.2f} %")
    print(f"#   {label}: {sum(shares[g] for g in group):.2f} % of the workload")
    with tracing.instrumented(tracer), tracer.span("probes", "probe"):
        m = probes.run(tracer)
    m.update(selberg_metrics(tracer, traced, records[0]))
    traced_s = statistics.median(r.wall for r in traced)
    plain_s = statistics.median(r.wall for r in plain)
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    m.update({f"share.{lay}": v for lay, v in shares.items()})
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return m


def provenance(args):
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), "")
    import numpy
    import workloads
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "seed": args.seed,
        "workers": workloads.WORKERS,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print its seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_repnum()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    own_setup, passes = set_up(args.workload, args.seed)
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0
    print("# provenance " + json.dumps(provenance(args)))
    tracer = tracing.Tracer() if args.trace else None
    records = measure(passes, args.seconds, tracer)
    fails = failures(records)
    attempted = sum(len(r.results) for r in records)
    for line in fails[:MAX_FAILURE_LINES]:
        print(f"# FAILED {line}", file=sys.stderr)
    print(f"# {args.workload}: {len(records)} passes, {attempted} operations, "
          f"{len(fails)} failed, fail_frac = {len(fails) / attempted:.4f}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = traced_run(args, records, tracer)
        counts = {}
    else:
        measured = end_to_end(records, setup_samples(args, own_setup))
        values = {k: v for k, (v, _) in measured.items()}
        counts = {k: n for k, (_, n) in measured.items()}
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        n = f"  (n = {counts[name]})" if name in counts else ""
        print(f"# {name:40s} {values[name]:>16.6g} {entry['unit']}{n}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
