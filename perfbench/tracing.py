"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: `Tracer.wrap` replaces a public
function on its module with a wrapper that opens a span around each call, and
`unwrap_all` restores the originals.  Calls made thousands of times per
operation (``fold=True``) are not kept as spans; their call count and time are
folded into the enclosing span, so they still leave its self time.  A folded
call made inside another folded call stays part of the outer one.

A span's self time is its duration minus the time covered by its child spans
and folded calls.  Spans stay in memory until `write_jsonl` at the end of the
run.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._folding = False
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
            "folded": {},
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, layer, fold=False):
        """Trace calls to module.attr; `layer` is a name or f(args, kwargs)."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lay = layer(args, kwargs) if callable(layer) else layer
            if not fold:
                with self.span(name, lay):
                    return fn(*args, **kwargs)
            if self._folding:
                return fn(*args, **kwargs)
            self._folding = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._folding = False
                if self._stack:
                    acc = self._stack[-1]["folded"].setdefault(lay, [0, 0.0])
                    acc[0] += 1
                    acc[1] += time.perf_counter() - start

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def unwrap_all(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def children(self, span_id, name=None):
        return [s for s in self.spans if s["parent"] == span_id
                and (name is None or s["name"] == name)]

    def self_times(self, roots):
        """Self seconds per layer, summed over the spans under the given roots."""
        roots = set(roots)
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["root"] in roots:
                covered[s["parent"]] += duration(s)
        out = defaultdict(float)
        for s in self.spans:
            if s["root"] not in roots:
                continue
            folded = sum(secs for _, secs in s["folded"].values())
            out[s["layer"]] += duration(s) - covered[s["id"]] - folded
            for lay, (_, secs) in s["folded"].items():
                out[lay] += secs
        return dict(out)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - self._t0,
                           end=s["end"] - self._t0)
                fh.write(json.dumps(row) + "\n")


def duration(span):
    return span["end"] - span["start"]


@contextlib.contextmanager
def instrumented(tracer):
    """Trace the public repnum calls of every layer while the block runs."""
    from repnum import arith, cli, moments, repfun, selberg

    def sweep_layer(args, kwargs):
        if kwargs.get("omega_kind"):
            return "moments.sweep.bucket_omega"
        return "moments.sweep.bucket"

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(arith, "prime_table", "arith")
    tracer.wrap(selberg, "prime_table", "arith")
    tracer.wrap(repfun, "base_values", "repfun")
    for name in ("power_moment_grid", "binomial_moment_grid", "rho_kN_grid"):
        tracer.wrap(moments, name, "moments.reduce")
    tracer.wrap(moments, "histogram_grid", sweep_layer)
    tracer.wrap(moments, "nn_omega_histograms", "moments.sweep.profile")
    tracer.wrap(selberg, "sieve_upper_bound", "selberg.bound")
    tracer.wrap(selberg, "sifted_count_exact", "selberg.survey")
    tracer.wrap(selberg, "lambda_weights", "selberg.lambda")
    tracer.wrap(selberg, "big_G", "selberg.G")
    tracer.wrap(selberg, "mu_plus", "selberg.mu_plus")
    # the remainder algebra: R_d per d, private but named by the layer model;
    # when it is gone its time stays in the bound's self time
    tracer.wrap(selberg, "g_value", "selberg.remainder", fold=True)
    if hasattr(selberg, "_remainder_exact"):
        tracer.wrap(selberg, "_remainder_exact", "selberg.remainder", fold=True)
    try:
        yield tracer
    finally:
        tracer.unwrap_all()
