"""The benchmark's tracer wraps repnum functions by name.

`perfbench/tracing.py` looks each wrapped name up with getattr, so a name
that disappears from the library breaks the traced benchmark run; this test
makes the same lookups in tier-1 and checks that every wrap is undone.
`selberg._remainder_exact` is wrapped only if present, so losing it would
silently count the remainder algebra as the bound's own time.
"""

import pathlib

from repnum import moments, selberg

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

WRAPPED = [(moments, "histogram_grid")] + [
    (selberg, name) for name in (
        "sieve_upper_bound", "sifted_count_exact", "lambda_weights", "big_G",
        "mu_plus", "g_value", "_remainder_exact", "prime_table")]


def test_tracer_wraps_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [getattr(module, name) for module, name in WRAPPED]
    with tracing.instrumented(tracing.Tracer()):
        for (module, name), fn in zip(WRAPPED, originals):
            assert getattr(module, name) is not fn, name
    for (module, name), fn in zip(WRAPPED, originals):
        assert getattr(module, name) is fn, name
