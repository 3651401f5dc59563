"""The benchmark's tracer wraps repnum functions by name.

`perfbench/tracing.py` looks each wrapped name up with getattr, so a name
that disappears from the library breaks the traced benchmark run; this test
makes the same lookups in tier-1 and checks that every wrap is undone.
"""

import pathlib

from repnum import moments

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = moments.histogram_grid
    with tracing.instrumented(tracing.Tracer()):
        assert moments.histogram_grid is not original
    assert moments.histogram_grid is original
