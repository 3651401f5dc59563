"""The benchmark reads repnum names that tier-1 must keep alive.

`perfbench/tracing.py` looks each wrapped name up with getattr, so a name
that disappears from the library breaks the traced benchmark run; this test
makes the same lookups in tier-1 and checks that every wrap is undone.
`selberg._remainder_exact` is wrapped only if present, so losing it would
silently count the remainder algebra as the bound's own time.  The probes
and workloads read library names as attributes (`moments.segment_profile`)
or import them (`from repnum.repfun import RepFamily`); every such name in
`perfbench/*.py` must exist, and every call of one must bind to its
signature, keyword names included.
"""

import ast
import importlib
import inspect
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


LIBRARY = ("arith", "cli", "moments", "repfun", "selberg")


def _perfbench_names():
    """(module, name) for each library name that a perfbench file reads."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in LIBRARY):
                found.add((node.value.id, node.attr))
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repnum.")):
                found.update((node.module[len("repnum."):], alias.name)
                             for alias in node.names)
    return found


def test_perfbench_reads_only_live_library_names():
    names = _perfbench_names()
    # the per-layer probes, which no workload's own run reaches
    assert {("moments", "accumulate_counts"), ("moments", "segment_profile"),
            ("moments", "_segment_omega"), ("repfun", "RepFamily")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"repnum.{module}"),
                              name)]
    assert missing == []


def _perfbench_calls():
    """(file, line, module, name, positional count or None, keywords) for
    each call of a library name in `perfbench/*.py`; the count is None
    when the call unpacks *args."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: (node.module[len("repnum."):],
                                                  alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repnum.")
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in LIBRARY):
                module, name = func.value.id, func.attr
            elif isinstance(func, ast.Name) and func.id in imported:
                module, name = imported[func.id]
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((path.name, node.lineno, module, name,
                          None if starred else len(node.args),
                          [k.arg for k in node.keywords if k.arg]))
    return calls


def test_perfbench_calls_bind_to_library_signatures():
    calls = _perfbench_calls()
    # keyword calls the benchmark's recorder makes
    assert ("moments", "rho_kN_grid", ["segment_size", "workers"]) in [
        (module, name, kws) for _, _, module, name, _, kws in calls]
    bad = []
    for path, line, module, name, nargs, kws in calls:
        target = getattr(importlib.import_module(f"repnum.{module}"), name,
                         None)
        if target is None:  # reported by the test above
            continue
        try:
            inspect.signature(target).bind_partial(
                *[None] * (nargs or 0), **dict.fromkeys(kws))
        except TypeError as exc:
            bad.append(f"{path}:{line}: {module}.{name}: {exc}")
    assert bad == []
