"""The benchmark's tracer wraps package functions by name. Every name it
wraps must still exist, so that removing one from the package fails here
and not only in a traced benchmark run (`benchmark/run.py --trace 1`)."""

import importlib.util
from pathlib import Path

from coupled_splitting import cli, model, rp, solvers, spectral

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve_and_are_restored():
    tracing = _load_tracing()
    targets = tracing.layer_targets(cli, model, solvers, rp, spectral)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr, _, _), fn in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr, _, _), fn in zip(targets, originals))
