"""The benchmark tracer's layers still name functions of spzeros."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_layers():
    """LAYERS of bench/tracer.py, loaded by path; nothing is installed."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_tracer_layer_has_a_callable_target():
    # A layer none of whose (module, attribute) targets resolves is reported
    # absent and measures nothing, so a rename in spzeros would silently
    # zero its per-layer figures.
    layers = _tracer_layers()
    assert layers
    unresolved = []
    for layer, (targets, _count) in layers.items():
        assert all(module.startswith("spzeros") for module, _ in targets)
        if not any(callable(getattr(importlib.import_module(module), attr,
                                    None))
                   for module, attr in targets):
            unresolved.append(layer)
    assert unresolved == []
