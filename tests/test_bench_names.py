"""The benchmark's tracer (bench/layers.py) wraps program functions by name:
every name it lists must stay bound to a callable."""
import importlib.util
from pathlib import Path

import qturing
import qturing.cli  # noqa: F401  (loads every module, as the benchmark does)

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(group, path, name) for group, targets in layers.GROUPS.items()
            for path, name in targets]


def test_every_traced_name_resolves_to_a_callable():
    targets = traced_targets()
    assert targets
    for group, path, name in targets:
        owner = qturing
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(getattr(owner, name, None)), (group, path, name)
