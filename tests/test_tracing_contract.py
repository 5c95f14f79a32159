"""The benchmark's tracer wraps package functions by name from outside; a
rename or deletion here would only surface as a crash of a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


def test_every_traced_name_resolves():
    package, traced = load_traced()
    assert traced
    for layer, path in traced:
        owner = importlib.import_module(f"{package}.{layer}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{package}.{layer}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{package}.{layer}.{path}"
