"""The benchmark's tracer wraps package functions by name from outside and
reads counts off their results; a rename, a deletion or a changed return
shape here would only surface as a crash or a silent zero in a traced run."""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from latticechains.enumeration import enumerate_D, enumerate_polygons
from latticechains.explorer import search_unit_multisets
from latticechains.geometry import TriangleSpec
from latticechains.montecarlo import SimulationConfig, simulate
from latticechains.verification import verify_all

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for layer, path in tracing.TRACED:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{tracing.PACKAGE}.{layer}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{tracing.PACKAGE}.{layer}.{path}"


def test_result_counts_read_real_results():
    results = {
        "verification.verify_all": (verify_all(2, 5), 0),
        "montecarlo.simulate": (simulate(SimulationConfig(TriangleSpec(3, 4), Fraction(1, 3), 100, 7)), 100),
        "explorer.search_unit_multisets": (search_unit_multisets(1, 1, 2), 1),
    }
    counts = load_tracing().RESULT_COUNTS
    assert counts.keys() == results.keys()
    for name, (_, extract) in counts.items():
        result, expected = results[name]
        assert extract(result) == expected, name


def test_item_counted_functions_are_generator_functions():
    # the tracer counts a generator function's items, one per next()
    assert inspect.isgeneratorfunction(enumerate_polygons)
    assert inspect.isgeneratorfunction(enumerate_D)
