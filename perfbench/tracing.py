"""Spans and counters recorded around calls into latticechains, from outside.

The traced child process builds one ``Tracer``, installs it before the
package is imported (so each module's import is a span too), then swaps
every traced function for a wrapper at every module attribute that is bound
to it. The package itself is not edited. Spans stay in memory as
``[name_id, start_ns, end_ns, parent_index]`` and are written out once, when
the run ends; ``summarise`` turns them into per-function and per-layer
numbers.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "latticechains"
LAYERS = ("enumeration", "geometry", "polyalgebra", "verification", "montecarlo", "explorer", "cli")

# (layer, attribute path inside the layer's module) of every traced callable.
# Generator functions get one span per next() call.
TRACED = (
    ("geometry", "polygon_stats"),
    ("geometry", "triangle_interior_points"),
    ("geometry", "convex_hull_chain"),
    ("enumeration", "enumerate_polygons"),
    ("enumeration", "enumerate_D"),
    ("polyalgebra", "_Poly.__add__"),
    ("polyalgebra", "_Poly.__mul__"),
    ("polyalgebra", "term_x_pow_times_one_minus_x_pow"),
    ("verification", "verify_all"),
    ("verification", "lhs_main_via_polygons"),
    ("verification", "unit_sum"),
    ("verification", "unit_sum_process"),
    ("montecarlo", "simulate"),
    ("montecarlo", "compare"),
    ("explorer", "search_unit_multisets"),
    ("explorer", "triangle_signature"),
    ("explorer", "match_signature"),
    ("explorer", "unit_sum_of"),
    ("cli", "main"),
    ("cli", "records_to_csv"),
    ("cli", "records_from_csv"),
    ("cli", "records_to_json"),
    ("cli", "records_from_json"),
    ("cli", "PolygonRecord.validate"),
)

# Span names of the two dunder methods, as the metrics call them.
SPAN_NAMES = {"_Poly.__add__": "add", "_Poly.__mul__": "mul"}

# Counts read off a traced call's return value.
RESULT_COUNTS = {
    "verification.verify_all": ("verification.checks_failed", lambda r: sum(not ok for _, ok in r.checks)),
    "montecarlo.simulate": ("montecarlo.trials", lambda r: r.total),
    "explorer.search_unit_multisets": ("explorer.found", len),
}


class Tracer:
    """In-memory spans plus named counters for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name_id, perf_counter_ns(), 0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        """A stand-in for fn that records a span (per next() for generators)."""
        calls = name + ".calls"
        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.counts[calls] += 1
                inner = fn(*args, **kwargs)
                while True:
                    span = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    self.counts[items] += 1
                    yield item

            return traced_generator

        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def time_imports(self) -> None:
        """Record each package module's import as a span '<module>.import'.

        Must run before the package is first imported.
        """
        sys.meta_path.insert(0, _TimedImportFinder(self))

    def install(self) -> None:
        """Swap every TRACED callable for its wrapper wherever it is bound."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, path in TRACED:
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{layer}.{SPAN_NAMES.get(path, path)}", original)
            setattr(owner, attr, wrapper)
            if not classes:
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound_name, wrapper)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


class _TimedImportFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer
        name = fullname.removeprefix(PACKAGE + ".") + ".import"

        def timed_exec_module(module):
            span = tracer.begin(name)
            try:
                exec_module(module)
            finally:
                tracer.end(span)

        spec.loader.exec_module = timed_exec_module
        return spec


def summarise(trace: dict) -> dict:
    """Per span name: calls (spans), self and total nanoseconds; per layer:
    self nanoseconds; plus the convex hulls built directly by simulate."""
    names = trace["names"]
    spans = trace["spans"]
    self_ns = [end - start for _, start, end, _ in spans]
    hulls_in_simulate = 0
    hull_id = names.index("geometry.convex_hull_chain") if "geometry.convex_hull_chain" in names else -1
    simulate_id = names.index("montecarlo.simulate") if "montecarlo.simulate" in names else -1
    for name_id, start, end, parent in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
            if name_id == hull_id and spans[parent][0] == simulate_id:
                hulls_in_simulate += 1
    by_name: Counter = Counter()
    for (name_id, _, _, _), ns in zip(spans, self_ns):
        by_name[names[name_id]] += ns
    by_layer = Counter()
    for name, ns in by_name.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            by_layer[layer] += ns
    return {"self_ns": dict(by_name), "layer_self_ns": dict(by_layer),
            "hulls_in_simulate": hulls_in_simulate}
