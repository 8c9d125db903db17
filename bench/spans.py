"""Span recording at the public boundaries of the sheafspectra layers.

Used by traced runs only.  ``Recorder.patch`` rebinds each public
function of a layer, in every ``sheafspectra`` namespace that imports it
from another layer and at the benchmark's own call sites (the package
root and ``sheafspectra.cli.main``), to a wrapper that records a span:
its name, start, end and parent.  Calls inside one layer are not
spanned, so a function's self time includes its own module's helpers.
Nothing under ``src/`` is edited; ``restore`` undoes the rebinding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("invariants", "spectrum", "cohomology", "sheafcalc", "workbench", "cli")

# per-function metrics reported for each layer
REPORTED = {
    "invariants": ("euler_characteristic", "chern_from_resolution", "kernel_invariants"),
    "spectrum": ("enumerate_spectra", "validate_spectrum", "c3_from_spectrum"),
    "cohomology": ("table_from_spectrum", "spectrum_from_table", "chi_consistency",
                   "p1_cohomology"),
    "sheafcalc": ("splice_ses", "splice_bounds", "monad_table", "quotient_table",
                  "recipe_table", "construction_spectrum"),
    "workbench": ("catalog_load", "component_report", "rao_pairs", "realizability_gap",
                  "check_slope_examples"),
    "cli": ("main",),
}

# table methods called across layers (from the benchmark and the splicer)
_TABLE_METHODS = ("from_json", "from_json_dict", "to_json")

# work counters taken from a wrapped function's result
_COUNTERS = {
    ("spectrum", "enumerate_spectra"): ("spectrum.spectra_emitted", len),
    ("cohomology", "table_from_spectrum"): ("cohomology.rows_generated",
                                            lambda table: table.hi - table.lo + 1),
}


class Recorder:
    """In-memory spans plus running per-name aggregates."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # span name id -> (layer, function)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.busy_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {name: 0 for name, _ in _COUNTERS.values()}
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []  # [span index, layer, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _name_id(self, layer: str, func: str) -> int:
        self.names.append((layer, func))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        return len(self.names) - 1

    def wrap(self, fn, layer: str, func: str):
        nid = self._name_id(layer, func)
        counter = _COUNTERS.get((layer, func))
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            self._enter(nid, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._exit(nid, layer, ok)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return spanned

    def _enter(self, nid: int, layer: str) -> None:
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._depth[layer] += 1
        self._stack.append([index, layer, perf_counter(), 0.0])

    def _exit(self, nid: int, layer: str, ok: bool) -> None:
        end = perf_counter()
        index, _, start, child = self._stack.pop()
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.errors[nid] += not ok
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy_s[layer] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def patch(self, package) -> None:
        """Rebind every cross-layer reference to a public function."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(fn, layer, name))
        for ns in (package, *modules.values()):
            for name, value in list(vars(ns).items()):
                entry = wrapped.get(id(value)) if inspect.isfunction(value) else None
                if entry and (ns is package or entry[0].__module__ != ns.__name__):
                    self._rebind(ns, name, entry[1])
        # the benchmark's own call site into the cli layer
        self._rebind(modules["cli"], "main", wrapped[id(modules["cli"].main)][1])
        table = modules["cohomology"].CohomologyTable
        for name in _TABLE_METHODS:
            raw = table.__dict__[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            spanned = self.wrap(fn, "cohomology", f"CohomologyTable.{name}")
            self._rebind(table, name,
                         classmethod(spanned) if isinstance(raw, classmethod) else spanned)

    def _rebind(self, ns, name: str, value) -> None:
        self._undo.append((ns, name, ns.__dict__[name]))
        setattr(ns, name, value)

    def restore(self) -> None:
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)

    # ---------------------------------------------------------- results

    def metrics(self) -> dict:
        """Per-layer and per-function aggregates, times in ms."""
        by_name: dict[tuple[str, str], list] = {}
        for nid, key in enumerate(self.names):
            agg = by_name.setdefault(key, [0, 0.0, 0])
            agg[0] += self.calls[nid]
            agg[1] += self.self_s[nid]
            agg[2] += self.errors[nid]
        out = {}
        for layer in LAYERS:
            rows = [agg for (lay, _), agg in by_name.items() if lay == layer]
            out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
            out[f"{layer}.busy_ms"] = (self.busy_s[layer] * 1e3, "ms")
            out[f"{layer}.self_ms"] = (sum(r[1] for r in rows) * 1e3, "ms")
            out[f"{layer}.errors"] = (sum(r[2] for r in rows), "count")
            for func in REPORTED[layer]:
                calls, self_s, _ = by_name.get((layer, func), (0, 0.0, 0))
                out[f"{layer}.{func}.calls"] = (calls, "count")
                out[f"{layer}.{func}.self_ms"] = (self_s * 1e3, "ms")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def span_count(self) -> int:
        return len(self.span_name)
