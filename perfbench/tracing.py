"""Spans around the calls into each liefock module, for the traced run.

Only the benchmark's own code does this. `Tracer.install` rebinds the
module-level names of the package, that is its functions and the
constructors of its classes, to wrappers; `Tracer.restore` puts the
originals back. A call opens a span only when it enters a layer other than
the innermost open span's, or comes from outside the package. Calls inside a
layer run unwrapped, so a layer's self time is the time spent in its own
code. Each span records its name, start, end and parent; spans stay in memory
until `dump`.

FockBasis.index_of and contains are counted, not timed: they run once per
basis state inside transfer_op. output.fmt_float is timed but kept out of the
span list, because it runs once per CSV cell.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("fock", "operators", "algebra", "lattice", "dynamics", "coherent", "scenarios", "output", "cli")
UNSTORED = {"output.fmt_float"}
COUNTED = {"fock.FockBasis.index_of", "fock.FockBasis.contains"}


def _fock_states(counts, args, kwargs, result, dur):
    counts["fock.states"] += len(args[0].states)


def _operator_nnz(counts, args, kwargs, result, dur):
    counts["operators.nnz"] += args[0].nnz


def _closure(counts, args, kwargs, result, dur):
    if result is not None:
        counts["algebra.span_dim"] += result.dimension
        interior = kwargs.get("interior")
        counts["algebra.interior_states"] += (
            int(np.count_nonzero(interior)) if interior is not None else list(args[0])[0].dim
        )


def _counter(key, attribute):
    def hook(counts, args, kwargs, result, dur):
        if result is not None:
            value = getattr(result, attribute)
            counts[key] += value if isinstance(value, int) else len(value)

    return hook


def _evolve(counts, args, kwargs, result, dur):
    H = args[0] if args else kwargs["H"]
    times = args[2] if len(args) > 2 else kwargs["times"]
    method = args[3] if len(args) > 3 else kwargs.get("method", "dense_eig")
    counts["dynamics.dim"] += H.dim
    counts["dynamics.times"] += len(times)
    if dur is not None:
        counts["dynamics.dense_s" if method == "dense_eig" else "dynamics.krylov_s"] += dur


def _husimi(space):
    def hook(counts, args, kwargs, result, dur):
        if result is not None:
            counts["coherent.nodes"] += result.values.size
        if dur is not None:
            counts[f"coherent.{space}_s"] += dur

    return hook


HOOKS = {
    "fock.FockBasis.__init__": _fock_states,
    "operators.SparseOperator.__init__": _operator_nnz,
    "algebra.lie_closure": _closure,
    "lattice.build_fsl": _counter("lattice.edges", "edges"),
    "lattice.weight_coordinates": _counter("lattice.sites", "sites"),
    "lattice.plaquette_fluxes": _counter("lattice.cycles", "cycle_count"),
    "dynamics.evolve": _evolve,
    **{f"coherent.husimi_{space}": _husimi(space) for space in ("sphere", "plane", "cylinder", "disk")},
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (id, parent id or -1, name index, start, end)
        self.stack = []  # open spans: [id, layer, time covered by child spans]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = Counter()
        self._next_id = 0
        self._originals = []

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(name)
        stack, counts, self_s, calls, spans = self.stack, self.counts, self.self_s, self.calls, self.spans
        name_index = len(self.names)
        self.names.append(name)
        stored = name not in UNSTORED

        if name in COUNTED:
            def wrapper(*args, **kwargs):
                counts["fock.lookups"] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(wrapper, fn)

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, kwargs, result, None)
                return result
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                if stored:
                    spans.append((span_id, parent, name_index, start, end))
                if hook is not None:
                    hook(counts, args, kwargs, result, duration)

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        modules = {f"liefock.{layer}": importlib.import_module(f"liefock.{layer}") for layer in LAYERS}
        wrappers = {}

        def rebind(owner, attribute, fn, layer, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(layer, name, fn)
            self._originals.append((owner, attribute, fn))
            setattr(owner, attribute, wrappers[fn])

        for module in modules.values():
            for attribute, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None)
                if home not in modules:
                    continue
                layer = home.split(".")[-1]
                if inspect.isfunction(obj):
                    rebind(module, attribute, obj, layer, f"{layer}.{obj.__name__}")
                elif inspect.isclass(obj) and home == module.__name__:
                    for method in ("__init__", "index_of", "contains"):
                        fn = vars(obj).get(method)
                        if inspect.isfunction(fn) and (method == "__init__" or obj.__name__ == "FockBasis"):
                            rebind(obj, method, fn, layer, f"{layer}.{obj.__name__}.{method}")

    def restore(self):
        while self._originals:
            owner, attribute, fn = self._originals.pop()
            setattr(owner, attribute, fn)

    def layer_metrics(self):
        """Per-layer self times, call counts and work counters of this trace."""
        metrics = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        metrics.update({f"{layer}.calls": self.calls[layer] for layer in LAYERS})
        metrics.update(self.counts)
        return metrics

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
