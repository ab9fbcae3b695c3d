"""Span tracing of g2coflow from outside the package.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent), in every g2coflow
module namespace that binds the original, so calls made through
`from .g2 import circ6` bindings are caught as well as calls through the
defining module. `KForm.dense` gets a counter instead of a span: it is
called on every coefficient access and a span there would dominate the cost.

Spans live in flat arrays while the run lasts; `summary()` turns them into
per-function call counts and self times (duration minus the time covered by
direct child spans), and `write()` stores them as an .npz file.

Nothing here is required to exist in the program: a layer module or a named
function that is missing is reported by `absent()`, and metrics built on it
read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "g2coflow"
LAYERS = (
    "cli",
    "exterior",
    "metric_lie",
    "g2",
    "almost_abelian",
    "coflow",
    "soliton",
    "planar",
)
# Leaf helpers called per permutation inside KForm.dense and the wedge
# table builders; a span per call would cost more than the work measured.
SKIP = frozenset({"exterior.perm_sign"})
OP = "bench.op"


def public_functions(module) -> dict[str, object]:
    """Plain functions a module defines and exports (`__all__`, else no `_`)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records spans of wrapped g2coflow calls inside benchmark operations."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._name = array("l")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.missing_layers: list[str] = []
        self.recording = False
        self.dense_fills = 0
        self.dense_wrapped = False

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        originals: dict[int, str] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for fname, fn in public_functions(module).items():
                qual = f"{layer}.{fname}"
                if qual not in SKIP:
                    originals[id(fn)] = qual
        wrappers: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == PACKAGE or modname.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                qual = originals.get(id(value))
                if qual is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, qual)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
                self.wrapped.add(qual)
        self._count_dense_fills()

    def _count_dense_fills(self) -> None:
        exterior = sys.modules.get(f"{PACKAGE}.exterior")
        kform = getattr(exterior, "KForm", None)
        dense = getattr(kform, "dense", None)
        if not inspect.isfunction(dense):
            return
        tracer = self

        @functools.wraps(dense)
        def counted(form):
            # Without a `_dense` cache every call builds the array afresh.
            if tracer.recording and getattr(form, "_dense", None) is None:
                tracer.dense_fills += 1
            return dense(form)

        self._patches.append((kform, "dense", dense))
        kform.dense = counted
        self.dense_wrapped = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, qual: str):
        name_id = self._name_id(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- span recording -------------------------------------------------

    def _name_id(self, qual: str) -> int:
        if qual not in self._name_ids:
            self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self._name_ids[qual]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._name.append(name_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def op_span(self):
        """Context manager for one benchmark operation (the root span)."""
        return _OpSpan(self)

    # -- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self._start, dtype=float).copy()
        end = np.frombuffer(self._end, dtype=float).copy()
        parent = np.asarray(self._parent, dtype=np.int64)
        name = np.asarray(self._name, dtype=np.int64)
        return {"start": start, "end": end, "parent": parent, "name": name}

    def summary(self) -> dict[str, dict[str, float]]:
        """{function: {"calls": n, "self_s": s, "total_s": s}} over recorded spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=own, minlength=len(self.names))
        total_s = np.bincount(a["name"], weights=dur, minlength=len(self.names))
        return {
            qual: {
                "calls": float(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
            }
            for i, qual in enumerate(self.names)
        }

    def absent(self, wanted: list[str]) -> list[str]:
        """Names among `wanted` (layer or layer.function) that were not wrapped."""
        out = []
        for name in wanted:
            if name == "exterior.KForm.dense":
                found = self.dense_wrapped
            elif "." in name:
                found = name in self.wrapped
            else:
                found = name not in self.missing_layers
            if not found:
                out.append(name)
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _OpSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.idx = -1

    def __enter__(self):
        self.tracer.recording = True
        self.idx = self.tracer._open(self.tracer._name_id(OP))
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)
        self.tracer.recording = False


# Per-layer metrics, all per operation of the traced run. Names of the form
# layer.self_s and layer.function.{calls,self_s,total_s} come from the spans
# (total_s includes the function's children); the rest from counters the workloads read off the program's outputs.
PER_LAYER = (
    ("cli.self_s", "s/op"),
    ("exterior.self_s", "s/op"),
    ("metric_lie.self_s", "s/op"),
    ("g2.self_s", "s/op"),
    ("almost_abelian.self_s", "s/op"),
    ("coflow.self_s", "s/op"),
    ("soliton.self_s", "s/op"),
    ("planar.self_s", "s/op"),
    ("g2.canonical_g2.calls", "calls/op"),
    ("g2.canonical_g2.self_s", "s/op"),
    ("g2.canonical_g2.total_s", "s/op"),
    ("g2.circ6.calls", "calls/op"),
    ("g2.circ6.self_s", "s/op"),
    ("almost_abelian.scalar_diagnostics.calls", "calls/op"),
    ("coflow.rhs_evals", "evals/op"),
    ("coflow.accepted_steps", "steps/op"),
    ("coflow.rhs_evals_per_step", "evals/step"),
    ("coflow.write_trace_csv.self_s", "s/op"),
    ("coflow.trace_bytes", "bytes/op"),
    ("coflow.coflow_pde_residuals.self_s", "s/op"),
    ("coflow.reconstruct_h.self_s", "s/op"),
    ("exterior.dense_fills", "fills/op"),
    ("exterior.wedge.self_s", "s/op"),
    ("exterior.from_dense.self_s", "s/op"),
    ("exterior.theta.self_s", "s/op"),
    ("exterior.hodge_star.self_s", "s/op"),
    ("exterior.pullback.self_s", "s/op"),
    ("metric_lie.ce_differential.calls", "calls/op"),
    ("metric_lie.ce_differential.self_s", "s/op"),
    ("metric_lie.hodge_laplacian.calls", "calls/op"),
    ("soliton.certify.calls", "calls/op"),
    ("soliton.find_derivation.calls", "calls/op"),
    ("soliton.find_derivation.self_s", "s/op"),
    ("soliton.semi_algebraic_per_search", "ratio"),
)
# Metrics read from outputs rather than spans, with what they rest on.
_COUNTED = {
    "coflow.rhs_evals": "coflow",
    "coflow.accepted_steps": "coflow",
    "coflow.rhs_evals_per_step": "coflow",
    "coflow.trace_bytes": "coflow.write_trace_csv",
    "exterior.dense_fills": "exterior.KForm.dense",
    "soliton.semi_algebraic_per_search": "soliton.find_derivation",
}


def per_layer_metrics(
    tracer: Tracer, counters: dict, n_ops: int, time_scale: float = 1.0
) -> tuple[dict, list[str]]:
    """({name: (value, unit)}, absent names); absent metrics read 0.

    Span times are multiplied by time_scale, the run's ratio of
    reference-speed to raw operation time (see speed.py).
    """
    table = tracer.summary()
    by_layer: dict[str, float] = {}
    for qual, stats in table.items():
        layer = qual.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + stats["self_s"]
    n = max(n_ops, 1)
    metrics, absent = {}, []
    for name, unit in PER_LAYER:
        basis = _COUNTED.get(name) or name.rsplit(".", 1)[0]
        if tracer.absent([basis]):
            absent.append(name)
            metrics[name] = (0.0, unit)
            continue
        if name == "coflow.rhs_evals_per_step":
            steps = counters.get("accepted_steps", 0)
            value = counters.get("rhs_evals", 0) / steps if steps else 0.0
        elif name == "soliton.semi_algebraic_per_search":
            searches = table.get("soliton.find_derivation", {}).get("calls", 0.0)
            value = counters.get("semi_algebraic", 0) / searches if searches else 0.0
        elif name == "exterior.dense_fills":
            value = tracer.dense_fills / n
        elif name in _COUNTED:
            value = counters.get(name.split(".", 1)[1], 0) / n
        elif name.count(".") == 1:
            value = time_scale * by_layer.get(basis, 0.0) / n
        else:
            stat = name.rsplit(".", 1)[1]
            value = table.get(basis, {}).get(stat, 0.0) / n
            if stat != "calls":
                value *= time_scale
        metrics[name] = (value, unit)
    return metrics, absent
