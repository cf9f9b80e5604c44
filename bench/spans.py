"""Span tracing of the package's layers from outside the package.

A `Tracer` records one span per call of a wrapped function: name, start,
end and parent span.  `Tracer.install` wraps each layer function of the
`tcpgen` package at every name a caller can look it up by: module-level
functions under each module attribute bound to the function object (so
`from ... import` bindings are covered), methods on their class.  Each span
also records its root: the outermost span open when it started, which is
the benchmark operation (one decode, one training epoch) it belongs to.
Spans stay in memory until the run ends; `summary` derives calls, total and
self time per layer, where self time is a span's duration minus the time
its child spans cover.  Tracing runs in one thread only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

# (module, owner inside the module or None, attribute) -> span name
# "<module>.<function>" / "<module>.<Class>.<method>".
LAYERS = (
    ("lexicon", None, "tokenize_word"),
    ("biasing_lists", None, "build_utterance_list"),
    ("biasing_tree", None, "build_tree"),
    ("biasing_tree", None, "valid_set"),
    ("biasing_tree", None, "advance_state"),
    ("toy_models", "ToyAED", "encode"),
    ("toy_models", "ToyRNNT", "encode"),
    ("toy_models", "ToyAED", "step"),
    ("toy_models", "ToyRNNT", "predictor_step"),
    ("toy_models", "ToyRNNT", "joint_rows"),
    ("toy_models", "ToyAED", "loss"),
    ("toy_models", "ToyRNNT", "loss"),
    ("toy_models", None, "transducer_loss"),
    ("toy_models", None, "build_train_tree"),
    ("toy_models", "Adam", "step"),
    ("autodiff", "Tensor", "backward"),
    ("tcpgen_core", None, "ptr_attention"),
    ("tcpgen_core", None, "pointer_step"),
    ("tcpgen_core", None, "generation_prob"),
    ("tcpgen_core", None, "interpolate_aed"),
    ("tcpgen_core", None, "interpolate_rnnt"),
    ("decoding", None, "beam_search_aed"),
    ("decoding", None, "beam_search_rnnt"),
    ("eval_scoring", None, "score_set"),
)


def layer_name(module: str, owner: str | None, attr: str) -> str:
    return ".".join(p for p in (module, owner, attr) if p)


LAYER_NAMES = tuple(layer_name(*spec) for spec in LAYERS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, indexed by span number
        self.name_id = array("i")
        self.parent = array("i")    # -1 for a root span
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]           # numbers of the open spans, innermost last
        self._patches: list[tuple[object, str, object]] = []
        # key -> [sum, count] of values observers read off call results
        self.counters: dict[str, list[float]] = {}
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.root.append(self._open[1] if len(self._open) > 1 else idx)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, observe=None):
        """`fn` recording a span per call; `observe(args, result)` runs
        after a call returns."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own steps."""
        idx = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def count(self, key: str, value: float) -> None:
        acc = self.counters.setdefault(key, [0.0, 0])
        acc[0] += value
        acc[1] += 1

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, observers: dict) -> None:
        """Wrap every layer in LAYERS, with its observer if `observers` has
        one; names absent from the package are recorded in `missing`."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "tcpgen" or k.startswith("tcpgen."))]
        for spec in LAYERS:
            module_name, owner_name, attr = spec
            name = layer_name(*spec)
            module = sys.modules.get(f"tcpgen.{module_name}")
            owner = module
            if module is not None and owner_name is not None:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(original, name, observers.get(name))
            if owner_name is not None:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def current_root(self) -> str | None:
        """Name of the outermost open span."""
        return (self.names[self.name_id[self._open[1]]]
                if len(self._open) > 1 else None)

    def summary(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s.  With `root`, only spans
        whose root span has that name count."""
        n = len(self.start)
        names = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.intc)[:n]
        par = np.frombuffer(self.parent, dtype=np.intc)[:n]
        dur = np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        if root is not None:
            roots = np.frombuffer(self.root, dtype=np.intc)[:n]
            keep = nid[roots] == self._name_ids.get(root, -1)
            nid, dur, own = nid[keep], dur[keep], own[keep]
        calls = np.bincount(nid, minlength=names)
        total = np.bincount(nid, weights=dur, minlength=names)
        self_s = np.bincount(nid, weights=own, minlength=names)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path: str) -> None:
        """Raw spans: a JSON header line (names, count), then the name id,
        parent, root (int32 each) and start, end (float64 each) arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_id:i4", "parent:i4", "root:i4",
                             "start_s:f8", "end_s:f8"]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name_id, self.parent, self.root, self.start,
                        self.end):
                arr.tofile(f)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    def noop(x):
        return x

    best = float("inf")
    for _ in range(3):
        traced = Tracer().wrap(noop, "calibration")
        t0 = time.perf_counter()
        for i in range(n):
            noop(i)
        t1 = time.perf_counter()
        for i in range(n):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
