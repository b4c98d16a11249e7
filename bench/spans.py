"""In-memory span recorder that wraps cdmonitor's module functions from outside.

A span is (name, start, end, parent).  Spans are appended to parallel
lists while the program runs and written to one ``.npz`` file at exit;
self time and ancestry are derived afterwards by ``SpanTable``.  The
recorder is single-threaded by design: traced sweeps run with ``--jobs 1``
so every span lands in one process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "cdmonitor"
# Modules whose public functions are wrapped, in dependency order.
LAYERS = ("rbm", "datasets", "training", "criteria", "experiment", "cli")

# Private functions that are layer boundaries all the same, with the span
# name they are recorded under.
EXTRA = {"experiment._measure": "experiment.measure"}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._open.pop()

        return wrapper

    def save(self, path, **scalars) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            **{k: np.float64(v) for k, v in scalars.items()},
        )


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every public function of each layer module, plus ``EXTRA``.

    Modules import each other's functions by name (``from .rbm import
    hidden_conditional_mean``), so each wrapper replaces the original in
    every loaded module of the package that holds it, not only where it is
    defined.
    """
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                targets[obj] = f"{layer}.{attr}"
    for qualified, span_name in EXTRA.items():
        layer, attr = qualified.split(".")
        targets[getattr(importlib.import_module(f"{PACKAGE}.{layer}"), attr)] = span_name
    wrappers = {fn: recorder.wrap(name, fn) for fn, name in targets.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


class SpanTable:
    """Spans loaded back as arrays; parents always precede their children.

    Every time, the extra scalars included (all durations), is multiplied
    by ``scale``, the machine's speed relative to the reference CPU while
    the spans were recorded (see run.py).
    """

    def __init__(self, names, name, start, end, parent, scale: float = 1.0, **scalars) -> None:
        self.names = [str(n) for n in names]
        self.name = np.asarray(name)
        self.start = np.asarray(start, dtype=np.float64) * scale
        self.end = np.asarray(end, dtype=np.float64) * scale
        self.parent = np.asarray(parent, dtype=np.int64)
        self.scalars = {k: float(v) * scale for k, v in scalars.items()}
        self.duration = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(
            self.parent[nested], weights=self.duration[nested], minlength=self.name.size
        )
        # Children of one span run one after another in a single thread, so
        # the part of its interval they cover is the sum of their durations.
        self.self_time = self.duration - covered

    @classmethod
    def load(cls, path, scale: float = 1.0) -> "SpanTable":
        with np.load(path) as data:
            return cls(scale=scale, **{k: data[k] for k in data.files})

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def within(self, ancestor: str) -> np.ndarray:
        """True for spans that have a span called ``ancestor`` above them."""
        is_anc = self.mask(ancestor)
        inside = np.zeros(self.name.size, dtype=bool)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or is_anc[p]
        return inside

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def layer_self_total(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def per_call(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else float("nan")
