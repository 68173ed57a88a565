"""Span tracer that times calls into the ``adasample`` package from outside.

Each traced function is replaced, in every ``adasample`` module that holds
it under any name, by a wrapper that records a span (name, parent, start,
end) and optional counters read from the call's arguments and return
value. The package's modules import functions by name (``from .tensornet
import forward``), so rebinding only the defining module would let the
inner calls escape the trace. :meth:`Tracer.uninstall` puts every original
object back; :func:`snapshot` and :func:`changed_attributes` prove it.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np

PACKAGE = "adasample"

# count(args, kwargs, result) -> {counter name: increment}
Counter = Callable[[tuple, dict, object], dict]


def package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def snapshot() -> dict:
    """Every attribute object of every loaded module of the package."""
    return {(mname, attr): value
            for mname, mod in package_modules().items()
            for attr, value in vars(mod).items()}


def changed_attributes(before: dict) -> list[str]:
    """Attributes that are no longer the object :func:`snapshot` saw."""
    after = snapshot()
    missing = object()
    return sorted(f"{m}.{a}" for m, a in before.keys() | after.keys()
                  if before.get((m, a), missing)
                  is not after.get((m, a), missing))


def self_times(parents: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children of one span run on the parent's thread, one after another,
    so the time they cover is the sum of their durations.
    """
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts,
                                                          dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    own = dur.copy()
    nested = parents >= 0
    np.subtract.at(own, parents[nested], dur[nested])
    return own


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(float("nan"))
            self.starts.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    def add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counters[key] += value

    def wrap(self, name: str, fn: Callable,
             count: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.add(count(args, kwargs, result))
            return result
        return traced

    def install(self, module: str, attr: str, name: str,
                count: Counter | None = None) -> None:
        """Trace ``module.attr`` under ``name`` wherever the package holds
        it; ``module`` must already be imported."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, count)
        for mod in package_modules().values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        names = np.array(self.names, dtype=object)
        return (names, np.array(self.parents, dtype=np.int64),
                np.array(self.starts), np.array(self.ends))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        names, parents, starts, ends = self.arrays()
        own = self_times(parents, starts, ends)
        dur = ends - starts
        out: dict[str, dict[str, float]] = {}
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out

    def write(self, path) -> None:
        """Write every span as gzip CSV: id, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, row in enumerate(zip(self.parents, self.names,
                                          self.starts, self.ends)):
                writer.writerow([sid, *row])
