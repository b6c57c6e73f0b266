"""In-memory spans and counters around a library's functions, from outside.

A Tracer replaces module attributes, class methods and dict entries with
wrappers that record one span per call: name, start, end, parent span and
an optional amount of work (rows, say).  Nothing under the traced package
changes on disk, and `restore()` puts every original object back.

A wrapper that is entered while a span of the same name is already open
passes straight through, so recursive or layered entry points (a Haar
sampler that calls another, a symmetrised map inside a symmetrised map)
count once, at the outermost call.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self._patches: list = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.reset()

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; patches stay in place."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list = []
        self._open: Counter = Counter()
        self.counts.clear()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def traced(self, fn: Callable, name: str,
               work: Optional[Callable] = None,
               after: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span.

        work(args, kwargs) gives the span's amount of work; after(args,
        kwargs, result) runs once the call returns.
        """
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._open[nid]:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.work.append(work(args, kwargs) if work is not None else 0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._open[nid] += 1
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        """Trace owner.attr (a module function or a class's method)."""
        self._patch(owner, attr, lambda fn: self.traced(fn, name, **hooks))

    def on_result(self, owner, attr: str, after: Callable) -> None:
        """Call after(result) on every result of owner.attr, recording no
        span (used to trace the objects a builder returns)."""
        def patch(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        self._patch(owner, attr, patch)

    def _patch(self, owner, attr: str, patch: Callable) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, patch(original))
        self._patches.append((owner, attr, original, had_own))

    def wrap_item(self, mapping: dict, key, name: str, **hooks) -> None:
        original = mapping[key]
        mapping[key] = self.traced(original, name, **hooks)
        self._patches.append((mapping, key, original, None))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own is None:
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self.enabled = False

    # -- reading ----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time."""
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": np.array(self.name_id, dtype=np.int32), "parent": parent,
                "start": np.array(self.start), "dur": dur, "self": dur - child,
                "work": np.array(self.work)}

    def save(self, path: str) -> None:
        """Write the recorded spans (compressed numpy archive)."""
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=a["name_id"],
                            parent=a["parent"], start=a["start"], dur=a["dur"],
                            work=a["work"])
