"""The machine's speed, sampled while the benchmark's operations run.

The benchmark shares its machine, and the time a fixed piece of work takes
can change by a factor of two within seconds.  A SpeedProbe interrupts the
main thread with a timer signal every INTERVAL_S seconds and times a short
reference kernel that does not use the library.  An operation's time at
reference speed is its own time, less the kernel's, scaled by the kernel's
nominal time over its median time while the operation ran: a figure that
moves when the library's speed changes, and much less when the machine's
does.  Work that runs outside the timer (set-up) is scaled the same way
by reference times taken just before and just after it; for an import the
reference is a fresh import of a few standard-library modules.
"""

from __future__ import annotations

import importlib
import signal
import sys
import time
from array import array

import numpy as np

INTERVAL_S = 0.025
REFERENCE_RUNS = 5  # reference runs before and after each piece of work timed by around()
# Median reference times on a quiet core of a 2-CPU x86-64 machine (Python
# 3.11, numpy 2.4, OpenBLAS).  They only turn reference units into seconds;
# comparisons between runs on one machine do not depend on them.
NOMINAL_S = {"batched": 0.30e-3, "mixed": 0.55e-3}
NOMINAL_IMPORT_S = 3.5e-3
# Loading bytecode and running module bodies slow down less than the numeric
# kernels on a busy machine, so an import is scaled by other imports.
IMPORT_REFERENCE = ("argparse", "dataclasses", "fractions", "json", "statistics")


def seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def around(fn, reference, nominal: float):
    """(wall seconds, seconds at reference speed) of fn(): its wall time
    scaled by `nominal` over the median time of reference() in the
    REFERENCE_RUNS runs just before and just after it."""
    costs = [seconds(reference) for _ in range(REFERENCE_RUNS)]
    wall = seconds(fn)
    costs += [seconds(reference) for _ in range(REFERENCE_RUNS)]
    return wall, wall * nominal / float(np.median(costs))


def fresh_import(modules) -> None:
    """Import `modules` afresh in this process: every loaded module of
    their top-level packages is dropped first and put back afterwards, so
    other code keeps using the loaded ones."""
    packages = {name.split(".")[0] for name in modules}

    def ours():
        return [name for name in sys.modules if name.split(".")[0] in packages]

    loaded = {name: sys.modules.pop(name) for name in ours()}
    try:
        for name in modules:
            importlib.import_module(name)
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(loaded)


def import_around(modules):
    """(wall seconds, seconds at reference speed) of a fresh import of
    `modules`, scaled by fresh imports of IMPORT_REFERENCE."""
    return around(lambda: fresh_import(modules), lambda: fresh_import(IMPORT_REFERENCE),
                  NOMINAL_IMPORT_S)


class SpeedProbe:
    """Context manager sampling the reference kernel of one kind.

    "batched" runs a tanh MLP forward and linear algebra on a batch of 128
    rows, like a training step.  "mixed" adds three per-row steps, each
    building a Philox generator and running the same work on one row, like
    the many B=1 draws of an evaluation.
    """

    def __init__(self, kind: str):
        if kind not in ("batched", "mixed"):
            raise ValueError(f"unknown reference kernel {kind!r}")
        gen = np.random.Generator(np.random.Philox(7))
        self._w1, self._w2 = gen.standard_normal((4, 64)), gen.standard_normal((64, 64))
        self._x, self._m = gen.standard_normal((128, 4)), gen.standard_normal((128, 2, 2))
        self.kind = kind
        self.starts, self.costs = array("d"), array("d")

    def kernel(self) -> None:
        h = np.tanh(np.tanh(self._x @ self._w1) @ self._w2)
        np.linalg.cond(self._m)
        np.linalg.qr(h[:, :4].reshape(32, 4, 4))
        if self.kind == "batched":
            return
        for i in range(3):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(i,))))
            a = gen.standard_normal((1, 2, 2))
            q, _ = np.linalg.qr(a)
            h = np.tanh(np.tanh(a.reshape(1, 4) @ self._w1) @ self._w2)
            np.linalg.norm(h - q.reshape(1, 4).sum())

    def _on_timer(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.costs.append(seconds(self.kernel))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, fn):
        """(wall seconds, seconds at reference speed) of fn(), run while the
        timer is off, scaled by the kernel's times around it."""
        return around(fn, self.kernel, NOMINAL_S[self.kind])

    def normalise(self, t0: float, t1: float):
        """(wall seconds, seconds at reference speed) of an operation that ran
        from t0 to t1, both without the kernel time spent inside it."""
        starts, costs = np.array(self.starts), np.array(self.costs)
        seconds = (t1 - t0) - costs[(starts >= t0) & (starts < t1)].sum()
        near = (starts >= t0 - INTERVAL_S) & (starts < t1 + INTERVAL_S)
        if not near.any():
            near = np.abs(starts - t0) == np.abs(starts - t0).min()
        return seconds, seconds * NOMINAL_S[self.kind] / float(np.median(costs[near]))
