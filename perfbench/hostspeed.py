"""Host speed: fixed numpy work, timed between the timed parts of a run.

On a shared host the processor runs slower while other tenants load it, by
half or more and for stretches of seconds to minutes, so whole runs land in a
slow or a fast stretch. The run times this fixed work before and after every
set-up and job repetition, and brings each timed part to reference speed: the
speed at which the work takes REFERENCE_S. The work shares no code with
tpcost, so a change to tpcost moves a time at reference speed exactly as it
moves the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.05  # the work's wall time at reference speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 64))
_T = _rng.standard_normal((128, 1))
_XS = _rng.standard_normal((64, 32))
_WS = _rng.standard_normal((32, 32))


def reference_s() -> float:
    """Wall time of the fixed work: training steps of a small two-layer
    network (matmuls, tanh, updates), then many operations on tiny arrays.
    That is the mix of the cost model's training and of one predict call."""
    w1 = np.full((64, 64), 0.01)
    w2 = np.full((64, 1), 0.01)
    t0 = time.perf_counter()
    for _ in range(300):
        h = np.tanh(_X @ w1)
        g = h @ w2 - _T
        gh = (g @ w2.T) * (1.0 - h * h)
        w2 -= 1e-3 * (h.T @ g)
        w1 -= 1e-3 * (_X.T @ gh)
    acc = 0.0
    for _ in range(1500):
        h = np.maximum(_XS @ _WS, 0.0)
        h -= h.mean(axis=0)
        acc += float(h.sum())
    return time.perf_counter() - t0


class HostSpeed:
    """Timings of the reference work at the boundaries of the timed parts."""

    def __init__(self) -> None:
        self.marks = [reference_s()]

    def scale(self) -> float:
        """Factor that brings the part timed since the last boundary to
        reference speed: REFERENCE_S over the mean of the reference work's
        timings at the part's two ends. Marks the next boundary."""
        self.marks.append(reference_s())
        return REFERENCE_S / ((self.marks[-2] + self.marks[-1]) / 2)

    def slowdown(self) -> float:
        """How much slower than reference speed the host ran, over the run."""
        return statistics.median(self.marks) / REFERENCE_S
