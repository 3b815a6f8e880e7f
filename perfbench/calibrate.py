"""Host-speed calibration: a fixed kernel timed between flows and units.

The reference host is a shared VM whose speed drifts by 15-25% over
minutes, and by up to 2x between quiet and busy hours, with CPU time
tracking wall time (see README.md, "Host noise").  Longer runs do not
average that out.  Timing a fixed kernel that uses none of the program's
code before and after every flow gives the host's speed at that moment,
and the benchmark reports its times scaled to a host on which the kernel
takes :data:`REFERENCE_S`.  A change to the program moves the scaled
times in full; most of a change of host speed cancels out.

The kernel mixes what the workloads spend their time on: interpreter
arithmetic, attribute and dict access over a small object graph, and
numpy calls on short arrays.  A large-array numpy pass tracked the
workloads worse and was left out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel wall on the reference host (2-core Xeon VM, 2.1 GHz).
REFERENCE_S = 0.008
#: Kernel runs per calibration point; their median is the point.
RUNS = 5


class _Node:
    __slots__ = ("name", "fanin", "arrival")

    def __init__(self, name: str, fanin: list[str]) -> None:
        self.name = name
        self.fanin = fanin
        self.arrival = 0.0


_GRAPH = [_Node(f"n{i}", [f"n{j}" for j in range(max(0, i - 3), i)])
          for i in range(1500)]
_SHORT = np.arange(64, dtype=np.float64)


def _kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    arrival: dict[str, float] = {}
    for node in _GRAPH:
        best = 0.0
        for name in node.fanin:
            best = max(best, arrival.get(name, 0.0) + 1.5)
        node.arrival = best
        arrival[node.name] = best
    values, mirror = _SHORT, _SHORT[::-1].copy()
    for _ in range(500):
        values = np.minimum(np.maximum(values, mirror) + values * 0.5, 100.0)
    return time.perf_counter() - started


def measure() -> float:
    """One calibration point: the median of :data:`RUNS` kernel walls."""
    return statistics.median(_kernel_s() for _ in range(RUNS))


def scale(before: float, after: float) -> float:
    """Factor from host time to reference time, between two points."""
    return REFERENCE_S / ((before + after) / 2.0)
