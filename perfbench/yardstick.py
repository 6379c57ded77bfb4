"""Host-speed yardstick: a fixed interpreter-bound loop timed between
operations.

The benchmark shares a small VM with other tenants, and the speed the
host grants it drifts by 10-20% within seconds to minutes, and at times
by 2x, for reasons outside the program (see README, "Steadiness and
bounds").  The same drift slows or speeds up any Python code run at the
same moment, so the benchmark times this loop -- which does what the
simulator spends its time on: attribute loads and stores on ``__slots__``
objects, dict probes, a heap, method calls -- between its operations, and
scales each operation's timings by how fast the loop ran just before and
just after it, against the loop's fixed reference speed.  The loop is
benchmark code and never changes with the program, so a faster or slower
simulator moves the scaled numbers by exactly as much as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import statistics
import time
from typing import List, Optional

#: Objects the loop chases through (about 6 MB, like the simulator's
#: working set: beyond the L2 cache).
NODES = 65_536
#: Steps of one sample (about 15 ms on the reference host).
STEPS = 20_000
#: Typical seconds of one sample on the reference host (2-vCPU Intel
#: Xeon VM at 2.1 GHz, Python 3.11.7).  Scaled timings are in seconds of
#: that host; the constant only sets the scale, never the spread.
REFERENCE_S = 0.015
#: The least host time between two batches taken by ``tick()``, and the
#: share of the time since the last batch that a batch takes (at least
#: two samples): the loop costs about 6% of a run.
INTERVAL_S = 0.5
SHARE = 0.06


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 3
        self.next: Optional[_Node] = None

    def bump(self, acc: int) -> int:
        self.weight = (self.weight + acc) & 0xFFFF
        return self.weight


class Yardstick:
    """Timed batches of the loop; ``factor(start, end)`` turns the host
    seconds of an operation run between ``start`` and ``end`` into
    reference-host seconds."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        nodes = [_Node(i) for i in range(NODES)]
        order = list(range(NODES))
        rng.shuffle(order)
        for prev, cur in zip(order, order[1:] + order[:1]):
            nodes[prev].next = nodes[cur]
        self.head = nodes[order[0]]
        self.index = {i: nodes[i] for i in range(0, NODES, 3)}
        #: ``perf_counter()`` at the end of each batch, and its samples.
        self.times: List[float] = []
        self.batches: List[List[float]] = []

    def _loop(self) -> int:
        node, acc, heap = self.head, 0, []
        index = self.index
        for step in range(STEPS):
            acc += node.bump(acc) ^ node.key
            node = node.next
            hit = index.get(acc % NODES)
            if hit is not None:
                heapq.heappush(heap, (hit.weight, step))
                if len(heap) > 64:
                    heapq.heappop(heap)
        return acc + len(heap)

    def sample(self, count: int = 2) -> None:
        """Time a batch of ``count`` runs of the loop (with the cyclic
        collector off, so the program's garbage cannot land in it)."""
        enabled = gc.isenabled()
        gc.disable()
        batch: List[float] = []
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                self._loop()
                batch.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.batches.append(batch)

    def tick(self) -> None:
        """Between two operations: take a batch if ``INTERVAL_S`` has
        passed since the last one, longer the longer that was."""
        since = time.perf_counter() - self.times[-1]
        if since >= INTERVAL_S:
            self.sample(max(2, round(SHARE * since / REFERENCE_S)))

    def factor(self, start: float, end: float) -> float:
        """Reference-host seconds per host second over ``[start, end]``:
        ``REFERENCE_S`` over the mean sample of the last batch before
        ``start`` through the first batch after ``end``."""
        first = max(0, bisect.bisect_right(self.times, start) - 1)
        last = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        samples = [s for batch in self.batches[first:last + 1] for s in batch]
        return REFERENCE_S / statistics.fmean(samples)
