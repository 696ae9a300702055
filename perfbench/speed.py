"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark shares a few vCPUs with other tenants, and the whole host
slows down and speeds up again: for seconds, and at times for minutes, the
same step takes up to twice as long.  A run cannot outwait that, so every
host time the benchmark reports is scaled to a fixed *reference speed*:

    reported = collector pauses + rest * REFERENCE_MS / loop's ms around then

The reference loop is plain interpreter work of the kind the simulator does
(generators resumed off a heap, small tuples, dict and attribute traffic)
and never calls ``repro``, so a change to the program moves the reported
times and a change in host speed mostly does not.  The slow state hardly
slows the cyclic collector's pauses, which walk memory, so ``Ledger`` keeps
those as measured.  In the fast state the reference loop takes about
:data:`REFERENCE_MS`, and reported times are host times.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Milliseconds the reference loop takes on a quiet 2-core x86 host.
REFERENCE_MS = 1.2
#: Processes and steps of the reference loop.
_PROCESSES = 48
_STEPS = 32


class _Process:
    __slots__ = ("index", "state")

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = {"steps": 0, "total": 0}

    def run(self):
        state = self.state
        while state["steps"] < _STEPS:
            state["steps"] += 1
            state["total"] += (self.index * 7 + state["steps"]) % 13
            yield (state["total"] % 5) + 1


def _reference_loop() -> int:
    """A tiny discrete-event loop; returns its event count."""
    processes = [_Process(index).run() for index in range(_PROCESSES)]
    heap = [(0, index) for index in range(_PROCESSES)]
    heapq.heapify(heap)
    events = 0
    while heap:
        now, index = heapq.heappop(heap)
        try:
            delay = next(processes[index])
        except StopIteration:
            continue
        events += 1
        heapq.heappush(heap, (now + delay, index))
    return events


def reference_ms() -> float:
    """Host ms of the reference loop, fastest of two, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3
