"""A LAPI-like RMA endpoint per task.

Implements the slice of LAPI (paper §2.3, ref [20]) that SRM is built on:

* ``put`` — one-sided remote write with **origin**, **target**, and
  **completion** counters, non-blocking at the origin;
* ``get`` — one-sided remote read;
* ``rmw`` — remote atomic fetch-and-add;
* ``amsend`` — active message with a target-side header handler;
* ``waitcntr`` / ``probe`` — blocking wait and explicit progress polling;
* interrupt management — ``set_interrupts(False)`` disables the receive
  interrupt; arriving data then stalls until the target enters a LAPI call
  (the "implicit cooperation of the destination task" of §2.3).  With
  interrupts enabled, data landing while the target is busy elsewhere pays
  :attr:`CostModel.interrupt_cost`.

Origin-counter semantics: this simulator snapshots the source buffer at
injection, so the origin counter fires once the origin-side overhead is paid
(the source buffer is logically reusable immediately after).  Target and
completion counters fire with full delivery timing, including the
cooperation rules above — those are the counters SRM's flow control uses.
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.errors import ProtocolError
from repro.lapi.counters import LapiCounter
from repro.machine.memops import raw_copyto
from repro.machine.network import network_transfer
from repro.obs.taxonomy import (
    AMSEND,
    COUNTER_WAIT,
    FLOW_PUT_COMPLETION,
    FLOW_PUT_COUNTER,
    GET_ISSUE,
    PUT_ISSUE,
    RMW,
)
from repro.sim.process import Process, ProcessGenerator
from repro.sim.resources import Gate

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["LapiEndpoint"]


class LapiStats:
    """Per-endpoint communication counts; the metrics registry reads
    ``puts``, ``gets`` and ``bytes_put`` (:data:`repro.obs.hub.TASK_COUNTS`)."""

    __slots__ = ("puts", "gets", "amsends", "rmws", "bytes_put", "bytes_got", "stalled_deliveries")

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.amsends = 0
        self.rmws = 0
        self.bytes_put = 0
        self.bytes_got = 0
        self.stalled_deliveries = 0


class LapiEndpoint:
    """The RMA interface of one task.

    The task owns its endpoint: the endpoint keeps the task's rank, node and
    stats as plain attributes and reaches its peers through the machine,
    held weakly (once per remote operation).
    """

    def __init__(self, task: "Task") -> None:
        self._machine = weakref.ref(task.machine)
        self.rank = task.rank
        self.node = task.node
        self.task_stats = task.stats
        self.engine = task.engine
        self.cost = task.cost
        self.obs = task.obs
        self.interrupts_enabled = True
        self.stats = LapiStats()
        self._call_depth = 0
        self._in_call = Gate(self.engine, open=False, name=f"lapi-call[{task.rank}]")

    def _peer(self, rank: int) -> "Task":
        """The task of ``rank`` on this endpoint's machine."""
        return self._machine().task(rank)

    # -- counters -------------------------------------------------------------

    def counter(self, initial: int = 0, name: str | None = None) -> LapiCounter:
        """Create a counter owned by this task, registered with the machine."""
        counter = LapiCounter(self.engine, initial, name=name or f"cntr[{self.rank}]")
        machine = self._machine()
        if machine is not None:
            machine.counters.append(counter)
        return counter

    # -- call/interrupt state ---------------------------------------------------

    @property
    def in_lapi_call(self) -> bool:
        """True while this task is blocked or polling inside a LAPI call."""
        return self._call_depth > 0

    def set_interrupts(self, enabled: bool) -> None:
        """Enable/disable the arrival interrupt (§2.3 interrupt management)."""
        self.interrupts_enabled = bool(enabled)
        if enabled:
            # Pending deliveries stalled on cooperation can now interrupt.
            self._in_call.open()
            if self._call_depth == 0:
                self._in_call.close()

    def _enter_call(self) -> None:
        self._call_depth += 1
        self._in_call.open()

    def _exit_call(self) -> None:
        self._call_depth -= 1
        if self._call_depth == 0:
            self._in_call.close()

    def waitcntr(self, counter: LapiCounter, value: int = 1) -> ProcessGenerator:
        """``LAPI_Waitcntr``: block until ``counter >= value``, then consume.

        While blocked the task counts as *inside a LAPI call*, so the
        dispatcher polls and incoming data completes without interrupts.
        """
        start = self.engine.now
        self._enter_call()
        try:
            ends, row = self.obs.recorder.leaf(self.rank, COUNTER_WAIT)
            try:
                pending = counter.event_at(value)
                if pending is not None:
                    yield pending
            finally:
                ends[row] = self.engine.now
            counter.consume(value)
        finally:
            self._exit_call()
        self.obs.counter_wait_seconds.observe(self.engine.now - start)

    def watch(self, counter: LapiCounter, threshold: int) -> ProcessGenerator:
        """Block until ``counter >= threshold`` *without* consuming it.

        Models a ``LAPI_Getcntr`` polling loop: the task counts as inside a
        LAPI call (so deliveries need no interrupt), and the cumulative value
        stays readable by other watchers — used by the streamed large-message
        protocols where one arrival counter feeds several consumers.
        """
        start = self.engine.now
        self._enter_call()
        try:
            ends, row = self.obs.recorder.leaf(self.rank, COUNTER_WAIT)
            try:
                pending = counter.event_at(threshold)
                if pending is not None:
                    yield pending
            finally:
                ends[row] = self.engine.now
        finally:
            self._exit_call()
        self.obs.counter_wait_seconds.observe(self.engine.now - start)

    def probe(self) -> ProcessGenerator:
        """One explicit progress poll (``LAPI_Probe``): releases any
        stalled deliveries targeting this task, costing one dispatch."""
        self._enter_call()
        try:
            yield self.engine.timeout(self.cost.rma_target_overhead)
        finally:
            self._exit_call()

    def _cooperate(self) -> ProcessGenerator:
        """Target-side delivery gate: free when polling, priced when
        interrupting, stalled when interrupts are off and nobody polls."""
        if self.in_lapi_call:
            return
        if self.interrupts_enabled:
            self.task_stats.interrupts += 1
            yield self.engine.timeout(self.cost.interrupt_cost)
            return
        self.stats.stalled_deliveries += 1
        yield self._in_call.wait()

    # -- one-sided operations -----------------------------------------------

    def put(
        self,
        target_rank: int,
        dst: np.ndarray,
        src: np.ndarray,
        *,
        origin_counter: LapiCounter | None = None,
        target_counter: LapiCounter | None = None,
        completion_counter: LapiCounter | None = None,
    ) -> typing.Generator[typing.Any, typing.Any, Process]:
        """Non-blocking remote write of ``src`` into ``dst`` at ``target_rank``.

        Blocks the origin only for the injection overhead; returns the
        delivery :class:`Process` (joinable event) for callers that need full
        completion without a counter.
        """
        if dst.nbytes != src.nbytes:
            raise ProtocolError(
                f"put size mismatch: dst {dst.nbytes} B vs src {src.nbytes} B"
            )
        target_task = self._peer(target_rank)
        nbytes = int(src.nbytes)
        snapshot = np.array(src, copy=True)
        trace = self.engine.trace
        if trace is not None:
            # Record at *issue* position with live views: the tape's order
            # reproduces the snapshot-at-injection semantics, because flow
            # control forbids source rewrites or destination reads between
            # a put's issue and its delivery.
            trace.record_copy(dst, src)
        issue_time = self.engine.now
        ends, row = self.obs.recorder.leaf(self.rank, PUT_ISSUE)
        try:
            yield self.engine.timeout(self.cost.rma_origin_overhead)
        finally:
            ends[row] = self.engine.now
        if origin_counter is not None:
            origin_counter.increment()
        self.stats.puts += 1
        self.stats.bytes_put += nbytes
        self.obs.put_sizes.observe(nbytes)

        def deliver() -> ProcessGenerator:
            faults = self.engine.faults
            if faults is not None:
                # Fault injection: jitter the delivery (dispatcher delay).
                jitter = faults.put_jitter()
                if jitter > 0.0:
                    yield self.engine.timeout(jitter)
            if target_task.node is self.node:
                # Intra-node put short-circuits through the memory bus.
                if nbytes > 0:
                    yield self.node.bus.transfer(nbytes)
            else:
                yield from network_transfer(self.node, target_task.node, nbytes)
                yield from target_task.lapi._cooperate()
                yield self.engine.timeout(self.cost.rma_target_overhead)
            raw_copyto(dst, snapshot)
            landed_time = self.engine.now
            if target_counter is not None:
                target_counter.increment()
                self.obs.flow(
                    FLOW_PUT_COUNTER,
                    self.rank,
                    issue_time,
                    target_rank,
                    self.engine.now,
                    detail=target_counter.name or "",
                )
                yield self.engine.timeout(self.cost.counter_update_cost)
            if completion_counter is not None:
                if target_task.node is not self.node:
                    # The completion ack rides back and needs the *origin's*
                    # cooperation to be dispatched.
                    yield self.engine.timeout(self.cost.net_latency)
                    yield from self._cooperate()
                completion_counter.increment()
                self.obs.flow(
                    FLOW_PUT_COMPLETION,
                    target_rank,
                    landed_time,
                    self.rank,
                    self.engine.now,
                    detail=completion_counter.name or "",
                )

        return self.engine.process(deliver(), name=f"put:{self.rank}->{target_rank}")

    def get(
        self,
        target_rank: int,
        dst: np.ndarray,
        src: np.ndarray,
        *,
        completion_counter: LapiCounter | None = None,
    ) -> typing.Generator[typing.Any, typing.Any, Process]:
        """Non-blocking remote read of ``src`` at ``target_rank`` into ``dst``."""
        if dst.nbytes != src.nbytes:
            raise ProtocolError(
                f"get size mismatch: dst {dst.nbytes} B vs src {src.nbytes} B"
            )
        target_task = self._peer(target_rank)
        nbytes = int(dst.nbytes)
        issue_time = self.engine.now
        ends, row = self.obs.recorder.leaf(self.rank, GET_ISSUE)
        try:
            yield self.engine.timeout(self.cost.rma_origin_overhead)
        finally:
            ends[row] = self.engine.now
        self.stats.gets += 1
        self.stats.bytes_got += nbytes

        def deliver() -> ProcessGenerator:
            if target_task.node is self.node:
                if nbytes > 0:
                    yield self.node.bus.transfer(nbytes)
            else:
                # Request travels out (latency only) ...
                yield self.engine.timeout(self.cost.net_latency)
                yield from target_task.lapi._cooperate()
                yield self.engine.timeout(self.cost.rma_target_overhead)
                # ... data streams back.
                yield from network_transfer(target_task.node, self.node, nbytes)
            raw_copyto(dst, src)
            trace = self.engine.trace
            if trace is not None:
                trace.record_copy(dst, src)
            if completion_counter is not None:
                completion_counter.increment()
                # The cause chain for a get leads back to the origin's own
                # issue (the target is passive in one-sided reads).
                self.obs.flow(
                    FLOW_PUT_COUNTER,
                    self.rank,
                    issue_time,
                    self.rank,
                    self.engine.now,
                    detail=completion_counter.name or "",
                )

        return self.engine.process(deliver(), name=f"get:{self.rank}<-{target_rank}")

    def rmw_add(
        self,
        target_rank: int,
        counter: LapiCounter,
        amount: int = 1,
    ) -> ProcessGenerator:
        """Blocking remote atomic fetch-and-add on a counter owned by
        ``target_rank``; returns the pre-update value."""
        target_task = self._peer(target_rank)
        self.stats.rmws += 1
        ends, row = self.obs.recorder.leaf(self.rank, RMW)
        try:
            yield self.engine.timeout(self.cost.rma_origin_overhead)
            if target_task.node is not self.node:
                yield self.engine.timeout(self.cost.net_latency)
                yield from target_task.lapi._cooperate()
                yield self.engine.timeout(self.cost.rma_target_overhead)
            old_value = counter.value
            counter.increment(amount)
            if target_task.node is not self.node:
                yield self.engine.timeout(self.cost.net_latency)
                yield from self._cooperate()
        finally:
            ends[row] = self.engine.now
        return old_value

    def amsend(
        self,
        target_rank: int,
        handler: typing.Callable[["Task", typing.Any], None],
        payload: typing.Any = None,
        nbytes: int = 0,
    ) -> typing.Generator[typing.Any, typing.Any, Process]:
        """Active message: run ``handler(target_task, payload)`` at the target
        once the header (plus ``nbytes`` of payload timing) arrives."""
        target_task = self._peer(target_rank)
        trace = self.engine.trace
        if trace is not None:
            # Handler side effects are arbitrary Python; the op tape cannot
            # represent them, so a window containing an amsend never caches.
            trace.record_opaque("amsend handler")
        ends, row = self.obs.recorder.leaf(self.rank, AMSEND)
        try:
            yield self.engine.timeout(self.cost.rma_origin_overhead)
        finally:
            ends[row] = self.engine.now
        self.stats.amsends += 1

        def deliver() -> ProcessGenerator:
            if target_task.node is self.node:
                if nbytes > 0:
                    yield self.node.bus.transfer(nbytes)
            else:
                yield from network_transfer(self.node, target_task.node, nbytes)
                yield from target_task.lapi._cooperate()
                yield self.engine.timeout(self.cost.rma_target_overhead)
            handler(target_task, payload)

        return self.engine.process(deliver(), name=f"am:{self.rank}->{target_rank}")
