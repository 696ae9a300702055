"""MPI point-to-point engine with Eager and Rendezvous protocols.

This is the substrate the *baseline* collectives are built on, implemented as
a real protocol state machine so that the overheads the paper attributes to
message-passing collectives (§1, §2.3) arise structurally instead of being
fudge factors:

* **Eager** (small messages): the payload is pushed immediately and lands in
  a bounded per-receiver buffer pool; the receiver pays an extra copy from
  the system buffer into the user buffer.  Pool capacity is
  :attr:`CostModel.eager_pool_bytes` per task, which together with the
  task-count-dependent :class:`~repro.machine.costmodel.EagerLimitTable`
  reproduces IBM MPI's shrinking eager limit at scale.
* **Rendezvous** (large messages): an RTS control message, a CTS grant once
  the receive is posted, then the payload streams directly into the user
  buffer (no extra copy inter-node; two copies through a shared-memory
  bounce intra-node).
* **Tag matching** with wildcards and MPI's pairwise FIFO ordering, plus an
  unexpected-message queue with its own handling cost.

Intra-node transport uses shared memory (two copies per message: sender into
the bounce region, receiver out of it) — the configuration the paper compares
against ("MPI (MPCI) was configured to use shared memory", §3).
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.errors import ProtocolError, TruncationError
from repro.machine.network import network_transfer
from repro.mpi.matching import ANY_SOURCE, ANY_TAG, Envelope, MatchQueues, PostedRecv, Status
from repro.sim.events import Event
from repro.sim.process import Process, ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["MpiEndpoint", "EagerPool", "ANY_SOURCE", "ANY_TAG", "Status"]


def _bytes_of(buffer: np.ndarray) -> np.ndarray:
    """A flat uint8 view of ``buffer`` for byte-granular copies."""
    return buffer.reshape(-1).view(np.uint8)


class EagerPool:
    """The byte budget of eager system buffers at one receiving task.

    Senders acquire space before pushing an eager message and the receiver
    releases it after draining the message into the user buffer — the
    credit-based flow control whose P−1-buffer memory footprint §2.3 blames
    for IBM MPI's shrinking eager limit.
    """

    def __init__(self, engine: typing.Any, capacity: int) -> None:
        self.engine = engine
        self.capacity = int(capacity)
        self.free = int(capacity)
        self._waiters: list[tuple[int, Event]] = []

    def acquire(self, nbytes: int) -> Event:
        """Event granting ``nbytes`` of pool space (FIFO, no overtaking)."""
        if nbytes > self.capacity:
            raise ProtocolError(
                f"eager message of {nbytes} B exceeds the {self.capacity} B pool"
            )
        grant = Event(self.engine, name="eager-credit")
        if not self._waiters and self.free >= nbytes:
            self.free -= nbytes
            grant.succeed()
        else:
            self._waiters.append((nbytes, grant))
        return grant

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool, waking queued senders in order."""
        self.free += nbytes
        if self.free > self.capacity:
            raise ProtocolError("eager pool over-released")
        while self._waiters and self._waiters[0][0] <= self.free:
            amount, grant = self._waiters.pop(0)
            self.free -= amount
            grant.succeed()


class MpiStats:
    """Per-endpoint protocol counters for audits and tests."""

    __slots__ = (
        "sends",
        "recvs",
        "eager_messages",
        "rendezvous_messages",
        "unexpected_arrivals",
        "bytes_sent",
    )

    def __init__(self) -> None:
        self.sends = 0
        self.recvs = 0
        self.eager_messages = 0
        self.rendezvous_messages = 0
        self.unexpected_arrivals = 0
        self.bytes_sent = 0


class MpiEndpoint:
    """The point-to-point interface of one task."""

    def __init__(self, task: "Task") -> None:
        # The task owns its endpoint: keep what the endpoint reads, and reach
        # peers through the machine, held weakly (once per message).
        self._machine = weakref.ref(task.machine)
        self.rank = task.rank
        self.node = task.node
        self.spec = task.spec
        self.task_stats = task.stats
        self.engine = task.engine
        self.cost = task.cost
        self.queues = MatchQueues()
        self.eager_pool = EagerPool(self.engine, self.cost.eager_pool_bytes)
        self.stats = MpiStats()
        #: Destination rank -> the process delivering this task's latest
        #: envelope to it (see :meth:`_deliver`).
        self._deliveries: dict[int, Process] = {}

    def _peer(self, rank: int) -> "Task":
        """The task of ``rank`` on this endpoint's machine."""
        return self._machine().task(rank)

    @property
    def eager_limit(self) -> int:
        """The protocol switch point for this job's task count (§2.3)."""
        return self.cost.eager_limit(self.spec.total_tasks)

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------

    def send(self, dest: int, buffer: np.ndarray, tag: int = 0) -> ProcessGenerator:
        """Blocking standard-mode send (protocol chosen by message size)."""
        self.spec.check_rank(dest)
        self.stats.sends += 1
        self.stats.bytes_sent += buffer.nbytes
        yield self.engine.timeout(self.cost.mpi_send_overhead)
        if buffer.nbytes <= self.eager_limit:
            yield from self._eager_send(dest, buffer, tag)
        else:
            yield from self._rendezvous_send(dest, buffer, tag)

    def isend(self, dest: int, buffer: np.ndarray, tag: int = 0) -> Process:
        """Non-blocking send; join the returned process to complete it."""
        return self.engine.process(self.send(dest, buffer, tag), name=f"isend:{self.rank}->{dest}")

    def _deliver(
        self, dest: "MpiEndpoint", transit: ProcessGenerator, envelope: Envelope, name: str
    ) -> None:
        """Land ``envelope`` at ``dest`` after ``transit``, but never before
        this task's previous envelope to ``dest``: MPI's pairwise
        non-overtaking rule, which the timing alone can break (an RTS
        control message outruns an earlier, larger eager payload)."""
        previous = self._deliveries.get(dest.rank)

        def deliver() -> ProcessGenerator:
            yield from transit
            if previous is not None and not previous.triggered:
                yield previous
            dest._arrive(envelope)

        self._deliveries[dest.rank] = self.engine.process(deliver(), name=name)

    def _eager_send(self, dest: int, buffer: np.ndarray, tag: int) -> ProcessGenerator:
        dest_task = self._peer(dest)
        dest_endpoint: MpiEndpoint = dest_task.mpi
        nbytes = int(buffer.nbytes)
        self.stats.eager_messages += 1
        if nbytes > 0:
            yield dest_endpoint.eager_pool.acquire(nbytes)
        snapshot = np.array(_bytes_of(buffer), copy=True)
        envelope = Envelope("eager", self.rank, tag, nbytes, data=snapshot)
        if dest_task.node is self.node:
            # First of the two intra-node copies: user buffer -> bounce.
            if nbytes > 0:
                yield self.node.bus.transfer_after(
                    self.cost.sm_copy_latency, nbytes, max_rate=self.cost.sm_copy_bandwidth
                )
                self.task_stats.copies += 1
                self.task_stats.bytes_copied += nbytes
            else:
                yield self.engine.timeout(self.cost.sm_copy_latency)
            yield self.engine.timeout(self.cost.flag_set_cost)

            def announce_local() -> ProcessGenerator:
                yield self.engine.timeout(self.cost.flag_poll_interval)

            self._deliver(dest_endpoint, announce_local(), envelope, "eager-shm-arrive")
        else:
            # The sender is released once its outbound link accepts the
            # bytes; the receive-side stages overlap with the injection (the
            # message pipelines through the switch), so the bandwidth term is
            # paid once, not per stage.
            injection = (
                self.node.nic_out.transfer(nbytes) if nbytes > 0 else None
            )

            def deliver_remote() -> ProcessGenerator:
                yield self.engine.timeout(self.cost.net_latency)
                if nbytes > 0:
                    stages = [
                        dest_task.node.nic_in.transfer(nbytes),
                        dest_task.node.bus.transfer(nbytes),
                    ]
                    if injection is not None and not injection.processed:
                        stages.append(injection)
                    yield self.engine.all_of(stages)

            self._deliver(dest_endpoint, deliver_remote(), envelope, "eager-net-arrive")
            if injection is not None:
                yield injection

    def _rendezvous_send(self, dest: int, buffer: np.ndarray, tag: int) -> ProcessGenerator:
        dest_task = self._peer(dest)
        dest_endpoint: MpiEndpoint = dest_task.mpi
        nbytes = int(buffer.nbytes)
        same_node = dest_task.node is self.node
        self.stats.rendezvous_messages += 1
        cts = Event(self.engine, name=f"cts:{self.rank}->{dest}")
        envelope = Envelope("rts", self.rank, tag, nbytes, cts=cts)
        # Request-to-send control message.
        yield self.engine.timeout(self.cost.rendezvous_control_cost)
        rts_delay = self.cost.flag_poll_interval if same_node else self.cost.net_latency

        def announce_rts() -> ProcessGenerator:
            yield self.engine.timeout(rts_delay)

        self._deliver(dest_endpoint, announce_rts(), envelope, "rts-arrive")
        posted: PostedRecv = yield cts
        if envelope.nbytes > posted.buffer.nbytes:
            raise TruncationError(
                f"rendezvous message of {nbytes} B into a {posted.buffer.nbytes} B buffer"
            )
        status = Status(self.rank, tag, nbytes)
        if same_node:
            # Copy one: user buffer -> shared bounce (charged to the sender).
            snapshot = np.array(_bytes_of(buffer), copy=True)
            yield self.node.bus.transfer_after(
                self.cost.sm_copy_latency, nbytes, max_rate=self.cost.sm_copy_bandwidth
            )
            self.task_stats.copies += 1
            self.task_stats.bytes_copied += nbytes

            def drain_local() -> ProcessGenerator:
                # Copy two: bounce -> user buffer (the receiver's timeline
                # advances when `done` fires).
                yield dest_task.node.bus.transfer_after(
                    self.cost.sm_copy_latency, nbytes, max_rate=self.cost.sm_copy_bandwidth
                )
                _bytes_of(posted.buffer)[:nbytes] = snapshot
                dest_task.stats.copies += 1
                dest_task.stats.bytes_copied += nbytes
                # The receiver slept through the transfer; wake it.
                yield self.engine.timeout(self.cost.mpi_shm_wakeup)
                posted.done.succeed(status)

            self.engine.process(drain_local(), name="rndv-shm-drain")
        else:
            # Payload streams straight into the posted user buffer — the
            # zero-extra-copy half of rendezvous.
            yield from network_transfer(self.node, dest_task.node, nbytes)
            _bytes_of(posted.buffer)[:nbytes] = _bytes_of(buffer)
            # Blocked-receiver wake-up happens off the sender's critical
            # path but before the receiver resumes.
            posted.done.succeed(status, delay=self.cost.mpi_blocked_recv_wakeup)

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buffer: np.ndarray | None = None,
    ) -> typing.Generator[typing.Any, typing.Any, Status]:
        """Blocking receive into ``buffer``; returns a :class:`Status`."""
        if buffer is None:
            raise ProtocolError("recv() requires a destination buffer")
        if source is not ANY_SOURCE:
            self.spec.check_rank(source)
        self.stats.recvs += 1
        yield self.engine.timeout(self.cost.mpi_recv_overhead)
        envelope = self.queues.match_receive(source, tag)
        if envelope is None:
            done = Event(self.engine, name=f"recv:{self.rank}")
            self.queues.post(PostedRecv(source, tag, buffer, done))
            status = yield done
            return status
        # Unexpected-queue hit: pay the early-arrival handling cost (§1).
        self.stats.unexpected_arrivals += 1
        yield self.engine.timeout(self.cost.mpi_unexpected_overhead)
        if envelope.kind == "eager":
            status = yield from self._drain_eager(envelope, buffer)
            return status
        done = Event(self.engine, name=f"recv:{self.rank}")
        posted = PostedRecv(envelope.source, envelope.tag, buffer, done)
        self._grant_cts(envelope, posted)
        status = yield done
        return status

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, buffer: np.ndarray | None = None
    ) -> Process:
        """Non-blocking receive; joining the process yields the Status."""
        return self.engine.process(
            self.recv(source, tag, buffer), name=f"irecv:{self.rank}"
        )

    def sendrecv(
        self,
        dest: int,
        send_buffer: np.ndarray,
        source: int,
        recv_buffer: np.ndarray,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> typing.Generator[typing.Any, typing.Any, Status]:
        """Combined exchange (deadlock-free), as used by recursive doubling."""
        if recv_tag is None:
            recv_tag = send_tag
        send_process = self.isend(dest, send_buffer, send_tag)
        status = yield from self.recv(source, recv_tag, recv_buffer)
        yield send_process
        return status

    # ------------------------------------------------------------------
    # arrival path (runs in delivery processes)
    # ------------------------------------------------------------------

    def _arrive(self, envelope: Envelope) -> None:
        posted = self.queues.match_arrival(envelope)
        if posted is None:
            return  # queued as unexpected; a future recv pays the penalty
        if envelope.kind == "eager":

            def finish_eager() -> ProcessGenerator:
                # The receiver was already blocked in MPI_Recv: it pays the
                # progress-engine wake-up before it can drain the message
                # (cheaper for shared-memory arrivals: the poll loop catches
                # those before the receiver sleeps).
                source_task = self._peer(envelope.source)
                same_node = source_task.node is self.node
                yield self.engine.timeout(
                    self.cost.mpi_shm_wakeup if same_node else self.cost.mpi_blocked_recv_wakeup
                )
                try:
                    status = yield from self._drain_eager(envelope, posted.buffer)
                except ProtocolError as exc:
                    posted.done.fail(exc)
                    return
                posted.done.succeed(status)

            self.engine.process(finish_eager(), name="eager-finish")
        else:
            self._grant_cts(envelope, posted)

    def _drain_eager(
        self, envelope: Envelope, buffer: np.ndarray
    ) -> typing.Generator[typing.Any, typing.Any, Status]:
        """System buffer -> user buffer: the eager protocol's extra copy."""
        if envelope.nbytes > buffer.nbytes:
            raise TruncationError(
                f"eager message of {envelope.nbytes} B into a {buffer.nbytes} B buffer"
            )
        nbytes = envelope.nbytes
        if nbytes > 0:
            yield self.node.bus.transfer_after(
                self.cost.sm_copy_latency, nbytes, max_rate=self.cost.sm_copy_bandwidth
            )
            assert envelope.data is not None
            _bytes_of(buffer)[:nbytes] = envelope.data
            self.task_stats.copies += 1
            self.task_stats.bytes_copied += nbytes
            self.eager_pool.release(nbytes)
        else:
            yield self.engine.timeout(self.cost.sm_copy_latency)
        return Status(envelope.source, envelope.tag, nbytes)

    def _grant_cts(self, envelope: Envelope, posted: PostedRecv) -> None:
        """Clear-to-send back to the sender, delayed by the return path.

        The sender has been blocked in MPI_Send since the RTS went out, so
        it also pays the progress-engine wake-up when the CTS lands.
        """
        source_task = self._peer(envelope.source)
        same_node = source_task.node is self.node
        delay = self.cost.rendezvous_control_cost + (
            self.cost.flag_poll_interval + self.cost.mpi_shm_wakeup
            if same_node
            else self.cost.net_latency + self.cost.mpi_blocked_recv_wakeup
        )
        assert envelope.cts is not None
        envelope.cts.succeed(posted, delay=delay)
