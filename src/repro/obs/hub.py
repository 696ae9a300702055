"""The per-machine observability hub.

One :class:`Observability` is created by every
:class:`~repro.machine.cluster.Machine` and carries the two always-on
instruments of the ``repro.obs`` subsystem:

* :attr:`metrics` — the :class:`~repro.obs.metrics.MetricsRegistry` (a
  :class:`~repro.obs.metrics.NullRegistry` when observation is disabled);
* :attr:`recorder` — the :class:`~repro.obs.spans.PhaseRecorder` for nested
  phase spans and causal flow links.

The substrate's counts (copies, operator passes, puts, gets, yields,
interrupts) are the per-task stats slots (:class:`~repro.machine.cluster.TaskStats`
and the LAPI endpoint's ``LapiStats``), each kept in that one place; the
registry reads them through under the names of :data:`TASK_COUNTS`.  The
other hot-path instruments (flag stores and the histograms) are pre-bound as
attributes at construction, so instrumented code pays one attribute access
and one add — with a null registry those calls hit shared no-op instruments
and the simulation is bit-identical either way.
"""

from __future__ import annotations

import operator
import typing

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.monitor import ResourceMonitor
from repro.obs.spans import PhaseRecorder

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.sim.engine import Engine

__all__ = ["Observability", "TASK_COUNTS"]

#: The counts the registry reads from the per-task stats, with their help
#: text: ``task.<slot>`` sums ``task.stats.<slot>`` over the machine's tasks,
#: ``lapi.<slot>`` sums ``task.lapi.stats.<slot>``.
TASK_COUNTS = {
    "task.copies": "timed shared-memory copies",
    "task.bytes_copied": "bytes moved by shm copies",
    "task.reduce_ops": "operator passes executed",
    "task.bytes_reduced": "bytes streamed through operators",
    "task.yields": "spin waits that yielded the CPU",
    "task.interrupts": "LAPI arrival interrupts taken",
    "lapi.puts": "one-sided remote writes issued",
    "lapi.gets": "one-sided remote reads issued",
    "lapi.bytes_put": "bytes injected by puts",
}


class Observability:
    """Metrics registry + phase recorder for one machine."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.metrics: MetricsRegistry = (
            MetricsRegistry(clock=lambda: engine.now) if enabled else NullRegistry()
        )
        self.recorder = PhaseRecorder(engine, enabled=enabled)
        #: Resource occupancy/queue-depth timelines.  Attached to the engine
        #: (like the verifier and fault plan) so the contention resources in
        #: :mod:`repro.sim.resources` can report transitions with one
        #: ``is None`` test; ``None`` when observation is disabled.
        self.monitor: ResourceMonitor | None = (
            ResourceMonitor(engine) if enabled else None
        )
        engine.monitor = self.monitor

        # Pre-bound hot-path instruments (shared no-ops when disabled).
        m = self.metrics
        self.flag_sets = m.counter("shmem.flag_sets", "timed shared-flag stores")
        self.flag_wait_seconds = m.histogram(
            "shmem.flag_wait_seconds", "simulated seconds blocked per flag wait"
        )
        self.counter_wait_seconds = m.histogram(
            "lapi.counter_wait_seconds", "simulated seconds blocked per counter wait"
        )
        self.put_sizes = m.histogram("lapi.put_bytes", "payload size per put")
        self.put_window_depth = m.time_histogram(
            "bcast.put_window_depth", "in-flight streamed puts per forwarder over time"
        )

    def read_task_counts(self, tasks: typing.Sequence["Task"]) -> None:
        """Register :data:`TASK_COUNTS` as counters summed over ``tasks``."""
        owners = {
            "task": [task.stats for task in tasks],
            "lapi": [task.lapi.stats for task in tasks],
        }
        for name, help_text in TASK_COUNTS.items():
            layer, slot = name.split(".")
            self.metrics.read_counter(
                name,
                help_text,
                lambda stats=owners[layer], get=operator.attrgetter(slot): sum(map(get, stats)),
            )

    def phase(self, task: "Task", name: str, detail: str = "") -> typing.ContextManager:
        """Open a named phase span for ``task`` (see :class:`PhaseRecorder`)."""
        return self.recorder.phase(task, name, detail)

    def flow(
        self,
        kind: str,
        src_rank: int,
        src_ts: float,
        dst_rank: int,
        dst_ts: float,
        detail: str = "",
    ) -> None:
        """Record a causal edge between two ranks."""
        self.recorder.flow(kind, src_rank, src_ts, dst_rank, dst_ts, detail)

    def __repr__(self) -> str:
        return f"<Observability enabled={self.enabled} {self.recorder!r}>"
