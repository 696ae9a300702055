"""Compiled schedule replay for persistent collectives.

The paper's protocols are deterministic given (algorithm, message size,
topology), and a :class:`~repro.core.requests.PersistentCollective` pins
exactly that tuple — so the event schedule of a repeated collective is a
pure function of the plan and the invocation's slot parities.  This module
records one full execution of a persistent-plan window as a flat
:class:`CompiledSchedule` and replays later windows with the same key as a
flat kernel: the op tape compiled once into byte-slice copies and bound
operator ufuncs (:func:`repro.machine.memops.compile_tape`), bulk
counter/flag/cursor updates, and re-emitted observability tails — instead
of re-driving :mod:`repro.sim.engine` processes and generators.

How a window forms
------------------

``plan.start()`` calls made while the engine is idle are *deferred* by the
:class:`ReplayManager` (installed at ``engine.trace``, the same None-default
tap slot as the verifier, fault plan, and monitor).  The next plain
``engine.run()`` flushes them:

* **replay** — the window's key (per-plan identity + generation + invocation
  slot parities) matches a committed trace and every recorded precondition
  holds → the trace is applied at the flush instant and per-request
  completion events are scheduled at the recorded relative times.
  ``replay.hits`` increments.
* **record** — no usable trace: the requests are materialized as ordinary
  progress processes and a recording is armed.  When the run loop drains the
  queue (quiescence) with every member request complete, the trace commits.
  ``replay.misses`` increments, and so does the counter of its cause
  (:data:`MISS_CAUSES`): ``replay.misses.cold`` (no trace under the key) or
  ``replay.misses.precondition`` (a recorded precondition failed), the
  latter also as ``replay.misses.precondition.<kind>`` by the kind of the
  first failing cell (:data:`CELL_KINDS`).
* **slow path, untraced** — the window is *dirty*: the requests are
  materialized and nothing is recorded or replayed.
  ``replay.dirty.<reason>`` counts it by the first reason found
  (:data:`DIRTY_REASONS`): other events queued (a request spawned before
  the flush queues its bootstrap event, so it lands here), ``run(until=...)``
  or ``step()``, a tie-break scheduler, or a fault plan.

What a trace holds
------------------

* the **op tape**: every byte-moving effect in capture order — shared-memory
  copies, operator applications, and put/get data movements — compiled at
  commit into a kernel of flat entries: a copy becomes a pair of byte
  slices of its base buffers, an operator pass the operator's ufunc bound
  to the recorded views (persistent plans pin their buffers, so both stay
  valid until :meth:`PersistentCollective.rebind` invalidates the plan's
  traces);
* the **state diff**: (pre, post) pairs for every touched cell among the
  substrate stats, every LAPI counter and shared flag the machine created
  (:attr:`Machine.counters`, :attr:`Machine.flags`) and the sequence ledger
  of each context in the window.  Integer cells replay as deltas
  (cumulative sequences keep advancing across windows); a cell that did
  not exist when the window began (a ledger key first reserved, a counter
  first created in it), a flag first written in it (a slot handoff skips
  its poll until then) and the interrupt switch must match exactly.  Every
  precondition is checked before anything mutates — a mismatch is a clean
  miss and the window re-records;
* the **observability tail**: phase spans, flow links and resource-monitor
  samples in the recorder's own column format (:mod:`repro.obs.columns`),
  histogram observations (all window-relative, re-emitted shifted so
  profiles, critical paths, and wait-state classification of a replayed
  window match the recorded one), and metric counter deltas.  A hit hands
  the span and flow tails to their tables by reference, one pending block
  per table; the rows are copied, bit-identical to an eager copy, on the
  first read or append, so a session that reads nothing between windows
  holds no copy of them.  Samples are appended at once, because the next
  window's boundary sample coalesces against the last row: commit binds
  each tail to its timeline and encodes its non-clock columns, so a hit
  computes only the shifted clock column.  A histogram's running total
  replays as one sequential ``np.add.accumulate``;
* per-request **completion times and values**, plus the window duration, so
  ``engine.now`` advances through a replayed window exactly as recorded.

Failure safety: a recording that never reaches quiescence (a
``DeadlockError``, any exception out of the run loop, an interrupted run)
is discarded at the next flush — a half-written trace is never cached, and
the next ``start()`` falls back to the slow path.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.machine.memops import OP_COMBINE, OP_COPY, OP_REDUCE, compile_tape, run_kernel
from repro.obs.metrics import Histogram, TimeWeightedHistogram, _bucket_index
from repro.obs.taxonomy import REQUEST

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import SRMContext
    from repro.core.requests import CollectiveRequest, PersistentCollective
    from repro.machine.cluster import Machine
    from repro.sim.engine import Engine

__all__ = [
    "CELL_KINDS",
    "DIRTY_REASONS",
    "MISS_CAUSES",
    "CompiledSchedule",
    "ReplayManager",
    "manager_for",
]


#: Sentinel for "this cell did not exist at the window boundary".
_MISSING = object()

#: Why a clean window missed, in the order the checks run: the counter
#: ``replay.misses.<cause>`` and its help text.
MISS_CAUSES = {
    "cold": "replay misses: no trace under the window's key",
    "precondition": "replay misses: a recorded precondition failed",
}

#: Why a window ran the slow path untraced, in the order the checks run:
#: the counter ``replay.dirty.<reason>`` and its help text.
DIRTY_REASONS = {
    "queued": "windows run untraced: other events were queued at the flush",
    "until": "windows run untraced: run(until=...) or step() drove them",
    "scheduler": "windows run untraced: a tie-break scheduler was attached",
    "faults": "windows run untraced: a fault plan was attached",
}

#: What a state cell holds: a substrate stats slot, a task's arrival
#: interrupt switch, a LAPI counter, a shared flag or a sequence-ledger key.
#: A failed precondition counts as ``replay.misses.precondition.<kind>``.
CELL_KINDS = ("stat", "interrupts", "counter", "flag", "ledger")


def manager_for(engine: "Engine") -> "ReplayManager":
    """The engine's replay manager, installing one at ``engine.trace``."""
    manager = engine.trace
    if not isinstance(manager, ReplayManager):
        manager = ReplayManager(engine)
        engine.trace = manager
    return manager


# ---------------------------------------------------------------------------
# state cells: a uniform handle on every mutable protocol-state scalar
# ---------------------------------------------------------------------------
#
# A cell is (kind, container, key), kind one of CELL_KINDS: a "ledger" cell
# is the dict entry container[key], every other kind the attribute
# container.key.  Cells hold direct references; identity keys join the
# arm-time and commit-time snapshots.


def _cell_get(cell: tuple) -> typing.Any:
    kind, container, key = cell
    if kind == "ledger":
        return container.get(key, _MISSING)
    return getattr(container, key)


def _cell_set(cell: tuple, value: typing.Any) -> None:
    kind, container, key = cell
    if kind == "ledger":
        container[key] = value
    else:
        setattr(container, key, value)


def _cell_id(cell: tuple) -> tuple:
    _kind, container, key = cell
    return (id(container), key)


def _cells(contexts: typing.Iterable["SRMContext"], machine: "Machine") -> typing.Iterator[tuple]:
    """Every protocol-state scalar a window can change.

    Read from the registries, never from protocol fields, so the next
    protocol's counters, flags and cursors are covered with no edit here.
    """
    for task in machine.tasks:
        for stats in (task.stats, task.lapi.stats):
            for name in type(stats).__slots__:
                yield ("stat", stats, name)
        yield ("interrupts", task.lapi, "interrupts_enabled")
    for counter in machine.counters:
        yield ("counter", counter, "_value")
    for flag in machine.flags:
        yield ("flag", flag, "_value")
    for ctx in contexts:
        for key in ctx.ledger:
            yield ("ledger", ctx.ledger, key)


def _snapshot(contexts: typing.Iterable["SRMContext"], machine: "Machine") -> dict:
    """``cell id -> (cell, value)`` over every protocol-state scalar."""
    return {_cell_id(cell): (cell, _cell_get(cell)) for cell in _cells(contexts, machine)}


def _invocation_parity(invocation) -> tuple:
    """The slot-parity signature of one reserved invocation window.

    Every persistent body reads its slots from its reserved bases and the
    last writers it depends on, and a plan reserves the same keys in the same
    order at every start, so these together with plan identity and
    generation key a window.
    """
    return (
        invocation.op,
        invocation.root,
        tuple(base & 1 for base in invocation.bases.values()),
        tuple(invocation.writers.values()),
    )


# ---------------------------------------------------------------------------
# histogram tape: capture distribution observations during a recording
# ---------------------------------------------------------------------------


class _HistogramTape:
    """Forwarding proxy swapped onto the obs hub while a recording is armed.

    Call sites resolve ``obs.<instrument>.observe(...)`` at call time, so
    swapping the hub attribute captures every observation with its
    timestamp while still updating the real instrument.
    """

    __slots__ = ("real", "engine", "events")

    def __init__(self, real, engine: "Engine") -> None:
        self.real = real
        self.engine = engine
        self.events: list[tuple[float, float]] = []

    def observe(self, value: float) -> None:
        self.events.append((self.engine.now, value))
        self.real.observe(value)

    def __getattr__(self, name: str):
        return getattr(self.real, name)


# ---------------------------------------------------------------------------
# the compiled trace
# ---------------------------------------------------------------------------


class CompiledSchedule:
    """One committed window: a flat, NumPy-backed event-schedule trace."""

    def __init__(
        self,
        key: tuple,
        plans: list["PersistentCollective"],
        duration: float,
        ops: list[tuple],
        state_entries: list[tuple],
        metric_deltas: list[tuple],
        hist_events: list[tuple],
        span_tail: dict | None,
        span_members: list[tuple[int, int]],
        flow_tail: dict | None,
        monitor_tail: list[tuple],
        completions: list[tuple[float, typing.Any]],
    ) -> None:
        self.key = key
        #: Strong refs keep ``id(plan)`` in the key stable for the cache's life.
        self.plans = plans
        self.duration = duration
        #: The capture-order op tape, compiled once (:func:`compile_tape`):
        #: copies hold byte slices, operator passes their recorded views.
        self.kernel = compile_tape(ops)
        #: (cell, pre, post, is_delta) — int/int cells replay as deltas.
        self.state_entries = state_entries
        #: (metric kind, name, help, delta) for counters and gauges.
        self.metric_deltas = metric_deltas
        #: Span rows as :meth:`ColumnTable.tail` columns (window-relative
        #: times, ``parent`` as an offset into the tail or -1), or None.
        self.span_tail = span_tail
        #: (tail offset, start index) of each ``request`` span, whose detail
        #: names the replaying window's request instead.
        self.span_members = span_members
        #: Flow-link rows as tail columns (window-relative times), or None.
        self.flow_tail = flow_tail
        #: Per deferred start, in window order: (rel completion time, value).
        self.completions = completions
        self.replays = 0
        #: Split entry lists for the hot loops: integer cells replay as
        #: precomputed deltas, everything else as exact (pre -> post) swaps.
        self._delta_entries = [
            (cell, post - pre) for cell, pre, post, is_delta in state_entries if is_delta
        ]
        self._exact_entries = [
            (cell, pre, post) for cell, pre, post, is_delta in state_entries if not is_delta
        ]
        #: Histogram tapes folded to replay-ready aggregates.  Bucket counts,
        #: observation count, and min/max are order-independent integers or
        #: pure comparisons, so they fold exactly; the running float ``total``
        #: keeps the sequential per-value addition order (:func:`_running_total`)
        #: so replayed sums stay bit-identical to the slow path.  Time-weighted
        #: tapes replay event-by-event (each settle depends on the previous
        #: interval).
        self._hist_rows: list[tuple] = []
        for attr, kind, rel_times, values in hist_events:
            if kind == "histogram":
                if not values:
                    continue
                buckets: dict[int, int] = {}
                for value in values:
                    index = _bucket_index(value)
                    buckets[index] = buckets.get(index, 0) + 1
                self._hist_rows.append(
                    (
                        attr,
                        kind,
                        np.array([0.0, *values], dtype=np.float64),
                        len(values),
                        min(values),
                        max(values),
                        tuple(buckets.items()),
                    )
                )
            else:
                self._hist_rows.append((attr, kind, tuple(zip(rel_times, values))))
        #: Monitor tails bound to their timelines: (record, first sample's
        #: rel time, occupancy, queued, saturated, table extend, the rest).
        self._monitor_rows = [
            (timeline.record, *first, timeline.table.extend, rest)
            for timeline, first, rest in monitor_tail
        ]

    def failed_precondition(self) -> str | None:
        """The kind of the first recorded precondition that fails right
        now (one of :data:`CELL_KINDS`), or None when every one holds."""
        for cell, _delta in self._delta_entries:
            if type(_cell_get(cell)) is not int:
                return cell[0]
        for cell, pre, _post in self._exact_entries:
            current = _cell_get(cell)
            if current is not pre and current != pre:
                return cell[0]
        return None

    def apply(self, engine: "Engine", machine: "Machine", starts: list) -> None:
        """Replay the window at the current instant (preconditions hold)."""
        t0 = engine.now

        # 1. Data movement: the compiled op tape in capture order.
        run_kernel(self.kernel)

        # 2. Bulk state update: deltas for cumulative counters/cursors,
        #    exact values for everything else.
        for cell, delta in self._delta_entries:
            kind, container, key = cell
            if kind == "ledger":
                container[key] += delta
            else:
                setattr(container, key, getattr(container, key) + delta)
        for cell, _pre, post in self._exact_entries:
            _cell_set(cell, post)

        # 3. Metrics: counter/gauge deltas plus re-observed distributions.
        obs = machine.obs
        registry = obs.metrics
        if registry.enabled:
            for kind, name, help_text, delta in self.metric_deltas:
                instrument = (
                    registry.counter(name, help_text)
                    if kind == "counter"
                    else registry.gauge(name, help_text)
                )
                instrument.inc(delta)
            for row in self._hist_rows:
                instrument = getattr(obs, row[0], None)
                if instrument is None:
                    continue
                if row[1] == "histogram":
                    _attr, _kind, seeded, count, vmin, vmax, bucket_items = row
                    instrument.total = _running_total(instrument.total, seeded)
                    instrument.count += count
                    if vmin < instrument.min:
                        instrument.min = vmin
                    if vmax > instrument.max:
                        instrument.max = vmax
                    buckets = instrument._buckets
                    for index, n in bucket_items:
                        buckets[index] = buckets.get(index, 0) + n
                else:  # time histogram: settle at the recorded relative times
                    for rel, value in row[2]:
                        now = t0 + rel
                        instrument._settle(now)
                        instrument._value = float(value)
                        instrument._since = now
                        instrument.observations += 1
                        if value < instrument.min:
                            instrument.min = value
                        if value > instrument.max:
                            instrument.max = value

        # 4. Observability tails, time-shifted to this window.  Spans and
        #    flows take the committed tails by reference as pending blocks
        #    (copied on the first read or append), the span block with the
        #    replaying requests' identities for its ``request`` spans.
        recorder = obs.recorder
        if recorder.enabled and self.span_tail is not None:
            labels = [
                (offset, starts[member].request.describe()) for offset, member in self.span_members
            ]
            recorder.spans.extend(self.span_tail, t0, labels)
            recorder.flows.extend(self.flow_tail, t0)
        # Each boundary sample goes through record() (it may coalesce with
        # the pre-window state); the rest of the tail is already coalesced
        # and strictly time-increasing, so appending it replicates record()
        # exactly.
        for record, rel, occupancy, queued, saturated, extend, rest in self._monitor_rows:
            record(t0 + rel, occupancy, queued, saturated)
            extend(rest, t0)

        # 5. Completion events at the recorded relative times, plus a final
        #    quiescence timeout so the clock traverses the whole window.
        for start, (rel, value) in zip(starts, self.completions):
            timer = engine.timeout(rel)
            timer.add_callback(
                lambda _event, request=start.request, v=value: request._replay_complete(v)
            )
        engine.timeout(self.duration)
        self.replays += 1

    def __repr__(self) -> str:
        return (
            f"<CompiledSchedule ops={len(self.kernel)} state={len(self.state_entries)} "
            f"duration={self.duration:.6g}s replays={self.replays}>"
        )


def _running_total(total: float, seeded: np.ndarray) -> float:
    """``total`` plus ``seeded[1:]``, added one value at a time from the
    left as ``Histogram.observe`` adds them (slot 0 takes ``total``).

    ``np.add.accumulate`` is a sequential prefix sum in float64, rounding
    at every step exactly as Python's float ``+=`` does.
    """
    seeded[0] = total
    return float(np.add.accumulate(seeded)[-1])


# ---------------------------------------------------------------------------
# an armed recording
# ---------------------------------------------------------------------------


class _Recording:
    """Everything captured between a window's flush and its quiescence."""

    def __init__(self, manager: "ReplayManager", key: tuple, starts: list) -> None:
        self.manager = manager
        self.key = key
        self.starts = starts
        machine = starts[0].plan.task.machine
        self.machine = machine
        engine = machine.engine
        self.t0 = engine.now
        self.aborted: str | None = None
        self.ops: list[tuple] = []
        #: (start index, absolute completion time, value) in completion order.
        self.completions: dict[int, tuple[float, typing.Any]] = {}

        contexts = {id(s.plan.ctx): s.plan.ctx for s in starts}
        self.contexts = list(contexts.values())
        self.pre_state = _snapshot(self.contexts, machine)

        obs = machine.obs
        recorder = obs.recorder
        self.span_mark = len(recorder.spans)
        self.flow_mark = len(recorder.flows)
        self.monitor_marks: dict[str, int] = {}
        if obs.monitor is not None:
            for name, timeline in obs.monitor.timelines.items():
                self.monitor_marks[name] = len(timeline.table)

        self.pre_metrics: dict[str, float] = {}
        registry = obs.metrics
        if registry.enabled:
            for name, instrument in registry._instruments.items():
                if instrument.kind in ("counter", "gauge"):
                    self.pre_metrics[name] = instrument.value

        #: Hub attr -> tape proxy, swapped in for the recording's lifetime.
        self.tapes: dict[str, _HistogramTape] = {}
        if registry.enabled:
            for attr, instrument in list(vars(obs).items()):
                if isinstance(instrument, (Histogram, TimeWeightedHistogram)):
                    tape = _HistogramTape(instrument, engine)
                    self.tapes[attr] = tape
                    setattr(obs, attr, tape)

        # Completion-time taps: one passive callback per member request.
        for index, start in enumerate(starts):
            process = start.request._process
            process.add_callback(
                lambda event, i=index: self.completions.__setitem__(
                    i, (engine.now, event.value if event.ok else None)
                )
            )

    def abort(self, reason: str) -> None:
        if self.aborted is None:
            self.aborted = reason

    def restore_tapes(self) -> None:
        obs = self.machine.obs
        for attr, tape in self.tapes.items():
            setattr(obs, attr, tape.real)

    def commit(self) -> CompiledSchedule | None:
        """Build the trace at quiescence, or ``None`` when unusable."""
        self.restore_tapes()
        if self.aborted is not None:
            return None
        if len(self.completions) != len(self.starts):
            return None
        machine = self.machine
        engine = machine.engine
        t0 = self.t0
        duration = engine.now - t0

        # State diff: join the commit-time snapshot against the armed one.
        post_state = _snapshot(self.contexts, machine)
        state_entries: list[tuple] = []
        for cell_id, (cell, post) in post_state.items():
            pre_pair = self.pre_state.get(cell_id)
            pre = pre_pair[1] if pre_pair is not None else _MISSING
            if pre is post or pre == post:
                continue
            is_delta = type(pre) is int and type(post) is int
            is_delta = is_delta and (pre != 0 or cell[0] != "flag")
            state_entries.append((cell, pre, post, is_delta))

        obs = machine.obs
        registry = obs.metrics
        metric_deltas: list[tuple] = []
        if registry.enabled:
            for name, instrument in registry._instruments.items():
                if instrument.kind not in ("counter", "gauge"):
                    continue
                delta = instrument.value - self.pre_metrics.get(name, 0)
                if delta:
                    metric_deltas.append((instrument.kind, name, instrument.help, delta))

        hist_events: list[tuple] = []
        for attr, tape in self.tapes.items():
            if not tape.events:
                continue
            rel_times = np.array([t - t0 for t, _v in tape.events], dtype=np.float64)
            values = [v for _t, v in tape.events]
            kind = "histogram" if isinstance(tape.real, Histogram) else "time_histogram"
            hist_events.append((attr, kind, rel_times, values))

        # Span tail: window-relative columns with parents as tail offsets.
        recorder = obs.recorder
        span_tail: dict | None = None
        span_members: list[tuple[int, int]] = []
        flow_tail: dict | None = None
        if recorder.enabled:
            mark = self.span_mark
            span_tail = recorder.spans.tail(mark, t0)
            parent = span_tail["parent"]
            if np.isnan(span_tail["end"]).any() or ((parent >= 0) & (parent < mark)).any():
                return None  # a span leaked across the window boundary
            span_tail["parent"] = np.where(parent >= 0, parent - mark, -1)
            describe_map = {
                start.request.describe(): index
                for index, start in enumerate(self.starts)
            }
            for offset, (name, detail) in enumerate(zip(span_tail["name"], span_tail["detail"])):
                if name == REQUEST and detail in describe_map:
                    span_members.append((offset, describe_map[detail]))
            flow_tail = recorder.flows.tail(self.flow_mark, t0)

        monitor_tail: list[tuple] = []
        if obs.monitor is not None:
            for name, timeline in obs.monitor.timelines.items():
                mark = self.monitor_marks.get(name, 0)
                table = timeline.table
                if len(table) > mark:
                    first = (
                        table.time[mark] - t0,
                        table.occupancy[mark],
                        table.queued[mark],
                        table.saturated[mark],
                    )
                    monitor_tail.append((timeline, first, table.tail(mark + 1, t0)))

        completions = [
            (self.completions[i][0] - t0, self.completions[i][1])
            for i in range(len(self.starts))
        ]
        return CompiledSchedule(
            key=self.key,
            plans=[start.plan for start in self.starts],
            duration=duration,
            ops=self.ops,
            state_entries=state_entries,
            metric_deltas=metric_deltas,
            hist_events=hist_events,
            span_tail=span_tail,
            span_members=span_members,
            flow_tail=flow_tail,
            monitor_tail=monitor_tail,
            completions=completions,
        )


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------


class _DeferredStart:
    """One ``plan.start()`` awaiting the next ``engine.run()`` flush."""

    __slots__ = ("plan", "invocation", "request")

    def __init__(self, plan, invocation, request) -> None:
        self.plan = plan
        self.invocation = invocation
        self.request = request


class ReplayManager:
    """Per-engine record/replay coordinator, installed at ``engine.trace``."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._deferred: list[_DeferredStart] = []
        self._window_dirty = False
        self._recording: _Recording | None = None
        self._traces: dict[tuple, CompiledSchedule] = {}
        self._counter_cache: tuple | None = None
        #: Plain integers for tests; the obs counters mirror them per machine.
        self.hit_count = 0
        self.miss_count = 0
        #: Misses by cause (:data:`MISS_CAUSES`); they sum to ``miss_count``.
        self.miss_causes = dict.fromkeys(MISS_CAUSES, 0)
        #: Precondition misses by the failing cell's kind (:data:`CELL_KINDS`);
        #: they sum to ``miss_causes["precondition"]``.
        self.precondition_kinds = dict.fromkeys(CELL_KINDS, 0)
        #: Dirty windows by reason (:data:`DIRTY_REASONS`).
        self.dirty_reasons = dict.fromkeys(DIRTY_REASONS, 0)

    # -- start-time interface (called by PersistentCollective.start) -------

    def accepts(self, plan: "PersistentCollective") -> bool:
        """True when a start may be deferred: the engine is idle (a start
        issued from inside a running process always spawns immediately, so
        launch-style programs keep their exact legacy behavior)."""
        return self.engine._active_process is None

    def defer(self, plan, invocation, request) -> None:
        if self.engine._queue and not self._deferred:
            # Something else is already scheduled at the window's front;
            # materialization order would differ from the undeferred order.
            self._window_dirty = True
        self._deferred.append(_DeferredStart(plan, invocation, request))

    # -- recording taps (called by the data-moving substrates) --------------

    @property
    def recording(self) -> _Recording | None:
        return self._recording

    def record_copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        recording = self._recording
        if recording is not None and dst.nbytes:
            recording.ops.append((OP_COPY, dst, src, None, None))

    def record_reduce(self, dst: np.ndarray, src: np.ndarray, op) -> None:
        recording = self._recording
        if recording is not None:
            recording.ops.append((OP_REDUCE, dst, src, None, op))

    def record_combine(self, dst: np.ndarray, a: np.ndarray, b: np.ndarray, op) -> None:
        recording = self._recording
        if recording is not None:
            recording.ops.append((OP_COMBINE, dst, a, b, op))

    def record_opaque(self, reason: str) -> None:
        """An effect the tape cannot represent (active-message handlers)."""
        recording = self._recording
        if recording is not None:
            recording.abort(reason)

    # -- run-loop hooks (called by Engine.run/step) --------------------------

    def on_run(self, until: typing.Any) -> None:
        """Flush deferred starts; discard any uncommitted recording."""
        recording = self._recording
        if recording is not None:
            # The previous recorded run never reached quiescence (deadlock,
            # exception, run(until=...) truncation): drop the half trace.
            self._recording = None
            recording.restore_tapes()
        if not self._deferred:
            return
        starts = self._deferred
        self._deferred = []
        machine = starts[0].plan.task.machine
        registry = machine.obs.metrics
        engine = self.engine
        if self._window_dirty or engine._queue:
            reason = "queued"
        elif until is not None:
            reason = "until"
        elif engine.scheduler is not None:
            reason = "scheduler"
        elif engine.faults is not None:
            reason = "faults"
        else:
            reason = None
        self._window_dirty = False
        if reason is not None:
            self.dirty_reasons[reason] += 1
            registry.counter(f"replay.dirty.{reason}", DIRTY_REASONS[reason]).inc()
            self._materialize(starts, record_key=None)
            return
        key = self._window_key(starts)
        hits, misses, causes = self._counters(machine)
        trace = self._traces.get(key)
        if trace is None:
            cause = "cold"
        else:
            kind = trace.failed_precondition()
            if kind is None:
                self.hit_count += 1
                hits.inc()
                trace.apply(engine, machine, starts)
                return
            cause = "precondition"
            self.precondition_kinds[kind] += 1
            registry.counter(
                f"replay.misses.precondition.{kind}",
                f"replay misses: a recorded {kind} precondition failed",
            ).inc()
        self.miss_count += 1
        self.miss_causes[cause] += 1
        misses.inc()
        causes[cause].inc()
        self._materialize(starts, record_key=key)

    def on_quiescent(self) -> None:
        """The run loop drained its queue: commit or reject the recording."""
        recording = self._recording
        if recording is None:
            return
        self._recording = None
        incomplete = [
            start.request
            for start in recording.starts
            if not start.request.completed
        ]
        if incomplete:
            recording.restore_tapes()
            names = ", ".join(request.describe() for request in incomplete[:8])
            raise self.engine._deadlock(
                f"event queue drained with {len(incomplete)} recorded collective "
                f"request(s) incomplete ({names})"
            )
        trace = recording.commit()
        if trace is not None:
            self._traces[recording.key] = trace

    # -- internals -----------------------------------------------------------

    def _window_key(self, starts: list) -> tuple:
        return tuple(
            (id(s.plan), s.plan._generation, _invocation_parity(s.invocation))
            for s in starts
        )

    def _materialize(self, starts: list, record_key: tuple | None) -> None:
        for start in starts:
            start.request._spawn()
        if record_key is not None:
            self._recording = _Recording(self, record_key, starts)

    def _counters(self, machine: "Machine") -> tuple:
        """The machine's ``replay.hits``/``replay.misses`` instruments, and
        the ``replay.misses.<cause>`` ones by cause.

        Created lazily at the first clean flush decision (the dirty and
        precondition-kind counters at their first count), so machines that
        never defer a start keep a byte-identical metrics summary.
        """
        cached = self._counter_cache
        if cached is None:
            registry = machine.obs.metrics
            cached = (
                registry.counter("replay.hits", "compiled-schedule replay cache hits"),
                registry.counter("replay.misses", "compiled-schedule replay cache misses"),
                {
                    cause: registry.counter(f"replay.misses.{cause}", help_text)
                    for cause, help_text in MISS_CAUSES.items()
                },
            )
            self._counter_cache = cached
        return cached

    def invalidate_plan(self, plan: "PersistentCollective") -> None:
        """Drop every cached trace that involves ``plan`` (rebinding)."""
        stale = [
            key
            for key, trace in self._traces.items()
            if any(cached is plan for cached in trace.plans)
        ]
        for key in stale:
            del self._traces[key]

    def __repr__(self) -> str:
        return (
            f"<ReplayManager traces={len(self._traces)} hits={self.hit_count} "
            f"misses={self.miss_count}>"
        )
