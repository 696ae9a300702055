"""Compiled schedule replay for persistent collectives.

The paper's protocols are deterministic given (algorithm, message size,
topology), and a :class:`~repro.core.requests.PersistentCollective` pins
exactly that tuple — so the event schedule of a repeated collective is a
pure function of the plan and the invocation's slot parities.  This module
records one full execution of a persistent-plan window as a flat
:class:`CompiledSchedule` and replays later windows with the same key as a
vectorized kernel: batched memops (:func:`repro.machine.memops.apply_batch`),
bulk counter/flag/cursor updates, and re-emitted observability tails —
instead of re-driving :mod:`repro.sim.engine` processes and generators.

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
  ``replay.misses`` increments.
* **slow path, untraced** — the window is *dirty* (non-empty queue, a
  tie-break scheduler, a fault plan, ``run(until=...)``, or ``step()``):
  the requests are materialized and nothing is recorded or replayed.

What a trace holds
------------------

* the **op tape**: every byte-moving effect in capture order — shared-memory
  copies, operator applications, and put/get data movements, each holding
  the live NumPy views it touched (persistent plans pin their buffers, so
  the views stay valid until :meth:`PersistentCollective.rebind`
  invalidates the plan's traces);
* the **state diff**: (pre, post) pairs for every touched counter, flag,
  cursor, and stat cell.  Integer cells replay as deltas (cumulative
  sequence counters keep advancing across windows); non-integer cells
  (``reduce_last_write``'s ``None``, buffer-address registrations) must
  match exactly.  Every precondition is checked before anything mutates —
  a mismatch is a clean miss and the window re-records;
* the **observability tail**: phase spans, flow links, resource-monitor
  samples, histogram observations (all window-relative, re-emitted shifted
  so profiles, critical paths, and wait-state classification of a replayed
  window match the recorded one), and metric counter deltas;
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

from repro.machine.memops import apply_batch
from repro.obs.metrics import Histogram, TimeWeightedHistogram, _bucket_index
from repro.obs.monitor import ResourceSample
from repro.obs.spans import FlowLink, PhaseSpan
from repro.obs.taxonomy import REQUEST

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import SRMContext
    from repro.core.requests import CollectiveRequest, PersistentCollective
    from repro.machine.cluster import Machine
    from repro.sim.engine import Engine

__all__ = ["CompiledSchedule", "ReplayManager", "manager_for"]


#: Sentinel for "this dict key did not exist at the window boundary".
_MISSING = object()

#: Op-tape kinds (the ``kind`` column of the op metadata array).
OP_COPY = 0
OP_REDUCE = 1
OP_COMBINE = 2


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
# A cell is ("attr", obj, name) | ("item", sequence, index) | ("dict", d, key).
# Cells hold direct references; identity keys join the arm-time and
# commit-time snapshots.


def _cell_get(cell: tuple) -> typing.Any:
    kind, container, key = cell
    if kind == "attr":
        return getattr(container, key)
    if kind == "item":
        return container[key]
    return container.get(key, _MISSING)


def _cell_set(cell: tuple, value: typing.Any) -> None:
    kind, container, key = cell
    if kind == "attr":
        setattr(container, key, value)
    elif kind == "item":
        container[key] = value
    else:
        container[key] = value


def _cell_id(cell: tuple) -> tuple:
    kind, container, key = cell
    return (kind, id(container), key)


_TASK_STAT_FIELDS = ("copies", "bytes_copied", "reduce_ops", "bytes_reduced", "yields", "interrupts")
_LAPI_STAT_FIELDS = ("puts", "gets", "amsends", "rmws", "bytes_put", "bytes_got", "stalled_deliveries")


def _machine_cells(machine: "Machine") -> typing.Iterator[tuple]:
    for task in machine.tasks:
        stats = task.stats
        for name in _TASK_STAT_FIELDS:
            yield ("attr", stats, name)
        lapi_stats = task.lapi.stats
        for name in _LAPI_STAT_FIELDS:
            yield ("attr", lapi_stats, name)
        yield ("attr", task.lapi, "interrupts_enabled")


def _flag_cells(bank) -> typing.Iterator[tuple]:
    for flag in bank.flags:
        yield ("attr", flag, "_value")


def _counter_cell(counter) -> tuple:
    return ("attr", counter, "_value")


def _dict_cells(d: dict) -> typing.Iterator[tuple]:
    for key in d:
        yield ("dict", d, key)


def _context_cells(ctx: "SRMContext") -> typing.Iterator[tuple]:
    for state in ctx.nodes.values():
        for bank in state.bcast_buf.ready:
            yield from _flag_cells(bank)
        for i in range(len(state.bcast_seq)):
            yield ("item", state.bcast_seq, i)
        yield from _flag_cells(state.reduce_ready)
        yield from _flag_cells(state.reduce_consumed)
        for i in range(len(state.reduce_seq)):
            yield ("item", state.reduce_seq, i)
        for row in state.reduce_last_write:
            for i in range(len(row)):
                yield ("item", row, i)
        yield from _flag_cells(state.barrier_flags)
    for plan in ctx._bcast_plans.values():
        for edge in plan.edges.values():
            for counter in edge.arrival:
                yield _counter_cell(counter)
            for counter in edge.free:
                yield _counter_cell(counter)
        for counter in plan.stream_arrival.values():
            yield _counter_cell(counter)
        for counter in plan.address_arrival.values():
            yield _counter_cell(counter)
        yield from _dict_cells(plan.stream_base)
        yield from _dict_cells(plan.user_buffers)
    for plan in ctx._reduce_plans.values():
        for pair in plan.arrival.values():
            for counter in pair:
                yield _counter_cell(counter)
        for pair in plan.free.values():
            for counter in pair:
                yield _counter_cell(counter)
        yield from _dict_cells(plan.sent_seq)
        yield from _dict_cells(plan.recv_seq)
    plan = ctx._allreduce_plan
    if plan is not None:
        for counters in plan.arrival.values():
            for counter in counters:
                yield _counter_cell(counter)
        for counter in plan.fold_arrival.values():
            yield _counter_cell(counter)
        for counter in plan.fold_result_arrival.values():
            yield _counter_cell(counter)
        yield from _dict_cells(plan.call_seq)
    plan = ctx._barrier_plan
    if plan is not None:
        for counters in plan.counters.values():
            for counter in counters:
                yield _counter_cell(counter)
    yield from _dict_cells(ctx._invocation_seq)


def _snapshot(contexts: typing.Iterable["SRMContext"], machine: "Machine") -> dict:
    """``cell id -> (cell, value)`` over every known protocol-state scalar."""
    snapshot: dict = {}
    for cell in _machine_cells(machine):
        snapshot[_cell_id(cell)] = (cell, _cell_get(cell))
    for ctx in contexts:
        for cell in _context_cells(ctx):
            snapshot[_cell_id(cell)] = (cell, _cell_get(cell))
    return snapshot


def _invocation_parity(invocation) -> tuple:
    """The slot-parity signature of one reserved invocation window.

    Every persistent body reads its slots from these reserved bases only,
    so together with plan identity and generation they key a window.
    """
    return (
        invocation.op,
        invocation.root,
        invocation.bcast_base & 1,
        invocation.reduce_base & 1,
        invocation.stream_base & 1,
        invocation.sent_base & 1,
        tuple(sorted((rank, base & 1) for rank, base in invocation.recv_base.items())),
        invocation.call & 1,
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
        flow_tail: list[tuple],
        monitor_tail: list[tuple],
        completions: list[tuple[float, typing.Any]],
    ) -> None:
        self.key = key
        #: Strong refs keep ``id(plan)`` in the key stable for the cache's life.
        self.plans = plans
        self.duration = duration
        #: Capture-order op tape: (kind, dst, a, b, operator) with live views.
        self.ops = ops
        #: (cell, pre, post, is_delta) — int/int cells replay as deltas.
        self.state_entries = state_entries
        #: (metric kind, name, help, delta) for counters and gauges.
        self.metric_deltas = metric_deltas
        #: (hub attr, instrument kind, rel_times, values) observation tapes.
        self.hist_events = hist_events
        #: Columnar span tail (rel times as float64 arrays) or None.
        self.span_tail = span_tail
        #: (kind, src_rank, rel_src, dst_rank, rel_dst, detail) links.
        self.flow_tail = flow_tail
        #: (name, resource kind, [(rel, occupancy, queued, saturated)]).
        self.monitor_tail = monitor_tail
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
        #: keeps the sequential per-value addition order so replayed sums stay
        #: bit-identical to the slow path.  Time-weighted tapes replay
        #: event-by-event (each settle depends on the previous interval).
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
                        tuple(values),
                        len(values),
                        min(values),
                        max(values),
                        tuple(buckets.items()),
                    )
                )
            else:
                self._hist_rows.append((attr, kind, tuple(zip(rel_times, values))))
        #: Replay-ready row cache derived from the columnar span tail once
        #: (Python scalars, positional order) — the apply loop's hot input.
        self._span_rows: list[tuple] | None = None
        if span_tail is not None:
            self._span_rows = list(
                zip(
                    span_tail["names"],
                    span_tail["rel_start"].tolist(),
                    span_tail["rel_end"].tolist(),
                    span_tail["ranks"].tolist(),
                    span_tail["depths"].tolist(),
                    span_tail["parent_offsets"].tolist(),
                    span_tail["tracks"].tolist(),
                    span_tail["details"],
                    span_tail["request_members"].tolist(),
                )
            )

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def preconditions_ok(self) -> bool:
        """True when every recorded state precondition holds right now."""
        for cell, _delta in self._delta_entries:
            if type(_cell_get(cell)) is not int:
                return False
        for cell, pre, _post in self._exact_entries:
            current = _cell_get(cell)
            if isinstance(pre, np.ndarray) or isinstance(current, np.ndarray):
                if current is not pre:
                    return False
            elif current is not pre and current != pre:
                return False
        return True

    def apply(self, engine: "Engine", machine: "Machine", starts: list) -> None:
        """Replay the window at the current instant (preconditions hold)."""
        t0 = engine.now

        # 1. Data movement: the whole op tape in one batched pass.
        apply_batch(self.ops)

        # 2. Bulk state update: deltas for cumulative counters/cursors,
        #    exact values for everything else.
        for cell, delta in self._delta_entries:
            kind, container, key = cell
            if kind == "attr":
                setattr(container, key, getattr(container, key) + delta)
            else:
                container[key] = container[key] + delta
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
                    _attr, _kind, values, count, vmin, vmax, bucket_items = row
                    total = instrument.total
                    for value in values:
                        total += value
                    instrument.total = total
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

        # 4. Observability tails, time-shifted to this window.
        recorder = obs.recorder
        if recorder.enabled and self._span_rows is not None:
            span_list = recorder.spans
            base = len(span_list)
            append_span = span_list.append
            index = base
            for name, rel_start, rel_end, rank, depth, parent_off, track, detail, member in self._span_rows:
                if member >= 0:
                    detail = starts[member].request.describe()
                span = PhaseSpan(
                    index,
                    rank,
                    name,
                    t0 + rel_start,
                    depth,
                    (base + parent_off) if parent_off >= 0 else -1,
                    track,
                    detail,
                )
                span.end = t0 + rel_end
                append_span(span)
                index += 1
            append_flow = recorder.flows.append
            for kind, src_rank, rel_src, dst_rank, rel_dst, detail in self.flow_tail:
                append_flow(
                    FlowLink(kind, src_rank, t0 + rel_src, dst_rank, t0 + rel_dst, detail)
                )
        monitor = obs.monitor
        if monitor is not None:
            for name, kind, samples in self.monitor_tail:
                timeline = monitor.register(name, kind)
                # Boundary sample goes through record() (it may coalesce with
                # the pre-window state); the rest of the tail is already
                # coalesced and strictly time-increasing, so direct appends
                # replicate record() exactly.
                rel, occupancy, queued, saturated = samples[0]
                timeline.record(t0 + rel, occupancy, queued, saturated)
                series = timeline._samples
                times = timeline._times
                for rel, occupancy, queued, saturated in samples[1:]:
                    when = t0 + rel
                    series.append(ResourceSample(when, occupancy, queued, saturated))
                    times.append(when)

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
            f"<CompiledSchedule ops={self.op_count} state={len(self.state_entries)} "
            f"duration={self.duration:.6g}s replays={self.replays}>"
        )


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
                self.monitor_marks[name] = len(timeline._samples)

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
            if isinstance(post, np.ndarray) or isinstance(pre, np.ndarray):
                if pre is not post:
                    state_entries.append((cell, pre, post, False))
                continue
            if pre is post or pre == post:
                continue
            is_delta = type(pre) is int and type(post) is int
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

        # Span tail: window-relative columns with parents remapped.
        recorder = obs.recorder
        span_tail: dict | None = None
        flow_tail: list[tuple] = []
        if recorder.enabled:
            tail_spans = recorder.spans[self.span_mark :]
            describe_map = {
                start.request.describe(): index
                for index, start in enumerate(self.starts)
            }
            count = len(tail_spans)
            rel_start = np.empty(count, dtype=np.float64)
            rel_end = np.empty(count, dtype=np.float64)
            ranks = np.empty(count, dtype=np.int32)
            depths = np.empty(count, dtype=np.int32)
            tracks = np.empty(count, dtype=np.int32)
            parent_offsets = np.empty(count, dtype=np.int32)
            request_members = np.empty(count, dtype=np.int32)
            names: list[str] = []
            details: list[str] = []
            for i, span in enumerate(tail_spans):
                if span.end is None or (span.parent >= 0 and span.parent < self.span_mark):
                    return None  # a span leaked across the window boundary
                rel_start[i] = span.start - t0
                rel_end[i] = span.end - t0
                ranks[i] = span.rank
                depths[i] = span.depth
                tracks[i] = span.track
                parent_offsets[i] = span.parent - self.span_mark if span.parent >= 0 else -1
                member = -1
                if span.name == REQUEST:
                    member = describe_map.get(span.detail, -1)
                request_members[i] = member
                names.append(span.name)
                details.append(span.detail)
            span_tail = {
                "rel_start": rel_start,
                "rel_end": rel_end,
                "ranks": ranks,
                "depths": depths,
                "tracks": tracks,
                "parent_offsets": parent_offsets,
                "request_members": request_members,
                "names": names,
                "details": details,
            }
            for link in recorder.flows[self.flow_mark :]:
                flow_tail.append(
                    (link.kind, link.src_rank, link.src_ts - t0, link.dst_rank, link.dst_ts - t0, link.detail)
                )

        monitor_tail: list[tuple] = []
        if obs.monitor is not None:
            for name, timeline in obs.monitor.timelines.items():
                mark = self.monitor_marks.get(name, 0)
                samples = timeline._samples[mark:]
                if samples:
                    monitor_tail.append(
                        (
                            name,
                            timeline.kind,
                            [(s.time - t0, s.occupancy, s.queued, s.saturated) for s in samples],
                        )
                    )

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
        dirty = (
            self._window_dirty
            or until is not None
            or bool(self.engine._queue)
            or self.engine.scheduler is not None
            or self.engine.faults is not None
        )
        self._window_dirty = False
        if dirty:
            self._materialize(starts, record_key=None)
            return
        key = self._window_key(starts)
        machine = starts[0].plan.task.machine
        hits, misses = self._counters(machine)
        trace = self._traces.get(key)
        if (
            trace is not None
            and all(s.request._process is None and not s.request._done for s in starts)
            and trace.preconditions_ok()
        ):
            self.hit_count += 1
            hits.inc()
            trace.apply(self.engine, machine, starts)
            return
        self.miss_count += 1
        misses.inc()
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
        """The machine's ``replay.hits``/``replay.misses`` instruments.

        Created lazily at the first flush decision, so machines that never
        defer a start keep a byte-identical metrics summary.
        """
        cached = self._counter_cache
        if cached is None:
            registry = machine.obs.metrics
            cached = (
                registry.counter("replay.hits", "compiled-schedule replay cache hits"),
                registry.counter("replay.misses", "compiled-schedule replay cache misses"),
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
