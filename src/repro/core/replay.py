"""Compiled schedule replay for persistent collectives.

The paper's protocols are deterministic given (algorithm, message size,
topology), and a :class:`~repro.core.requests.PersistentCollective` pins
exactly that tuple — so the event schedule of a repeated collective is a
pure function of the plans and the slot state their reservations read.  This module
records one full execution of a persistent-plan window as a flat
:class:`CompiledSchedule` and replays later windows with the same key as a
flat kernel: the op tape compiled once into byte-slice copies and bound
operator ufuncs (:func:`repro.machine.memops.compile_tape`), bulk
counter/flag/cursor updates, and re-emitted observability tails — instead
of re-driving :mod:`repro.sim.engine` processes and generators.

How a window forms
------------------

A ``plan.start()`` made while the engine is idle is *deferred*: it claims
its request number and appends its plan's current reserve and body
closures, and the plan's generation, to the open window of the
:class:`ReplayManager` (installed at ``engine.trace``, the same
None-default tap slot as the verifier, fault plan, and monitor).  Nothing
is reserved and no process exists yet.  The next plain ``engine.run()``
flushes the window:

* **replay** — the window's key matches a committed trace and every
  recorded precondition holds → the trace is applied at the flush instant,
  and one event at the window's end completes every member request with its
  recorded value.  No member reserves: the trace's state diff carries the
  window's reservations.  ``replay.hits`` increments.
* **record** — no usable trace: every start reserves its window, in started
  order, and spawns its progress process, and a recording is armed.  When
  the run loop drains the queue (quiescence) with every member request
  complete, the trace commits.  ``replay.misses`` increments, and so does
  the counter of its cause (:data:`MISS_CAUSES`): ``replay.misses.cold`` (no
  trace under the key) or ``replay.misses.precondition`` (a recorded
  precondition failed), the latter also as
  ``replay.misses.precondition.<kind>`` by the kind of the first failing
  cell (:data:`CELL_KINDS`).
* **slow path, untraced** — the window is *dirty*: its starts reserve and
  spawn, and nothing is recorded or replayed.  ``replay.dirty.<reason>``
  counts it by the first reason found (:data:`DIRTY_REASONS`): other events
  queued, ``run(until=...)`` or ``step()``, a tie-break scheduler, or a
  fault plan.

The window key has two parts: the plan-set signature, built as the starts
arrive (each start's plan and the generation it captured), and the ledger
values the window's reservations read at its start — each cursor's parity
and each slot's last-writer tuple exactly.  A plan reserves the same keys at
every start, so the signature fixes which keys those are; they are learned
from the signature's first recorded window.

Whatever needs a deferred start's window before the flush — a start that
reserves at once (an ``i*`` start or a blocking call), reading
``request.invocation``, an early ``wait()`` — first reserves and spawns the
window's deferred starts in started order (:meth:`ReplayManager.materialize`),
so every rank claims its windows in the order it started them; the window
then runs untraced as ``queued``.  A plan rebound between its start and the
flush keeps what the start captured: the start runs the old bodies, and its
window's trace is not cached.

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
  (:attr:`Machine.counters`, :attr:`Machine.flags`), the registry's own
  counters (the substrate counts it reads from the stats are no cells of
  their own) and the sequence ledger of each context in the window,
  snapshotted before the window reserves.  Integer cells replay as deltas
  (cumulative sequences keep advancing across windows; a cursor first
  reserved in the window counts from 0, as the ledger reads it); a cell
  that did not exist when the window began (a last-writer record first
  written, a LAPI or registry counter first created in it), a flag first
  written in it (a slot handoff skips its poll until then) and the
  interrupt switch must match exactly.  Every precondition is checked
  before anything mutates — a mismatch is a clean miss and the window
  re-records;
* the **observability tail**: phase spans, flow links and resource-monitor
  samples in the recorder's own column format (:mod:`repro.obs.columns`),
  histogram observations (all window-relative, re-emitted shifted so
  profiles, critical paths, and wait-state classification of a replayed
  window match the recorded one).  A hit hands
  every tail to its table by reference, one pending block per table; the
  rows are copied, bit-identical to an eager copy, on the first read or
  append, so a session that reads nothing between windows holds no copy of
  them.  The span block carries the replaying requests' numbers, from which
  the details of its ``request`` spans are written when it is copied.  A
  sample block carries the state the window left the row before it in
  (``record()`` overwrites that row on a change at the same instant) and
  its own last row; each timeline must open as it did in the recorded
  window — the same last state, with a last row at the window's start
  exactly when the recording's had one — so the appended rows are the slow
  path's.  A histogram's running total replays as one sequential
  ``np.add.accumulate``;
* per-request **values**, plus the window duration, so ``engine.now``
  advances through a replayed window exactly as recorded.

Failure safety: a recording that never reaches quiescence (a
``DeadlockError``, any exception out of the run loop, an interrupted run)
is discarded at the next flush — a half-written trace is never cached, and
the next ``start()`` falls back to the slow path.
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.machine.memops import OP_COMBINE, OP_COPY, OP_REDUCE, compile_tape, run_kernel
from repro.obs.metrics import Counter, Gauge, Histogram, TimeWeightedHistogram, _bucket_index
from repro.obs.taxonomy import REQUEST

if typing.TYPE_CHECKING:  # pragma: no cover
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
#: interrupt switch, a LAPI counter, a shared flag, a sequence-ledger key or
#: a registry counter or gauge (``metric``); ``monitor`` is a resource
#: timeline's last row, which a window's first samples coalesce against.  A
#: failed precondition counts as ``replay.misses.precondition.<kind>``.
CELL_KINDS = ("stat", "interrupts", "counter", "flag", "ledger", "metric", "monitor")


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


def _cells(ledgers: typing.Iterable[dict], machine: "Machine") -> typing.Iterator[tuple]:
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
    for ledger in ledgers:
        for key in ledger:
            yield ("ledger", ledger, key)
    for instrument in machine.obs.metrics._instruments.values():
        if type(instrument) in (Counter, Gauge):
            yield ("metric", instrument, "value")


def _snapshot(ledgers: typing.Iterable[dict], machine: "Machine") -> dict:
    """``cell id -> (cell, value)`` over every protocol-state scalar."""
    return {_cell_id(cell): (cell, _cell_get(cell)) for cell in _cells(ledgers, machine)}


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
        duration: float,
        ops: list[tuple],
        state_entries: list[tuple],
        hist_events: list[tuple],
        span_tail: dict | None,
        span_members: list[tuple[int, int, str, str]],
        flow_tail: dict | None,
        monitor_openings: list[tuple],
        monitor_blocks: list[tuple],
        values: list[typing.Any],
    ) -> None:
        #: (plan-set signature, read values): the signature holds the plans.
        self.key = key
        self.duration = duration
        #: The capture-order op tape, compiled once (:func:`compile_tape`):
        #: copies hold byte slices, operator passes their recorded views.
        self.kernel = compile_tape(ops)
        #: (cell, pre, post, is_delta) — int/int cells replay as deltas.
        self.state_entries = state_entries
        #: Span rows as :meth:`ColumnTable.tail` columns (window-relative
        #: times, ``parent`` as an offset into the tail or -1), or None.
        self.span_tail = span_tail
        #: (tail offset, member, label prefix, label suffix) of each
        #: ``request`` span: its detail is the prefix, the replaying
        #: member's request number and the suffix, written when read.
        self.span_members = tuple(span_members)
        #: Flow-link rows as tail columns (window-relative times), or None.
        self.flow_tail = flow_tail
        #: (sample table, its opening) for every timeline: the opening is
        #: its last row's state and whether that row sat at the window's
        #: start, or None while empty — see :func:`_opening`.
        self.monitor_openings = monitor_openings
        #: (sample table, tail, (boundary, closing)) of every timeline the
        #: window changed — see :meth:`_Recording.commit`.
        self.monitor_blocks = monitor_blocks
        #: Per deferred start, in window order: the request's value.
        self.values = values
        self.replays = 0
        #: Split entry lists for the hot loops: integer cells replay as
        #: precomputed deltas (a ledger cursor the window first reserved
        #: counts from 0, as :class:`SequenceLedger` reads it), everything
        #: else as exact (pre -> post) swaps.
        self._attr_deltas: list[tuple] = []
        self._ledger_deltas: list[tuple] = []
        self._exact_entries: list[tuple] = []
        for cell, pre, post, is_delta in state_entries:
            kind, container, key = cell
            if not is_delta:
                self._exact_entries.append((cell, pre, post))
            elif kind == "ledger":
                self._ledger_deltas.append((container, key, post - (0 if pre is _MISSING else pre)))
            else:
                self._attr_deltas.append((kind, container, key, post - pre))
        #: Histogram tapes folded to replay-ready aggregates.  Bucket counts,
        #: observation count, and min/max are order-independent integers or
        #: pure comparisons, so they fold exactly; the running float ``total``
        #: keeps the sequential per-value addition order (:func:`_running_total`)
        #: so replayed sums stay bit-identical to the slow path.  Time-weighted
        #: tapes replay event-by-event (each settle depends on the previous
        #: interval).
        self._hist_rows: list[tuple] = []
        for attr, kind, rel_times, observed in hist_events:
            if kind == "histogram":
                if not observed:
                    continue
                buckets: dict[int, int] = {}
                for value in observed:
                    index = _bucket_index(value)
                    buckets[index] = buckets.get(index, 0) + 1
                self._hist_rows.append(
                    (
                        attr,
                        kind,
                        np.array([0.0, *observed], dtype=np.float64),
                        len(observed),
                        min(observed),
                        max(observed),
                        tuple(buckets.items()),
                    )
                )
            else:
                self._hist_rows.append((attr, kind, tuple(zip(rel_times, observed))))

    def failed_precondition(self, now: float) -> str | None:
        """The kind of the first recorded precondition that fails at
        ``now`` (one of :data:`CELL_KINDS`), or None when every one holds."""
        for kind, container, key, _delta in self._attr_deltas:
            if type(getattr(container, key)) is not int:
                return kind
        for ledger, key, _delta in self._ledger_deltas:
            if type(ledger.get(key, 0)) is not int:
                return "ledger"
        for cell, pre, _post in self._exact_entries:
            current = _cell_get(cell)
            if current is not pre and current != pre:
                return cell[0]
        for table, opening in self.monitor_openings:
            if _opening(table, now) != opening:
                return "monitor"
        return None

    def apply(self, engine: "Engine", machine: "Machine", window: list) -> None:
        """Replay the window at the current instant (preconditions hold)."""
        t0 = engine.now

        # 1. Data movement: the compiled op tape in capture order.
        run_kernel(self.kernel)

        # 2. Bulk state update in one pass: deltas for cumulative counters
        #    and cursors (the window's reservations included), exact values
        #    for everything else.
        for _kind, container, key, delta in self._attr_deltas:
            setattr(container, key, getattr(container, key) + delta)
        for ledger, key, delta in self._ledger_deltas:
            ledger[key] += delta
        for cell, _pre, post in self._exact_entries:
            _cell_set(cell, post)

        # 3. Re-observed distributions (the counters are state cells).
        obs = machine.obs
        if obs.metrics.enabled:
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

        # 4. Observability tails, time-shifted to this window, each taken by
        #    reference as one pending block per table (copied on the first
        #    read or append).  The span block carries the members' request
        #    numbers for the details of its ``request`` spans; a sample
        #    block carries how the window left the row before it.
        recorder = obs.recorder
        if recorder.enabled and self.span_tail is not None:
            sequences = tuple([request.sequence for request in window])
            recorder.spans.extend(self.span_tail, t0, (self.span_members, sequences))
            recorder.flows.extend(self.flow_tail, t0)
        for table, tail, edges in self.monitor_blocks:
            table.extend(tail, t0, edges)

        # 5. One event: the window's end, where every member completes with
        #    its recorded value and the clock has traversed the window.
        values = self.values
        engine.timeout(self.duration).add_callback(
            lambda _event: _complete(window, values)
        )
        self.replays += 1

    def __repr__(self) -> str:
        return (
            f"<CompiledSchedule ops={len(self.kernel)} state={len(self.state_entries)} "
            f"duration={self.duration:.6g}s replays={self.replays}>"
        )


def _opening(table, t0: float) -> tuple | None:
    """How a timeline's samples open a window starting at ``t0``: its last
    row's state and whether that row sits at ``t0`` (where ``record()``
    overwrites it rather than appending), or None while it has no rows."""
    last = table.last()
    if last is None:
        return None
    time, occupancy, queued, saturated = last
    return (occupancy, queued, saturated, time == t0)


def _complete(window: list["CollectiveRequest"], values: list[typing.Any]) -> None:
    """Complete every member request of a replayed window."""
    for request, value in zip(window, values):
        request._replay_complete(value)


def _running_total(total: float, seeded: np.ndarray) -> float:
    """``total`` plus ``seeded[1:]``, added one value at a time from the
    left as ``Histogram.observe`` adds them (slot 0 takes ``total``).

    ``np.add.accumulate`` is a sequential prefix sum in float64, rounding
    at every step exactly as Python's float ``+=`` does.
    """
    seeded[0] = total
    return float(np.add.accumulate(seeded)[-1])


# ---------------------------------------------------------------------------
# the window key: what a window's reservations read
# ---------------------------------------------------------------------------
#
# A plan reserves the same keys with the same counts and writer at every
# start, so a window's plan-set signature fixes its reservations; the
# ledger values they read at the window's start fix every slot they claim.
# The reads are learned from the first window of a signature that reserves
# on the slow path: per ledger, the cursors its invocations based windows
# on and the slot histories they took last writers from.


def _learn_reads(window: list["CollectiveRequest"]) -> tuple:
    """``((ledger, cursor keys, writer keys), ...)`` of a bound window."""
    by_ledger: dict[int, tuple] = {}
    for request in window:
        invocation = request._invocation
        ledger = request.ledger
        _ledger, cursors, writers = by_ledger.setdefault(id(ledger), (ledger, {}, {}))
        cursors.update(dict.fromkeys(invocation.bases))
        writers.update(dict.fromkeys(("writer", *key) for key in invocation.writers))
    return tuple(
        (ledger, tuple(cursors), tuple(writers)) for ledger, cursors, writers in by_ledger.values()
    )


def _read_values(reads: tuple) -> tuple:
    """The ledger values ``reads`` names, now: each cursor's parity and
    each last-writer tuple exactly (``None`` while never written)."""
    values: list = []
    for ledger, cursors, writers in reads:
        get = ledger.get
        values += [get(key, 0) & 1 for key in cursors]
        values += [get(key) for key in writers]
    return tuple(values)


def _snapshot_values(reads: tuple, snapshot: dict) -> tuple:
    """:func:`_read_values` as of a :func:`_snapshot`."""
    values: list = []
    for ledger, cursors, writers in reads:
        ledger_id = id(ledger)
        for key in cursors:
            entry = snapshot.get((ledger_id, key))
            values.append((entry[1] if entry is not None else 0) & 1)
        for key in writers:
            entry = snapshot.get((ledger_id, key))
            values.append(entry[1] if entry is not None else None)
    return tuple(values)


def _bind(window: list["CollectiveRequest"], starts: list[tuple]) -> None:
    """Reserve and spawn deferred starts, in started order: ``starts``
    holds each one's reserve and body closures."""
    for request, (reserve, body) in zip(window, starts):
        request._bind(reserve(), body)


# ---------------------------------------------------------------------------
# an armed recording
# ---------------------------------------------------------------------------


class _Recording:
    """Everything captured between a window's flush and its quiescence.

    Built before the window reserves anything, so the state diff carries
    the window's reservations; :meth:`watch` taps the member processes
    once they exist.  It holds its machine weakly: the engine's replay hook
    holds the recording.
    """

    def __init__(self, window: list, signature: tuple) -> None:
        self.window = window
        self.signature = signature
        #: The full window key, set once the window's reads are known.
        self.key: tuple | None = None
        machine = window[0].task.machine
        self._machine = weakref.ref(machine)
        engine = machine.engine
        self.t0 = engine.now
        self.aborted: str | None = None
        self.ops: list[tuple] = []
        #: Member index -> the request's value, in completion order.
        self.completions: dict[int, typing.Any] = {}

        ledgers = {id(request.ledger): request.ledger for request in window}
        self.ledgers = list(ledgers.values())
        self.pre_state = _snapshot(self.ledgers, machine)

        obs = self.obs = machine.obs
        recorder = obs.recorder
        self.span_mark = len(recorder.spans)
        self.flow_mark = len(recorder.flows)
        #: Timeline name -> (row count, opening) at the window's start.
        self.monitor_marks: dict[str, tuple] = {}
        if obs.monitor is not None:
            for name, timeline in obs.monitor.timelines.items():
                table = timeline.table
                self.monitor_marks[name] = (len(table), _opening(table, self.t0))

        #: Hub attr -> tape proxy, swapped in for the recording's lifetime.
        self.tapes: dict[str, _HistogramTape] = {}
        if obs.metrics.enabled:
            for attr, instrument in list(vars(obs).items()):
                if isinstance(instrument, (Histogram, TimeWeightedHistogram)):
                    tape = _HistogramTape(instrument, engine)
                    self.tapes[attr] = tape
                    setattr(obs, attr, tape)

    def watch(self) -> None:
        """One passive completion callback per member request."""
        for index, request in enumerate(self.window):
            request._process.add_callback(
                lambda event, i=index: self.completions.__setitem__(
                    i, event.value if event.ok else None
                )
            )

    def abort(self, reason: str) -> None:
        if self.aborted is None:
            self.aborted = reason

    def restore_tapes(self) -> None:
        obs = self.obs
        for attr, tape in self.tapes.items():
            setattr(obs, attr, tape.real)

    def commit(self) -> CompiledSchedule | None:
        """Build the trace at quiescence, or ``None`` when unusable."""
        self.restore_tapes()
        if self.aborted is not None:
            return None
        if len(self.completions) != len(self.window):
            return None
        machine = self._machine()
        if machine is None:
            return None
        engine = machine.engine
        t0 = self.t0
        duration = engine.now - t0

        # State diff: join the commit-time snapshot against the armed one.
        post_state = _snapshot(self.ledgers, machine)
        state_entries: list[tuple] = []
        for cell_id, (cell, post) in post_state.items():
            pre_pair = self.pre_state.get(cell_id)
            pre = pre_pair[1] if pre_pair is not None else _MISSING
            if pre is post or pre == post:
                continue
            if cell[0] == "ledger" and pre is _MISSING:
                # A cursor first reserved in the window counts from 0.
                is_delta = type(post) is int
            else:
                is_delta = type(pre) is int and type(post) is int
                is_delta = is_delta and (pre != 0 or cell[0] != "flag")
            state_entries.append((cell, pre, post, is_delta))

        hist_events: list[tuple] = []
        for attr, tape in self.tapes.items():
            if not tape.events:
                continue
            rel_times = np.array([t - t0 for t, _v in tape.events], dtype=np.float64)
            values = [v for _t, v in tape.events]
            kind = "histogram" if isinstance(tape.real, Histogram) else "time_histogram"
            hist_events.append((attr, kind, rel_times, values))

        # Span tail: window-relative columns with parents as tail offsets.
        obs = machine.obs
        recorder = obs.recorder
        span_tail: dict | None = None
        span_members: list[tuple[int, int, str, str]] = []
        flow_tail: dict | None = None
        if recorder.enabled:
            mark = self.span_mark
            span_tail = recorder.spans.tail(mark, t0)
            parent = span_tail["parent"]
            if np.isnan(span_tail["end"]).any() or ((parent >= 0) & (parent < mark)).any():
                return None  # a span leaked across the window boundary
            span_tail["parent"] = np.where(parent >= 0, parent - mark, -1)
            members = {request.describe(): index for index, request in enumerate(self.window)}
            for offset, (name, detail) in enumerate(zip(span_tail["name"], span_tail["detail"])):
                member = members.get(detail) if name == REQUEST else None
                if member is not None:
                    span_members.append((offset, member, *self.window[member]._label()))
            flow_tail = recorder.flows.tail(self.flow_mark, t0)

        # Monitor tails: how the window left each timeline.  Replay appends
        # the rows from the opening mark on verbatim, after setting the row
        # before them to the state the window left there (``boundary``, None
        # when unchanged) — exactly what record() did — provided every
        # timeline opens as it did here.
        monitor_openings: list[tuple] = []
        monitor_blocks: list[tuple] = []
        if obs.monitor is not None:
            for name, timeline in obs.monitor.timelines.items():
                table = timeline.table
                mark, opening = self.monitor_marks.get(name, (0, None))
                monitor_openings.append((table, opening))
                table.materialize()
                boundary = None
                if mark:
                    row = mark - 1
                    left = (table.occupancy[row], table.queued[row], table.saturated[row])
                    if left != opening[:3]:
                        boundary = left
                closing = None
                if len(table) > mark:
                    time, *state = table.last()
                    closing = (time - t0, *state)
                if closing is not None or boundary is not None:
                    monitor_blocks.append((table, table.tail(mark, t0), (boundary, closing)))

        return CompiledSchedule(
            key=self.key,
            duration=duration,
            ops=self.ops,
            state_entries=state_entries,
            hist_events=hist_events,
            span_tail=span_tail,
            span_members=span_members,
            flow_tail=flow_tail,
            monitor_openings=monitor_openings,
            monitor_blocks=monitor_blocks,
            values=[self.completions[i] for i in range(len(self.window))],
        )


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------


class ReplayManager:
    """Per-engine record/replay coordinator, installed at ``engine.trace``."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: The open window: deferred starts in started order, and each
        #: one's reserve and body closures, captured at its start.
        self._window: list["CollectiveRequest"] = []
        self._starts: list[tuple] = []
        #: Its plan-set signature, built as the starts arrive: each start's
        #: plan and the generation it captured.
        self._signature: list = []
        #: How many of the window's first starts were reserved and spawned
        #: before the flush (:meth:`materialize`).
        self._bound = 0
        self._window_dirty = False
        self._recording: _Recording | None = None
        #: Plan-set signature -> what its windows' reservations read.
        self._reads: dict[tuple, tuple] = {}
        #: (signature, read values) -> the committed trace.
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

    # -- start-time interface (called by the request layer) -----------------

    def accepts(self, plan: "PersistentCollective") -> bool:
        """True when a start may be deferred: the engine is idle (a start
        issued from inside a running process always spawns immediately, so
        launch-style programs keep their exact legacy behavior)."""
        return self.engine._active_process is None

    def defer(self, plan: "PersistentCollective", request: "CollectiveRequest") -> None:
        """Add a start, with its plan's current closures, to the open window."""
        window = self._window
        if not window and self.engine._queue:
            # Something else is already scheduled at the window's front;
            # materialization order would differ from the undeferred order.
            self._window_dirty = True
        window.append(request)
        self._starts.append((plan._reserve, plan._body))
        signature = self._signature
        signature.append(plan)
        signature.append(plan._generation)

    def materialize(self) -> None:
        """Reserve and spawn the open window's deferred starts now.

        Called before anything that reserves out of turn or needs a
        deferred request's window early — another start's reservation,
        ``request.invocation``, an early ``wait()`` — so every rank still
        claims its windows in started order.  The window then runs
        untraced, as ``queued``.
        """
        window = self._window
        bound = self._bound
        if bound < len(window):
            self._bound = len(window)
            self._window_dirty = True
            _bind(window[bound:], self._starts[bound:])

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
        """Flush the open window; discard any uncommitted recording."""
        recording = self._recording
        if recording is not None:
            # The previous recorded run never reached quiescence (deadlock,
            # exception, run(until=...) truncation): drop the half trace.
            self._recording = None
            recording.restore_tapes()
        window = self._window
        if not window:
            return
        self._window = []
        starts, self._starts = self._starts, []
        signature = tuple(self._signature)
        self._signature = []
        bound = self._bound
        self._bound = 0
        machine = window[0].task.machine
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
            _bind(window[bound:], starts[bound:])
            return
        reads = self._reads.get(signature)
        key = None
        hits, misses, causes = self._counters(machine)
        trace = None
        if reads is not None:
            key = (signature, _read_values(reads))
            trace = self._traces.get(key)
        if trace is None:
            cause = "cold"
        else:
            kind = trace.failed_precondition(engine.now)
            if kind is None:
                self.hit_count += 1
                hits.inc()
                trace.apply(engine, machine, window)
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
        recording = _Recording(window, signature)
        _bind(window, starts)
        recording.watch()
        if reads is None:
            reads = self._reads[signature] = _learn_reads(window)
            key = (signature, _snapshot_values(reads, recording.pre_state))
        recording.key = key
        self._recording = recording

    def on_quiescent(self) -> None:
        """The run loop drained its queue: commit or reject the recording."""
        recording = self._recording
        if recording is None:
            return
        self._recording = None
        incomplete = [request for request in recording.window if not request.completed]
        if incomplete:
            recording.restore_tapes()
            names = ", ".join(request.describe() for request in incomplete[:8])
            raise self.engine._deadlock(
                f"event queue drained with {len(incomplete)} recorded collective "
                f"request(s) incomplete ({names})"
            )
        trace = recording.commit()
        signature = recording.signature
        plans, generations = signature[0::2], signature[1::2]
        if any(plan._generation != generation for plan, generation in zip(plans, generations)):
            # A plan was rebound after its start: no later start can match.
            self._reads.pop(signature, None)
        elif trace is not None:
            self._traces[recording.key] = trace

    # -- internals -----------------------------------------------------------

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
        """Drop every cached trace and read set that involves ``plan``."""
        for key in [key for key in self._traces if any(p is plan for p in key[0][0::2])]:
            del self._traces[key]
        for signature in [s for s in self._reads if any(p is plan for p in s[0::2])]:
            del self._reads[signature]

    def __repr__(self) -> str:
        return (
            f"<ReplayManager traces={len(self._traces)} hits={self.hit_count} "
            f"misses={self.miss_count}>"
        )
