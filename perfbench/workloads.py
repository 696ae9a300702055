"""The three closed-loop workloads of the wall-clock ledger.

Each workload drives public entry points of ``repro`` from one process,
serially, and checks every output it gets back.  A workload is sized in
*units* (one pass of the snapshot grid, one persistent session, one pass of
the verify grid); ``run.py`` picks the unit count from ``--seconds`` so the
amount of work is a fixed function of the arguments, never of host speed.

Every workload has the same shape:

* ``prepare(unit)`` builds what one unit needs (timed as set-up);
* ``run_unit(state, unit, ledger)`` runs the unit's steps, timing each step
  and recording pass/fail per step into the :class:`Ledger`.

Host time is ``time.perf_counter``, which the :class:`Ledger` reads at the
reference speed of ``speed.py``; simulated time is the engine clock.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
import statistics
import time
import traceback
import typing

import numpy as np
from speed import REFERENCE_MS, reference_ms


class Ledger:
    """What one run of a workload measured.

    Every host time is kept with the interval it was measured in, and read
    at the reference speed (see ``speed.py``).  The collector's pauses in
    the interval, timed through ``gc.callbacks``, are kept as measured: the
    host's slow state hardly slows them (1.2 times, while the reference
    loop slows 2 times).  The rest is scaled by the reference loop's median
    over the samples taken within :attr:`SPEED_WINDOW_S` of the interval.
    A step's time is the lower median of its repeats, one per unit.
    A ledger that does not gauge reads every host time as measured.  One that
    gauges listens to the collector for the rest of the process, so a run
    makes one.
    """

    #: Seconds on each side of a timed interval whose speed samples scale it.
    SPEED_WINDOW_S = 1.0

    def __init__(self, gauge: bool = True) -> None:
        #: Step -> (host ms, interval start, interval end) of each repeat.
        self.steps_ms: dict[typing.Hashable, list[tuple[float, float, float]]] = {}
        #: Step -> how many steps one sample stands for (schedules per cell).
        self.weights: dict[typing.Hashable, int] = {}
        #: Reference-loop samples, taken between steps: when, and host ms.
        self.speed_at: list[float] = []
        self.speed_ms: list[float] = []
        #: The collector's pauses: when each started and ended.
        self.pause_started: list[float] = []
        self.pause_ended: list[float] = []
        self.gauge = gauge
        if gauge:
            gc.callbacks.append(self._collector)
        self.attempted = 0
        self.failed = 0
        #: Names of failed steps, in order (printed for the reader).
        self.failures: list[str] = []
        #: Simulated microseconds per SRM call (``model.sim_us_geomean``).
        self.sim_us: list[float] = []
        #: Workload-specific per-layer values, by metric name.
        self.layer: dict[str, float] = {}

    def _collector(self, phase: str, _info: dict) -> None:
        (self.pause_started if phase == "start" else self.pause_ended).append(time.perf_counter())

    def sample_speed(self) -> None:
        """Time the reference loop, between steps."""
        if self.gauge:
            self.speed_at.append(time.perf_counter())
            self.speed_ms.append(reference_ms())

    def _paused(self, started: float, ended: float) -> float:
        """Seconds the collector ran between ``started`` and ``ended``."""
        first = bisect.bisect_left(self.pause_started, started)
        last = bisect.bisect_left(self.pause_started, ended)
        return sum(
            min(stop, ended) - start
            for start, stop in zip(self.pause_started[first:last], self.pause_ended[first:last])
        )

    def at_reference_speed(self, elapsed: float, started: float, ended: float) -> float:
        """A host time measured from ``started`` to ``ended``, in any unit,
        at the reference speed."""
        if not self.gauge:
            return elapsed
        low = bisect.bisect_left(self.speed_at, started - self.SPEED_WINDOW_S)
        high = bisect.bisect_right(self.speed_at, ended + self.SPEED_WINDOW_S)
        scale = REFERENCE_MS / statistics.median(self.speed_ms[low:high])
        paused = self._paused(started, ended) / (ended - started) if ended > started else 0.0
        return elapsed * (paused + (1.0 - paused) * scale)

    def time_step(self, step: typing.Hashable, ms: float, started: float, ended: float, weight: int = 1) -> None:
        """Record a repeat of ``step`` that took ``ms`` host milliseconds
        within the interval from ``started`` to ``ended``."""
        self.steps_ms.setdefault(step, []).append((ms, started, ended))
        self.weights[step] = weight

    def step_ms(self) -> dict[typing.Hashable, float]:
        """Each step's time at the reference speed: the lower median of its
        scaled repeats."""
        return {
            step: statistics.median_low([self.at_reference_speed(*sample) for sample in samples])
            for step, samples in self.steps_ms.items()
        }

    def check(self, ok: bool, name: str, count: int = 1, failed: int | None = None) -> None:
        """Record ``count`` attempted steps; ``failed`` of them (default:
        all when ``ok`` is false) failed."""
        self.attempted += count
        if failed is None:
            failed = 0 if ok else count
        if failed:
            self.failed += failed
            self.failures.append(name)


def geomean(values: typing.Iterable[float]) -> float:
    values = [value for value in values if value > 0.0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _canonical(cell: dict) -> str:
    return json.dumps(cell, sort_keys=True)


def _failed_step(name: str, ledger: Ledger) -> None:
    """An exception escaped the program: count the step as failed."""
    ledger.check(False, f"{name}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}")


# ---------------------------------------------------------------------------
# paper-grid
# ---------------------------------------------------------------------------


class PaperGrid:
    """``capture_cell`` over the snapshot grid's 1- and 4-node columns.

    96 cells (4 ops x 3 stacks x 8 B-1 MB, 16 tasks/node), each on a fresh
    machine with blocking calls and full critical-path and wait analysis.
    Every cell is compared byte for byte with its ``BENCH_seed.json`` cell.
    The seed only shuffles the cell order, so counts and simulated results
    must not depend on it.
    """

    name = "paper-grid"
    imports = ("repro.bench.snapshot",)
    #: Host seconds of one pass on a 2-core x86 host.
    unit_seconds = 10.0
    NODES = (1, 4)

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        #: Cell keys whose capture differed from the reference, ever.
        self.changed: set[tuple] = set()
        #: (operation, stack, nbytes, nodes) -> simulated microseconds.
        self.latency: dict[tuple, float] = {}

    def prepare(self, unit: int) -> list[tuple[tuple, dict]]:
        from repro.bench.snapshot import cell_key, load_snapshot

        snapshot = load_snapshot(f"{self.root}/BENCH_seed.json")
        cells = [
            (cell_key(cell), cell)
            for cell in snapshot["cells"]
            if cell["nodes"] in self.NODES
        ]
        random.Random(self.seed * 1009 + unit).shuffle(cells)
        return cells

    def run_unit(self, cells: list[tuple[tuple, dict]], unit: int, ledger: Ledger) -> None:
        from repro.bench.snapshot import capture_cell, cell_seed

        for key, reference in cells:
            operation, stack, nbytes, nodes = key
            name = f"{operation}/{stack}/{nbytes}B/x{nodes}"
            # The previous cell's machine is garbage now; collecting it here
            # keeps its cost and memory out of this cell's step and peak.
            gc.collect()
            ledger.sample_speed()
            started = time.perf_counter()
            try:
                cell = capture_cell(
                    stack, operation, nbytes, nodes, reference["total_tasks"] // nodes,
                    seed=cell_seed(*key),
                )
            except Exception:
                _failed_step(name, ledger)
                self.changed.add(key)
                continue
            ended = time.perf_counter()
            ledger.time_step(key, (ended - started) * 1e3, started, ended)
            same = _canonical(cell) == _canonical(reference)
            if not same:
                self.changed.add(key)
            ledger.check(same, f"{name} differs from BENCH_seed.json")
            self.latency[key] = cell["microseconds"]
            if stack == "srm":
                ledger.sim_us.append(cell["microseconds"])
            for state_key, micros in cell["wait_states"].items():
                metric = f"wait.{state_key.split('|', 1)[0]}_us"
                ledger.layer[metric] = ledger.layer.get(metric, 0.0) + micros

    def layer_metrics(self) -> dict[str, float]:
        ratios = [
            self.latency[(op, "ibm", nbytes, nodes)] / micros
            for (op, stack, nbytes, nodes), micros in self.latency.items()
            if stack == "srm" and (op, "ibm", nbytes, nodes) in self.latency
        ]
        return {
            "model.cells_changed": len(self.changed),
            "model.srm_vs_ibm_speedup": geomean(ratios),
        }


# ---------------------------------------------------------------------------
# persistent-steps
# ---------------------------------------------------------------------------


class _Session:
    """One 8x8 machine with the parameter-server step as 192 persistent plans.

    Rank ``r`` holds a 64 KB weight broadcast from rank 0, a 64 KB SUM
    gradient reduce to rank 0 and an 8 B SUM residual allreduce.  Inputs are
    small integers stored as float64, so every sum is exact in any order and
    NumPy gives the truth byte for byte.
    """

    RANKS = 64
    COUNT = 65536 // 8

    def __init__(self, seed: int, compiled_replay: bool = True) -> None:
        from repro.core import SRM, SRMConfig
        from repro.machine import ClusterSpec, Machine
        from repro.mpi.ops import SUM

        rng = np.random.default_rng(seed)
        ranks = range(self.RANKS)
        self.offset = int(rng.integers(0, 1 << 16))
        self.base_weights = rng.integers(0, 64, self.COUNT).astype(np.float64)
        self.base_grads = [rng.integers(0, 64, self.COUNT).astype(np.float64) for _ in ranks]
        self.base_residuals = rng.integers(0, 64, self.RANKS).astype(np.float64)
        self.grad_total = np.sum(self.base_grads, axis=0)
        self.residual_total = float(self.base_residuals.sum())

        self.weights = [np.zeros(self.COUNT) for _ in ranks]
        self.grads = [grad.copy() for grad in self.base_grads]
        self.grad_sum = np.zeros(self.COUNT)
        self.residuals = [np.zeros(1) for _ in ranks]
        self.residual_sums = [np.zeros(1) for _ in ranks]

        self.machine = Machine(ClusterSpec(nodes=8, tasks_per_node=8))
        srm = SRM(self.machine, config=SRMConfig(compiled_replay=compiled_replay))
        started = time.perf_counter()
        self.plans = []
        for rank in ranks:
            task = self.machine.task(rank)
            self.plans.append(srm.plan_broadcast(task, self.weights[rank], root=0))
            self.plans.append(
                srm.plan_reduce(
                    task, self.grads[rank], self.grad_sum if rank == 0 else None, SUM, root=0
                )
            )
            self.plans.append(srm.plan_allreduce(task, self.residuals[rank], self.residual_sums[rank], SUM))
        self.plan_init_s = time.perf_counter() - started

    def window(self, index: int, start_us: list[float] | None = None) -> tuple[float, bool, bool, float]:
        """Run one window; returns (host ms, outputs correct, replayed, simulated us).

        New inputs go in before the window and outside its timing.  With
        ``start_us``, each ``plan.start()`` is also timed from outside.
        """
        shift = float((self.offset + 5 * index) % 32)
        np.add(self.base_weights, shift, out=self.weights[0])
        for rank in range(self.RANKS):
            np.add(self.base_grads[rank], shift, out=self.grads[rank])
            self.residuals[rank][0] = self.base_residuals[rank] + shift
        engine = self.machine.engine
        hits_before = getattr(engine.trace, "hit_count", 0)
        sim_before = engine.now
        clock = time.perf_counter
        started = clock()
        if start_us is None:
            for plan in self.plans:
                plan.start()
        else:
            for plan in self.plans:
                begun = clock()
                plan.start()
                start_us.append((clock() - begun) * 1e6)
        engine.run()
        elapsed_ms = (clock() - started) * 1e3
        replayed = getattr(engine.trace, "hit_count", 0) > hits_before

        weights = self.base_weights + shift
        grad_sum = self.grad_total + self.RANKS * shift
        residual_sum = self.residual_total + self.RANKS * shift
        ok = (
            all(np.array_equal(buffer, weights) for buffer in self.weights)
            and np.array_equal(self.grad_sum, grad_sum)
            and all(buffer[0] == residual_sum for buffer in self.residual_sums)
        )
        return elapsed_ms, ok, replayed, (engine.now - sim_before) * 1e6

    def buffers(self) -> list[np.ndarray]:
        return self.weights + [self.grad_sum] + self.residual_sums


class PersistentSteps:
    """The parameter-server step, init once and started every window.

    A unit is one session: a fresh 8x8 machine, 192 persistent plans, and a
    fixed number of windows.  Replayed windows keep every span, so memory and
    window time grow with session length; fixing it keeps the steps
    comparable between runs.
    """

    name = "persistent-steps"
    imports = ("repro.core", "repro.machine", "repro.mpi.ops")
    unit_seconds = 5.0
    WINDOWS = 60
    #: Windows of the replay-vs-slow-path differential in the traced run.
    TWIN_WINDOWS = 12
    #: Relative tolerance for the twin's simulated metrics: replay drifts
    #: the clock by a few hundred ULPs, so byte equality does not hold.
    TWIN_REL_TOL = 1e-9

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        self.start_us: list[float] = []
        self.plan_init_s: list[float] = []

    def _session_seed(self, unit: int) -> int:
        return self.seed * 7919 + unit

    def prepare(self, unit: int) -> _Session:
        session = _Session(self._session_seed(unit))
        self.plan_init_s.append(session.plan_init_s)
        return session

    def run_unit(self, session: _Session, unit: int, ledger: Ledger) -> None:
        for index in range(self.WINDOWS):
            name = f"session {unit} window {index}"
            ledger.sample_speed()
            started = time.perf_counter()
            try:
                elapsed_ms, ok, replayed, sim_us = session.window(index, self.start_us)
            except Exception:
                _failed_step(name, ledger)
                continue
            ledger.time_step(index, elapsed_ms, started, time.perf_counter())
            ledger.check(ok, f"{name}: buffers differ from NumPy truth")
            ledger.sim_us.append(sim_us)
            (self.hit_ms if replayed else self.miss_ms).append(elapsed_ms)

    def layer_metrics(self) -> dict[str, float]:
        def median(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        return {
            "requests.start_us_p50": median(self.start_us),
            "requests.plan_init_s": median(self.plan_init_s),
            "replay.hit_window_ms_p50": median(self.hit_ms),
            "replay.miss_window_ms_p50": median(self.miss_ms),
        }

    def differential(self, ledger: Ledger) -> dict[str, float]:
        """Replay vs ``compiled_replay=False`` on the same seed and windows.

        Buffers must match byte for byte every window, and the simulated
        metrics within :attr:`TWIN_REL_TOL`.  Reports the replay clock's
        drift from the slow path after the last window, in ULPs of the slow
        path's clock, and how many metrics differ at all.
        """
        fast = _Session(self._session_seed(0), compiled_replay=True)
        slow = _Session(self._session_seed(0), compiled_replay=False)
        for index in range(self.TWIN_WINDOWS):
            fast.window(index)
            slow.window(index)
            same = all(
                np.array_equal(a, b) for a, b in zip(fast.buffers(), slow.buffers())
            )
            ledger.check(same, f"twin window {index}: replay buffers differ from slow path")
        fast_now, slow_now = fast.machine.engine.now, slow.machine.engine.now
        drift = (fast_now - slow_now) / math.ulp(slow_now)
        fast_metrics = fast.machine.obs.metrics.summary()
        slow_metrics = slow.machine.obs.metrics.summary()
        # The replay.* counters exist only where replay is on.
        names = sorted(
            name for name in set(fast_metrics) | set(slow_metrics) if not name.startswith("replay.")
        )
        differing = [name for name in names if fast_metrics.get(name) != slow_metrics.get(name)]
        beyond = [
            name
            for name in differing
            if name not in fast_metrics
            or name not in slow_metrics
            or not math.isclose(fast_metrics[name], slow_metrics[name], rel_tol=self.TWIN_REL_TOL)
        ]
        ledger.check(not beyond, f"twin metrics beyond tolerance: {', '.join(beyond)}")
        return {
            "replay.clock_drift_ulps": drift,
            "replay.metrics_differing": len(differing),
        }


# ---------------------------------------------------------------------------
# verify-explore
# ---------------------------------------------------------------------------


class VerifyExplore:
    """``run_verify(default_grid())`` with faults on and seeded exploration.

    A unit is one pass of the default grid at :attr:`SCHEDULES` schedules a
    cell.  Every pass of a run explores the same schedules, drawn from the
    run's seed, so a cell's repeats are the same work.  ``run_verify``
    reports per cell, so a step's time is the cell's host time divided by
    the runs it made (its explored schedules plus the reference run); every
    cell gives one step sample.
    """

    name = "verify-explore"
    imports = ("repro.verify.runner",)
    unit_seconds = 9.0
    SCHEDULES = 20

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        self.schedules = 0
        self.signatures = 0

    def prepare(self, unit: int) -> list:
        from repro.verify.runner import default_grid

        return default_grid()

    def run_unit(self, cells: list, unit: int, ledger: Ledger) -> None:
        from repro.verify.runner import run_verify

        starts: list[float] = []
        ends: list[float] = []

        def progress(_line: str) -> None:
            ends.append(time.perf_counter())
            ledger.sample_speed()
            starts.append(time.perf_counter())

        ledger.sample_speed()
        starts.append(time.perf_counter())
        report = run_verify(
            cells,
            schedules=self.SCHEDULES,
            explorer="random",
            seed=self.seed * 31,
            faults=True,
            progress=progress,
        )
        for entry, begun, ended in zip(report["cells"], starts, ends):
            runs = entry["schedules_explored"] + 1
            ledger.time_step(entry["cell"], (ended - begun) * 1e3 / runs, begun, ended, weight=runs)
            bad = entry["errors"] + entry["divergences"] + entry["violation_count"]
            if entry["reference_error"] is not None or not entry["ok"]:
                bad = max(bad, 1)
            count = max(1, entry["schedules_explored"])
            ledger.check(
                bad == 0, f"{entry['cell']}: {bad} failing run(s)", count=count, failed=min(bad, count)
            )
            self.schedules += entry["schedules_explored"]
            self.signatures += entry["distinct_signatures"]

    def layer_metrics(self) -> dict[str, float]:
        return {
            "verify.schedules": self.schedules,
            "verify.distinct_signatures": self.signatures,
        }


WORKLOADS = {cls.name: cls for cls in (PaperGrid, PersistentSteps, VerifyExplore)}
