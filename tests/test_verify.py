"""Unit tests for the verification harness (invariants, faults, explorer)."""

import functools

import numpy as np
import pytest

from repro.errors import DeadlockError, VerificationError
from repro.machine import ClusterSpec, Machine
from repro.shmem.buffers import DoubleBuffer
from repro.shmem.flags import SharedFlag
from repro.sim import Engine, RandomScheduler
from repro.verify import FaultPlan, Verifier
from repro.verify.explorer import ScheduleOutcome, explore_cell
from repro.verify.mutations import MUTATIONS, apply_mutation
from repro.verify.runner import Cell, run_cell, run_cell_once, run_mutation_smoke


def small_machine():
    return Machine(ClusterSpec(nodes=2, tasks_per_node=2))


# ---------------------------------------------------------------------------
# flag invariants
# ---------------------------------------------------------------------------


def attach(machine, **kwargs):
    verifier = Verifier(**kwargs)
    machine.engine.verifier = verifier
    return verifier


def test_ready_flag_handshake_is_clean():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(1)
    flag.store(0)
    assert verifier.clean


def test_ready_flag_double_set_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(1)
    flag.store(1)
    assert [v.rule for v in verifier.violations] == ["flag-double-set"]
    assert "rdy" in str(verifier.violations[0])


def test_ready_flag_redundant_clear_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(0)
    assert [v.rule for v in verifier.violations] == ["flag-redundant-clear"]


def test_ready_flag_nonbinary_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], kind="checkin", name="chk")
    flag.store(3)
    assert [v.rule for v in verifier.violations] == ["flag-nonbinary"]


def test_sequence_flag_monotone_ok_decrease_fires():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], kind="sequence", name="seq")
    flag.store(1)
    flag.store(5)
    flag.store(5)  # repeats are fine for cumulative counters
    assert verifier.clean
    flag.store(2)
    assert [v.rule for v in verifier.violations] == ["sequence-decrease"]


def test_untyped_flag_is_never_checked():
    machine = small_machine()
    verifier = attach(machine)
    flag = SharedFlag(machine.nodes[0], name="anon")
    flag.store(1)
    flag.store(1)
    flag.store(0)
    flag.store(0)
    assert verifier.clean


def test_strict_mode_raises_at_violation_site():
    machine = small_machine()
    attach(machine, strict=True)
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(1)
    with pytest.raises(VerificationError, match="flag-double-set"):
        flag.store(1)


def test_violation_cap_counts_dropped():
    machine = small_machine()
    verifier = attach(machine, max_violations=2)
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(1)
    for _ in range(5):
        flag.store(1)
    assert len(verifier.violations) == 2
    assert verifier.dropped == 3
    assert not verifier.clean


def test_verifier_counter_integration():
    class Spy:
        calls = 0

        def inc(self, amount=1):
            Spy.calls += amount

    machine = small_machine()
    attach(machine, counter=Spy())
    flag = SharedFlag(machine.nodes[0], kind="ready", name="rdy")
    flag.store(1)
    flag.store(1)
    flag.store(1)
    assert Spy.calls == 2


# ---------------------------------------------------------------------------
# counter invariants
# ---------------------------------------------------------------------------


def test_counter_set_under_waiters_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    task = machine.tasks[0]
    counter = task.lapi.counter(name="cnt")
    counter.increment(3)
    assert counter.event_at(10) is not None  # park a waiter
    counter.set(0)
    assert [v.rule for v in verifier.violations] == ["counter-reset-under-waiters"]


def test_counter_set_without_waiters_is_fine():
    machine = small_machine()
    verifier = attach(machine)
    counter = machine.tasks[0].lapi.counter(name="cnt")
    counter.increment(3)
    counter.set(0)  # the between-operations reset LAPI_Setcntr exists for
    assert verifier.clean


def test_counter_over_consume_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    counter = machine.tasks[0].lapi.counter(name="cnt")
    counter.increment(1)
    with pytest.raises(Exception):
        counter.consume(5)
    assert [v.rule for v in verifier.violations] == ["counter-over-consume"]


# ---------------------------------------------------------------------------
# buffer invariants
# ---------------------------------------------------------------------------


def test_buffer_fill_while_held_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    dbuf = DoubleBuffer(machine.nodes[0], 256, flags_per_buffer=2, name="buf")
    dbuf.check_fill(0, writer_index=0)
    assert verifier.clean  # all flags clear: fill is legal
    dbuf.flags(0)[1].store(1)
    dbuf.check_fill(0, writer_index=0)
    assert [v.rule for v in verifier.violations] == ["buffer-overwrite-in-use"]


def test_buffer_drain_before_ready_is_violation():
    machine = small_machine()
    verifier = attach(machine)
    dbuf = DoubleBuffer(machine.nodes[0], 256, flags_per_buffer=2, name="buf")
    dbuf.check_drain(0, reader_index=1)
    assert [v.rule for v in verifier.violations] == ["read-before-ready"]
    verifier.reset()
    dbuf.flags(0)[1].store(1)
    dbuf.check_drain(0, reader_index=1)
    assert verifier.clean


def test_hooks_are_noops_without_verifier():
    machine = small_machine()
    assert machine.engine.verifier is None
    dbuf = DoubleBuffer(machine.nodes[0], 256, flags_per_buffer=2, name="buf")
    dbuf.check_fill(0)
    dbuf.check_drain(0, reader_index=1)  # would be a violation if checked
    flag = SharedFlag(machine.nodes[0], kind="ready")
    flag.store(0)


# ---------------------------------------------------------------------------
# fault plan
# ---------------------------------------------------------------------------


def test_fault_plan_is_deterministic_per_seed():
    def draws(seed):
        plan = FaultPlan(seed=seed, put_jitter_probability=1.0)
        return [plan.put_jitter() for _ in range(10)]

    assert draws(4) == draws(4)
    assert draws(4) != draws(5)


def test_fault_plan_reset_replays():
    plan = FaultPlan(seed=9, put_jitter_probability=1.0)
    first = [plan.put_jitter() for _ in range(5)]
    plan.reset()
    assert [plan.put_jitter() for _ in range(5)] == first
    assert plan.injected["put_jitter"] == 5


def test_fault_plan_reorder_never_mutates_or_drops():
    plan = FaultPlan(seed=0, reorder_probability=1.0)
    waiters = [(None, object(), rank) for rank in range(6)]
    original = list(waiters)
    shuffled = plan.reorder_wakeups(waiters)
    assert waiters == original  # caller's list untouched
    assert sorted(map(id, shuffled)) == sorted(map(id, original))


def test_fault_plan_zero_probability_is_silent():
    plan = FaultPlan(
        seed=1,
        put_jitter_probability=0.0,
        reorder_probability=0.0,
        master_stall_probability=0.0,
    )
    assert plan.put_jitter() == 0.0
    assert plan.master_stall() == 0.0
    assert plan.injected == {"put_jitter": 0, "wakeup_reorder": 0, "master_stall": 0}


# ---------------------------------------------------------------------------
# explorer
# ---------------------------------------------------------------------------


def _toy_run_one(scheduler, variant_seed):
    """A tiny contended workload whose outcome digest is the firing order."""
    engine = Engine(scheduler=scheduler)
    seen = []
    for label in "abcd":
        engine.timeout(1.0, value=label).add_callback(lambda e: seen.append(e.value))
    engine.run()
    return ScheduleOutcome(
        explorer=scheduler.name,
        signature=scheduler.signature(),
        digest="".join(seen),
        elapsed=engine.now,
        violations=[],
    )


def test_random_explorer_finds_distinct_schedules():
    outcomes = explore_cell(_toy_run_one, explorer="random", schedules=10, seed=0)
    signatures = {o.signature for o in outcomes}
    assert len(signatures) == len(outcomes) > 1
    digests = {o.digest for o in outcomes}
    assert all(sorted(d) == ["a", "b", "c", "d"] for d in digests)


def test_dfs_explorer_enumerates_all_orders_of_one_batch():
    # One 4-way decision capped at max_branch=4 has exactly 4 first-event
    # choices; the defaulted suffix keeps the rest in FIFO order.
    outcomes = explore_cell(_toy_run_one, explorer="dfs", schedules=50, seed=0)
    digests = sorted(o.digest for o in outcomes)
    assert digests == ["abcd", "bacd", "cabd", "dabc"]


def test_unknown_explorer_raises():
    with pytest.raises(VerificationError):
        explore_cell(_toy_run_one, explorer="exhaustive", schedules=1)


# ---------------------------------------------------------------------------
# runner cells
# ---------------------------------------------------------------------------


def test_reference_run_is_clean_and_digest_stable():
    cell = Cell(2, 2, "broadcast", "small", 2048)
    first = run_cell_once(cell, scheduler=None)
    second = run_cell_once(cell, scheduler=None)
    assert first.error is None and not first.violations
    assert first.digest == second.digest


def test_random_schedule_matches_reference_digest():
    cell = Cell(2, 2, "allreduce", "small", 1024)
    reference = run_cell_once(cell, scheduler=None)
    explored = run_cell_once(cell, RandomScheduler(seed=3))
    assert explored.error is None and not explored.violations
    assert explored.digest == reference.digest


def test_run_cell_reports_clean_grid_entry():
    entry = run_cell(Cell(2, 2, "reduce", "small", 1024), schedules=6, seed=1)
    assert entry["ok"]
    assert entry["schedules_explored"] >= 6
    assert entry["distinct_signatures"] >= 2
    assert entry["violation_count"] == 0
    assert entry["divergences"] == 0


def test_run_cell_with_faults_still_invariant():
    entry = run_cell(
        Cell(2, 3, "broadcast", "pipelined", 16384), schedules=6, seed=0, faults=True
    )
    assert entry["ok"]
    assert sum(entry["faults_injected"].values()) > 0  # faults actually fired


def test_overlap_cells_are_schedule_invariant():
    """Two outstanding invocations of one plan (plan2) and two plans in
    flight on one group (plans) stay digest-identical across schedules."""
    for overlap in ("plan2", "plans"):
        entry = run_cell(
            Cell(2, 2, "broadcast", "small", 2048, overlap=overlap),
            schedules=6,
            seed=0,
        )
        assert entry["ok"], entry["violations"][:3]
        assert entry["overlap"] == overlap
        assert entry["cell"].endswith(f"/{overlap}")


def test_overlap_digest_matches_blocking_digest():
    """Overlapped starts must land the same bytes as two blocking calls:
    the request layer reorders *setup*, never data."""
    blocking = run_cell_once(Cell(2, 2, "broadcast", "small", 2048), scheduler=None)
    overlapped = run_cell_once(
        Cell(2, 2, "broadcast", "small", 2048, overlap="plan2"), scheduler=None
    )
    assert overlapped.error is None and not overlapped.violations
    assert overlapped.digest == blocking.digest


# ---------------------------------------------------------------------------
# mutation smoke
# ---------------------------------------------------------------------------


def test_mutation_registry_shapes():
    assert set(MUTATIONS) == {
        "skip-ready-wait",
        "skip-ready-set",
        "alias-invocation-slot",
        "stale-compiled-schedule",
    }
    with pytest.raises(VerificationError):
        apply_mutation("no-such-mutation")


def test_skip_ready_wait_mutation_is_detected():
    cell = Cell(2, 3, "broadcast", "small", 2048)
    with apply_mutation("skip-ready-wait"):
        outcome = run_cell_once(cell, scheduler=None)
    rules = {violation["rule"] for violation in outcome.violations}
    assert "read-before-ready" in rules


def test_skip_ready_set_mutation_deadlocks_with_named_ranks():
    cell = Cell(2, 3, "broadcast", "small", 2048)
    with apply_mutation("skip-ready-set"):
        outcome = run_cell_once(cell, scheduler=None)
    assert outcome.error is not None
    assert "DeadlockError" in outcome.error
    assert "blocked forever" in outcome.error
    assert "rank" in outcome.error  # the starved process is named


def test_alias_invocation_slot_mutation_detected_on_overlap_cell():
    """Dropping window reservation + the started-order chain is invisible to
    blocking programs but caught on an overlap cell."""
    blocking = Cell(2, 3, "broadcast", "small", 2048)
    overlap = Cell(2, 3, "broadcast", "small", 2048, overlap="plan2")
    with apply_mutation("alias-invocation-slot"):
        clean = run_cell_once(blocking, scheduler=None)
        entry = run_cell(overlap, schedules=4, seed=0, faults=False)
    assert clean.error is None and not clean.violations
    assert entry["violation_count"] > 0 or entry["errors"] > 0


def test_replay_cell_reports_violations_the_cap_dropped(monkeypatch):
    """Replay cells assemble their outcome like launch cells: violations
    past the verifier's recording cap are reported as truncated."""
    monkeypatch.setattr(
        "repro.verify.runner.Verifier", functools.partial(Verifier, max_violations=1)
    )
    cell = Cell(2, 3, "broadcast", "small", 2048, overlap="replay")
    with apply_mutation("skip-ready-wait"):
        outcome = run_cell_once(cell, scheduler=None)
    rules = [violation["rule"] for violation in outcome.violations]
    assert rules.count("read-before-ready") == 1
    assert "violations-truncated" in rules


def test_mutations_unpatch_cleanly():
    cell = Cell(2, 2, "broadcast", "small", 2048)
    for name in ("skip-ready-wait", "alias-invocation-slot"):
        with apply_mutation(name):
            pass
    outcome = run_cell_once(cell, scheduler=None)
    assert outcome.error is None and not outcome.violations


def test_mutation_smoke_detects_everything():
    body = run_mutation_smoke(schedules=4)
    assert body["ok"]
    assert {m["mutation"] for m in body["mutations"]} == set(MUTATIONS)
    assert all(m["detected"] for m in body["mutations"])
