"""Ablation A7 (§4) — flag-based vs barrier-based shared-memory sync under
late arrivals.

The paper's comparison with Sistare et al. [11]: "in [11] a barrier was used
to synchronize access to shared memory buffers, whereas SRM uses shared
memory flags to coordinate access to buffers between the interacting task
pairs.  This weaker form of synchronization makes the overall algorithm
faster and less susceptible to the processor late arrivals and delays."

We inject a straggler (one task enters the operation late) and measure how
much of its delay each scheme's *other* tasks absorb.  With barriers every
task waits for the straggler before any buffer traffic; with SRM flags only
the root's fill couples to the drain state, so on-time readers of earlier
chunks proceed.
"""

import numpy as np

from repro.bench import format_us, print_table
from repro.core import SRM
from repro.core.smp.broadcast import barrier_synced_smp_broadcast_chunk, smp_broadcast_chunk
from repro.machine import ClusterSpec, Machine

TASKS = 8
CHUNKS = 6
CHUNK_BYTES = 4096
DELAY = 200e-6  # the straggler's lateness


def _run(flavor: str, straggler_delay: float) -> float:
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=TASKS))
    srm = SRM(machine)
    state = srm.ctx.nodes[0]
    source = np.ones(CHUNK_BYTES, np.uint8)
    sinks = {r: np.zeros(CHUNK_BYTES, np.uint8) for r in range(1, TASKS)}
    on_time_finish = {}

    def program(task):
        if task.rank == TASKS - 1 and straggler_delay:
            yield from task.compute(straggler_delay)
        for _chunk in range(CHUNKS):
            src = source if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank]
            if flavor == "flags":
                sequence = state.ledger.reserve(("bcast", task.rank), 1)
                yield from smp_broadcast_chunk(state, task, task.rank == 0, src, dst, sequence)
            else:
                yield from barrier_synced_smp_broadcast_chunk(
                    state, task, task.rank == 0, src, dst
                )
        if task.rank == 1:
            on_time_finish["t"] = task.engine.now

    start = machine.now
    machine.launch(program)
    assert all(np.all(sink == 1) for sink in sinks.values())
    return on_time_finish["t"] - start


def bench_abl7_late_arrival_sensitivity(run_once):
    def sweep():
        info = {}
        rows = []
        for flavor in ("flags", "barrier"):
            quiet = _run(flavor, 0.0)
            late = _run(flavor, DELAY)
            absorbed = late - quiet
            rows.append(
                [flavor, format_us(quiet), format_us(late), format_us(absorbed)]
            )
            info[f"{flavor}_quiet"] = quiet * 1e6
            info[f"{flavor}_late"] = late * 1e6
            info[f"{flavor}_absorbed"] = absorbed * 1e6
        print_table(
            f"A7: on-time reader's completion, {TASKS}-way node, "
            f"{CHUNKS}x{CHUNK_BYTES}B chunks, straggler +{DELAY * 1e6:.0f}us",
            ["sync scheme", "no straggler", "with straggler", "delay absorbed"],
            rows,
        )
        return info

    info = run_once(sweep)
    # Even without a straggler, flags are faster (three barriers per chunk).
    assert info["flags_quiet"] < info["barrier_quiet"]
    # The barrier scheme passes the straggler's full delay (and then some:
    # every barrier re-couples to it) to the on-time tasks ...
    assert info["barrier_absorbed"] >= 0.95 * DELAY * 1e6
    # ... while the flag scheme's two-buffer pipeline lets on-time readers
    # run chunks ahead, visibly shielding part of the delay.  (The shield is
    # bounded by the two-buffer depth — with only two shared buffers the
    # root's refill eventually couples to the slowest reader too.)
    assert info["flags_absorbed"] < info["barrier_absorbed"] - 20.0
    assert info["flags_late"] < info["barrier_late"]
