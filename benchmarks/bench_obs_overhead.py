"""What always-on observation costs the simulator, in host CPU time.

Observation is on by default (:class:`~repro.machine.Machine`'s
``observe=True``): every phase span, flow link, resource sample and metric
is recorded as the simulation runs.  This benchmark times one fixed
workload — an 8 x 8 machine, every rank running five blocking 64 KB SUM
allreduces — with observation on and off.  It takes the process CPU time of
each launch in alternating pairs, so a slow spell of the host falls on both
sides, prints both medians and their ratio, and attaches them to
``extra_info``.

Host time is noisy, so the ratio is reported, not gated.  What is asserted
is the contract that makes ``observe=False`` a fair baseline: both sides
simulate the same thing, with the same makespan, the same per-rank finish
times and the same number of engine events.
"""

import gc
import statistics
import time

import numpy as np

from repro.bench import print_table
from repro.core import SRM
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM

NODES, TASKS_PER_NODE = 8, 8
NBYTES = 65536
CALLS = 5
#: Alternating (on, off) pairs; the medians are over these.
PAIRS = 9


def run(observe: bool) -> tuple[float, tuple]:
    """One run: the process CPU seconds of its launch, and what it simulated."""
    machine = Machine(ClusterSpec(nodes=NODES, tasks_per_node=TASKS_PER_NODE), observe=observe)
    srm = SRM(machine)
    count = NBYTES // 8
    ranks = range(machine.spec.total_tasks)
    sources = [np.full(count, float(rank + 1)) for rank in ranks]
    outs = [np.zeros(count) for _rank in ranks]

    def program(task):
        for _call in range(CALLS):
            yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    # The previous run's machine is garbage now: collect it outside the timing.
    gc.collect()
    started = time.process_time()
    result = machine.launch(program)
    seconds = time.process_time() - started
    total = sum(rank + 1 for rank in ranks)
    assert all(np.all(out == total) for out in outs)
    simulated = (result.elapsed, result.finish_times, machine.engine.events_processed)
    return seconds, simulated


def bench_observation_overhead(run_once):
    def pairs():
        seconds = {True: [], False: []}
        for pair in range(PAIRS):
            # Each side runs first in every other pair.
            simulated = {}
            for observe in (pair % 2 == 0, pair % 2 == 1):
                cpu_s, simulated[observe] = run(observe)
                seconds[observe].append(cpu_s)
            assert simulated[True] == simulated[False], "observation changed the simulation"
        simulated_on, simulated_off = simulated[True], simulated[False]
        median_on, median_off = statistics.median(seconds[True]), statistics.median(seconds[False])
        print_table(
            f"Observation overhead: {NODES}x{TASKS_PER_NODE}, {CALLS} blocking "
            f"{NBYTES // 1024} KB allreduces, median of {PAIRS} pairs",
            ["observe", "CPU s", "events"],
            [
                ["on", f"{median_on:.3f}", simulated_on[2]],
                ["off", f"{median_off:.3f}", simulated_off[2]],
            ],
        )
        print(f"on/off CPU ratio: x{median_on / median_off:.2f}")
        return {
            "cpu_s_on_median": median_on,
            "cpu_s_off_median": median_off,
            "on_off_ratio": median_on / median_off,
            "events_processed": simulated_on[2],
        }

    run_once(pairs)
