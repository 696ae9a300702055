"""Ablation A2 (§2.2) — flat two-buffer SMP broadcast vs tree-based.

"Despite the contention in simultaneous read access to the shared memory
buffer, this algorithm has achieved a much better performance than the
tree-based algorithms."  Reproduced at the primitive level on one 16-way
node: the same chunks are pushed through the flat two-buffer protocol and
through a binomial-tree relay.
"""

import numpy as np

from repro.bench import format_bytes, format_us, print_table
from repro.core import SRM
from repro.core.smp.broadcast import smp_broadcast_chunk, tree_smp_broadcast_chunk
from repro.machine import ClusterSpec, Machine
from repro.trees import binomial_tree, map_to_ranks

SIZES = (256, 4096, 32 * 1024)
TASKS = 16


def _run(flavor: str, nbytes: int) -> float:
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=TASKS))
    srm = SRM(machine)
    state = srm.ctx.nodes[0]
    chunk = min(nbytes, srm.config.shared_buffer_bytes)
    chunks = [(offset, min(chunk, nbytes - offset)) for offset in range(0, nbytes, chunk)]
    source = np.ones(nbytes, np.uint8)
    sinks = {rank: np.zeros(nbytes, np.uint8) for rank in range(1, TASKS)}
    tree = map_to_ranks(binomial_tree(TASKS), list(range(TASKS)))

    def program(task):
        for offset, size in chunks:
            src = source[offset : offset + size] if task.rank == 0 else None
            dst = None if task.rank == 0 else sinks[task.rank][offset : offset + size]
            if flavor == "flat":
                sequence = state.reserve_bcast(state.index_of(task), 1)
                yield from smp_broadcast_chunk(state, task, task.rank == 0, src, dst, sequence)
            else:
                yield from tree_smp_broadcast_chunk(state, task, tree, src, dst)

    machine.launch(program)  # warm the buffers
    start = machine.now
    machine.launch(program)
    for sink in sinks.values():
        assert np.all(sink == 1)
    return machine.now - start


def bench_abl2_flat_vs_tree_smp_broadcast(run_once):
    def sweep():
        info = {}
        rows = []
        for nbytes in SIZES:
            flat = _run("flat", nbytes)
            tree = _run("tree", nbytes)
            rows.append([format_bytes(nbytes), format_us(flat), format_us(tree), f"{tree / flat:.2f}x"])
            info[f"flat_{nbytes}"] = flat * 1e6
            info[f"tree_{nbytes}"] = tree * 1e6
        print_table(
            f"A2: SMP broadcast on one {TASKS}-way node [us]",
            ["size", "flat 2-buffer", "binomial tree", "tree/flat"],
            rows,
        )
        return info

    info = run_once(sweep)
    for nbytes in SIZES:
        assert info[f"flat_{nbytes}"] < info[f"tree_{nbytes}"], (
            f"tree SMP broadcast beat flat at {nbytes} B"
        )
