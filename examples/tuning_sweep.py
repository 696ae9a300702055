"""Tuning SRM for a different machine — the §5 what-if workflow.

The paper's future work asks how SRM behaves "under different assumptions
and parameter values such as the SMP node size, intra-SMP memory bandwidth,
and performance of inter-node communication".  This example answers three
such questions with the simulator and cross-checks the analytical model:

1. How does the SRM advantage change with SMP node size at fixed P?
2. What happens on a commodity cluster (slower network) vs the SP?
3. Where should the pipeline chunk size sit on each machine?

Run:  python examples/tuning_sweep.py
"""

from repro.analysis import srm_time
from repro.bench import build, format_bytes, format_us, time_operation
from repro.core import SRMConfig
from repro.machine import ClusterSpec, CostModel

TOTAL_TASKS = 64
MESSAGE = 16 * 1024


def node_size_sweep() -> None:
    print(f"\n1) node size at fixed P={TOTAL_TASKS}, {format_bytes(MESSAGE)} broadcast")
    print(f"   {'shape':>12} {'SRM':>10} {'IBM MPI':>10} {'ratio':>7}")
    for tasks_per_node in (2, 4, 8, 16, 32):
        nodes = TOTAL_TASKS // tasks_per_node
        spec = ClusterSpec(nodes=nodes, tasks_per_node=tasks_per_node)
        machine, srm = build("srm", spec)
        srm_time = time_operation(machine, srm, "broadcast", MESSAGE, repeats=3).seconds
        machine, ibm = build("ibm", spec)
        ibm_time = time_operation(machine, ibm, "broadcast", MESSAGE, repeats=3).seconds
        print(
            f"   {nodes:>3} x {tasks_per_node:<2}     "
            f"{format_us(srm_time):>10} {format_us(ibm_time):>10} "
            f"{100 * srm_time / ibm_time:6.1f}%"
        )
    print(
        "   -> shared memory absorbs more of the work as nodes fatten, until"
        " the intra-node fan-out itself becomes the bottleneck"
    )


def machine_presets() -> None:
    print(f"\n2) machine presets, 8x16 cluster, {format_bytes(MESSAGE)} broadcast")
    spec = ClusterSpec(nodes=8, tasks_per_node=16)
    for label, cost in [
        ("IBM SP / Colony", CostModel.ibm_sp_colony()),
        ("commodity cluster", CostModel.commodity_cluster()),
        ("fat SMP server", CostModel.fat_smp()),
    ]:
        machine, srm = build("srm", spec, cost=cost)
        simulated = time_operation(machine, srm, "broadcast", MESSAGE, repeats=3).seconds
        predicted = srm_time(cost, spec, "broadcast", MESSAGE)
        print(
            f"   {label:18s} sim {format_us(simulated):>9} us, "
            f"model {format_us(predicted):>9} us (x{predicted / simulated:.2f})"
        )


def chunk_tuning() -> None:
    print(f"\n3) pipeline chunk tuning, 32KB broadcast")
    spec = ClusterSpec(nodes=8, tasks_per_node=16)
    for label, cost in [
        ("IBM SP / Colony", CostModel.ibm_sp_colony()),
        ("commodity cluster", CostModel.commodity_cluster()),
    ]:
        best = None
        for chunk in (1024, 2048, 4096, 8192, 16384):
            config = SRMConfig(pipeline_chunk=chunk, pipeline_min=max(8192, chunk))
            machine, srm = build("srm", spec, cost=cost, srm_config=config)
            seconds = time_operation(machine, srm, "broadcast", 32 * 1024, repeats=3).seconds
            if best is None or seconds < best[1]:
                best = (chunk, seconds)
        print(
            f"   {label:18s} best chunk {format_bytes(best[0]):>5} "
            f"({format_us(best[1])} us)"
        )
    print("   -> slower networks favour larger chunks (less per-chunk latency)")


if __name__ == "__main__":
    node_size_sweep()
    machine_presets()
    chunk_tuning()
