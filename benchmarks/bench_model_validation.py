"""Model validation — the analytical model of §5 against the simulator.

The model is the dispatch registry's cost hooks (:func:`repro.analysis.srm_time`
evaluates the hook of the variant the paper's policy runs).  It ignores
interrupt stalls and most contention, so it will not match the simulation
exactly; this benchmark records the model/simulation ratio across the sweep
and asserts every cell stays within a calibrated band and the mean error
stays small, making the model safe to use for the what-if questions §5
raises.
"""

import math

from repro.analysis import crossover_node_size, srm_time
from repro.bench import build, format_bytes, print_table, time_operation
from repro.machine import ClusterSpec, CostModel

BAND = (0.4, 2.0)
#: Ceiling on the sweep's mean |log2(model / simulation)|.
MEAN_ERROR = 0.40
SIZES = (64, 4096, 65536, 1 << 20)
NODE_COUNTS = (4, 16)
OPERATIONS = ("broadcast", "reduce", "allreduce")


def bench_model_vs_simulation(run_once):
    cost = CostModel.ibm_sp_colony()

    def sweep():
        info = {}
        rows = []
        for nodes in NODE_COUNTS:
            spec = ClusterSpec(nodes=nodes, tasks_per_node=16)
            for operation in OPERATIONS:
                for nbytes in SIZES:
                    machine, srm = build("srm", spec)
                    simulated = time_operation(
                        machine, srm, operation, nbytes, repeats=2, warmup=1
                    ).seconds
                    ratio = srm_time(cost, spec, operation, nbytes) / simulated
                    info[f"{operation}_{nodes}_{nbytes}"] = ratio
                    rows.append(
                        [operation, nodes, format_bytes(nbytes), f"{ratio:.2f}"]
                    )
            machine, srm = build("srm", spec)
            simulated = time_operation(machine, srm, "barrier", repeats=3, warmup=1).seconds
            ratio = srm_time(cost, spec, "barrier", 0) / simulated
            info[f"barrier_{nodes}"] = ratio
            rows.append(["barrier", nodes, "-", f"{ratio:.2f}"])
        print_table(
            "Model validation: analytical / simulated time",
            ["op", "nodes", "size", "model/sim"],
            rows,
        )
        return info

    info = run_once(sweep)
    for key, ratio in info.items():
        assert BAND[0] <= ratio <= BAND[1], f"model diverged on {key}: {ratio:.2f}"
    mean_error = sum(abs(math.log2(ratio)) for ratio in info.values()) / len(info)
    print(f"mean |log2(model/sim)| over {len(info)} cells: {mean_error:.3f}")
    assert mean_error <= MEAN_ERROR, f"mean model error {mean_error:.3f} > {MEAN_ERROR}"


def bench_model_crossover_question(run_once):
    """One of §5's what-ifs, answered analytically: how fat can an SMP node
    get before its internal fan-out costs as much as a network hop?"""
    cost = CostModel.ibm_sp_colony()

    def sweep():
        rows = []
        info = {}
        for nbytes in (1024, 16 * 1024, 65536):
            node_size = crossover_node_size(cost, nbytes)
            rows.append([format_bytes(nbytes), node_size])
            info[f"crossover_{nbytes}"] = node_size
        print_table(
            "Node size at which SMP fan-out exceeds one network hop",
            ["message", "node size"],
            rows,
        )
        return info

    info = run_once(sweep)
    # On Colony-class parameters, 16-way nodes are still comfortably on the
    # shared-memory-wins side for small messages.
    assert info["crossover_1024"] > 16
