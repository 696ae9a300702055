"""Ablation A8 — Fig. 5 pipeline vs hierarchical ring allreduce.

The paper's future work asks for evaluating SRM "under different assumptions
and parameter values"; the most natural algorithmic question is whether the
Fig. 5 reduce+broadcast pipeline (log k network rounds, every byte crosses
the network twice on the tree) should yield to a bandwidth-optimal
hierarchical ring (2(k-1) rounds, 2(k-1)/k of the bytes per master) for
very large messages.  Expected shape: the pipeline wins at small/medium
sizes (latency-bound), the ring takes over for multi-megabyte payloads.
"""

import numpy as np

from repro.bench import build, format_bytes, format_us, print_table, time_operation
from repro.core import FixedPolicy
from repro.machine import ClusterSpec

NODES = 16
SIZES = (64 * 1024, 512 * 1024, 2 * 1024 * 1024, 8 * 1024 * 1024)


def _timed(algorithm: str, nbytes: int) -> float:
    spec = ClusterSpec(nodes=NODES, tasks_per_node=16)
    machine, srm = build("srm", spec, policy=FixedPolicy({"allreduce": algorithm}))
    return time_operation(machine, srm, "allreduce", nbytes, repeats=2, warmup=1).seconds


def bench_abl8_pipeline_vs_ring_allreduce(run_once):
    def sweep():
        info = {}
        rows = []
        for nbytes in SIZES:
            pipeline = _timed("pipeline", nbytes)
            ring = _timed("ring", nbytes)
            rows.append(
                [
                    format_bytes(nbytes),
                    format_us(pipeline),
                    format_us(ring),
                    f"{ring / pipeline:.2f}x",
                ]
            )
            info[f"pipeline_{nbytes}"] = pipeline * 1e6
            info[f"ring_{nbytes}"] = ring * 1e6
        print_table(
            f"A8: SRM allreduce, Fig. 5 pipeline vs hierarchical ring, {NODES} nodes [us]",
            ["size", "pipeline", "ring", "ring/pipeline"],
            rows,
        )
        return info

    info = run_once(sweep)
    # Latency-bound regime: the paper's pipeline is the right default.
    assert info[f"pipeline_{SIZES[0]}"] < info[f"ring_{SIZES[0]}"]
    # Bandwidth-bound regime: the ring overtakes for multi-MB payloads.
    assert info[f"ring_{SIZES[-1]}"] < info[f"pipeline_{SIZES[-1]}"]
