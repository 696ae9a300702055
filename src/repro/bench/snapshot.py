"""Schema-versioned benchmark telemetry snapshots (``BENCH_<label>.json``).

One snapshot captures one run of the benchmark grid as a machine-readable
artifact: for every (operation, stack, size, nodes) cell it records

* the simulated latency (the number the paper's figures plot),
* the obs metrics summary — copy counts, puts issued, flag spins, counter
  waits — from the cell's own fresh machine, and
* the critical-path per-phase breakdown of the timed window, so a later
  regression can be *attributed* ("+38% on internode reduce 64 KB,
  localized to counter-wait") instead of merely detected, and
* the wait-state breakdown (``state|context|resource -> us``, see
  :mod:`repro.obs.waits`), so that attribution can go one level deeper and
  name the *cause* — "+340 us of bandwidth-contention on ``bus[0]`` during
  ``ring-step``".

Cells are emitted sorted by ``(operation, stack, nbytes, nodes)`` and every
map inside a cell is key-sorted, so two runs of an identical tree serialize
byte-identically: a snapshot diff is a measurement diff.

The default grid is the *quick bench grid* — the figure quick grid capped at
1 MB, because an 8 MB cell costs ~1 wall-minute each and a perf gate that
takes half an hour never gets run.  ``REPRO_BENCH_FULL=1`` widens to the
full paper grid, 8 MB included.
"""

from __future__ import annotations

import json
import typing
import zlib

from repro.bench.export import bench_identity, identity_fingerprint
from repro.bench.pool import run_grid
from repro.bench.runner import OPERATIONS, build, looped_program, operation_body
from repro.bench.sweeps import MB, full_grid, message_sizes, processor_configs
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec
from repro.obs.diff import capture_profile

__all__ = [
    "SCHEMA_VERSION",
    "SNAPSHOT_KIND",
    "bench_sizes",
    "bench_nodes",
    "cell_key",
    "cell_seed",
    "capture_cell",
    "collect_snapshot",
    "write_snapshot",
    "load_snapshot",
]

#: Bump on any incompatible change to the snapshot document layout.
SCHEMA_VERSION = 1

#: Document marker, so a stray JSON file is rejected with a clear error.
SNAPSHOT_KIND = "repro-bench-snapshot"

#: Cap for the quick gate grid: 8 MB cells cost ~1 wall-minute each.
_QUICK_SIZE_CAP = MB


def bench_sizes() -> list[int]:
    """Message sizes of the snapshot grid (quick: figure grid capped at 1 MB)."""
    sizes = message_sizes()
    if full_grid():
        return sizes
    return [size for size in sizes if size <= _QUICK_SIZE_CAP]


def bench_nodes() -> list[int]:
    """Node counts of the snapshot grid (same axis as the figures)."""
    return processor_configs()


def cell_key(cell: dict) -> tuple:
    """The identity of one cell: (operation, stack, nbytes, nodes)."""
    return (cell["operation"], cell["stack"], cell["nbytes"], cell["nodes"])


def cell_seed(operation: str, stack: str, nbytes: int, nodes: int) -> int:
    """Deterministic per-cell machine RNG seed.

    A pure function of the cell key (CRC32, stable across interpreters and
    processes — unlike ``hash()``), so serial and parallel grid runs seed
    every cell's machine identically, and stochastic cost features (daemon
    noise) draw independent streams per cell instead of sharing seed 0.
    """
    return zlib.crc32(f"{operation}:{stack}:{nbytes}:{nodes}".encode())


def capture_cell(
    stack: str,
    operation: str,
    nbytes: int = 0,
    nodes: int = 16,
    tasks_per_node: int = 16,
    repeats: int | None = None,
    warmup: int = 1,
    seed: int = 0,
) -> dict:
    """Measure one grid cell on a fresh machine, with full telemetry.

    Mirrors :func:`~repro.bench.runner.time_operation` (same bodies, same
    warmup-then-timed launches) but keeps the machine's observability: the
    recorder is cleared after warmup so the critical path partitions exactly
    the timed window, while the metrics registry keeps machine-lifetime
    totals (deterministic either way — the simulator has no noise).
    """
    if repeats is None:
        repeats = 2 if nbytes >= MB else 3
    spec = ClusterSpec(nodes=nodes, tasks_per_node=tasks_per_node)
    machine, collectives = build(stack, spec, seed=seed)
    body = operation_body(machine, collectives, operation, nbytes)
    if warmup:
        machine.launch(looped_program(body, warmup))
        machine.obs.recorder.clear()
    result = machine.launch(looped_program(body, repeats))

    cell: dict[str, typing.Any] = {
        "operation": operation,
        "stack": stack,
        "nbytes": nbytes,
        "nodes": nodes,
        "total_tasks": spec.total_tasks,
        "repeats": repeats,
        "seed": seed,
        "microseconds": result.elapsed / repeats * 1e6,
        "metrics": machine.obs.metrics.summary(),
    }
    # The telemetry of bench, regress and `profile --diff` alike: None and {}
    # when no span was recorded, and such a cell still gates on latency.
    profile = capture_profile(machine, result.start_time, result.end_time)
    cell["critical_path"] = profile["critical_path"]
    cell["wait_states"] = profile["wait_states"]
    return cell


def _capture_worker(spec: tuple) -> dict:
    """Spawn-safe worker: one grid cell from one self-contained spec tuple."""
    stack, operation, nbytes, nodes, tasks_per_node, seed = spec
    return capture_cell(
        stack, operation, nbytes, nodes, tasks_per_node, seed=seed
    )


def collect_snapshot(
    label: str = "head",
    operations: typing.Sequence[str] = OPERATIONS,
    stacks: typing.Sequence[str] = ("srm", "ibm", "mpich"),
    tasks_per_node: int = 16,
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> dict:
    """Run the snapshot grid and assemble one snapshot document.

    ``jobs`` fans the (fully independent) cells out over a worker pool; the
    document — cells, seeds, serialization — is byte-identical at every
    ``jobs`` setting because each cell travels with its own seed and the
    result list comes back in deterministic cell order.
    """
    for operation in operations:
        if operation not in OPERATIONS:
            raise ConfigurationError(f"unknown operation {operation!r}")
    sizes = bench_sizes()
    nodes_axis = bench_nodes()
    specs: list[tuple] = []
    for operation in sorted(operations):
        cell_sizes = [0] if operation == "barrier" else sizes
        for stack in sorted(stacks):
            for nbytes in cell_sizes:
                for nodes in nodes_axis:
                    specs.append(
                        (
                            stack,
                            operation,
                            nbytes,
                            nodes,
                            tasks_per_node,
                            cell_seed(operation, stack, nbytes, nodes),
                        )
                    )
    pool_progress = None
    if progress is not None:

        def pool_progress(spec: tuple, done: int, total: int) -> None:
            stack, operation, nbytes, nodes = spec[:4]
            progress(f"{operation} {stack} {nbytes}B x{nodes} nodes")

    cells = run_grid(specs, _capture_worker, jobs=jobs, progress=pool_progress)
    cells.sort(key=cell_key)
    identity = bench_identity(tasks_per_node=tasks_per_node)
    return {
        "kind": SNAPSHOT_KIND,
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
        "grid": {
            "sizes": sizes,
            "nodes": nodes_axis,
            "operations": sorted(operations),
            "stacks": sorted(stacks),
            "full": full_grid(),
        },
        "cells": cells,
    }


def write_snapshot(path: str, snapshot: dict) -> None:
    """Serialize a snapshot ('-' writes to stdout)."""
    text = json.dumps(snapshot, indent=1, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def load_snapshot(path: str) -> dict:
    """Load and structurally validate a snapshot document."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or snapshot.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError(f"{path} is not a {SNAPSHOT_KIND} document")
    for field in ("schema_version", "label", "identity", "cells"):
        if field not in snapshot:
            raise ConfigurationError(f"{path} is missing snapshot field {field!r}")
    return snapshot
