"""``python -m repro tune`` — measure a :class:`TunedPolicy` decision table.

Barchet-Estefanel & Mounié's point (PAPERS.md): protocol switch points
should be *measured on the target machine*, not transplanted from the
paper's hardware.  The simulator makes that cheap — this module sweeps every
registered algorithm variant of every tunable collective over the bench grid
(same sizes and node counts as the snapshots), times each candidate with the
exact harness the figures use, and writes the per-cell winners as a
schema-versioned JSON decision table that
:class:`repro.core.dispatch.TunedPolicy` loads::

    python -m repro tune -o TUNED.json
    srm = SRM(machine, policy=TunedPolicy.load("TUNED.json"))

Candidates outside their default applicability envelope are probed through
the variant's ``tune_config`` hook (e.g. the exchange allreduce gets its
staging capacity raised to the probe size), so the sweep explores choices
the paper's thresholds would never make; candidates with no such hook that
stay inapplicable (the ring families on one node) are skipped.

:func:`race` is the one measurement of variants: ``tune`` turns its winners
into the decision table, and ``calibrate`` (:mod:`repro.obs.calib`) scores
the same race against the cost model and the dispatch policies.  A cell's
winner is the lowest raw time; exact ties go to the variant registered
first.

The artifact reuses the ``bench.snapshot`` serialization discipline —
sorted keys, the same cost-model identity fingerprint — so a tuned table
records *which machine* it was measured on, and a later ``TunedPolicy``
user can detect a stale table by comparing fingerprints.

``--dry-run`` sweeps a two-size, one-node-count micro-grid, round-trips the
resulting document through ``TunedPolicy`` to prove it loads, and writes
nothing — the CI ``tune-check`` step runs exactly this.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.bench.export import bench_identity, identity_fingerprint
from repro.bench.pool import run_grid
from repro.bench.runner import OPERATIONS, looped_program, operation_body
from repro.bench.snapshot import bench_nodes, bench_sizes, write_snapshot
from repro.bench.sweeps import KB, full_grid
from repro.core import SRM, SRMConfig
from repro.core.dispatch import (
    TUNED_TABLE_KIND,
    TUNED_TABLE_SCHEMA_VERSION,
    FixedPolicy,
    SelectionEnv,
    TunedPolicy,
    Variant,
    lookup_variant,
    variants_for,
)
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, CostModel, Machine

__all__ = [
    "TUNABLE_OPERATIONS",
    "probe_config",
    "tune_cell",
    "race",
    "decision_table",
    "collect_table",
    "run_tune",
]

#: Operations with more than one registered variant worth racing.  The
#: single-variant ops (scatter/gather/alltoall/scan/barrier) have nothing to
#: choose between; the tree families are structural (they change plan
#: caches, not per-size decisions) and stay policy-directed.
TUNABLE_OPERATIONS = ("allgather", "allreduce", "broadcast", "reduce")


def _allgather_body(machine: Machine, stack: SRM, nbytes: int) -> typing.Callable:
    """Per-task allgather body (the runner's OPERATIONS lacks allgather).

    ``nbytes`` is the *total* concatenated result — the quantity the
    dispatch layer selects on — split into one equal block per task.
    """
    total = machine.spec.total_tasks
    block = max(1, nbytes // total)
    sends = {rank: np.full(block, rank % 251, dtype=np.uint8) for rank in range(total)}
    recvs = {rank: np.zeros(block * total, dtype=np.uint8) for rank in range(total)}

    def body(task, _iteration):
        yield from stack.allgather(task, sends[task.rank], recvs[task.rank])

    return body


def probe_config(entry: Variant, nbytes: int) -> SRMConfig:
    """The config a probe of ``entry`` at ``nbytes`` runs (and is predicted) under:
    the defaults, evolved by the variant's ``tune_config`` hook if it has one."""
    config = SRMConfig()
    if entry.tune_config is not None:
        config = entry.tune_config(config, nbytes)
    return config


def tune_cell(
    operation: str,
    variant_name: str,
    nbytes: int,
    nodes: int,
    tasks_per_node: int = 16,
    repeats: int = 2,
    warmup: int = 1,
    cost: CostModel | None = None,
) -> float | None:
    """Microseconds per call of one (op, variant, size, nodes) candidate.

    Returns ``None`` when the variant is structurally inapplicable at this
    cell even after its ``tune_config`` hook (e.g. ring families on one
    node).  Each candidate gets a fresh machine so capacity-evolved configs
    and persistent plan caches never leak between probes.
    """
    base_cost = cost if cost is not None else CostModel.ibm_sp_colony()
    entry = lookup_variant(operation, variant_name)
    config = probe_config(entry, nbytes)
    env = SelectionEnv(
        op=operation, nbytes=nbytes, nodes=nodes, ppn=tasks_per_node,
        config=config, cost=base_cost,
    )
    if not entry.applicable(env):
        return None

    spec = ClusterSpec(nodes=nodes, tasks_per_node=tasks_per_node)
    machine = Machine(spec, cost=base_cost)
    stack = SRM(machine, config=config, policy=FixedPolicy({operation: variant_name}))
    if operation == "allgather":
        body = _allgather_body(machine, stack, nbytes)
    else:
        body = operation_body(machine, stack, operation, nbytes)
    if warmup:
        machine.launch(looped_program(body, warmup))
    result = machine.launch(looped_program(body, repeats))
    # The forced variant must actually have run — a dispatcher fallback here
    # would time the wrong algorithm and silently corrupt the table.
    if machine.obs.metrics.summary().get("dispatch.fallbacks", 0):
        return None
    return result.elapsed / repeats * 1e6


def _tune_worker(spec: tuple) -> float | None:
    """Spawn-safe worker: time one (op, variant, size, nodes) candidate."""
    operation, variant_name, nbytes, nodes, tasks_per_node, repeats = spec
    return tune_cell(
        operation, variant_name, nbytes, nodes,
        tasks_per_node=tasks_per_node, repeats=repeats,
    )


def race(
    operations: typing.Sequence[str],
    sizes: typing.Sequence[int],
    nodes_axis: typing.Sequence[int],
    tasks_per_node: int = 16,
    repeats: int = 2,
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Time every registered variant at every (operation, nodes, size) cell.

    Each probe runs :func:`tune_cell` under its :func:`probe_config` on a
    fresh machine, so the race fans out over ``jobs`` workers and the result
    is identical at any ``jobs`` setting.  Returns one entry per cell with
    at least one runnable variant, in (sorted operation, nodes, size) order:
    ``microseconds`` maps every registered variant, in registration order,
    to its raw time (``None`` when it cannot run), and ``winner`` is the
    lowest time, the first-registered variant on an exact tie.
    """
    for operation in operations:
        if operation not in TUNABLE_OPERATIONS:
            raise ConfigurationError(
                f"operation {operation!r} is not tunable; "
                f"choose from {TUNABLE_OPERATIONS}"
            )
    grid = [
        (operation, nodes, nbytes)
        for operation in sorted(operations)
        for nodes in nodes_axis
        for nbytes in sizes
    ]
    probes = [
        (operation, entry.name, nbytes, nodes, tasks_per_node, repeats)
        for operation, nodes, nbytes in grid
        for entry in variants_for(operation)
    ]
    pool_progress = None
    if progress is not None:

        def pool_progress(spec: tuple, done: int, total: int) -> None:
            operation, variant_name, nbytes, nodes = spec[:4]
            progress(f"{operation}/{variant_name} {nbytes}B x{nodes} nodes")

    measured = iter(run_grid(probes, _tune_worker, jobs=jobs, progress=pool_progress))
    cells: list[dict] = []
    for operation, nodes, nbytes in grid:
        micros = {entry.name: next(measured) for entry in variants_for(operation)}
        timed = {name: us for name, us in micros.items() if us is not None}
        if not timed:
            continue
        cells.append(
            {
                "operation": operation,
                "nodes": nodes,
                "nbytes": nbytes,
                "microseconds": micros,
                # min() keeps the first of equal keys: registration order.
                "winner": min(timed, key=timed.__getitem__),
            }
        )
    return cells


def decision_table(cells: typing.Sequence[dict]) -> dict[str, dict[str, list]]:
    """``op -> nodes -> [[nbytes, winner, winner us], ...]`` from race cells."""
    table: dict[str, dict[str, list]] = {}
    for cell in cells:
        rows = table.setdefault(cell["operation"], {}).setdefault(str(cell["nodes"]), [])
        winner = cell["winner"]
        rows.append([cell["nbytes"], winner, round(cell["microseconds"][winner], 3)])
    return table


def collect_table(
    operations: typing.Sequence[str] = TUNABLE_OPERATIONS,
    sizes: typing.Sequence[int] | None = None,
    nodes_axis: typing.Sequence[int] | None = None,
    tasks_per_node: int = 16,
    repeats: int = 2,
    label: str = "tuned",
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> dict:
    """Race the grid and assemble one tuned-policy document.

    The decision table is byte-identical at any ``jobs`` setting (winners
    are decided from the same deterministic timings).
    """
    if sizes is None:
        sizes = bench_sizes()
    if nodes_axis is None:
        nodes_axis = bench_nodes()
    cells = race(
        operations, sizes, nodes_axis, tasks_per_node=tasks_per_node,
        repeats=repeats, progress=progress, jobs=jobs,
    )
    identity = bench_identity(tasks_per_node=tasks_per_node)
    return {
        "kind": TUNED_TABLE_KIND,
        "schema_version": TUNED_TABLE_SCHEMA_VERSION,
        "label": label,
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
        "grid": {
            "sizes": list(sizes),
            "nodes": list(nodes_axis),
            "operations": sorted(operations),
            "tasks_per_node": tasks_per_node,
            "full": full_grid(),
        },
        "table": decision_table(cells),
        "cells": [
            {
                "operation": cell["operation"],
                "nbytes": cell["nbytes"],
                "nodes": cell["nodes"],
                "winner": cell["winner"],
                "microseconds": {
                    name: round(micros, 3)
                    for name, micros in sorted(cell["microseconds"].items())
                    if micros is not None
                },
            }
            for cell in cells
        ],
    }


def run_tune(
    out: str = "TUNED.json",
    dry_run: bool = False,
    operations: typing.Sequence[str] = TUNABLE_OPERATIONS,
    label: str = "tuned",
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> dict:
    """Entry point behind ``python -m repro tune``.

    A dry run sweeps a micro-grid (two sizes, the smallest multi-node shape,
    4 tasks/node, one repeat), validates the document round-trips through
    :class:`TunedPolicy`, and writes nothing.
    """
    if dry_run:
        document = collect_table(
            operations=operations,
            sizes=[8, 8 * KB],
            nodes_axis=[min(bench_nodes(), key=lambda n: (n == 1, n))],
            tasks_per_node=4,
            repeats=1,
            label=f"{label}-dry-run",
            progress=progress,
            jobs=jobs,
        )
    else:
        document = collect_table(
            operations=operations, label=label, progress=progress, jobs=jobs
        )
    TunedPolicy(document)  # must load, whatever else happens
    if not dry_run:
        write_snapshot(out, document)
    return document
