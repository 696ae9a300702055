"""Export sweep results as CSV or JSON.

A reproduction is only useful if its numbers leave the terminal: this module
serializes :class:`~repro.bench.runner.Measurement` collections (and the
derived SRM/baseline ratios) into machine-readable files for plotting or
regression tracking, and backs ``python -m repro export``.

Output is deterministic: rows are always emitted sorted by
``(operation, stack, nbytes, nodes)`` regardless of collection order, and
every export carries the cost-model / cluster identity (plus a short
fingerprint of it), so diffing two exports compares measurements — never
iteration-order or calibration noise.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import typing

from repro._version import __version__
from repro.bench.runner import OPERATIONS, STACKS, Measurement
from repro.bench.sweeps import measure, message_sizes, processor_configs, warm_cache
from repro.core import SRMConfig
from repro.machine import CostModel

__all__ = [
    "bench_identity",
    "identity_fingerprint",
    "rows_from_measurements",
    "to_csv",
    "to_json",
    "collect_sweep",
]

_FIELDS = ("operation", "stack", "nbytes", "nodes", "total_tasks", "repeats", "microseconds")


def bench_identity(
    cost: CostModel | None = None,
    srm_config: SRMConfig | None = None,
    tasks_per_node: int = 16,
) -> dict[str, typing.Any]:
    """The calibration identity measurements were taken under.

    Embedded in every export and snapshot so a diff can tell a protocol
    regression apart from a deliberate constant retune: when the identity
    changed, the numbers were *expected* to move.
    """
    cost = cost if cost is not None else CostModel.ibm_sp_colony()
    srm_config = srm_config if srm_config is not None else SRMConfig()
    return {
        "version": __version__,
        "tasks_per_node": tasks_per_node,
        "cost_model": {
            field.name: _jsonable(getattr(cost, field.name))
            for field in dataclasses.fields(CostModel)
        },
        "srm_config": {
            field.name: _jsonable(getattr(srm_config, field.name))
            for field in dataclasses.fields(SRMConfig)
        },
    }


def _jsonable(value: typing.Any) -> typing.Any:
    """Scalars pass through; nested config dataclasses (EagerLimitTable)
    flatten to dicts; tuples become lists so json round-trips compare equal."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


def identity_fingerprint(identity: dict[str, typing.Any]) -> str:
    """A short stable hash of an identity dict (for one-line provenance)."""
    canonical = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _row_key(row: dict[str, typing.Any]) -> tuple:
    return (row["operation"], row["stack"], row["nbytes"], row["nodes"])


def rows_from_measurements(
    measurements: typing.Iterable[Measurement],
) -> list[dict[str, typing.Any]]:
    """Flatten measurements into dict rows sorted by (op, stack, size, nodes)."""
    rows = []
    for m in measurements:
        rows.append(
            {
                "operation": m.operation,
                "stack": m.stack,
                "nbytes": m.nbytes,
                "nodes": m.nodes,
                "total_tasks": m.total_tasks,
                "repeats": m.repeats,
                "microseconds": m.microseconds,
            }
        )
    rows.sort(key=_row_key)
    return rows


def to_csv(measurements: typing.Iterable[Measurement]) -> str:
    """Measurements as CSV text: one identity comment line, header, rows."""
    identity = bench_identity()
    buffer = io.StringIO()
    buffer.write(
        f"# repro-bench identity {identity_fingerprint(identity)} "
        f"{json.dumps(identity, sort_keys=True)}\n"
    )
    writer = csv.DictWriter(buffer, fieldnames=_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows_from_measurements(measurements):
        writer.writerow(row)
    return buffer.getvalue()


def to_json(measurements: typing.Iterable[Measurement], indent: int = 2) -> str:
    """Measurements as a JSON document: ``{identity, fingerprint, rows}``."""
    identity = bench_identity()
    document = {
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
        "rows": rows_from_measurements(measurements),
    }
    return json.dumps(document, indent=indent)


def collect_sweep(
    operations: typing.Sequence[str] = OPERATIONS,
    stacks: typing.Sequence[str] = STACKS,
    jobs: int = 1,
) -> list[Measurement]:
    """The full figure grid (sizes x processor counts x stacks x operations).

    Barrier ignores the size axis (measured once per processor count).
    ``jobs > 1`` measures the grid points through the parallel pool first
    (deterministic per point, so the export is byte-identical either way);
    the loops below then read straight from the memo cache.
    """
    specs: list[tuple] = []
    for operation in operations:
        for nodes in processor_configs():
            sizes = [0] if operation == "barrier" else message_sizes()
            for nbytes in sizes:
                for stack in stacks:
                    specs.append((stack, operation, nbytes, nodes))
    if jobs != 1:
        warm_cache(specs, jobs=jobs)
    results: list[Measurement] = []
    for stack, operation, nbytes, nodes in specs:
        results.append(measure(stack, operation, nbytes, nodes))
    return results
