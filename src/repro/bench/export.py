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
from repro.bench.sweeps import measure, warm_cache
from repro.core import SRMConfig
from repro.errors import ConfigurationError
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
    """The figures' full grid: every point of the :data:`FIGURES` panels
    that span every processor count, for the chosen operations and stacks.

    The Figs. 9–11 ratio surfaces hold every such point of broadcast,
    reduce and allreduce (each size x processor count, SRM and both
    baselines; the Figs. 6–8 SRM curves repeat their SRM points), and
    Fig. 12 the barrier's, which ignore the size axis.  ``jobs > 1``
    measures the points through the parallel pool first (deterministic
    per point, so the export is byte-identical either way); the serial
    reads below then hit the memo cache.
    """
    # Imported here: the snapshot harness imports this module for
    # ``bench_identity`` and never reads the figures.
    from repro.bench.figures import FIGURES

    panels = [panel for figure in FIGURES.values() for panel in figure if panel.nodes == "all"]
    known = sorted({panel.operation for panel in panels})
    unknown = sorted(set(operations) - set(known))
    if unknown:
        raise ConfigurationError(f"export: no figure measures {unknown}; expected some of {known}")
    specs = dict.fromkeys(
        point
        for panel in panels
        if panel.operation in operations
        for point in panel.points()
        if point[0] in stacks
    )
    if jobs != 1:
        warm_cache(specs, jobs=jobs)
    return [measure(*spec) for spec in specs]
