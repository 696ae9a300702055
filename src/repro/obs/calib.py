"""``repro.obs.calib`` — cost-model calibration and dispatch policy scorecards.

The dispatch layer made algorithm selection a first-class policy
decision; this module makes the *quality* of those decisions measurable,
following the predicted-vs-measured methodology of Barchet-Estefanel &
Mounié's intra-cluster tuning work (PAPERS.md).  What a live machine chose
is already recorded elsewhere: the ``dispatch.<op>.<variant>`` counters,
``dispatch.fallbacks``, and the ``dispatch`` marker span whose detail names
the chosen variant (and, on fallback, the overridden one with its reason).
Any variant's per-term prediction (``copy`` / ``wire`` / ``reduce`` /
``eager``, see :data:`~repro.machine.costmodel.COST_TERMS`) is
:func:`~repro.core.dispatch.predict_terms` of ``dispatcher.env(op, nbytes)``.
Two instruments:

**Calibration** — :func:`collect_calibration` scores the ``tune`` race
(:func:`repro.bench.tune.race`, the one measurement of variants), pairing
each candidate's *predicted* cost with its *measured* latency across the
bench grid, yielding

* per-(op, variant, size, nodes) model error (``log2(predicted/measured)``),
* per-term error attribution — a least-squares fit of measured latency
  against the predicted term columns names *which* term drifts
  ("the model overpredicts ``wire`` 2.3x for the ring allreduce"),
* selection regret — ``measured(chosen) − measured(best-in-hindsight)`` per
  cell per policy, and
* crossover checks of the paper's §2.4 switch points against the measured
  optimum: the bracket of sizes the grid resolves the switch to, and its
  error in octaves against the paper's threshold.

**Policy scorecards** — :func:`run_calibrate` (behind ``python -m repro
calibrate``) compares the paper / cost-model / tuned / fixed policies on
total regret and mis-selection counts, writes a schema-v2
``repro-calibration-report`` JSON (byte-stable, identity-fingerprinted like
tune tables, deterministic at any ``--jobs``), and phrases the findings as
regress-gate-style headlines.
"""

from __future__ import annotations

import math
import typing

from repro.errors import ConfigurationError

__all__ = [
    "CALIBRATION_KIND",
    "CALIBRATION_SCHEMA_VERSION",
    "DEFAULT_FIXED_CHOICES",
    "PAPER_SWITCH_POINTS",
    "QUICK_SIZES",
    "SCORECARD_POLICIES",
    "collect_calibration",
    "load_calibration_report",
    "run_calibrate",
    "validate_calibration_report",
]

#: Document marker + schema version of the ``repro calibrate`` artifact.
CALIBRATION_KIND = "repro-calibration-report"
CALIBRATION_SCHEMA_VERSION = 2

#: The scorecard's policy line-up.  ``fixed`` is the no-switching strawman:
#: one always-applicable variant per operation, the ablation FixedPolicy.
SCORECARD_POLICIES = ("paper", "cost", "tuned", "fixed")

#: The fixed policy's choices: each operation's single variant that is
#: structurally applicable at every grid cell (no protocol switching at all).
DEFAULT_FIXED_CHOICES = {
    "broadcast": "pipelined",
    "reduce": "pipelined",
    "allreduce": "pipeline",
    "allgather": "gather-bcast",
}

#: The paper's §2.4 switch points as crossover claims: above ``paper_bytes``
#: (``SRMConfig.<switch>``'s default), ``op`` changes from ``below`` to ``above``.
PAPER_SWITCH_POINTS = (
    ("broadcast", "pipeline_min", 8 * 1024, "small", "pipelined"),
    ("broadcast", "small_protocol_max", 64 * 1024, "pipelined", "large"),
    ("reduce", "pipeline_min", 8 * 1024, "small", "pipelined"),
    ("reduce", "small_protocol_max", 64 * 1024, "pipelined", "large"),
    ("allreduce", "allreduce_exchange_max", 16 * 1024, "exchange", "pipeline"),
    ("allgather", "allgather_ring_min", 64 * 1024, "gather-bcast", "ring"),
)

#: The ``--quick`` grid sizes: spans the 8 KB pipelining and 16 KB allreduce
#: switch points, so even the CI-sized pass performs §2.4 crossover checks.
QUICK_SIZES = (4096, 8192, 16384, 32768)

#: Term-drift factor below which a fit is considered calibrated (no headline).
_DRIFT_HEADLINE_FACTOR = 1.25

#: Regret below this (µs) is measurement-identical, not a mis-selection.
_REGRET_EPSILON = 1e-9


# ---------------------------------------------------------------------------
# calibration report
# ---------------------------------------------------------------------------


def _predicted_terms_us(
    entry: typing.Any, nbytes: int, nodes: int, ppn: int
) -> tuple[dict[str, float], float]:
    """Predicted per-term microseconds for one candidate, under the same
    (``tune_config``-evolved) configuration the race measured it with."""
    from repro.bench.tune import probe_config
    from repro.core.dispatch import SelectionEnv, predict_terms
    from repro.machine.costmodel import CostModel

    env = SelectionEnv(
        op=entry.op, nbytes=nbytes, nodes=nodes, ppn=ppn,
        config=probe_config(entry, nbytes), cost=CostModel.ibm_sp_colony(),
    )
    terms_seconds, total_seconds = predict_terms(entry, env)
    return (
        {term: seconds * 1e6 for term, seconds in terms_seconds.items()},
        total_seconds * 1e6,
    )


def _term_scales(
    rows: list[tuple[dict[str, float], float]]
) -> dict[str, float] | None:
    """Least-squares per-term calibration factors for one variant group.

    Fits ``measured ≈ Σ_t scale_t · predicted_t`` over the group's cells
    (NumPy ``lstsq``, deterministic).  ``scale_t < 1`` means the model
    *over*predicts term ``t``; ``> 1`` underpredicts.  Returns ``None`` when
    the system is underdetermined (fewer cells than active terms).
    """
    import numpy as np

    terms = sorted(
        {term for predicted, _measured in rows for term, us in predicted.items() if us}
    )
    if not terms or len(rows) < len(terms):
        return None
    matrix = np.array(
        [[predicted.get(term, 0.0) for term in terms] for predicted, _ in rows]
    )
    target = np.array([measured for _predicted, measured in rows])
    scales, _residual, _rank, _sv = np.linalg.lstsq(matrix, target, rcond=None)
    return {term: float(scale) for term, scale in zip(terms, scales)}


def _drift(scale: float) -> tuple[str, float | None]:
    """(direction, factor) of one term's calibration scale.

    ``scale`` is what the predicted term must be multiplied by to match
    measurements: below 1 the model overpredicted by ``1/scale``; above 1 it
    underpredicted by ``scale``.  Non-positive scales (collinear fits) report
    an over-prediction of unquantifiable factor (``None``).
    """
    if scale <= 0:
        return "over", None
    if scale >= 1:
        return "under", scale
    return "over", 1.0 / scale


def _dominant_drift(scales: dict[str, float]) -> dict | None:
    """The worst-drifting term of one fit, or None when calibrated."""
    worst: dict | None = None
    worst_rank = 0.0
    for term, scale in sorted(scales.items()):
        direction, factor = _drift(scale)
        rank = math.inf if factor is None else factor
        if rank > worst_rank:
            worst_rank = rank
            worst = {
                "term": term,
                "direction": direction,
                "factor": None if factor is None else round(factor, 2),
            }
    if worst is None or (worst_rank != math.inf and worst_rank < _DRIFT_HEADLINE_FACTOR):
        return None
    return worst


def collect_calibration(
    operations: typing.Sequence[str] | None = None,
    sizes: typing.Sequence[int] | None = None,
    nodes_axis: typing.Sequence[int] | None = None,
    tasks_per_node: int = 16,
    repeats: int = 2,
    label: str = "calibration",
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
    tuned_document: typing.Mapping[str, typing.Any] | None = None,
) -> dict:
    """Score the ``tune`` race on the grid against predictions and policies.

    The race's probes each run on a fresh machine, so they fan out over
    ``jobs`` workers and the report is byte-identical at any ``jobs``
    setting.  A cell's ``best`` is the race's winner.  ``tuned_document``
    scores an external decision table; by default the ``tuned`` scorecard
    row scores the table ``tune`` builds from this very race (zero regret
    by construction).
    """
    from repro.bench.export import bench_identity, identity_fingerprint
    from repro.bench.snapshot import bench_nodes, bench_sizes
    from repro.bench.sweeps import full_grid
    from repro.bench.tune import TUNABLE_OPERATIONS, decision_table, race
    from repro.core import SRMConfig
    from repro.core.dispatch import (
        TUNED_TABLE_KIND,
        TUNED_TABLE_SCHEMA_VERSION,
        CostModelPolicy,
        FixedPolicy,
        PaperPolicy,
        SelectionEnv,
        TunedPolicy,
        lookup_variant,
        resolve_variant,
    )
    from repro.machine.costmodel import COST_TERMS, CostModel

    if operations is None:
        operations = TUNABLE_OPERATIONS
    if sizes is None:
        sizes = bench_sizes()
    if nodes_axis is None:
        nodes_axis = bench_nodes()
    sizes = sorted(sizes)
    raced = race(
        operations, sizes, nodes_axis, tasks_per_node=tasks_per_node,
        repeats=repeats, progress=progress, jobs=jobs,
    )

    default_config = SRMConfig()
    default_cost = CostModel.ibm_sp_colony()

    # -- cells: measured + predicted (per term) per candidate ---------------
    cells: list[dict] = []
    for raced_cell in raced:
        operation, nodes, nbytes = (
            raced_cell["operation"], raced_cell["nodes"], raced_cell["nbytes"]
        )
        default_env = SelectionEnv(
            op=operation, nbytes=nbytes, nodes=nodes, ppn=tasks_per_node,
            config=default_config, cost=default_cost,
        )
        variants: dict[str, dict] = {}
        for name, micros in raced_cell["microseconds"].items():
            entry = lookup_variant(operation, name)
            terms_us, total_us = _predicted_terms_us(entry, nbytes, nodes, tasks_per_node)
            log2_error = None
            if micros is not None and micros > 0 and total_us > 0:
                log2_error = round(math.log2(total_us / micros), 4)
            variants[name] = {
                "applicable": bool(entry.applicable(default_env)),
                "measured_us": None if micros is None else round(micros, 3),
                "predicted_us": round(total_us, 3),
                "predicted_terms_us": {
                    term: round(us, 4) for term, us in sorted(terms_us.items())
                },
                "log2_error": log2_error,
            }
        best = raced_cell["winner"]
        cells.append(
            {
                "operation": operation,
                "nodes": nodes,
                "nbytes": nbytes,
                "best": best,
                "best_us": variants[best]["measured_us"],
                "variants": variants,
            }
        )

    # -- model error + per-term attribution ---------------------------------
    model_error: list[dict] = []
    for operation in sorted(operations):
        for nodes in nodes_axis:
            group = [
                cell for cell in cells
                if cell["operation"] == operation and cell["nodes"] == nodes
            ]
            if not group:
                continue
            errors: list[float] = []
            by_variant: dict[str, dict] = {}
            variant_names = sorted(
                {name for cell in group for name in cell["variants"]}
            )
            for name in variant_names:
                rows: list[tuple[dict[str, float], float]] = []
                variant_errors: list[float] = []
                for cell in group:
                    entry = cell["variants"].get(name)
                    if entry is None or entry["measured_us"] is None:
                        continue
                    rows.append((entry["predicted_terms_us"], entry["measured_us"]))
                    if entry["log2_error"] is not None:
                        variant_errors.append(abs(entry["log2_error"]))
                if not rows:
                    continue
                errors.extend(variant_errors)
                scales = _term_scales(rows)
                by_variant[name] = {
                    "cells": len(rows),
                    "mean_abs_log2_error": round(
                        sum(variant_errors) / len(variant_errors), 4
                    ) if variant_errors else None,
                    "term_scales": None if scales is None else {
                        term: round(scale, 4) for term, scale in sorted(scales.items())
                    },
                    "dominant_term_drift": None if scales is None
                    else _dominant_drift(scales),
                }
            if not by_variant:
                continue
            model_error.append(
                {
                    "operation": operation,
                    "nodes": nodes,
                    "cells": sum(entry["cells"] for entry in by_variant.values()),
                    "mean_abs_log2_error": round(sum(errors) / len(errors), 4)
                    if errors else None,
                    "by_variant": by_variant,
                }
            )

    # -- policy scorecard: selections + regret ------------------------------
    paper = PaperPolicy()
    tuned_source = tuned_document
    trained_on_grid = tuned_source is None
    if tuned_source is None:
        tuned_source = {
            "kind": TUNED_TABLE_KIND,
            "schema_version": TUNED_TABLE_SCHEMA_VERSION,
            "label": f"{label}-winners",
            "table": decision_table(raced),
        }
    policies = {
        "paper": paper,
        "cost": CostModelPolicy(),
        "tuned": TunedPolicy(tuned_source, fallback=paper),
        "fixed": FixedPolicy(dict(DEFAULT_FIXED_CHOICES), fallback=paper),
    }
    regret: dict[str, dict] = {}
    # (operation, nodes, picked, winner) -> (nbytes, regret) of each cell
    # the cost policy mis-selects, for the headlines.
    cost_misses: dict[tuple, list[tuple[int, float]]] = {}
    for name in SCORECARD_POLICIES:
        policy = policies[name]
        total = 0.0
        mis = 0
        scored = 0
        worst: dict | None = None
        by_op: dict[str, dict] = {}
        for cell in cells:
            env = SelectionEnv(
                op=cell["operation"], nbytes=cell["nbytes"], nodes=cell["nodes"],
                ppn=tasks_per_node, config=default_config, cost=default_cost,
            )
            selected = resolve_variant(policy, env)[0].name
            cell.setdefault("selections", {})[name] = selected
            entry = cell["variants"].get(selected)
            if entry is None or entry["measured_us"] is None:
                continue
            scored += 1
            cell_regret = entry["measured_us"] - cell["best_us"]
            total += cell_regret
            op_stats = by_op.setdefault(
                cell["operation"], {"regret_us": 0.0, "mis_selections": 0}
            )
            op_stats["regret_us"] += cell_regret
            if cell_regret > _REGRET_EPSILON:
                mis += 1
                op_stats["mis_selections"] += 1
                if name == "cost":
                    key = (cell["operation"], cell["nodes"], selected, cell["best"])
                    cost_misses.setdefault(key, []).append((cell["nbytes"], cell_regret))
                if worst is None or cell_regret > worst["regret_us"]:
                    worst = {
                        "operation": cell["operation"],
                        "nodes": cell["nodes"],
                        "nbytes": cell["nbytes"],
                        "selected": selected,
                        "best": cell["best"],
                        "regret_us": cell_regret,
                    }
        entry = {
            "policy": name,
            "cells": scored,
            "mis_selections": mis,
            "total_regret_us": round(total, 3),
            "worst": None if worst is None else {
                **worst, "regret_us": round(worst["regret_us"], 3)
            },
            "by_op": {
                op: {
                    "regret_us": round(stats["regret_us"], 3),
                    "mis_selections": stats["mis_selections"],
                }
                for op, stats in sorted(by_op.items())
            },
        }
        if name == "tuned":
            entry["trained_on_grid"] = trained_on_grid
        regret[name] = entry

    crossovers = _crossover_checks(cells, operations, nodes_axis)
    headlines = _headlines(model_error, regret, crossovers, cost_misses)

    identity = bench_identity(tasks_per_node=tasks_per_node)
    return {
        "kind": CALIBRATION_KIND,
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "label": label,
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
        "grid": {
            "sizes": list(sizes),
            "nodes": list(nodes_axis),
            "operations": sorted(operations),
            "tasks_per_node": tasks_per_node,
            "repeats": repeats,
            "full": full_grid(),
        },
        "terms": list(COST_TERMS) + ["other"],
        "cells": cells,
        "model_error": model_error,
        "regret": regret,
        "crossovers": crossovers,
        "headlines": headlines,
    }


def _crossover_checks(
    cells: list[dict], operations: typing.Collection[str], nodes_axis: typing.Sequence[int]
) -> list[dict]:
    """The §2.4 crossover checks: per paper switch point and node count,
    the bracket of sizes the grid resolves the measured switch to, its
    error in octaves against the paper's threshold, and whether the paper's
    switch lies inside it (``None`` when the grid does not span it)."""
    crossovers: list[dict] = []
    for operation, switch, threshold, below, above in PAPER_SWITCH_POINTS:
        if operation not in operations:
            continue
        for nodes in nodes_axis:
            group = {
                cell["nbytes"]: cell for cell in cells
                if cell["operation"] == operation and cell["nodes"] == nodes
            }
            if not group:
                continue
            comparable = sorted(
                nbytes for nbytes, cell in group.items()
                if cell["variants"].get(below, {}).get("measured_us") is not None
                and cell["variants"].get(above, {}).get("measured_us") is not None
            )
            if not comparable:
                continue
            spanned = comparable[0] <= threshold < comparable[-1]
            paper_first_above = next(
                (nbytes for nbytes in comparable if nbytes > threshold), None
            )
            # The grid resolves the switch to a bracket: it lies above the
            # last size where ``below`` still wins (exclusive) and at or
            # below the first where ``above`` wins (inclusive); ``None`` is
            # an open end.
            first_above = next(
                (
                    index for index, nbytes in enumerate(comparable)
                    if group[nbytes]["variants"][above]["measured_us"]
                    < group[nbytes]["variants"][below]["measured_us"]
                ),
                len(comparable),
            )
            bracket = [
                comparable[first_above - 1] if first_above else None,
                comparable[first_above] if first_above < len(comparable) else None,
            ]
            # The paper switches just above its threshold: each end's
            # distance from it, in octaves.
            error_octaves = [
                None if end is None else round(math.log2(end / threshold), 3)
                for end in bracket
            ]
            agrees: bool | None = None
            if spanned:
                low, high = bracket
                agrees = low is not None and high is not None and low <= threshold < high
            crossovers.append(
                {
                    "operation": operation,
                    "nodes": nodes,
                    "switch": switch,
                    "paper_bytes": threshold,
                    "below": below,
                    "above": above,
                    "spanned": spanned,
                    "paper_first_above": paper_first_above,
                    "measured_bracket": bracket,
                    "agrees": agrees,
                    "error_octaves": error_octaves,
                }
            )
    return crossovers


def _headlines(
    model_error: list[dict],
    regret: dict[str, dict],
    crossovers: list[dict],
    cost_misses: dict[tuple, list[tuple[int, float]]],
) -> list[str]:
    """Regress-gate-style one-liners: the report's findings, phrased.

    The cost policy's mis-selections are counted once each, on lines naming
    the variant it picked and the race's winner, not on a model-error line
    whose worst-drifting variant the policy may never have picked.
    """
    from repro.bench.report import format_bytes

    lines: list[str] = []
    scored = max((entry["cells"] for entry in regret.values()), default=0)
    lines.append(
        f"policy scorecard over {scored} cells: "
        + ", ".join(
            f"{name} +{regret[name]['total_regret_us']:.1f}us regret "
            f"({regret[name]['mis_selections']} mis-selections)"
            for name in SCORECARD_POLICIES
        )
    )
    for group in model_error:
        drifts = [
            (name, entry["dominant_term_drift"])
            for name, entry in sorted(group["by_variant"].items())
            if entry.get("dominant_term_drift")
        ]
        if not drifts:
            continue

        def _rank(drift: dict) -> float:
            return math.inf if drift["factor"] is None else drift["factor"]

        variant, drift = max(drifts, key=lambda pair: _rank(pair[1]))
        factor = "" if drift["factor"] is None else f" {drift['factor']:.1f}x"
        lines.append(
            f"cost model {drift['direction']}predicts {drift['term']}{factor} "
            f"for {group['operation']} {variant} on {group['nodes']} nodes"
        )
    for (operation, nodes, picked, best), misses in cost_misses.items():
        sizes = ", ".join(format_bytes(nbytes) for nbytes, _regret in misses)
        plural = "" if len(misses) == 1 else "s"
        lines.append(
            f"cost policy picked {picked} over winner {best} for {operation} at "
            f"{sizes} on {nodes} nodes -> {len(misses)} mis-selection{plural}, "
            f"+{sum(regret_us for _nbytes, regret_us in misses):.1f}us regret"
        )
    for check in crossovers:
        if check["agrees"] is False:
            low, high = check["measured_bracket"]
            if high is None:
                measured = f"never inside the grid (above {format_bytes(low)})"
            elif low is None:
                measured = f"at or below {format_bytes(high)}"
            else:
                measured = f"in ({format_bytes(low)}, {format_bytes(high)}]"
            # The paper's thresholds are inclusive-below: a threshold-sized
            # message still runs the old variant.
            lines.append(
                f"measured {check['operation']} {check['below']}->{check['above']} "
                f"crossover {measured} vs paper's switch above "
                f"{format_bytes(check['paper_bytes'])} ({check['switch']}) on "
                f"{check['nodes']} nodes, {_octave_error(*check['error_octaves'])}"
            )
    return lines


def _octave_error(low: float | None, high: float | None) -> str:
    """A crossover bracket's error in octaves, phrased: ``low`` (exclusive)
    to ``high`` (inclusive) from the paper's threshold, ``None`` unbounded.
    Only a bracket that misses the paper's switch is phrased."""

    def octaves(value: float) -> str:
        return f"{value:.1f}".removesuffix(".0")

    def unit(value: float) -> str:
        return "octave" if value == 1 else "octaves"

    if high is not None and high <= 0:
        if low is None:
            return f"{octaves(abs(high))} or more octaves early"
        return f"{octaves(abs(high))} to {octaves(abs(low))} {unit(abs(low))} early"
    if high is None:
        return f"more than {octaves(low)} {unit(low)} late"
    return f"{octaves(low)} to {octaves(high)} {unit(high)} late"


# ---------------------------------------------------------------------------
# report validation + IO
# ---------------------------------------------------------------------------


def validate_calibration_report(document: typing.Mapping[str, typing.Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a
    structurally valid schema-v2 calibration report (CI gates on this)."""
    if document.get("kind") != CALIBRATION_KIND:
        raise ConfigurationError(
            f"not a {CALIBRATION_KIND} document (kind={document.get('kind')!r})"
        )
    version = document.get("schema_version")
    if version != CALIBRATION_SCHEMA_VERSION:
        raise ConfigurationError(
            f"calibration-report schema mismatch: document v{version}, this "
            f"tool speaks v{CALIBRATION_SCHEMA_VERSION}"
        )
    for key in (
        "label", "identity", "fingerprint", "grid", "terms",
        "cells", "model_error", "regret", "crossovers", "headlines",
    ):
        if key not in document:
            raise ConfigurationError(f"calibration report is missing {key!r}")
    terms = set(document["terms"])
    if not document["cells"]:
        raise ConfigurationError("calibration report has no cells")
    for cell in document["cells"]:
        for key in ("operation", "nodes", "nbytes", "best", "best_us", "variants"):
            if key not in cell:
                raise ConfigurationError(f"calibration cell is missing {key!r}")
        for name, entry in cell["variants"].items():
            for key in ("applicable", "measured_us", "predicted_us", "predicted_terms_us"):
                if key not in entry:
                    raise ConfigurationError(
                        f"variant {cell['operation']}/{name} is missing {key!r}"
                    )
            unknown = set(entry["predicted_terms_us"]) - terms
            if unknown:
                raise ConfigurationError(
                    f"variant {cell['operation']}/{name} predicts unknown "
                    f"cost terms {sorted(unknown)}"
                )
    if not document["model_error"]:
        raise ConfigurationError("calibration report has no model_error groups")
    for group in document["model_error"]:
        for key in ("operation", "nodes", "cells", "mean_abs_log2_error", "by_variant"):
            if key not in group:
                raise ConfigurationError(f"model_error group is missing {key!r}")
    regret = document["regret"]
    for name in SCORECARD_POLICIES:
        entry = regret.get(name)
        if entry is None:
            raise ConfigurationError(f"regret scorecard is missing policy {name!r}")
        for key in ("cells", "mis_selections", "total_regret_us", "by_op"):
            if key not in entry:
                raise ConfigurationError(f"regret[{name!r}] is missing {key!r}")
        if not isinstance(entry["total_regret_us"], (int, float)):
            raise ConfigurationError(f"regret[{name!r}].total_regret_us is not numeric")
        if entry["total_regret_us"] < -_REGRET_EPSILON:
            raise ConfigurationError(
                f"regret[{name!r}] is negative ({entry['total_regret_us']}): "
                f"regret is measured-minus-best and cannot beat hindsight"
            )
    if not document["crossovers"]:
        raise ConfigurationError(
            "calibration report performed no §2.4 crossover checks — the "
            "grid must span at least one paper switch point"
        )
    for check in document["crossovers"]:
        for key in ("operation", "nodes", "switch", "paper_bytes", "below", "above"):
            if key not in check:
                raise ConfigurationError(f"crossover check is missing {key!r}")
    if not document["headlines"]:
        raise ConfigurationError("calibration report has no headlines")


def load_calibration_report(path: str) -> dict:
    """Load and validate a calibration report written by ``repro calibrate``."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_calibration_report(document)
    return document


def run_calibrate(
    out: str | None = "CALIB_report.json",
    quick: bool = False,
    operations: typing.Sequence[str] | None = None,
    label: str = "calibration",
    progress: typing.Callable[[str], None] | None = None,
    jobs: int = 1,
    tuned_table: str | None = None,
) -> dict:
    """Entry point behind ``python -m repro calibrate``.

    ``quick`` sweeps the CI-sized micro-grid (:data:`QUICK_SIZES` on the
    smallest multi-node shape, 4 tasks/node, one repeat) — small enough for
    a PR gate, wide enough to span the 8 KB and 16 KB §2.4 switch points.
    The report is validated against the schema before anything is written;
    a violation raises instead of producing a malformed artifact.
    """
    tuned_document = None
    if tuned_table is not None:
        import json

        with open(tuned_table, "r", encoding="utf-8") as handle:
            tuned_document = json.load(handle)
    if quick:
        from repro.bench.snapshot import bench_nodes

        document = collect_calibration(
            operations=operations,
            sizes=list(QUICK_SIZES),
            nodes_axis=[min(bench_nodes(), key=lambda n: (n == 1, n))],
            tasks_per_node=4,
            repeats=1,
            label=f"{label}-quick",
            progress=progress,
            jobs=jobs,
            tuned_document=tuned_document,
        )
    else:
        document = collect_calibration(
            operations=operations,
            label=label,
            progress=progress,
            jobs=jobs,
            tuned_document=tuned_document,
        )
    validate_calibration_report(document)
    if out is not None:
        from repro.bench.snapshot import write_snapshot

        write_snapshot(out, document)
    return document
