"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [--fig N] [--full]``
    Regenerate the paper's evaluation figures as tables + ASCII charts.
``compare --op broadcast --bytes 16384 --nodes 8 --tasks 16``
    One data point across all three stacks.
``trace --op broadcast --bytes 8192 --nodes 2 --tasks 4 [--stack srm]``
    Run one collective and print the per-rank timeline
    (``--chrome-out FILE`` additionally writes a Perfetto-loadable trace;
    ``--policy`` swaps the SRM protocol-selection policy).
``profile --op allreduce --bytes 16384 --nodes 8 --tasks 16``
    Run one collective and print the critical-path phase breakdown plus the
    wait-state attribution table (late-sender / late-release /
    bandwidth-contention / resource-queueing, see ``repro.obs.waits``).
    ``--policy {paper,cost,tuned,fixed}`` selects the dispatch policy;
    ``--diff TARGET`` additionally runs a differential trace analysis
    against TARGET — another policy name, or a ``BENCH_*.json`` snapshot
    whose matching cell becomes the baseline.
``bench --json-out BENCH_head.json [--label head] [--full] [--jobs N]``
    Run the snapshot grid and write one schema-versioned telemetry snapshot
    (latencies + metrics + critical-path breakdown per cell).

Grid-shaped commands (``bench``, ``regress`` fresh runs, ``tune``,
``export``, ``figures``) accept ``--jobs N`` to fan their independent grid
cells over N worker processes (``--jobs 0`` = every core; default serial).
Artifacts are byte-identical at any ``--jobs`` setting.
``regress --baseline BENCH_seed.json [--candidate BENCH_head.json]
[--tolerance 0.05] [--update] [--diff-out DIFF.json] [--trace-out T.json]``
    Diff a candidate snapshot (or a fresh run) against the committed
    baseline; fail on unexplained regressions or figure-shape violations.
    Regressions are attributed down to the wait state and resource
    responsible ("+340 us of bandwidth-contention on bus[0] during
    ring-step"); ``--diff-out`` writes the full differential trace analysis
    and ``--trace-out`` a Perfetto trace of the worst regressed cell.
``tune [-o TUNED.json] [--dry-run] [--ops broadcast,allreduce]``
    Race every registered algorithm variant over the bench grid and write
    the per-cell winners as a ``TunedPolicy`` decision table
    (``SRM(machine, policy=TunedPolicy.load("TUNED.json"))``).
``calibrate [-o CALIB_report.json] [--quick] [--jobs N]``
    Pair every variant's analytic cost prediction with its measured latency
    across the grid (the ``tune`` race machinery), then score the
    paper/cost/tuned/fixed dispatch policies by selection regret vs
    best-in-hindsight.  Writes a schema-v1 ``repro-calibration-report``
    with per-term model-error attribution and §2.4 crossover checks, and
    prints the predicted-vs-measured scatter plus the headline findings
    (see ``repro.obs.calib``).
``verify [--schedules N] [--explorer random|dfs] [--quick] [--smoke]``
    Explore many legal event interleavings of every SRM collective on a
    small-config grid, checking protocol invariants (read-before-READY,
    in-use buffer overwrite, counter monotonicity), deadlock freedom, and
    schedule-invariance of the results; ``--smoke`` instead injects known
    synchronization bugs and asserts the harness reports them.
``info``
    Dump the calibrated cost model and the default SRM configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

from repro.bench import (
    OPERATIONS,
    build,
    format_bytes,
    format_us,
    measure,
    message_sizes,
    print_table,
    processor_configs,
    ratio_percent,
    small_message_sizes,
    time_operation,
)
from repro.bench.figures import ascii_chart
from repro.bench.trace import timeline, totals, trace_call
from repro.core import SRMConfig
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, CostModel

__all__ = ["main"]


def _csv(text: str, cast: typing.Callable[[str], typing.Any] = str) -> tuple:
    """A comma-separated option value as a tuple, blank items dropped."""
    return tuple(cast(item.strip()) for item in text.split(",") if item.strip())


def _progress(
    args: argparse.Namespace, command: str, out: str | None = None
) -> typing.Callable[[str], None] | None:
    """A per-cell progress printer; None under ``--quiet`` or when the
    command's document itself goes to stdout (``out == "-"``)."""
    if args.quiet or out == "-":
        return None
    return lambda text: print(f"  {command} {text}", flush=True)


def _use_full_grid(args: argparse.Namespace) -> None:
    """``--full``: widen the sweep grids to the paper's (see ``repro.bench.sweeps``)."""
    if args.full:
        os.environ["REPRO_BENCH_FULL"] = "1"


def _cmd_info(_args: argparse.Namespace) -> int:
    print("Cost model (CostModel.ibm_sp_colony):")
    for field in dataclasses.fields(CostModel):
        value = getattr(CostModel.ibm_sp_colony(), field.name)
        print(f"  {field.name:28s} {value}")
    print("\nSRM configuration (SRMConfig defaults):")
    for field in dataclasses.fields(SRMConfig):
        print(f"  {field.name:28s} {getattr(SRMConfig(), field.name)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = ClusterSpec(nodes=args.nodes, tasks_per_node=args.tasks)
    rows = []
    baseline = None
    for name in ("srm", "ibm", "mpich"):
        machine, stack = build(name, spec)
        seconds = time_operation(
            machine, stack, args.op, args.bytes, repeats=args.repeats
        ).seconds
        if baseline is None:
            baseline = seconds
        rows.append(
            [
                getattr(stack, "name", name),
                format_us(seconds),
                f"{100 * seconds / baseline:.1f}%",
            ]
        )
    print_table(
        f"{args.op} of {format_bytes(args.bytes)} on {spec}",
        ["stack", "time [us]", "vs SRM"],
        rows,
    )
    return 0


def _resolve_policy(args: argparse.Namespace, name: str | None = None):
    """A ``--policy`` name -> a dispatch :class:`SelectionPolicy` instance.

    ``tuned`` loads the decision table named by ``--tuned-table``; ``fixed``
    parses ``--fixed op=variant[,op=variant...]``.
    """
    from repro.core.dispatch import (
        CostModelPolicy,
        FixedPolicy,
        PaperPolicy,
        TunedPolicy,
    )

    if name is None:
        name = getattr(args, "policy", "paper")
    if name == "paper":
        return PaperPolicy()
    if name == "cost":
        return CostModelPolicy()
    if name == "tuned":
        return TunedPolicy.load(args.tuned_table)
    if name == "fixed":
        choices: dict[str, str] = {}
        for pair in _csv(args.fixed or ""):
            op, _, variant = pair.partition("=")
            choices[op.strip()] = variant.strip()
        if not choices:
            raise SystemExit("--policy fixed requires --fixed op=variant[,op=variant]")
        return FixedPolicy(choices)
    raise SystemExit(f"unknown policy {name!r}")


def _run_collective(args: argparse.Namespace, policy: typing.Any = None):
    """Build a fresh machine + stack and trace one collective call.

    Shared by ``trace`` and ``profile``; returns the machine and the
    :class:`~repro.machine.cluster.LaunchResult` of
    :func:`~repro.bench.trace.trace_call`, the call record.  ``policy``
    overrides the SRM dispatch policy (MPI stacks ignore it).
    """
    spec = ClusterSpec(nodes=args.nodes, tasks_per_node=args.tasks)
    machine, stack = build(args.stack, spec, policy=policy)
    return machine, trace_call(machine, stack, args.op, args.bytes)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.width < 1:
        raise ConfigurationError(f"timeline width must be >= 1 column, got {args.width}")
    machine, result = _run_collective(args, policy=_resolve_policy(args))
    print(timeline(args.op, result, width=args.width))
    summed = totals(result)
    print(
        f"\ntotals: {summed['copies']} copies ({format_bytes(summed['bytes_copied'])}), "
        f"{summed['reduce_ops']} operator passes, {summed['puts']} puts, "
        f"{summed['mpi_sends']} MPI sends, {summed['interrupts']} interrupts"
    )
    print(f"makespan: {format_us(result.elapsed)} us")
    if args.chrome_out:
        from repro.obs.export import chrome_trace, write_json

        write_json(args.chrome_out, chrome_trace(machine, (args.op, result)))
        print(f"wrote Perfetto trace to {args.chrome_out}")
    return 0


def _diff_snapshot(args: argparse.Namespace) -> dict | None:
    """The ``--diff`` snapshot, checked before any simulation; None unless
    ``--diff`` names a snapshot.

    A snapshot's cells ran at its ``tasks_per_node`` under the paper
    policy, so the profiled run must use both, or the two sides of the
    diff would be different configurations.
    """
    target = args.diff
    if target is None or not (os.path.exists(target) or target.endswith(".json")):
        return None
    from repro.bench.snapshot import load_snapshot

    snapshot = load_snapshot(target)
    tasks = snapshot["identity"]["tasks_per_node"]
    if args.tasks != tasks:
        raise ConfigurationError(
            f"--diff {target}: its cells run {tasks} tasks per node, but --tasks is {args.tasks}"
        )
    if args.policy != "paper":
        raise ConfigurationError(
            f"--diff {target}: its cells run the paper policy, but --policy is {args.policy}"
        )
    return snapshot


def _profile_diff(args: argparse.Namespace, snapshot: dict | None, machine, result) -> int:
    """``profile --diff TARGET``: differential trace analysis.

    TARGET is another policy name (run the same collective under it and
    compare) or a ``BENCH_*.json`` snapshot (:func:`_diff_snapshot`): its
    matching cell becomes the baseline and a fresh apples-to-apples capture
    the candidate.
    """
    from repro.obs.diff import capture_profile, diff_cells, diff_profiles, format_diff

    target = args.diff
    if snapshot is not None:
        from repro.bench.snapshot import capture_cell, cell_seed

        key = (args.op, args.stack, args.bytes, args.nodes)
        cells = {
            (c["operation"], c["stack"], c["nbytes"], c["nodes"]): c
            for c in snapshot["cells"]
        }
        baseline = cells.get(key)
        if baseline is None:
            print(
                f"snapshot {target} has no cell {key}; it has "
                f"{len(cells)} cells over ops "
                f"{sorted({k[0] for k in cells})}",
                file=sys.stderr,
            )
            return 2
        candidate = capture_cell(
            args.stack, args.op, args.bytes, args.nodes, tasks_per_node=args.tasks,
            seed=cell_seed(args.op, args.stack, args.bytes, args.nodes),
        )
        diff = diff_cells(baseline, candidate)
        print(f"\ndifferential analysis vs {snapshot['label']!r} cell of {target}:")
    else:
        other_policy = _resolve_policy(args, name=target)
        other_machine, other_result = _run_collective(args, policy=other_policy)
        baseline = capture_profile(
            other_machine,
            other_result.start_time,
            other_result.end_time,
            microseconds=other_result.elapsed * 1e6,
        )
        candidate = capture_profile(
            machine,
            result.start_time,
            result.end_time,
            microseconds=result.elapsed * 1e6,
        )
        diff = diff_profiles(
            baseline,
            candidate,
            label=f"{args.op} {args.stack}: policy {target} -> {args.policy}",
        )
        print(f"\ndifferential analysis, policy {target} (baseline) vs {args.policy}:")
    print(format_diff(diff))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.critical import critical_path
    from repro.obs.export import chrome_trace, metrics_dump, write_json
    from repro.obs.waits import classify_waits

    snapshot = _diff_snapshot(args)
    machine, result = _run_collective(args, policy=_resolve_policy(args))
    path = critical_path(
        machine.obs.recorder, start=result.start_time, end=result.end_time
    )
    rows = [
        [phase, format_us(seconds), f"{100 * seconds / path.total:.1f}%"]
        for phase, seconds in path.by_phase().items()
    ]
    print_table(
        f"critical path: {args.op} of {format_bytes(args.bytes)} on {machine.spec}",
        ["phase", "time [us]", "% of makespan"],
        rows,
    )
    print(
        f"makespan: {format_us(result.elapsed)} us, "
        f"attributed: {100 * path.attributed / path.total:.1f}% "
        f"({len(path.segments)} segments)"
    )

    waits = classify_waits(
        machine, start=result.start_time, end=result.end_time, critical=path
    )
    if waits.intervals:
        critical_by_key: dict[str, float] = {}
        for interval in waits.intervals:
            if interval.on_critical_path:
                key = interval.key()
                critical_by_key[key] = critical_by_key.get(key, 0.0) + interval.duration
        wait_rows = []
        for key, seconds in sorted(waits.by_key().items(), key=lambda kv: -kv[1]):
            state, context, resource = key.split("|")
            wait_rows.append(
                [
                    state,
                    context,
                    resource,
                    format_us(seconds),
                    format_us(critical_by_key.get(key, 0.0)),
                ]
            )
        print_table(
            f"wait states ({len(waits.intervals)} blocked intervals, "
            f"{format_us(waits.total_blocked)} us blocked across ranks)",
            ["state", "during", "resource", "blocked [us]", "critical [us]"],
            wait_rows,
        )

    summary = machine.obs.metrics.summary()
    dispatch_rows = []
    for key in sorted(summary):
        if key.startswith("dispatch.") and key != "dispatch.fallbacks":
            _prefix, op, variant = key.split(".", 2)
            dispatch_rows.append([op, variant, str(int(summary[key]))])
    if dispatch_rows:
        fallbacks = int(summary.get("dispatch.fallbacks", 0))
        print_table(
            f"dispatch selections ({fallbacks} fallbacks)",
            ["operation", "variant", "calls"],
            dispatch_rows,
        )

    print(f"\ntop {args.top} critical-path segments:")
    for segment in path.top(args.top):
        print(
            f"  rank {segment.rank:>4}  {segment.phase:<20} "
            f"{segment.start * 1e6:>10.2f} .. {segment.end * 1e6:<10.2f} "
            f"({format_us(segment.duration)} us)"
        )
    if args.chrome_out:
        write_json(args.chrome_out, chrome_trace(machine, (args.op, result)))
        print(f"\nwrote Perfetto trace to {args.chrome_out}")
    if args.json_out:
        write_json(args.json_out, metrics_dump(machine, (args.op, result)))
        print(f"wrote metrics dump to {args.json_out}")
    if args.diff:
        return _profile_diff(args, snapshot, machine, result)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.snapshot import collect_snapshot, write_snapshot

    _use_full_grid(args)
    snapshot = collect_snapshot(
        label=args.label, operations=_csv(args.ops),
        progress=_progress(args, "bench", args.json_out), jobs=args.jobs,
    )
    write_snapshot(args.json_out, snapshot)
    if args.json_out != "-":
        print(
            f"wrote {len(snapshot['cells'])} cells to {args.json_out} "
            f"(schema v{snapshot['schema_version']}, identity {snapshot['fingerprint']})"
        )
    return 0


def _write_regression_trace(cell, path: str) -> None:
    """Re-run the worst regressed cell and write its Perfetto trace."""
    from repro.bench.snapshot import cell_seed
    from repro.obs.export import chrome_trace, write_json

    spec = ClusterSpec(nodes=cell.nodes, tasks_per_node=16)
    machine, stack = build(
        cell.stack, spec,
        seed=cell_seed(cell.operation, cell.stack, cell.nbytes, cell.nodes),
    )
    trace_call(machine, stack, cell.operation, cell.nbytes)
    write_json(path, chrome_trace(machine))


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.bench.regress import compare_snapshots, diff_document, format_report
    from repro.bench.shapes import check_shapes, format_shape_results
    from repro.bench.snapshot import collect_snapshot, load_snapshot, write_snapshot
    from repro.obs.export import write_json

    baseline = load_snapshot(args.baseline)
    if args.candidate is not None:
        candidate = load_snapshot(args.candidate)
    else:
        print("no --candidate given; running the snapshot grid now", flush=True)
        candidate = collect_snapshot(label="head", jobs=args.jobs)
        if args.json_out:
            write_snapshot(args.json_out, candidate)
            print(f"wrote fresh candidate snapshot to {args.json_out}")

    report = compare_snapshots(baseline, candidate, tolerance=args.tolerance)
    print(format_report(report, verbose=args.verbose))
    shapes = check_shapes(candidate)
    print(format_shape_results(shapes))
    shapes_ok = all(result.ok for result in shapes)

    if args.diff_out:
        write_json(args.diff_out, diff_document(baseline, candidate, report))
        print(f"wrote differential trace analysis to {args.diff_out}")
    if args.trace_out:
        if report.regressions:
            worst = max(report.regressions, key=lambda cell: cell.ratio)
            _write_regression_trace(worst, args.trace_out)
            print(f"wrote Perfetto trace of worst regression ({worst.label}) to {args.trace_out}")
        else:
            print("no regressions; skipping --trace-out")

    if args.update:
        write_snapshot(args.baseline, candidate)
        print(f"updated baseline {args.baseline} from the candidate snapshot")
        return 0
    return 0 if report.ok and shapes_ok else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.bench.tune import TUNABLE_OPERATIONS, run_tune

    document = run_tune(
        out=args.out,
        dry_run=args.dry_run,
        operations=_csv(args.ops) or TUNABLE_OPERATIONS,
        label=args.label,
        progress=_progress(args, "tune"),
        jobs=args.jobs,
    )
    decided = sum(
        len(rows)
        for rows_by_nodes in document["table"].values()
        for rows in rows_by_nodes.values()
    )
    if args.dry_run:
        print(
            f"dry run ok: {decided} decisions over the micro-grid, "
            f"document loads as a TunedPolicy (schema v{document['schema_version']})"
        )
    else:
        print(
            f"wrote {decided} decisions to {args.out} "
            f"(schema v{document['schema_version']}, identity {document['fingerprint']})"
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.bench.figures import calibration_scatter
    from repro.obs.calib import run_calibrate

    document = run_calibrate(
        out=args.out,
        quick=args.quick,
        operations=_csv(args.ops) or None,
        label=args.label,
        progress=_progress(args, "calibrate", args.out),
        jobs=args.jobs,
        tuned_table=args.tuned_table,
    )
    if args.out != "-":
        print(calibration_scatter(document))
        print()
        for line in document["headlines"]:
            print(f"  {line}")
        print(
            f"wrote calibration report to {args.out} "
            f"(schema v{document['schema_version']}, identity {document['fingerprint']})"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.verify import build_report, run_mutation_smoke, run_verify, write_report
    from repro.verify.runner import VERIFY_OPERATIONS, default_grid, quick_grid

    progress = _progress(args, "verify")
    if args.smoke:
        body = run_mutation_smoke(seed=args.seed, progress=progress)
        report = build_report(body, label=args.label)
        if args.json_out:
            write_report(args.json_out, report)
            if args.json_out != "-":
                print(f"wrote mutation-smoke report to {args.json_out}")
        detected = sum(1 for result in body["mutations"] if result["detected"])
        print(
            f"mutation smoke: {detected}/{len(body['mutations'])} injected bugs "
            f"detected ({'ok' if body['ok'] else 'FAIL'})"
        )
        return 0 if body["ok"] else 1

    operations = _csv(args.ops)
    for operation in operations:
        if operation not in VERIFY_OPERATIONS:
            print(f"unknown operation {operation!r}", file=sys.stderr)
            return 2
    if args.quick:
        cells = [cell for cell in quick_grid() if cell.operation in operations]
    else:
        cells = default_grid(
            node_counts=_csv(args.nodes, int),
            proc_counts=_csv(args.procs, int),
            operations=operations,
        )
    metrics = MetricsRegistry()
    body = run_verify(
        cells,
        schedules=args.schedules,
        explorer=args.explorer,
        seed=args.seed,
        faults=not args.no_faults,
        srm_config=SRMConfig(compiled_replay=False) if args.no_replay else None,
        metrics=metrics,
        progress=progress,
    )
    report = build_report(body, label=args.label)
    if args.json_out:
        write_report(args.json_out, report)
        if args.json_out != "-":
            print(f"wrote verification report to {args.json_out}")
    totals = body["totals"]
    print(
        f"verify: {totals['cells_ok']}/{totals['cells']} cells ok, "
        f"{totals['schedules']} schedules explored, "
        f"{totals['violations']} violations, {totals['divergences']} divergences, "
        f"{totals['errors']} errors ({'ok' if body['ok'] else 'FAIL'})"
    )
    return 0 if body["ok"] else 1


_FIGURES: dict[int, str] = {
    6: "broadcast",
    7: "reduce",
    8: "allreduce",
    12: "barrier",
}


def _figure_absolute(number: int, operation: str) -> None:
    configs = processor_configs()
    sizes = message_sizes()
    series = []
    glyphs = "ox+*#"
    for index, nodes in enumerate(configs):
        data = [
            (float(nbytes), measure("srm", operation, nbytes, nodes).microseconds)
            for nbytes in sizes
        ]
        series.append((f"P={16 * nodes}", glyphs[index % len(glyphs)], data))
    print(ascii_chart(f"Fig. {number}: SRM {operation} time (log-log)", series))


def _figure_comparison(number: int, operation: str) -> None:
    nodes = processor_configs()[-1]
    series = []
    for name, glyph in (("srm", "s"), ("ibm", "i"), ("mpich", "m")):
        data = [
            (float(nbytes), measure(name, operation, nbytes, nodes).microseconds)
            for nbytes in small_message_sizes()
        ]
        series.append((name, glyph, data))
    print(
        ascii_chart(
            f"Fig. {number} (right): {operation} <=64KB at P={16 * nodes}", series
        )
    )


def _figure_barrier() -> None:
    series = []
    for name, glyph in (("srm", "s"), ("ibm", "i"), ("mpich", "m")):
        data = [
            (float(16 * nodes), measure(name, "barrier", 0, nodes).microseconds)
            for nodes in processor_configs()
        ]
        series.append((name, glyph, data))
    print(
        ascii_chart(
            "Fig. 12: barrier vs processors",
            series,
            log_x=False,
            log_y=False,
            x_label="procs",
        )
    )


def _figure_ratio(number: int, operation: str) -> None:
    nodes = processor_configs()[-1]
    rows = []
    for nbytes in message_sizes():
        srm = measure("srm", operation, nbytes, nodes)
        rows.append(
            [
                format_bytes(nbytes),
                f"{ratio_percent(srm, measure('ibm', operation, nbytes, nodes)):.1f}%",
                f"{ratio_percent(srm, measure('mpich', operation, nbytes, nodes)):.1f}%",
            ]
        )
    print_table(
        f"Fig. {number}: SRM {operation} ratio at P={16 * nodes} (lower is better)",
        ["size", "vs IBM MPI", "vs MPICH"],
        rows,
    )


def _figure_specs(wanted: typing.Sequence[int]) -> list[tuple]:
    """Every (stack, op, nbytes, nodes) point the chosen figures will plot."""
    specs: list[tuple] = []
    last = processor_configs()[-1]
    for number in wanted:
        if number in (6, 7, 8):
            operation = _FIGURES[number]
            for nodes in processor_configs():
                for nbytes in message_sizes():
                    specs.append(("srm", operation, nbytes, nodes))
            for stack in ("srm", "ibm", "mpich"):
                for nbytes in small_message_sizes():
                    specs.append((stack, operation, nbytes, last))
        elif number in (9, 10, 11):
            operation = _FIGURES[number - 3]
            for stack in ("srm", "ibm", "mpich"):
                for nbytes in message_sizes():
                    specs.append((stack, operation, nbytes, last))
        elif number == 12:
            for stack in ("srm", "ibm", "mpich"):
                for nodes in processor_configs():
                    specs.append((stack, "barrier", 0, nodes))
    return specs


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import warm_cache

    _use_full_grid(args)
    wanted = [args.fig] if args.fig else [6, 7, 8, 9, 10, 11, 12]
    if args.jobs != 1:
        # Fan the figures' grid points over the pool first; the renderers
        # below then read the memoized measurements back serially, so the
        # printed charts are identical at any --jobs setting.
        warm_cache(_figure_specs(wanted), jobs=args.jobs)
    for number in wanted:
        if number in (6, 7, 8):
            _figure_absolute(number, _FIGURES[number])
            _figure_comparison(number, _FIGURES[number])
        elif number in (9, 10, 11):
            _figure_ratio(number, _FIGURES[number - 3])
        elif number == 12:
            _figure_barrier()
        else:
            print(f"unknown figure {number}", file=sys.stderr)
            return 2
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.bench.export import collect_sweep, to_csv, to_json

    _use_full_grid(args)
    measurements = collect_sweep(operations=_csv(args.ops), jobs=args.jobs)
    text = to_csv(measurements) if args.format == "csv" else to_json(measurements)
    if args.out == "-":
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(measurements)} measurements to {args.out}")
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SRM collectives reproduction (IPDPS 2003) — figure and tool runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_jobs(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="fan grid cells over N worker processes (0 = all cores; "
            "default 1 = serial; results are byte-identical either way)",
        )

    def _add_policy_args(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--policy", default="paper", choices=["paper", "cost", "tuned", "fixed"],
            help="SRM protocol-selection policy (MPI stacks ignore it): "
            "paper = the paper's size thresholds, cost = analytic cost "
            "model, tuned = measured decision table, fixed = forced variants",
        )
        subparser.add_argument(
            "--tuned-table", default="TUNED.json", metavar="FILE",
            help="decision table for --policy tuned (default TUNED.json)",
        )
        subparser.add_argument(
            "--fixed", default=None, metavar="OP=VARIANT[,..]",
            help="forced variants for --policy fixed, e.g. allreduce=ring",
        )

    figures = commands.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--fig", type=int, default=None, help="only this figure number")
    figures.add_argument("--full", action="store_true", help="use the full paper grid")
    add_jobs(figures)
    figures.set_defaults(handler=_cmd_figures)

    compare = commands.add_parser("compare", help="one data point across all stacks")
    compare.add_argument("--op", default="broadcast", choices=OPERATIONS)
    compare.add_argument("--bytes", type=int, default=16384)
    compare.add_argument("--nodes", type=int, default=8)
    compare.add_argument("--tasks", type=int, default=16)
    compare.add_argument("--repeats", type=int, default=3)
    compare.set_defaults(handler=_cmd_compare)

    trace = commands.add_parser("trace", help="run one collective and print its timeline")
    trace.add_argument("--op", default="broadcast", choices=OPERATIONS)
    trace.add_argument("--bytes", type=int, default=8192)
    trace.add_argument("--nodes", type=int, default=2)
    trace.add_argument("--tasks", type=int, default=4)
    trace.add_argument("--stack", default="srm", choices=["srm", "ibm", "mpich"])
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument(
        "--chrome-out", default=None, help="also write a Perfetto/Chrome trace JSON here"
    )
    _add_policy_args(trace)
    trace.set_defaults(handler=_cmd_trace)

    profile = commands.add_parser(
        "profile", help="run one collective and print its critical-path breakdown"
    )
    profile.add_argument("--op", default="allreduce", choices=OPERATIONS)
    profile.add_argument("--bytes", type=int, default=16384)
    profile.add_argument("--nodes", type=int, default=8)
    profile.add_argument("--tasks", type=int, default=16)
    profile.add_argument("--stack", default="srm", choices=["srm", "ibm", "mpich"])
    profile.add_argument("--top", type=int, default=10, help="longest segments to list")
    profile.add_argument(
        "--chrome-out", default=None, help="write a Perfetto/Chrome trace JSON here"
    )
    profile.add_argument(
        "--json-out", default=None, help="write the JSON metrics dump here ('-' = stdout)"
    )
    _add_policy_args(profile)
    profile.add_argument(
        "--diff", default=None, metavar="TARGET",
        help="differential trace analysis against TARGET: another policy "
        "name (paper/cost/tuned/fixed) or a BENCH_*.json snapshot whose "
        "matching cell becomes the baseline",
    )
    profile.set_defaults(handler=_cmd_profile)

    bench = commands.add_parser(
        "bench", help="run the snapshot grid and write a telemetry snapshot"
    )
    bench.add_argument(
        "--json-out", default="BENCH_head.json",
        help="output path ('-' = stdout; default BENCH_head.json)",
    )
    bench.add_argument("--label", default="head", help="label stored in the snapshot")
    bench.add_argument("--ops", default=",".join(OPERATIONS))
    bench.add_argument("--full", action="store_true", help="use the full paper grid")
    bench.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    add_jobs(bench)
    bench.set_defaults(handler=_cmd_bench)

    regress = commands.add_parser(
        "regress", help="gate a snapshot against a committed baseline"
    )
    regress.add_argument("--baseline", required=True, help="baseline snapshot path")
    regress.add_argument(
        "--candidate", default=None,
        help="candidate snapshot path (omit to run the grid now)",
    )
    regress.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative slowdown tolerated per cell (default 0.05 = 5%%)",
    )
    regress.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the candidate and exit 0",
    )
    regress.add_argument(
        "--json-out", default=None,
        help="also write a freshly-run candidate snapshot here",
    )
    regress.add_argument("--verbose", action="store_true", help="list every cell")
    regress.add_argument(
        "--diff-out", default=None,
        help="write the per-cell differential trace analysis (phases + wait "
        "states) as JSON here",
    )
    regress.add_argument(
        "--trace-out", default=None,
        help="write a Perfetto trace of the worst regressed cell here",
    )
    add_jobs(regress)
    regress.set_defaults(handler=_cmd_regress)

    tune = commands.add_parser(
        "tune", help="measure a TunedPolicy decision table over the bench grid"
    )
    tune.add_argument("-o", "--out", default="TUNED.json", help="decision-table path")
    tune.add_argument("--label", default="tuned", help="label stored in the table")
    tune.add_argument(
        "--ops", default="", help="comma-separated operations (default: every tunable one)"
    )
    tune.add_argument(
        "--dry-run", action="store_true",
        help="sweep a micro-grid, validate the document round-trips, write nothing",
    )
    tune.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    add_jobs(tune)
    tune.set_defaults(handler=_cmd_tune)

    calibrate = commands.add_parser(
        "calibrate",
        help="pair predicted vs measured costs; score dispatch policies by regret",
    )
    calibrate.add_argument(
        "-o", "--out", default="CALIB_report.json",
        help="calibration-report path ('-' = stdout)",
    )
    calibrate.add_argument("--label", default="calibration", help="label stored in the report")
    calibrate.add_argument(
        "--ops", default="", help="comma-separated operations (default: every tunable one)"
    )
    calibrate.add_argument(
        "--quick", action="store_true",
        help="CI-sized micro-grid that still spans the 8KB/16KB §2.4 switch points",
    )
    calibrate.add_argument(
        "--tuned-table", default=None, metavar="FILE",
        help="score this measured decision table as the 'tuned' policy "
        "(default: the grid's own best-in-hindsight winners)",
    )
    calibrate.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    add_jobs(calibrate)
    calibrate.set_defaults(handler=_cmd_calibrate)

    verify = commands.add_parser(
        "verify", help="explore schedules and check protocol invariants"
    )
    verify.add_argument(
        "--nodes", default="2,4", help="comma-separated node counts (default 2,4)"
    )
    verify.add_argument(
        "--procs", default="2,3",
        help="comma-separated tasks-per-node counts (default 2,3)",
    )
    verify.add_argument("--ops", default=",".join(OPERATIONS))
    verify.add_argument(
        "--schedules", type=int, default=56,
        help="distinct-schedule target per cell (default 56)",
    )
    verify.add_argument(
        "--explorer", default="random", choices=["random", "dfs"],
        help="tie-break exploration driver (default random)",
    )
    verify.add_argument("--seed", type=int, default=0, help="exploration base seed")
    verify.add_argument(
        "--no-faults", action="store_true",
        help="disable timing fault injection (jitter, wakeup reorder, stalls)",
    )
    verify.add_argument(
        "--quick", action="store_true",
        help="CI-sized subset: 2x2 shapes, small+pipelined regimes",
    )
    verify.add_argument(
        "--smoke", action="store_true",
        help="mutation smoke: inject known sync bugs, require detection",
    )
    verify.add_argument(
        "--json-out", default=None, help="write the JSON report here ('-' = stdout)"
    )
    verify.add_argument("--label", default="head", help="label stored in the report")
    verify.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    verify.add_argument(
        "--no-replay", dest="no_replay", action="store_true",
        help="escape hatch: disable compiled-schedule replay "
        "(SRMConfig.compiled_replay=False) for every cell",
    )
    verify.set_defaults(handler=_cmd_verify)

    info = commands.add_parser("info", help="dump cost model + SRM configuration")
    info.set_defaults(handler=_cmd_info)

    export = commands.add_parser("export", help="write the sweep grid as CSV/JSON")
    export.add_argument("--format", default="csv", choices=["csv", "json"])
    export.add_argument("--out", default="-", help="output path ('-' = stdout)")
    export.add_argument("--ops", default=",".join(OPERATIONS))
    export.add_argument("--full", action="store_true", help="use the full paper grid")
    add_jobs(export)
    export.set_defaults(handler=_cmd_export)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
