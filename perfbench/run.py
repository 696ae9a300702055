"""Wall-clock ledger: run one workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics
(see ``perfbench/METRICS.md``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 whenever that line was printed, and 2 when the repository's
sources or reference snapshot are missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_MS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Set-up is repeated this many times at least; ``setup_s`` is the median.
SETUP_REPS = 7


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Times an import in a fresh interpreter, gauging that interpreter's speed
#: before and after it, and prints the import's seconds at reference speed.
IMPORT_PROBE = """
import statistics, time
from speed import REFERENCE_MS, reference_ms
speed = [reference_ms() for _ in range(5)]
started = time.perf_counter()
{imports}
elapsed = time.perf_counter() - started
speed += [reference_ms() for _ in range(5)]
print(elapsed * REFERENCE_MS / statistics.median(speed))
"""


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median seconds, at reference speed, to import ``modules`` in a fresh
    interpreter."""
    code = IMPORT_PROBE.format(imports="\n".join(f"import {module}" for module in modules))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, os.path.dirname(os.path.abspath(__file__)))))
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten steps beyond it
    (nearest rank), and its value; the maximum when there are too few."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return 100, ordered[-1]
    percentile = 100 * (count - 10) // count
    rank = -(-percentile * count // 100)  # ceil, in integers
    return percentile, ordered[rank - 1]


def run_units(workload, units: int, ledger, setups: int = SETUP_REPS) -> tuple[list[float], float]:
    """Prepare and run ``units`` units, then prepare again until there are
    ``setups`` set-up samples; returns those samples, at reference speed,
    and the host wall seconds of the units."""
    setup: list[tuple[float, float, float]] = []
    wall = 0.0
    for unit in range(units):
        gc.collect()
        ledger.sample_speed()
        started = time.perf_counter()
        state = workload.prepare(unit)
        ended = time.perf_counter()
        setup.append((ended - started, started, ended))
        started = time.perf_counter()
        workload.run_unit(state, unit, ledger)
        wall += time.perf_counter() - started
        del state
    while len(setup) < setups:
        gc.collect()
        ledger.sample_speed()
        started = time.perf_counter()
        workload.prepare(len(setup))
        ended = time.perf_counter()
        setup.append((ended - started, started, ended))
    gc.collect()
    ledger.sample_speed()
    return [ledger.at_reference_speed(*sample) for sample in setup], wall


def end_to_end(workload, units: int, ledger) -> dict[str, float]:
    setup, wall = run_units(workload, units, ledger)
    best = ledger.step_ms()
    steps = list(best.values())
    percentile, tail_ms = tail(steps)
    print(
        f"{workload.name}: {units} unit(s) of {len(steps)} steps; "
        f"step_ms_tail is p{percentile} of {len(steps)} steps"
    )
    quartiles = statistics.quantiles(ledger.speed_ms, n=4)
    print(
        f"host speed: the reference loop took {quartiles[0]:.3f} / {quartiles[1]:.3f} / "
        f"{quartiles[2]:.3f} ms (quartiles of {len(ledger.speed_ms)} samples) against "
        f"{REFERENCE_MS} ms at reference speed; the units took {wall:.2f} s of host time"
    )
    return {
        "wall_s": sum(ms * ledger.weights[step] for step, ms in best.items()) / 1e3,
        "setup_s": import_seconds(workload.imports) + statistics.median(setup),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload_cls, seed: int, ledger) -> dict[str, float]:
    """One unit untraced with the meters on, then the same unit under cProfile."""
    from layers import GcMeter, MachineMeter, profile_split
    from repro.obs.taxonomy import WAIT_STATES
    from workloads import Ledger, geomean

    workload = workload_cls(ROOT, seed)
    with MachineMeter() as meter, GcMeter() as collector:
        _setup, wall = run_units(workload, 1, ledger, setups=1)
    out: dict[str, float] = dict(workload.layer_metrics())

    # The profiled pass gets its own ledger so its steps and sums stay out
    # of the per-layer values; only its output checks are carried over.
    profiled, checked = workload_cls(ROOT, seed), Ledger(gauge=False)
    profile = cProfile.Profile()
    profile.enable()
    try:
        state = profiled.prepare(0)
        started = time.perf_counter()
        profiled.run_unit(state, 0, checked)
        traced_wall = time.perf_counter() - started
    finally:
        profile.disable()
    del state
    gc.collect()
    ledger.attempted += checked.attempted
    ledger.failed += checked.failed
    ledger.failures += checked.failures
    out.update(profile_split(profile, os.path.join(SRC, "repro")))
    if hasattr(workload, "differential"):
        out.update(workload.differential(ledger))

    counts = meter.counts
    out.update(counts)
    hits, misses = counts["replay.hits"], counts["replay.misses"]
    out.update(
        {
            "sim.events_per_s": counts["sim.events"] / wall,
            "machine.builds": meter.builds,
            "machine.build_s": meter.build_s,
            "replay.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "py.gc_s": collector.seconds,
            "py.gc_gen2": collector.gen2,
            "trace.overhead_frac": traced_wall / wall - 1.0,
            "model.sim_us_geomean": geomean(ledger.sim_us or meter.end_us),
            "check.fail_frac": ledger.failed / max(1, ledger.attempted),
        }
    )
    out.update(ledger.layer)
    for wait_state in WAIT_STATES:
        out.setdefault(f"wait.{wait_state}_us", 0.0)
    print(
        f"{workload.name}: traced unit took {traced_wall:.2f} s against "
        f"{wall:.2f} s untraced; self times are cProfile's, biased by that overhead"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [
        path
        for path in (os.path.join(SRC, "repro", "__init__.py"), os.path.join(ROOT, "BENCH_seed.json"))
        if not os.path.isfile(path)
    ]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    for module in workload_cls.imports:
        importlib.import_module(module)
    units = max(1, round(args.seconds / workload_cls.unit_seconds))
    ledger = Ledger(gauge=not args.trace)
    if args.trace:
        values = per_layer(workload_cls, args.seed, ledger)
        wanted = declared["per_layer"]
    else:
        values = end_to_end(workload_cls(ROOT, args.seed), units, ledger)
        wanted = declared["end_to_end"]
    for name in ledger.failures[:20]:
        print(f"FAILED {name}")
    print(f"fail_frac = {ledger.failed}/{ledger.attempted}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            # Per-layer metrics of a layer the workload never runs read 0.
            metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
