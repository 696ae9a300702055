"""Shared helpers for the figure benchmarks.

Each benchmark regenerates one of the paper's figures: it runs the relevant
simulated sweep exactly once (``benchmark.pedantic`` — the simulation clock
is deterministic, so re-running buys nothing), prints the same series the
paper plots (visible with ``-s``), attaches the numbers to
``benchmark.extra_info``, and asserts the *shape* claims the reproduction
is accountable for (who wins, by roughly what factor, where the crossovers
fall).  The Figs. 6–12 files do this for one panel of
``repro.bench.figures.FIGURES`` each (``run_panel``), so they print and
assert on the same grid ``python -m repro figures`` draws.

``--bench-json PATH`` additionally collects every benchmark's extra_info
into one identity-stamped JSON document (same cost-model fingerprint as the
``BENCH_*.json`` snapshots — see docs/benchmarking.md), so a figures run
leaves a diffable artifact next to the perf-gate snapshot.
"""

from __future__ import annotations

import json
import typing

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        help="write every benchmark's series data to this JSON file, "
        "stamped with the cost-model identity fingerprint",
    )


def pytest_configure(config):
    config._bench_json_results = {}


@pytest.fixture
def run_once(benchmark, request):
    """Run a zero-argument callable once under pytest-benchmark and return
    its value; attach any dict it returns to extra_info."""

    def runner(fn: typing.Callable[[], typing.Any]):
        result = benchmark.pedantic(fn, rounds=1, iterations=1)
        if isinstance(result, dict):
            for key, value in result.items():
                benchmark.extra_info[str(key)] = value
            request.config._bench_json_results[request.node.nodeid] = {
                str(key): value for key, value in result.items()
            }
        return result

    return runner


@pytest.fixture
def run_panel(run_once):
    """Print one :data:`~repro.bench.figures.FIGURES` panel's table once and
    return its values (attached to extra_info like any ``run_once`` dict)."""
    from repro.bench import print_table

    def report(panel):
        print_table(*panel.table())
        return panel.values()

    return lambda panel: run_once(lambda: report(panel))


def pytest_sessionfinish(session, exitstatus):
    target = session.config.getoption("--bench-json")
    results = getattr(session.config, "_bench_json_results", None)
    if not target or not results:
        return
    from repro.bench.export import bench_identity, identity_fingerprint

    identity = bench_identity()
    document = {
        "kind": "repro-bench-figures",
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
        "results": {nodeid: results[nodeid] for nodeid in sorted(results)},
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    print(f"\nwrote figure benchmark series to {target}")
