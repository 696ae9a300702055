"""Sweep grids and memoized measurements for the paper's figures.

The paper's evaluation grid (§3): message sizes 8 B – 8 MB on log scale,
processor counts 16–256 at 16 tasks per node.  The default grid here is a
subsample that keeps ``pytest benchmarks/`` quick; set ``REPRO_BENCH_FULL=1``
for the full paper grid.

Measurements are memoized per (stack, operation, size, nodes) because the
figure benchmarks overlap heavily (Fig. 6 and Fig. 9 share every broadcast
point).
"""

from __future__ import annotations

import os
import typing

from repro.bench.runner import Measurement, build, time_operation
from repro.machine import ClusterSpec

__all__ = [
    "full_grid",
    "message_sizes",
    "small_message_sizes",
    "processor_configs",
    "measure",
    "ratio_percent",
    "clear_cache",
    "warm_cache",
]

KB = 1024
MB = 1024 * 1024

_FULL_SIZES = [8, 32, 128, 512, 2 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB, 256 * KB, MB, 4 * MB, 8 * MB]
_QUICK_SIZES = [8, 512, 8 * KB, 64 * KB, MB, 8 * MB]
_FULL_SMALL = [8, 32, 128, 512, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB]
_QUICK_SMALL = [8, 512, 4 * KB, 16 * KB, 64 * KB]
_FULL_CONFIGS = [1, 2, 4, 8, 16]  # nodes, at 16 tasks each -> P = 16..256
_QUICK_CONFIGS = [1, 4, 16]


def full_grid() -> bool:
    """True when the full paper grid was requested via REPRO_BENCH_FULL."""
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def message_sizes() -> list[int]:
    """The 8 B – 8 MB sweep of Figures 6–11."""
    return list(_FULL_SIZES if full_grid() else _QUICK_SIZES)


def small_message_sizes() -> list[int]:
    """The <= 64 KB sub-range of the Figures 6–8 right panels."""
    return list(_FULL_SMALL if full_grid() else _QUICK_SMALL)


def processor_configs() -> list[int]:
    """Node counts at 16 tasks/node (P = 16 ... 256)."""
    return list(_FULL_CONFIGS if full_grid() else _QUICK_CONFIGS)


_CACHE: dict[tuple, Measurement] = {}


def clear_cache() -> None:
    """Drop memoized measurements (used by tests)."""
    _CACHE.clear()


def _default_repeats(nbytes: int) -> int:
    """Timed calls per point: big cells are slow, two repeats suffice."""
    return 2 if nbytes >= MB else 3


def measure(
    stack: str,
    operation: str,
    nbytes: int = 0,
    nodes: int = 16,
    tasks_per_node: int = 16,
    repeats: int | None = None,
) -> Measurement:
    """One memoized data point on the paper's standard cluster shape."""
    if repeats is None:
        repeats = _default_repeats(nbytes)
    key = (stack, operation, nbytes, nodes, tasks_per_node, repeats)
    if key not in _CACHE:
        spec = ClusterSpec(nodes=nodes, tasks_per_node=tasks_per_node)
        machine, collectives = build(stack, spec)
        _CACHE[key] = time_operation(
            machine, collectives, operation, nbytes, repeats=repeats, warmup=1
        )
    return _CACHE[key]


def _measure_worker(spec: tuple) -> Measurement:
    """Spawn-safe worker: one sweep point from a self-contained spec tuple."""
    stack, operation, nbytes, nodes, tasks_per_node, repeats = spec
    return measure(stack, operation, nbytes, nodes, tasks_per_node, repeats)


def warm_cache(
    specs: typing.Iterable[tuple],
    jobs: int = 1,
    progress: typing.Callable[[typing.Any, int, int], None] | None = None,
) -> int:
    """Measure many grid points (possibly in parallel) into the memo cache.

    ``specs`` are ``(stack, operation, nbytes, nodes[, tasks_per_node
    [, repeats]])`` tuples — the same arguments :func:`measure` takes.
    Already-cached and duplicate points are skipped; the rest fan out over
    :func:`repro.bench.pool.run_grid` and land in the cache, so subsequent
    serial :func:`measure` calls (the figure renderers, the export loops)
    are cache hits.  Returns the number of points actually measured.

    Results are identical to serial ``measure`` calls: each point runs on a
    fresh machine either way, so only wall-clock changes with ``jobs``.
    """
    from repro.bench.pool import run_grid

    pending: list[tuple[tuple, tuple]] = []
    seen: set[tuple] = set()
    for spec in specs:
        stack, operation, nbytes, nodes = spec[:4]
        tasks_per_node = spec[4] if len(spec) > 4 else 16
        repeats = spec[5] if len(spec) > 5 else None
        if repeats is None:
            repeats = _default_repeats(nbytes)
        key = (stack, operation, nbytes, nodes, tasks_per_node, repeats)
        if key in seen or key in _CACHE:
            continue
        seen.add(key)
        pending.append((key, key))  # a fully-resolved key doubles as the spec
    measurements = run_grid(
        [spec for _key, spec in pending], _measure_worker, jobs=jobs,
        progress=progress,
    )
    for (key, _spec), measurement in zip(pending, measurements):
        _CACHE[key] = measurement
    return len(pending)


def ratio_percent(numerator: Measurement, denominator: Measurement) -> float:
    """The paper's comparison metric: T_a / T_b * 100% (lower = faster)."""
    return 100.0 * numerator.seconds / denominator.seconds

