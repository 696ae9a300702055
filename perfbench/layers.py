"""Per-layer instruments for the traced run.

Three sources, all read from outside the program:

* :class:`MachineMeter` wraps ``Machine.__init__`` to count and time every
  simulated machine built, and reads each finished machine's counters
  through public attributes (``engine.events_processed``,
  ``machine.obs.metrics.summary()``, ``machine.obs.recorder``,
  ``machine.obs.monitor``, ``engine.trace``);
* :class:`GcMeter` times the collector through ``gc.callbacks``;
* :func:`profile_split` sums ``cProfile`` self time by ``repro`` package
  and reads exact call counts at the layer boundaries.

cProfile charges every Python call, so its split is biased towards
call-heavy layers; the call counts it reports are exact.
"""

from __future__ import annotations

import collections
import gc
import os
import pstats
import time
import typing

#: Counters summed over every machine's ``obs.metrics.summary()``.  The
#: wait histograms are in simulated seconds and reported in microseconds.
SUMMARY_COUNTS = (
    "task.copies", "task.bytes_copied", "task.bytes_reduced", "lapi.puts",
    "lapi.bytes_put", "shmem.flag_sets", "dispatch.fallbacks",
)
SUMMARY_WAITS_US = {
    "shmem.flag_wait_seconds.sum": "shmem.flag_wait_us",
    "lapi.counter_wait_seconds.sum": "lapi.counter_wait_us",
}


class MachineMeter:
    """Counts the machines built while active (a context manager).

    Machines are built and run one at a time, so each one is read when the
    next is built, or when the meter closes.
    """

    def __init__(self) -> None:
        self.builds = 0
        self.build_s = 0.0
        self.counts: collections.Counter = collections.Counter()
        #: Each finished machine's final simulated clock, in microseconds.
        self.end_us: list[float] = []
        self._current: typing.Any = None
        self._original: typing.Any = None

    def __enter__(self) -> "MachineMeter":
        from repro.machine import Machine

        original = Machine.__init__
        meter = self

        def init(machine: typing.Any, *args: typing.Any, **kwargs: typing.Any) -> None:
            meter._read()
            started = time.perf_counter()
            original(machine, *args, **kwargs)
            meter.build_s += time.perf_counter() - started
            meter.builds += 1
            meter._current = machine

        self._original = original
        Machine.__init__ = init
        return self

    def __exit__(self, *exc: typing.Any) -> None:
        from repro.machine import Machine

        Machine.__init__ = self._original
        self._read()

    def _read(self) -> None:
        machine, self._current = self._current, None
        if machine is None:
            return
        engine = machine.engine
        counts = self.counts
        counts["sim.events"] += engine.events_processed
        if engine.now > 0.0:
            self.end_us.append(engine.now * 1e6)
        counts["replay.hits"] += getattr(engine.trace, "hit_count", 0)
        counts["replay.misses"] += getattr(engine.trace, "miss_count", 0)
        obs = machine.obs
        summary = obs.metrics.summary()
        for key in SUMMARY_COUNTS:
            counts[key] += summary.get(key, 0)
        for key, metric in SUMMARY_WAITS_US.items():
            counts[metric] += summary.get(key, 0.0) * 1e6
        counts["dispatch.decisions"] += sum(
            value
            for key, value in summary.items()
            if key.startswith("dispatch.") and key != "dispatch.fallbacks"
        )
        counts["obs.spans"] += len(obs.recorder.spans)
        counts["obs.flow_links"] += len(obs.recorder.flows)
        if obs.monitor is not None:
            counts["obs.monitor_samples"] += sum(
                len(timeline.samples) for timeline in obs.monitor.timelines.values()
            )


class GcMeter:
    """Host seconds in the cyclic collector, and gen-2 collections."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: typing.Any) -> None:
        gc.callbacks.remove(self._callback)


#: ``repro.core`` modules that are layers of their own; the rest of
#: ``repro.core`` (internode, smp, srm, context, config) is the protocols.
CORE_LAYERS = {"dispatch.py": "dispatch", "requests.py": "requests", "replay.py": "replay"}
PACKAGE_LAYERS = ("sim", "machine", "shmem", "lapi", "mpi", "trees", "obs", "verify", "bench")
SELF_LAYERS = (
    "sim", "machine", "shmem", "lapi", "core.protocols", "mpi", "trees", "dispatch",
    "requests", "replay", "obs", "verify", "bench", "numpy", "py.other",
)


def _self_metric(layer: str) -> str:
    return "py.other_self_s" if layer == "py.other" else f"{layer}.self_s"


def _layer(filename: str, function: str, package_dir: str) -> str:
    if filename.startswith(package_dir):
        parts = filename[len(package_dir):].split(os.sep)
        if parts[0] == "core":
            return CORE_LAYERS.get(parts[1], "core.protocols")
        if parts[0] in PACKAGE_LAYERS:
            return parts[0]
        return "py.other"
    if f"{os.sep}numpy{os.sep}" in filename or (filename == "~" and "numpy" in function):
        return "numpy"
    return "py.other"


def boundaries() -> dict[str, typing.Any]:
    """Layer-boundary functions whose exact call counts are reported."""
    from repro.core.dispatch import Dispatcher
    from repro.core.requests import PersistentCollective
    from repro.machine import Machine
    from repro.obs.critical import critical_path
    from repro.obs.waits import classify_waits
    from repro.sim import Engine

    return {
        "Machine.__init__": Machine.__init__,
        "Engine.run": Engine.run,
        "Dispatcher.decide": Dispatcher.decide,
        "PersistentCollective.start": PersistentCollective.start,
        "critical_path": critical_path,
        "classify_waits": classify_waits,
    }


def profile_split(profile: typing.Any, package_dir: str) -> dict[str, float]:
    """Self seconds per layer, boundary call counts, and analysis time."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    package_dir = os.path.join(os.path.realpath(package_dir), "")
    out = {_self_metric(layer): 0.0 for layer in SELF_LAYERS}
    for (filename, _line, function), (_cc, _calls, self_s, _cum, _callers) in stats.items():
        layer = _layer(os.path.realpath(filename) if filename != "~" else filename, function, package_dir)
        out[_self_metric(layer)] += self_s
    out["obs.analysis_s"] = 0.0
    for name, function in boundaries().items():
        code = function.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[f"calls.{name}"] = entry[1] if entry else 0
        if name in ("critical_path", "classify_waits") and entry:
            out["obs.analysis_s"] += entry[3]
    return out
