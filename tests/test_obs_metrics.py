"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.bench import build
from repro.core.programs import program_for
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimeWeightedHistogram,
)


def test_counter_accumulates():
    counter = Counter("c")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    assert counter.to_dict() == {"value": 42}


def test_gauge_set_inc_dec():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(2)
    assert gauge.value == 13


def test_histogram_statistics():
    hist = Histogram("h")
    for value in (1, 2, 3, 1024):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == 1030
    assert hist.mean == pytest.approx(257.5)
    assert hist.min == 1
    assert hist.max == 1024
    data = hist.to_dict()
    assert data["count"] == 4
    assert sum(data["buckets"].values()) == 4


def test_histogram_power_of_two_buckets():
    hist = Histogram("h")
    hist.observe(0)  # <=0 bucket
    hist.observe(1)  # <=2^0
    hist.observe(2)  # <=2^1
    hist.observe(3)  # <=2^2
    buckets = hist.to_dict()["buckets"]
    assert buckets["<=0"] == 1
    assert buckets["<=2^0"] == 1
    assert buckets["<=2^1"] == 1
    assert buckets["<=2^2"] == 1


def test_empty_histogram_serializes():
    data = Histogram("h").to_dict()
    assert data["count"] == 0
    assert data["min"] is None and data["max"] is None


def test_time_weighted_histogram_exact_average():
    clock = {"now": 0.0}
    hist = TimeWeightedHistogram("t", clock=lambda: clock["now"])
    hist.observe(2)  # value 2 held over [0, 10)
    clock["now"] = 10.0
    hist.observe(4)  # value 4 held over [10, 20)
    clock["now"] = 20.0
    # (2*10 + 4*10) / 20 — the open interval counts without being settled.
    assert hist.time_average == pytest.approx(3.0)
    assert hist.current == 4
    assert hist.min == 2 and hist.max == 4
    data = hist.to_dict()
    assert data["observations"] == 2


def test_histogram_percentiles_interpolate_and_clamp():
    hist = Histogram("h")
    for _ in range(99):
        hist.observe(4)
    hist.observe(1024)
    # The 4s bucket covers (2, 4]; interpolation stays clamped to min=4.
    assert hist.percentile(50) == 4
    assert hist.percentile(99) == 4
    assert hist.percentile(100) == 1024
    assert hist.percentile(50) <= hist.percentile(95) <= hist.percentile(99)


def test_histogram_single_value_percentiles_are_exact():
    hist = Histogram("h")
    hist.observe(7)
    for q in (0, 50, 95, 99, 100):
        assert hist.percentile(q) == 7


def test_empty_histogram_percentiles_are_zero():
    hist = Histogram("h")
    assert hist.percentile(50) == 0.0
    data = hist.to_dict()
    assert data["p50"] == 0.0 and data["p95"] == 0.0 and data["p99"] == 0.0


def test_percentile_out_of_range_rejected():
    hist = Histogram("h")
    hist.observe(1)
    with pytest.raises(ConfigurationError):
        hist.percentile(-1)
    with pytest.raises(ConfigurationError):
        hist.percentile(101)


def test_histogram_to_dict_includes_percentiles():
    hist = Histogram("h")
    hist.observe(16)
    data = hist.to_dict()
    assert data["p50"] == 16 and data["p95"] == 16 and data["p99"] == 16


def test_time_weighted_percentiles_weight_by_held_time():
    clock = {"now": 0.0}
    hist = TimeWeightedHistogram("t", clock=lambda: clock["now"])
    hist.observe(2)  # held over [0, 10)
    clock["now"] = 10.0
    hist.observe(8)  # held over [10, 20) — the open interval must count
    clock["now"] = 20.0
    # 2 for half the time: the median is 2; the tail interpolates in (4, 8].
    assert hist.percentile(50) == pytest.approx(2.0)
    assert hist.percentile(95) == pytest.approx(7.6)
    assert hist.percentile(99) == pytest.approx(7.92)
    data = hist.to_dict()
    assert data["p50"] == pytest.approx(2.0)


def test_time_weighted_percentile_empty_is_zero():
    assert TimeWeightedHistogram("t").percentile(99) == 0.0


def test_registry_summary_includes_percentiles():
    clock = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: clock["now"])
    registry.histogram("sizes").observe(5)
    registry.time_histogram("depth").observe(3)
    clock["now"] = 4.0
    summary = registry.summary()
    assert summary["sizes.p50"] == 5
    assert summary["sizes.p95"] == 5
    assert summary["sizes.p99"] == 5
    assert summary["depth.p50"] == 3
    assert {"depth.p95", "depth.p99"} <= set(summary)


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    first = registry.counter("x")
    second = registry.counter("x")
    assert first is second
    assert len(registry) == 1
    assert registry.names() == ["x"]
    assert registry.get("x") is first
    assert registry.get("missing") is None


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ConfigurationError):
        registry.gauge("x")


def test_registry_to_dict_carries_kind_and_help():
    registry = MetricsRegistry()
    registry.counter("c", "help text").inc(3)
    registry.histogram("h").observe(7)
    data = registry.to_dict()
    assert data["c"] == {"kind": "counter", "help": "help text", "value": 3}
    assert data["h"]["kind"] == "histogram"
    assert data["h"]["count"] == 1


def test_null_registry_is_inert():
    registry = NullRegistry()
    assert not registry.enabled
    counter = registry.counter("c")
    counter.inc(100)
    assert counter.value == 0
    hist = registry.histogram("h")
    hist.observe(5)
    assert hist.count == 0
    assert hist.percentile(99) == 0.0
    # All kinds share the single no-op instrument; nothing is registered.
    assert registry.gauge("g") is counter
    assert registry.time_histogram("t") is counter
    assert registry.to_dict() == {}
    assert len(registry) == 0


def test_read_counter_reports_its_source_when_read():
    source = {"n": 0}
    registry = MetricsRegistry()
    counter = registry.read_counter("c", "help text", lambda: source["n"])
    source["n"] = 5
    assert counter.value == 5
    assert registry.summary() == {"c": 5}
    assert registry.to_dict()["c"] == {"kind": "counter", "help": "help text", "value": 5}
    assert registry.counter("c") is counter  # one instrument per name
    assert NullRegistry().read_counter("c", "", lambda: 1).value == 0


# ---------------------------------------------------------------------------
# the substrate counts are the per-task stats
# ---------------------------------------------------------------------------

#: ``task.<slot>`` is kept in ``task.stats``, ``lapi.<slot>`` in ``task.lapi.stats``.
SUBSTRATE_COUNTS = (
    "task.copies", "task.bytes_copied", "task.reduce_ops", "task.bytes_reduced",
    "task.yields", "task.interrupts", "lapi.puts", "lapi.gets", "lapi.bytes_put",
)


@pytest.mark.parametrize("stack_name", ["srm", "ibm", "mpich"])
@pytest.mark.parametrize("operation", ["broadcast", "reduce", "allreduce", "barrier"])
def test_registry_counts_are_the_task_slots(stack_name, operation):
    """Every substrate count the registry reports is its per-task slot summed
    over the machine, on every stack: the MPI baselines' point-to-point
    copies are counted like SRM's shared-memory ones."""
    machine, stack = build(stack_name, ClusterSpec(nodes=2, tasks_per_node=3))
    row = program_for(operation)(machine.spec.total_tasks, nbytes=4096)
    machine.launch(lambda task: row.call(stack, task))
    summary = machine.obs.metrics.summary()
    for name in SUBSTRATE_COUNTS:
        layer, slot = name.split(".")
        slots = [task.stats if layer == "task" else task.lapi.stats for task in machine.tasks]
        assert summary[name] == sum(getattr(stats, slot) for stats in slots), name
    if row.moves_data:
        assert summary["task.copies"] > 0
