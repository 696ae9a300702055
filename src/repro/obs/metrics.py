"""The always-on metrics registry: counters, gauges, histograms.

Replaces ad-hoc counter plumbing with named instruments that any layer can
create once and update on the hot path for the cost of an attribute add:

* :class:`Counter` — monotonically increasing totals (flag stores, dispatch
  decisions), or a :class:`ReadCounter` that reads its total from state the
  program already counts (the per-task copy and put slots);
* :class:`Gauge` — a sampled instantaneous value;
* :class:`Histogram` — value distributions over power-of-two buckets
  (put sizes, wait durations);
* :class:`TimeWeightedHistogram` — a value integrated over *simulated time*
  (in-flight put windows, queue depths): each observation closes the previous
  value's interval at the current clock, so ``time_average`` is exact for
  piecewise-constant signals.

A :class:`MetricsRegistry` hands out get-or-create instruments by name and
serializes everything with :meth:`MetricsRegistry.to_dict`.  The
:class:`NullRegistry` returns shared no-op instruments with the same API, so
instrumented code needs no ``if enabled`` branches — and tests can assert
that a machine built with a null registry simulates bit-identically.
"""

from __future__ import annotations

import math
import typing

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "ReadCounter",
    "Gauge",
    "Histogram",
    "TimeWeightedHistogram",
    "MetricsRegistry",
    "NullRegistry",
]

Clock = typing.Callable[[], float]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class ReadCounter:
    """A counter that keeps no total: ``read()`` sums the count from the
    state that holds it whenever the registry reports the value."""

    __slots__ = ("name", "help", "read")

    kind = "counter"

    def __init__(self, name: str, help: str, read: typing.Callable[[], int]) -> None:
        self.name = name
        self.help = help
        self.read = read

    @property
    def value(self) -> int:
        return self.read()

    def to_dict(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"<ReadCounter {self.name}={self.value}>"


class Gauge:
    """A sampled instantaneous value."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


def _bucket_index(value: float) -> int:
    """Power-of-two bucket: index i holds values in (2^(i-1), 2^i]; zero and
    negatives land in bucket 0."""
    if value <= 0:
        return 0
    return max(0, math.ceil(math.log2(value))) + 1


def _bucket_label(index: int) -> str:
    if index == 0:
        return "<=0"
    return f"<=2^{index - 1}"


def _bucket_bounds(index: int) -> tuple[float, float]:
    """The (lo, hi] value range of one bucket, for percentile interpolation."""
    if index == 0:
        return (0.0, 0.0)
    if index == 1:
        return (0.0, 1.0)
    return (2.0 ** (index - 2), 2.0 ** (index - 1))


def _bucket_percentile(
    buckets: dict[int, float],
    q: float,
    lo_clamp: float,
    hi_clamp: float,
) -> float:
    """The q-th percentile of a bucketed distribution.

    Linear interpolation within the crossing bucket, clamped to the observed
    ``[min, max]`` so the power-of-two bucket width never reports a value
    outside what was actually seen.
    """
    if not 0 <= q <= 100:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    total = sum(buckets.values())
    if total <= 0:
        return 0.0
    target = (q / 100.0) * total
    cumulative = 0.0
    for index in sorted(buckets):
        weight = buckets[index]
        if weight <= 0:
            continue
        if cumulative + weight >= target:
            lo, hi = _bucket_bounds(index)
            fraction = (target - cumulative) / weight
            value = lo + (hi - lo) * fraction
            return min(max(value, lo_clamp), hi_clamp)
        cumulative += weight
    return hi_clamp


class Histogram:
    """A value distribution over power-of-two buckets."""

    __slots__ = ("name", "help", "count", "total", "min", "max", "_buckets")

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100), interpolated within its bucket."""
        if not self.count:
            return 0.0
        return _bucket_percentile(
            {i: float(n) for i, n in self._buckets.items()}, q, self.min, self.max
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {
                _bucket_label(i): n for i, n in sorted(self._buckets.items())
            },
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeightedHistogram:
    """A piecewise-constant signal integrated over simulated time.

    ``observe(v)`` closes the previous value's interval at ``clock()`` and
    starts a new one at ``v``; statistics weight each value by how long it
    was held, so ``time_average`` is the true mean of the signal.
    """

    __slots__ = ("name", "help", "_clock", "_value", "_since", "weighted_sum",
                 "elapsed", "min", "max", "_bucket_seconds", "observations")

    kind = "time_histogram"

    def __init__(self, name: str, help: str = "", clock: Clock | None = None) -> None:
        self.name = name
        self.help = help
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._value: float | None = None
        self._since = 0.0
        self.weighted_sum = 0.0
        self.elapsed = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._bucket_seconds: dict[int, float] = {}
        self.observations = 0

    def _settle(self, now: float) -> None:
        if self._value is None:
            return
        held = now - self._since
        if held > 0:
            self.weighted_sum += self._value * held
            self.elapsed += held
            index = _bucket_index(self._value)
            self._bucket_seconds[index] = self._bucket_seconds.get(index, 0.0) + held

    def observe(self, value: float) -> None:
        now = self._clock()
        self._settle(now)
        self._value = float(value)
        self._since = now
        self.observations += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def current(self) -> float | None:
        return self._value

    @property
    def time_average(self) -> float:
        """The signal's time-weighted mean over all settled intervals."""
        now = self._clock()
        # Include the still-open interval without mutating state.
        weighted, elapsed = self.weighted_sum, self.elapsed
        if self._value is not None and now > self._since:
            weighted += self._value * (now - self._since)
            elapsed += now - self._since
        return weighted / elapsed if elapsed > 0 else 0.0

    def percentile(self, q: float) -> float:
        """The q-th *time-weighted* percentile: the signal level below which
        the signal sat for q% of the elapsed time (open interval included)."""
        if not self.observations:
            return 0.0
        buckets = dict(self._bucket_seconds)
        now = self._clock()
        if self._value is not None and now > self._since:
            index = _bucket_index(self._value)
            buckets[index] = buckets.get(index, 0.0) + (now - self._since)
        return _bucket_percentile(buckets, q, self.min, self.max)

    def to_dict(self) -> dict:
        return {
            "observations": self.observations,
            "time_average": self.time_average,
            "min": self.min if self.observations else None,
            "max": self.max if self.observations else None,
            "current": self._value,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "bucket_seconds": {
                _bucket_label(i): s for i, s in sorted(self._bucket_seconds.items())
            },
        }

    def __repr__(self) -> str:
        return f"<TimeWeightedHistogram {self.name} avg={self.time_average:.4g}>"


class MetricsRegistry:
    """Named get-or-create instruments plus one-call serialization."""

    enabled = True

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock
        self._instruments: dict[str, typing.Any] = {}

    def _get_or_create(self, name: str, factory: typing.Callable[[], typing.Any], kind: str):
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {kind}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def read_counter(
        self, name: str, help: str, read: typing.Callable[[], int]
    ) -> ReadCounter:
        return self._get_or_create(name, lambda: ReadCounter(name, help, read), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, help), "histogram")

    def time_histogram(self, name: str, help: str = "") -> TimeWeightedHistogram:
        return self._get_or_create(
            name,
            lambda: TimeWeightedHistogram(name, help, clock=self._clock),
            "time_histogram",
        )

    def get(self, name: str) -> typing.Any | None:
        """The instrument registered under ``name``, if any."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def to_dict(self) -> dict:
        """All instruments as ``{name: {kind, help, ...stats}}``."""
        out = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry = {"kind": instrument.kind}
            if instrument.help:
                entry["help"] = instrument.help
            entry.update(instrument.to_dict())
            out[name] = entry
        return out

    def summary(self) -> dict[str, float]:
        """A flat ``{name: number}`` view for benchmark snapshots.

        Counters and gauges contribute their value under their own name;
        histograms contribute ``<name>.count``, ``<name>.sum`` and the
        ``<name>.p50/.p95/.p99`` percentiles; time-weighted histograms
        contribute ``<name>.observations``, ``<name>.time_average`` and the
        same (time-weighted) percentiles.  Keys are emitted in sorted order
        so the serialization is byte-stable across identical runs, which is
        what lets snapshot diffs flag real drift instead of dict-order noise.
        """
        out: dict[str, float] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.kind in ("counter", "gauge"):
                out[name] = instrument.value
            elif instrument.kind == "histogram":
                out[f"{name}.count"] = instrument.count
                out[f"{name}.sum"] = instrument.total
                out[f"{name}.p50"] = instrument.percentile(50)
                out[f"{name}.p95"] = instrument.percentile(95)
                out[f"{name}.p99"] = instrument.percentile(99)
            elif instrument.kind == "time_histogram":
                out[f"{name}.observations"] = instrument.observations
                out[f"{name}.time_average"] = instrument.time_average
                out[f"{name}.p50"] = instrument.percentile(50)
                out[f"{name}.p95"] = instrument.percentile(95)
                out[f"{name}.p99"] = instrument.percentile(99)
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """One shared do-nothing instrument standing in for every kind."""

    __slots__ = ()

    name = "(null)"
    help = ""
    kind = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    time_average = 0.0
    observations = 0
    current = None

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {}


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing — the off switch."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "") -> Counter:  # type: ignore[override]
        return typing.cast(Counter, _NULL)

    def read_counter(  # type: ignore[override]
        self, name: str, help: str, read: typing.Callable[[], int]
    ) -> ReadCounter:
        return typing.cast(ReadCounter, _NULL)

    def gauge(self, name: str, help: str = "") -> Gauge:  # type: ignore[override]
        return typing.cast(Gauge, _NULL)

    def histogram(self, name: str, help: str = "") -> Histogram:  # type: ignore[override]
        return typing.cast(Histogram, _NULL)

    def time_histogram(self, name: str, help: str = "") -> TimeWeightedHistogram:  # type: ignore[override]
        return typing.cast(TimeWeightedHistogram, _NULL)

    def to_dict(self) -> dict:
        return {}
