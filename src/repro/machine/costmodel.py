"""Timing parameters for the simulated SMP cluster.

Every latency is in seconds, every bandwidth in bytes/second.  The defaults
(:meth:`CostModel.ibm_sp_colony`) are calibrated to the paper's platform —
IBM SP with 16-way Nighthawk-II SMP nodes (375 MHz POWER3) and the "Colony"
switch — using figures from the LAPI paper [20], the Colony switch
documentation, and the absolute microsecond scales visible in the paper's
Figures 6–8 and 12.  Absolute accuracy is not the goal (our substrate is a
simulator, not the authors' testbed); the parameters are chosen so that the
*relationships* the paper's argument rests on hold:

* shared-memory copy is an order of magnitude cheaper than a network hop;
* one LAPI put costs about the same as one MPI send/receive (paper §2.3:
  "Performance of LAPI RMA operations is similar to that of MPI
  send-receive") but carries no tag-matching, no eager-buffer copy, and no
  rendezvous handshake;
* the MPI eager limit shrinks with the task count (the buffer-memory
  trade-off of §2.3), pushing mid-size messages onto the slower rendezvous
  path at scale.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError

__all__ = [
    "COST_TERMS",
    "CostModel",
    "CostTerms",
    "EagerLimitTable",
    "TermProbe",
]


KB = 1024
MB = 1024 * 1024
US = 1e-6  # one microsecond in seconds

#: The canonical cost-term vocabulary of the breakdown API: every analytic
#: latency estimate decomposes into these buckets (plus ``other`` for
#: contributions a cost hook adds as plain floats).  ``copy`` is shared-memory
#: movement (:meth:`CostModel.copy_time`), ``wire`` is network transfer
#: (:meth:`CostModel.wire_time`), ``reduce`` is operator execution
#: (:meth:`CostModel.reduce_time`), ``eager`` is the §2.3 eager/rendezvous
#: protocol penalty (:meth:`CostModel.eager_time`).
COST_TERMS = ("copy", "wire", "reduce", "eager")


class CostTerms:
    """A latency estimate kept as a linear combination of named cost terms.

    :meth:`TermProbe.copy_time` and friends return ``CostTerms`` instead of
    plain floats; the arithmetic the dispatch cost hooks already perform
    (``rounds * env.cost.wire_time(n) + smp``, ``max`` over pipeline stages)
    then propagates the per-term attribution for free — scaling multiplies
    every term, addition merges term-wise, and ``max`` keeps the breakdown
    of the slowest operand.  ``float(terms)`` (or :attr:`total`) recovers
    the scalar estimate, so a breakdown always sums to exactly the number
    :class:`~repro.core.dispatch.CostModelPolicy` ranks variants by.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: typing.Mapping[str, float] | None = None) -> None:
        self.terms: dict[str, float] = dict(terms or {})

    @classmethod
    def coerce(cls, value: typing.Any) -> "CostTerms":
        """Lift a plain number (a hook that ignored the probe) into terms."""
        if isinstance(value, CostTerms):
            return value
        number = float(value)
        return cls({"other": number}) if number else cls()

    @property
    def total(self) -> float:
        """The scalar estimate in seconds (the sum of every term)."""
        return math.fsum(self.terms.values())

    def as_dict(self) -> dict[str, float]:
        """Term -> seconds, key-sorted (byte-stable serialization)."""
        return {term: self.terms[term] for term in sorted(self.terms)}

    # -- linear algebra over terms ---------------------------------------

    def __add__(self, other: typing.Any) -> "CostTerms":
        if isinstance(other, CostTerms):
            merged = dict(self.terms)
            for term, seconds in other.terms.items():
                merged[term] = merged.get(term, 0.0) + seconds
            return CostTerms(merged)
        if isinstance(other, (int, float)):
            if other == 0:
                return self
            merged = dict(self.terms)
            merged["other"] = merged.get("other", 0.0) + float(other)
            return CostTerms(merged)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, factor: typing.Any) -> "CostTerms":
        if isinstance(factor, (int, float)):
            return CostTerms(
                {term: seconds * factor for term, seconds in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.total

    def _value(self, other: typing.Any) -> float:
        return other.total if isinstance(other, CostTerms) else float(other)

    def __lt__(self, other: typing.Any) -> bool:
        return self.total < self._value(other)

    def __le__(self, other: typing.Any) -> bool:
        return self.total <= self._value(other)

    def __gt__(self, other: typing.Any) -> bool:
        return self.total > self._value(other)

    def __ge__(self, other: typing.Any) -> bool:
        return self.total >= self._value(other)

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{term}={seconds:.3g}" for term, seconds in sorted(self.terms.items())
        )
        return f"<CostTerms total={self.total:.3g} {inside}>"


class TermProbe:
    """A :class:`CostModel` facade whose time queries return :class:`CostTerms`.

    Hand one to a dispatch cost hook (``entry.cost(env)`` with
    ``env.cost = model.probe()``) and the returned estimate arrives broken
    down per cost-model term — no hook rewrite needed, because the hooks are
    built from the probe's answers by sums, scalar multiples and ``max``.
    Everything else (constants, :meth:`CostModel.eager_limit`, presets)
    passes straight through to the wrapped model.
    """

    __slots__ = ("base",)

    def __init__(self, base: "CostModel") -> None:
        self.base = base

    def copy_time(self, nbytes: float) -> CostTerms:
        return CostTerms({"copy": self.base.copy_time(nbytes)})

    def reduce_time(self, nbytes: float) -> CostTerms:
        return CostTerms({"reduce": self.base.reduce_time(nbytes)})

    def wire_time(self, nbytes: float) -> CostTerms:
        return CostTerms({"wire": self.base.wire_time(nbytes)})

    def eager_time(self, nbytes: int, total_tasks: int) -> CostTerms:
        return CostTerms({"eager": self.base.eager_time(nbytes, total_tasks)})

    def __getattr__(self, name: str) -> typing.Any:
        return getattr(self.base, name)

    def __repr__(self) -> str:
        return f"<TermProbe over {self.base!r}>"


@dataclass(frozen=True)
class EagerLimitTable:
    """Task-count-dependent eager/rendezvous switch point.

    Mirrors the documented IBM POE ``MP_EAGER_LIMIT`` defaults, which halve
    the limit as the task count grows so that the per-task pool of ``P-1``
    eager buffers stays bounded — exactly the behaviour §2.3 of the paper
    blames for mid-size-message slowdowns at scale.

    ``thresholds`` maps a maximum task count to the eager limit used at or
    below it; task counts beyond the last threshold use ``floor_limit``.
    """

    thresholds: tuple[tuple[int, int], ...] = (
        (16, 32 * KB),
        (32, 16 * KB),
        (64, 8 * KB),
        (128, 4 * KB),
    )
    floor_limit: int = 4 * KB

    def limit_for(self, total_tasks: int) -> int:
        """Eager limit in bytes for a job of ``total_tasks`` tasks."""
        for max_tasks, limit in self.thresholds:
            if total_tasks <= max_tasks:
                return limit
        return self.floor_limit

    @classmethod
    def fixed(cls, limit: int) -> "EagerLimitTable":
        """A task-count-independent limit (MPICH-style)."""
        return cls(thresholds=(), floor_limit=limit)


@dataclass(frozen=True)
class CostModel:
    """All tunable hardware/protocol constants of the simulation."""

    # -- intra-node: shared memory ---------------------------------------
    #: Single-CPU memcpy streaming rate (one POWER3 copying through L2).
    sm_copy_bandwidth: float = 400.0 * MB
    #: Fixed software cost to start one shared-memory copy.
    sm_copy_latency: float = 0.4 * US
    #: Aggregate memory-bus bandwidth of one SMP node (all CPUs + NIC DMA).
    memory_bus_bandwidth: float = 1600.0 * MB
    #: Cost for a process to set a shared-memory flag (store + fence + the
    #: cache-line transfer to the spinning reader).
    flag_set_cost: float = 0.5 * US
    #: Polling granularity: delay between a flag changing and a spinning
    #: process observing the change (a cache-line round trip).
    flag_poll_interval: float = 0.8 * US
    #: Spins on a flag before the process yields its time slice (§2.4:
    #: required so the LAPI threads get CPU cycles).
    spin_yield_threshold: int = 100
    #: Cost of one sched_yield / time-slice donation.
    yield_cost: float = 10.0 * US

    # -- intra-node: computation ------------------------------------------
    #: Streaming rate of applying a reduction operator (sum of doubles),
    #: reading two operands and writing one result.
    reduce_op_bandwidth: float = 300.0 * MB

    # -- inter-node: network / RMA (LAPI over the Colony switch) ----------
    #: One-way network latency for any message (wire + adapters + dispatch).
    net_latency: float = 18.0 * US
    #: Unidirectional sustained NIC bandwidth per node.
    net_bandwidth: float = 350.0 * MB
    #: Origin-side CPU overhead to issue one put/get/active message.
    rma_origin_overhead: float = 2.0 * US
    #: Target-side dispatcher overhead to land one message.
    rma_target_overhead: float = 1.5 * US
    #: Cost of a LAPI counter update (origin, target, or completion).
    counter_update_cost: float = 0.3 * US
    #: Cost of taking an interrupt when data arrives while the target is not
    #: inside a LAPI call and interrupts are enabled (§2.3, "Management of
    #: LAPI Interrupts").
    interrupt_cost: float = 25.0 * US

    # -- MPI point-to-point protocol costs ---------------------------------
    #: Sender-side software overhead per send (descriptor, protocol choice).
    mpi_send_overhead: float = 3.0 * US
    #: Receiver-side overhead per receive: tag matching, queue management.
    mpi_recv_overhead: float = 2.5 * US
    #: Extra overhead when a message arrives before its receive is posted
    #: (unexpected-message queueing — one of the costs SRM avoids, §1).
    mpi_unexpected_overhead: float = 2.0 * US
    #: Wake-up cost charged when a network message completes a receive that
    #: was already blocked: the AIX-era progress engine put blocked
    #: receivers to sleep and woke them by interrupt/timeslice.  SRM's
    #: counter waits poll inside LAPI instead (§2.3) and avoid this — a core
    #: part of the paper's barrier and small-message advantage.
    mpi_blocked_recv_wakeup: float = 30.0 * US
    #: Same, for intra-node (shared-memory transport) messages: the blocked
    #: receiver polls the shm queue for a while before sleeping, so short
    #: waits resume much faster than a network interrupt.
    mpi_shm_wakeup: float = 5.0 * US
    #: Eager/rendezvous switch points as a function of task count.
    eager_limits: EagerLimitTable = field(default_factory=EagerLimitTable)
    #: Per-task memory budget for eager buffers; with P-1 peers the usable
    #: eager limit is also capped by pool_bytes / (P - 1)  (§2.3).
    eager_pool_bytes: int = 1 * MB
    #: Latency of one rendezvous control message (RTS or CTS). Control
    #: messages ride the network latency but are tiny.
    rendezvous_control_cost: float = 1.0 * US

    # -- measurement noise --------------------------------------------------
    #: Mean interval between system-daemon preemptions per node (0 = off).
    daemon_interval: float = 0.0
    #: Duration of one daemon preemption.
    daemon_duration: float = 200.0 * US

    def __post_init__(self) -> None:
        # Every number must be finite: the range checks below let NaN
        # through, and a NaN or infinite cost stalls or corrupts the run.
        for entry in fields(self):
            value = getattr(self, entry.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigurationError(f"{entry.name} must be finite, got {value!r}")
        positive_fields = (
            "sm_copy_bandwidth",
            "memory_bus_bandwidth",
            "reduce_op_bandwidth",
            "net_bandwidth",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        nonnegative_fields = (
            "sm_copy_latency",
            "flag_set_cost",
            "flag_poll_interval",
            "yield_cost",
            "net_latency",
            "rma_origin_overhead",
            "rma_target_overhead",
            "counter_update_cost",
            "interrupt_cost",
            "mpi_send_overhead",
            "mpi_recv_overhead",
            "mpi_unexpected_overhead",
            "mpi_blocked_recv_wakeup",
            "mpi_shm_wakeup",
            "rendezvous_control_cost",
            "daemon_interval",
            "daemon_duration",
        )
        for name in nonnegative_fields:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.spin_yield_threshold < 1:
            raise ConfigurationError("spin_yield_threshold must be >= 1")
        if self.eager_pool_bytes < 0:
            raise ConfigurationError("eager_pool_bytes must be >= 0")

    # -- derived quantities -------------------------------------------------

    def eager_limit(self, total_tasks: int) -> int:
        """Effective eager limit: the protocol table capped by pool memory."""
        table_limit = self.eager_limits.limit_for(total_tasks)
        if total_tasks <= 1:
            return table_limit
        pool_limit = self.eager_pool_bytes // (total_tasks - 1)
        return min(table_limit, pool_limit)

    def copy_time(self, nbytes: int) -> float:
        """Uncontended duration of one shared-memory copy of ``nbytes``."""
        return self.sm_copy_latency + nbytes / self.sm_copy_bandwidth

    def reduce_time(self, nbytes: int) -> float:
        """Uncontended duration of applying a reduce op over ``nbytes``."""
        return self.sm_copy_latency + nbytes / self.reduce_op_bandwidth

    def wire_time(self, nbytes: int) -> float:
        """Uncontended duration of one network message of ``nbytes``."""
        return self.net_latency + nbytes / self.net_bandwidth

    def eager_time(self, nbytes: int, total_tasks: int) -> float:
        """The §2.3 eager/rendezvous protocol penalty for one MPI message.

        Zero while the payload fits the task-count-dependent eager limit;
        beyond it, the message pays the RTS/CTS rendezvous round trip (two
        control messages, each riding the network latency).  Analytic cost
        hooks for MPI-flavoured variants charge this through
        :meth:`TermProbe.eager_time` so calibration can attribute drift to
        the ``eager`` term separately from raw ``wire`` time.
        """
        if nbytes <= self.eager_limit(total_tasks):
            return 0.0
        return 2 * (self.rendezvous_control_cost + self.net_latency)

    def probe(self) -> TermProbe:
        """A :class:`TermProbe` over this model: time queries answer in
        :class:`CostTerms`, so any cost hook evaluated against the probe
        yields its per-term breakdown (see ``repro.core.dispatch.predict_terms``)."""
        return TermProbe(self)

    def evolve(self, **changes: typing.Any) -> "CostModel":
        """Return a copy with ``changes`` applied (for ablations/sweeps)."""
        return replace(self, **changes)

    # -- presets --------------------------------------------------------------

    @classmethod
    def ibm_sp_colony(cls) -> "CostModel":
        """The paper's platform: IBM SP, 16-way nodes, Colony switch."""
        return cls()

    @classmethod
    def commodity_cluster(cls) -> "CostModel":
        """A 2003-era commodity Linux cluster: faster CPUs/memory than the
        Nighthawk node, but higher-latency lower-bandwidth interconnect
        (Myrinet/VIA class) — the environment of the authors' earlier
        barrier paper [17]."""
        return cls(
            sm_copy_bandwidth=800.0 * MB,
            memory_bus_bandwidth=2400.0 * MB,
            reduce_op_bandwidth=600.0 * MB,
            net_latency=30.0 * US,
            net_bandwidth=150.0 * MB,
            interrupt_cost=35.0 * US,
        )

    @classmethod
    def fat_smp(cls) -> "CostModel":
        """A large shared-memory server (HP Superdome / Sun Fire class, §1):
        more memory bandwidth, slower relative network."""
        return cls(
            memory_bus_bandwidth=6400.0 * MB,
            sm_copy_bandwidth=600.0 * MB,
            net_latency=22.0 * US,
            net_bandwidth=250.0 * MB,
        )
