"""Protocol dispatch: the algorithm registry and pluggable selection policies.

The paper hardwires its §2.4 switch points — 64 KB for the broadcast
small→large protocol change, 8 KB for pipelining, 16 KB for the allreduce
recursive-doubling cutoff — as scattered ``if`` checks against
:class:`~repro.core.config.SRMConfig`.  Barchet-Estefanel & Mounié ("Fast
Tuning of Intra-Cluster Collective Communications") argue those cutoffs
should be *measured per machine*, and De Sensi et al. treat algorithm choice
as a first-class swappable decision.  This module makes the paper's
thresholds one policy among several:

* an **algorithm registry** — every collective variant (small / pipelined /
  large broadcast, exchange / pipeline / ring allreduce, gather+bcast / ring
  allgather, the §2.1 tree families, …) registers itself with a declarative
  *applicability predicate* (can this variant run structurally, given the
  buffer capacities of the current config?) and a *cost hook*, its closed
  form over the machine's :class:`~repro.machine.costmodel.CostModel` — the
  hooks together are the analytic model the paper's §5 proposes;
* :class:`SelectionPolicy` objects that pick one registered variant per
  ``(op, nbytes, nodes, ppn)`` call:

  - :class:`PaperPolicy` — reproduces the §2.4 ``if``-chains exactly (the
    default; byte-for-byte identical selections to the pre-dispatch code);
  - :class:`CostModelPolicy` — picks the cheapest applicable variant by
    those closed forms;
  - :class:`TunedPolicy` — loads a *measured* decision table produced by
    ``python -m repro tune`` (see :mod:`repro.bench.tune`);
  - :class:`FixedPolicy` — forces named variants (the tuner's probe, also
    handy for ablations);

* a per-context :class:`Dispatcher` that caches decisions (selection is
  pure in ``(op, nbytes)`` once the context shape is fixed, so the hot path
  pays one dict hit), records every selection as a ``dispatch.<op>.<variant>``
  counter, and marks each *distinct* decision with a zero-duration
  ``dispatch`` span whose detail names the chosen variant — so traces and
  the critical-path profiler show *which* protocol ran.

Every decision is validated against the variant's applicability predicate;
a policy that picks a structurally impossible variant (e.g. the exchange
allreduce for a message larger than its staging buffers) falls back to the
:class:`PaperPolicy` choice and bumps the ``dispatch.fallbacks`` counter
instead of corrupting shared buffers.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from repro.core.config import SRMConfig
from repro.errors import ConfigurationError
from repro.obs.taxonomy import DISPATCH

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import SRMContext
    from repro.machine.costmodel import CostModel

__all__ = [
    "SelectionEnv",
    "Variant",
    "Decision",
    "register_variant",
    "variants_for",
    "variant",
    "registered_ops",
    "SelectionPolicy",
    "PaperPolicy",
    "CostModelPolicy",
    "TunedPolicy",
    "FixedPolicy",
    "Dispatcher",
    "lookup_variant",
    "resolve_variant",
    "predict_terms",
    "TUNED_TABLE_KIND",
    "TUNED_TABLE_SCHEMA_VERSION",
]

KB = 1024

#: Document marker + schema version of the ``repro tune`` decision-table
#: artifact (serialized like a bench snapshot: sorted keys, indent 1).
TUNED_TABLE_KIND = "repro-tuned-policy"
TUNED_TABLE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# selection environment + registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionEnv:
    """Everything a policy may condition one selection on."""

    op: str
    nbytes: int
    #: Participating nodes (the inter-node fan-out width).
    nodes: int
    #: Largest per-node member count (the SMP fan-out width).
    ppn: int
    config: SRMConfig
    #: The machine's cost model, which the variants' cost hooks read.
    cost: "CostModel"

    @property
    def total_tasks(self) -> int:
        return self.nodes * self.ppn


@dataclass(frozen=True)
class Variant:
    """One registered algorithm variant of one collective operation."""

    op: str
    name: str
    description: str
    #: Structural applicability: can this variant run at all for this env
    #: (buffer capacities, node counts) — *not* whether it would be fast.
    applicable: typing.Callable[[SelectionEnv], bool]
    #: Analytic latency estimate in seconds: the variant's closed form in
    #: the model CostModelPolicy selects by and ``predict_terms`` breaks down.
    cost: typing.Callable[[SelectionEnv], float]
    #: Optional hook returning a config under which this variant becomes
    #: structurally applicable at ``nbytes`` (the tuner uses it to probe
    #: beyond the default capacity thresholds).
    tune_config: typing.Callable[[SRMConfig, int], SRMConfig] | None = None
    #: Human-readable statement of the structural precondition behind
    #: ``applicable`` — surfaced as the reason in fallback marker spans.
    #: Empty for unconditionally applicable variants.
    requires: str = ""

    def __repr__(self) -> str:
        return f"<Variant {self.op}/{self.name}>"


#: op -> {variant name -> Variant}, in registration order.
_REGISTRY: dict[str, dict[str, Variant]] = {}


def register_variant(entry: Variant) -> Variant:
    """Add one variant to the registry (idempotent re-registration is an error)."""
    per_op = _REGISTRY.setdefault(entry.op, {})
    if entry.name in per_op:
        raise ConfigurationError(
            f"variant {entry.op}/{entry.name} is already registered"
        )
    per_op[entry.name] = entry
    return entry


def variant(op: str, name: str, description: str = "", **kwargs) -> typing.Callable:
    """Decorator form: the decorated callable is the cost hook."""

    def wrap(cost_fn: typing.Callable[[SelectionEnv], float]) -> Variant:
        return register_variant(
            Variant(op=op, name=name, description=description, cost=cost_fn, **kwargs)
        )

    return wrap


def variants_for(op: str) -> list[Variant]:
    """All registered variants of ``op``, in registration order."""
    try:
        return list(_REGISTRY[op].values())
    except KeyError:
        raise ConfigurationError(
            f"no variants registered for operation {op!r}; "
            f"known operations: {sorted(_REGISTRY)}"
        ) from None


def lookup_variant(op: str, name: str) -> Variant:
    """The registered variant ``op/name``."""
    per_op = _REGISTRY.get(op, {})
    try:
        return per_op[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r} for operation {op!r}; "
            f"registered: {sorted(per_op)}"
        ) from None


def registered_ops() -> list[str]:
    """Every operation with at least one registered variant."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# the registered variants and their cost hooks: the analytic model
# ---------------------------------------------------------------------------
#
# The paper's §5 asks for "an analytical performance model of the SRM
# collectives"; the hooks of the broadcast, reduce, allreduce and barrier
# variants are that model, one closed form per variant.  Each composes the
# per-chunk stages below (a counter-signalled put, the Fig. 3 SMP broadcast,
# the Fig. 2 SMP reduce, the flag barrier) into the variant's pipeline over
# the chunks derive_chunks gives it.  Every byte-proportional piece goes
# through copy_time, wire_time or reduce_time, so predict_terms attributes
# it to a cost term, and only per-message constants (flag sets, polls, RMA
# overheads) land in ``other``.  The model ignores second-order effects
# (interrupt stalls, daemon noise, contention beyond the drain's bus bound):
# the simulator is the precise model, and
# ``benchmarks/bench_model_validation.py`` bounds the gap.  The extension
# operations' hooks are coarser postal-style estimates that only rank their
# variants; allgather's end in the same Fig. 3 SMP broadcast stage.


def _log2ceil(n: int) -> int:
    return max(0, (max(1, n) - 1).bit_length())


def _put(cost: "CostModel", nbytes: float) -> float:
    """One counter-signalled LAPI put, origin call to target counter."""
    return (
        cost.rma_origin_overhead + cost.wire_time(nbytes)
        + cost.rma_target_overhead + cost.counter_update_cost
    )


def _smp_broadcast(cost: "CostModel", ppn: int, nbytes: float) -> float:
    """Flat two-buffer SMP broadcast of one chunk (Fig. 3).

    The fill (copy in, set ``ppn - 1`` flags), then the readers' concurrent
    drain: one copy at per-CPU speed unless the readers together exceed the
    memory bus, which then divides among them.
    """
    if ppn <= 1:
        return 0.0
    readers = ppn - 1
    contention = max(1.0, readers * cost.sm_copy_bandwidth / cost.memory_bus_bandwidth)
    fill = cost.copy_time(nbytes) + readers * cost.flag_set_cost
    return fill + cost.flag_poll_interval + cost.copy_time(nbytes * contention)


def _smp_reduce(cost: "CostModel", ppn: int, nbytes: float) -> float:
    """Binomial SMP reduce of one chunk (Fig. 2): one leaf copy, then one
    operator pass per tree level on the critical path."""
    if ppn <= 1:
        return 0.0
    leaf = cost.copy_time(nbytes) + cost.flag_set_cost
    return leaf + _log2ceil(ppn) * (cost.flag_poll_interval + cost.reduce_time(nbytes))


def _chunking(env: SelectionEnv, variant_name: str) -> tuple[int, int]:
    """(first chunk's bytes, chunk count) of ``variant_name`` at ``env``."""
    chunks = derive_chunks(env.config, env.op, variant_name, env.nbytes)
    return chunks[0][1], len(chunks)


def _broadcast_cost(variant_name: str) -> typing.Callable[[SelectionEnv], float]:
    def shared_buffers(env: SelectionEnv) -> float:
        # Per chunk, one put per binomial round, then the SMP fan-out; each
        # further chunk costs one more slowest stage.
        chunk, count = _chunking(env, variant_name)
        net = _put(env.cost, chunk)
        smp = _smp_broadcast(env.cost, env.ppn, chunk)
        return _log2ceil(env.nodes) * net + smp + (count - 1) * max(net, smp)

    def streamed(env: SelectionEnv) -> float:
        # Address exchange, then the root streams the whole message to each
        # of its children (its NIC serializes them), overlapped with the
        # per-node SMP pipelines; the last chunk's fan-out drains after.
        chunk, count = _chunking(env, variant_name)
        smp = _smp_broadcast(env.cost, env.ppn, chunk)
        stream = _log2ceil(env.nodes) * env.cost.wire_time(env.nbytes)
        return _put(env.cost, 0) + max(stream, count * smp) + smp

    return streamed if variant_name == "large" else shared_buffers


def _reduce_cost(variant_name: str) -> typing.Callable[[SelectionEnv], float]:
    def cost_of(env: SelectionEnv) -> float:
        # Per chunk, the SMP reduce, then one put and one combine per
        # binomial round; each further chunk costs one more slowest stage.
        chunk, count = _chunking(env, variant_name)
        smp = _smp_reduce(env.cost, env.ppn, chunk)
        net = _put(env.cost, chunk) + env.cost.reduce_time(chunk)
        return smp + _log2ceil(env.nodes) * net + (count - 1) * max(net, smp)

    return cost_of


def _fits_shared_buffer(env: SelectionEnv) -> bool:
    return env.nbytes <= env.config.shared_buffer_bytes


def _raise_small_protocol(config: SRMConfig, nbytes: int) -> SRMConfig:
    """A config whose shared buffers hold ``nbytes`` in one small-protocol chunk."""
    if nbytes <= config.pipeline_min:
        return config
    return config.evolve(
        pipeline_min=nbytes,
        small_protocol_max=max(config.small_protocol_max, nbytes),
    )


for _op, _cost_of in (("broadcast", _broadcast_cost), ("reduce", _reduce_cost)):
    register_variant(
        Variant(
            op=_op,
            name="small",
            description="one chunk through the Fig. 3/Fig. 2 shared buffers",
            applicable=_fits_shared_buffer,
            cost=_cost_of("small"),
            tune_config=_raise_small_protocol,
            requires="message fits one shared-buffer chunk",
        )
    )
    register_variant(
        Variant(
            op=_op,
            name="pipelined",
            description="4 KB chunks alternating the two shared buffers (§2.2)",
            applicable=lambda env: True,
            cost=_cost_of("pipelined"),
            tune_config=lambda config, nbytes: config.evolve(
                small_protocol_max=max(config.small_protocol_max, nbytes)
            ),
        )
    )
    register_variant(
        Variant(
            op=_op,
            name="large",
            description="streamed direct-to-user-buffer protocol (Fig. 4 right)",
            applicable=lambda env: True,
            cost=_cost_of("large"),
        )
    )


def _allreduce_exchange_cost(env: SelectionEnv) -> float:
    # SMP reduce, floor(log2 k) pairwise rounds of one put and one combine,
    # SMP broadcast.  On a non-power-of-two node count the excess masters
    # first fold in (one put, one combine) and get the result back (one put).
    cost, nbytes = env.cost, env.nbytes
    exchange = _put(cost, nbytes) + cost.reduce_time(nbytes)
    rounds = max(1, env.nodes).bit_length() - 1
    fold = 0.0 if env.nodes & (env.nodes - 1) == 0 else exchange + _put(cost, nbytes)
    return (
        _smp_reduce(cost, env.ppn, nbytes) + rounds * exchange + fold
        + _smp_broadcast(cost, env.ppn, nbytes)
    )


def _allreduce_pipeline_cost(env: SelectionEnv) -> float:
    # The four Fig. 5 stages overlap chunk-wise: one traversal of SMP reduce,
    # the reduce tree, the broadcast tree and SMP broadcast, then one slowest
    # stage per further chunk.
    cost = env.cost
    chunk, count = _chunking(env, "pipeline")
    rounds = _log2ceil(env.nodes)
    smp_reduce = _smp_reduce(cost, env.ppn, chunk)
    net_reduce = _put(cost, chunk) + cost.reduce_time(chunk)
    net_bcast = _put(cost, chunk)
    smp_bcast = _smp_broadcast(cost, env.ppn, chunk)
    # The root's NIC carries each chunk ``rounds`` times in and ``rounds``
    # times out; only the payload occupies it, the latency pipelines.
    # CostTerms has only ``+`` and scalar ``*``, hence ``+ -1 *``: the
    # difference stays in the ``wire`` term.
    root_nic = 2 * rounds * (cost.wire_time(chunk) + -1 * cost.wire_time(0))
    first = smp_reduce + rounds * net_reduce + rounds * net_bcast + smp_bcast
    return first + (count - 1) * max(smp_reduce, net_reduce, net_bcast, smp_bcast, root_nic)


def _allreduce_ring_cost(env: SelectionEnv) -> float:
    # SMP reduce, k-1 reduce-scatter steps of one segment put and one
    # combine, k-1 allgather steps of one segment put, SMP broadcast.
    cost = env.cost
    k = max(1, env.nodes)
    segment = env.nbytes / k
    put = _put(cost, segment)
    return (
        _smp_reduce(cost, env.ppn, env.nbytes)
        + (k - 1) * (put + cost.reduce_time(segment)) + (k - 1) * put
        + _smp_broadcast(cost, env.ppn, env.nbytes)
    )


register_variant(
    Variant(
        op="allreduce",
        name="exchange",
        description="SMP reduce + recursive-doubling pairwise exchange (§2.2)",
        applicable=lambda env: env.nbytes <= max(env.config.allreduce_exchange_max, 1),
        cost=_allreduce_exchange_cost,
        tune_config=lambda config, nbytes: config.evolve(
            allreduce_exchange_max=max(config.allreduce_exchange_max, nbytes)
        ),
        requires="message fits the exchange staging buffers (allreduce_exchange_max)",
    )
)
register_variant(
    Variant(
        op="allreduce",
        name="pipeline",
        description="concurrent reduce+broadcast four-stage pipeline (Fig. 5)",
        applicable=lambda env: True,
        cost=_allreduce_pipeline_cost,
    )
)
register_variant(
    Variant(
        op="allreduce",
        name="ring",
        description="hierarchical ring reduce-scatter + allgather over masters",
        # Needs one element per ring segment; reductions run on doubles
        # (§3), so require 8 bytes per participating node.
        applicable=lambda env: env.nodes > 1 and env.nbytes >= 8 * env.nodes,
        cost=_allreduce_ring_cost,
        requires=">1 node and >= one 8-byte element per ring segment",
    )
)


def _allgather_gather_bcast_cost(env: SelectionEnv) -> float:
    depth = _log2ceil(env.nodes)
    return 2 * depth * env.cost.wire_time(env.nbytes) + _smp_broadcast(
        env.cost, env.ppn, env.nbytes
    )


def _allgather_ring_cost(env: SelectionEnv) -> float:
    k = max(1, env.nodes)
    segment = env.nbytes / k
    return (k - 1) * env.cost.wire_time(segment) + _smp_broadcast(
        env.cost, env.ppn, env.nbytes
    )


register_variant(
    Variant(
        op="allgather",
        name="gather-bcast",
        description="gather to the group root composed with an SRM broadcast",
        applicable=lambda env: True,
        cost=_allgather_gather_bcast_cost,
    )
)
register_variant(
    Variant(
        op="allgather",
        name="ring",
        description="hierarchical master ring with shared-memory ends",
        applicable=lambda env: env.nodes > 1,
        cost=_allgather_ring_cost,
        tune_config=lambda config, nbytes: config.evolve(
            allgather_ring_min=min(config.allgather_ring_min, max(1, nbytes - 1))
        ),
        requires=">1 node (a single-node ring has no masters to rotate)",
    )
)


def _barrier_cost(env: SelectionEnv) -> float:
    # The flat flag barrier inside each node (check in, the master's scan,
    # its reset of ppn - 1 flags, the release), then one zero-byte put per
    # dissemination round between the masters.
    cost = env.cost
    smp = 0.0
    if env.ppn > 1:
        smp = env.ppn * cost.flag_set_cost + 2 * cost.flag_poll_interval
    return smp + _log2ceil(env.nodes) * _put(cost, 0)


register_variant(
    Variant(
        op="barrier",
        name="dissemination",
        description="flat SMP check-in + dissemination exchange",
        applicable=lambda env: True,
        cost=_barrier_cost,
    )
)


def _single_variant_cost(env: SelectionEnv) -> float:
    return _log2ceil(env.nodes) * env.cost.wire_time(env.nbytes)


for _op, _name, _desc in (
    ("scatter", "rma-direct", "registration puts + one direct put per block"),
    ("gather", "rma-direct", "epoch broadcast + one direct put per block"),
    ("alltoall", "rma-direct", "window barrier + size-1 direct puts per member"),
    ("scan", "chained", "SMP prefix chain + sequential inter-node base chain"),
):
    register_variant(
        Variant(
            op=_op,
            name=_name,
            description=_desc,
            applicable=lambda env: True,
            cost=_single_variant_cost,
        )
    )


def _tree_cost(rounds_of: typing.Callable[[int], float]) -> typing.Callable[[SelectionEnv], float]:
    def cost(env: SelectionEnv) -> float:
        return rounds_of(env.nodes) * env.cost.wire_time(env.nbytes)

    return cost


#: The §2.1 tree families, selectable per call site (inter-node tree and the
#: intra-node reduce tree).  The paper found binomial best on its platform;
#: a flat tree wins when the root can inject faster than the fan-out depth
#: costs, which is exactly what a tuned policy can measure.
for _tree_op in ("inter-tree", "intra-reduce-tree"):
    register_variant(
        Variant(
            op=_tree_op, name="binomial", description="binomial tree (§2.1 best)",
            applicable=lambda env: True,
            cost=_tree_cost(lambda k: _log2ceil(k)),
        )
    )
    register_variant(
        Variant(
            op=_tree_op, name="binary", description="complete binary tree",
            applicable=lambda env: True,
            cost=_tree_cost(lambda k: 2.0 * _log2ceil(k)),
        )
    )
    register_variant(
        Variant(
            op=_tree_op, name="fibonacci", description="postal-model λ-tree",
            applicable=lambda env: True,
            cost=_tree_cost(lambda k: 1.44 * _log2ceil(k)),
        )
    )
    register_variant(
        Variant(
            op=_tree_op, name="flat", description="root parents everyone",
            applicable=lambda env: True,
            cost=_tree_cost(lambda k: max(0, k - 1)),
        )
    )


def predict_terms(entry: Variant, env: SelectionEnv) -> tuple[dict[str, float], float]:
    """One variant's predicted cost, broken down per cost-model term.

    Evaluates ``entry``'s cost hook against the cost model's
    :meth:`~repro.machine.costmodel.CostModel.probe` — a facade whose
    primitives return single-term :class:`~repro.machine.costmodel.CostTerms`
    expressions instead of floats.  Because every registered hook builds
    its estimate from those primitives by sums, scalar multiples and
    ``max`` (a pipeline's slowest stage), the expression algebra carries
    each term's contribution symbolically: no hook changes, and the
    breakdown's total equals the plain-float estimate (asserted over the
    whole registry by ``tests/test_machine_costmodel.py``).

    Returns ``(terms, total)`` in **seconds**: ``terms`` maps term names
    (:data:`~repro.machine.costmodel.COST_TERMS`, plus ``"other"`` for any
    constant contributions) to their share of the estimate.
    """
    from repro.machine.costmodel import CostTerms

    probe_env = SelectionEnv(
        op=env.op, nbytes=env.nbytes, nodes=env.nodes, ppn=env.ppn,
        config=env.config, cost=env.cost.probe(),
    )
    estimate = CostTerms.coerce(entry.cost(probe_env))
    return estimate.as_dict(), estimate.total


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One resolved selection: the variant plus its derived execution plan."""

    op: str
    variant: str
    nbytes: int
    #: The chunking the chosen variant implies (empty for ops that manage
    #: their own segmentation, e.g. the ring allgather).
    chunks: tuple[tuple[int, int], ...] = ()
    #: Whether the §2.3 interrupt management applies under this variant.
    manage_interrupts: bool = False
    #: The policy that produced the decision (for traces and debugging).
    policy: str = "paper"
    #: True when the policy's first choice was structurally inapplicable and
    #: the dispatcher substituted the PaperPolicy selection.
    fallback: bool = False


def _tile(nbytes: int, chunk: int) -> tuple[tuple[int, int], ...]:
    if nbytes == 0:
        return ((0, 0),)
    return tuple(
        (offset, min(chunk, nbytes - offset)) for offset in range(0, nbytes, chunk)
    )


def derive_chunks(config: SRMConfig, op: str, variant_name: str, nbytes: int) -> tuple[tuple[int, int], ...]:
    """The chunk schedule a variant implies (mirrors ``SRMConfig.chunks``).

    Under :class:`PaperPolicy` this reproduces ``config.chunks(nbytes)``
    exactly; under other policies the chunking follows the *selected*
    variant, not the config thresholds (a "large" broadcast of 32 KB streams
    one 32 KB chunk, a "small" one moves it through the shared buffers).
    """
    if nbytes < 0:
        raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
    if op in ("broadcast", "reduce"):
        if variant_name == "small":
            return ((0, nbytes),)
        if variant_name == "pipelined":
            return _tile(nbytes, config.pipeline_chunk)
        return _tile(nbytes, config.large_chunk)
    if op == "allreduce" and variant_name == "pipeline":
        # The Fig. 5 pipeline shares its chunk schedule between its reduce
        # and broadcast stages; the schedule follows the message size the
        # way the standalone operations would chunk it.
        if nbytes <= config.pipeline_min:
            return ((0, nbytes),)
        chunk = config.large_chunk if config.is_large(nbytes) else config.pipeline_chunk
        return _tile(nbytes, chunk)
    return ()


def _manage_interrupts(config: SRMConfig, op: str, variant_name: str) -> bool:
    """§2.3 interrupt management: only polling (shared-buffer) protocols
    disable interrupts for the duration; the streamed/overlapped variants
    leave them on because their helper processes rely on arrival dispatch."""
    if not config.manage_interrupts:
        return False
    if op in ("broadcast", "reduce"):
        return variant_name != "large"
    if op == "allreduce":
        return variant_name == "exchange"
    if op == "barrier":
        return True
    return False


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class SelectionPolicy:
    """Picks one registered variant per ``(op, nbytes, nodes, ppn)`` call."""

    name = "base"

    def select(self, env: SelectionEnv) -> str:
        """Return the name of the variant to run (must be registered)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class PaperPolicy(SelectionPolicy):
    """The paper's §2.4 switch points, verbatim (the default policy).

    Reads only the four size thresholds of the config.  Selections are
    byte-for-byte identical to the pre-dispatch ``if``-chains (asserted
    across the whole bench grid by ``tests/test_dispatch.py``).
    """

    name = "paper"

    def select(self, env: SelectionEnv) -> str:
        config = env.config
        if env.op in ("broadcast", "reduce"):
            if env.nbytes <= config.pipeline_min:
                return "small"
            if env.nbytes <= config.small_protocol_max:
                return "pipelined"
            return "large"
        if env.op == "allreduce":
            if env.nbytes <= config.allreduce_exchange_max:
                return "exchange"
            return "pipeline"
        if env.op == "allgather":
            if env.nbytes > config.allgather_ring_min and env.nodes > 1:
                return "ring"
            return "gather-bcast"
        # Single-variant operations and the §2.1 tree families: the first
        # registered variant (binomial, the family §2.1 found best).
        return variants_for(env.op)[0].name


class CostModelPolicy(SelectionPolicy):
    """Pick the cheapest applicable variant by the registry's cost hooks.

    Analytic, no measurement: evaluates each variant's closed form over the
    machine's :class:`~repro.machine.costmodel.CostModel` and takes the
    argmin (ties break toward registration order).  For measured switch
    points use :class:`TunedPolicy`.
    """

    name = "costmodel"

    def select(self, env: SelectionEnv) -> str:
        candidates = [v for v in variants_for(env.op) if v.applicable(env)]
        if not candidates:
            raise ConfigurationError(
                f"no applicable variant for {env.op} at {env.nbytes} B"
            )
        return min(candidates, key=lambda v: v.cost(env)).name


class FixedPolicy(SelectionPolicy):
    """Force named variants per operation; everything else falls through.

    ``FixedPolicy({"allreduce": "ring"})`` is the tuner's probe and the
    ablation benchmarks' lever (``{"inter-tree": "fibonacci"}`` picks a
    tree family).  Unknown names raise at construction.
    """

    name = "fixed"

    def __init__(
        self,
        choices: typing.Mapping[str, str],
        fallback: SelectionPolicy | None = None,
    ) -> None:
        for op, name in choices.items():
            lookup_variant(op, name)  # fail fast on typos
        self.choices = dict(choices)
        self.fallback = fallback if fallback is not None else PaperPolicy()

    def select(self, env: SelectionEnv) -> str:
        chosen = self.choices.get(env.op)
        if chosen is not None:
            return chosen
        return self.fallback.select(env)


class TunedPolicy(SelectionPolicy):
    """Selections from a measured decision table (``python -m repro tune``).

    The table maps ``op -> nodes -> [[nbytes, variant], ...]`` (sizes
    ascending): the winner measured at each grid cell.  Lookup picks the
    nodes row with the nearest log2 node count, then the first grid size at
    or above the requested ``nbytes`` (the last row when the request exceeds
    the grid).  Operations absent from the table fall through to
    ``fallback`` (the paper policy by default), as does any tuned choice
    that is structurally inapplicable under the live config — the
    dispatcher enforces applicability on every decision.
    """

    name = "tuned"

    def __init__(
        self,
        document: typing.Mapping[str, typing.Any],
        fallback: SelectionPolicy | None = None,
    ) -> None:
        if document.get("kind") != TUNED_TABLE_KIND:
            raise ConfigurationError(
                f"not a {TUNED_TABLE_KIND} document (kind={document.get('kind')!r})"
            )
        version = document.get("schema_version")
        if version != TUNED_TABLE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"tuned-policy schema mismatch: document v{version}, this "
                f"tool speaks v{TUNED_TABLE_SCHEMA_VERSION} — re-run "
                f"'python -m repro tune'"
            )
        table = document.get("table")
        if not isinstance(table, dict) or not table:
            raise ConfigurationError("tuned-policy document has no decision table")
        for op, rows_by_nodes in table.items():
            for nodes_key, rows in rows_by_nodes.items():
                # Keys are stringified node counts (JSON); select() takes
                # their log2 and falls back to the last row of the list.
                if int(nodes_key) < 1:
                    raise ConfigurationError(
                        f"tuned table {op}@{nodes_key}: node count must be >= 1"
                    )
                if not rows:
                    raise ConfigurationError(f"tuned table {op}@{nodes_key}: no rows")
                for row in rows:
                    nbytes, name = row[0], row[1]
                    if nbytes < 0:
                        raise ConfigurationError(
                            f"tuned table {op}@{nodes_key}: negative size {nbytes}"
                        )
                    lookup_variant(op, name)
        self.document = dict(document)
        self.table: dict[str, dict[int, list[tuple[int, str]]]] = {
            op: {
                int(nodes_key): sorted((int(row[0]), str(row[1])) for row in rows)
                for nodes_key, rows in rows_by_nodes.items()
            }
            for op, rows_by_nodes in table.items()
        }
        self.fallback = fallback if fallback is not None else PaperPolicy()

    @classmethod
    def load(cls, path: str, fallback: SelectionPolicy | None = None) -> "TunedPolicy":
        """Load a decision table emitted by ``python -m repro tune``.

        Tables carry the cost-model identity fingerprint they were measured
        under; when it differs from this build's fingerprint the table's
        switch points are stale, so the load warns (naming both fingerprints
        and the file) instead of silently proceeding.
        """
        import json

        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        recorded = document.get("fingerprint")
        if recorded is not None:
            import warnings

            from repro.bench.export import bench_identity, identity_fingerprint

            identity = document.get("identity") or {}
            live = identity_fingerprint(
                bench_identity(tasks_per_node=identity.get("tasks_per_node", 16))
            )
            if live != recorded:
                warnings.warn(
                    f"tuned table {path!r} was measured under cost-model "
                    f"fingerprint {recorded} but this build fingerprints as "
                    f"{live}; its switch points may be stale — re-run "
                    f"'python -m repro tune'",
                    UserWarning,
                    stacklevel=2,
                )
        return cls(document, fallback=fallback)

    def select(self, env: SelectionEnv) -> str:
        rows_by_nodes = self.table.get(env.op)
        if not rows_by_nodes:
            return self.fallback.select(env)
        nodes = max(1, env.nodes)
        nearest = min(
            rows_by_nodes, key=lambda n: (abs(math.log2(n) - math.log2(nodes)), n)
        )
        rows = rows_by_nodes[nearest]
        for max_nbytes, name in rows:
            if env.nbytes <= max_nbytes:
                return name
        return rows[-1][1]


def resolve_variant(
    policy: SelectionPolicy, env: SelectionEnv
) -> tuple[Variant, Variant | None]:
    """The variant that runs when ``policy`` selects for ``env``.

    Returns ``(entry, overridden)``: the policy's pick with ``None`` when it
    is structurally applicable; otherwise the :class:`PaperPolicy` pick
    (``policy`` itself when it is one) and the inapplicable first choice.
    """
    entry = lookup_variant(env.op, policy.select(env))
    if entry.applicable(env):
        return entry, None
    paper = policy if isinstance(policy, PaperPolicy) else PaperPolicy()
    return lookup_variant(env.op, paper.select(env)), entry


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------


class Dispatcher:
    """Per-context decision point: policy + cache + observability.

    Selection is pure in ``(op, nbytes)`` once a context exists (the node
    count, per-node member counts, and config are fixed), so decisions are
    cached and the per-call overhead is one dict lookup plus a counter
    increment — the ``perf-gate`` CI job holds the regress gate to that.
    """

    def __init__(self, ctx: "SRMContext", policy: SelectionPolicy | None = None) -> None:
        # The context owns its dispatcher, which keeps the context's fixed
        # shape rather than the context itself.
        self._nodes = len(ctx.nodes)
        self._ppn = max(state.size for state in ctx.nodes.values())
        self._config = ctx.config
        self._cost = ctx.cost
        self._metrics = ctx.metrics
        self.policy = policy if policy is not None else PaperPolicy()
        self._cache: dict[tuple[str, int], tuple[Decision, typing.Any]] = {}
        self._fallbacks = self._metrics.counter(
            "dispatch.fallbacks", "policy choices overridden as inapplicable"
        )

    def env(self, op: str, nbytes: int) -> SelectionEnv:
        """The selection environment of this context for one call."""
        return SelectionEnv(
            op=op,
            nbytes=nbytes,
            nodes=self._nodes,
            ppn=self._ppn,
            config=self._config,
            cost=self._cost,
        )

    def decide(self, op: str, nbytes: int, task: typing.Any = None) -> Decision:
        """Resolve (and record) the variant for one collective call."""
        key = (op, nbytes)
        cached = self._cache.get(key)
        if cached is not None:
            decision, counter = cached
            counter.inc()
            return decision

        env = self.env(op, nbytes)
        entry, overridden = resolve_variant(self.policy, env)
        chosen = entry.name
        if overridden is not None:
            self._fallbacks.inc()
        decision = Decision(
            op=op,
            variant=chosen,
            nbytes=nbytes,
            chunks=derive_chunks(env.config, op, chosen, nbytes),
            manage_interrupts=_manage_interrupts(env.config, op, chosen),
            policy=self.policy.name,
            fallback=overridden is not None,
        )
        counter = self._metrics.counter(
            f"dispatch.{op}.{chosen}", f"calls dispatched to the {chosen} {op}"
        )
        counter.inc()
        # Mark each *distinct* decision once in the trace: a zero-duration
        # span whose detail names the selection — and, on fallback, the
        # overridden choice with its inapplicability reason — so exports and
        # the profiler show which protocol ran without perturbing attribution.
        if task is not None:
            detail = f"{op}/{chosen}:{nbytes}B"
            if overridden is not None:
                reason = overridden.requires or "structurally inapplicable"
                detail += f" <- {overridden.name} inapplicable: {reason}"
            with task.phase(DISPATCH, detail=detail):
                pass
        self._cache[key] = (decision, counter)
        return decision

    def tree_family(self, op: str) -> str:
        """The tree family a plan should use (``inter-tree`` /
        ``intra-reduce-tree``), resolved through the policy."""
        return self.decide(op, 0).variant

    def __repr__(self) -> str:
        return f"<Dispatcher policy={self.policy.name} decisions={len(self._cache)}>"
