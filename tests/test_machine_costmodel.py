"""Unit tests for the cost model, eager-limit table, and term breakdown."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.machine import COST_TERMS, CostModel, CostTerms, EagerLimitTable

KB = 1024


def test_default_eager_limit_shrinks_with_task_count():
    # The §2.3 behaviour: larger jobs get a smaller eager limit.
    model = CostModel.ibm_sp_colony()
    limits = [model.eager_limit(tasks) for tasks in (16, 32, 64, 128, 256)]
    assert limits == sorted(limits, reverse=True)
    assert limits[0] == 32 * KB
    assert limits[-1] == 4 * KB


def test_eager_limit_also_capped_by_pool():
    model = CostModel.ibm_sp_colony().evolve(eager_pool_bytes=64 * KB)
    # 256 peers on a 64 KB pool -> 256 B per peer beats the 4 KB table floor.
    assert model.eager_limit(257) == 64 * KB // 256


def test_fixed_table_is_task_count_independent():
    table = EagerLimitTable.fixed(16 * KB)
    assert table.limit_for(2) == table.limit_for(10_000) == 16 * KB


def test_single_task_uses_table_limit():
    model = CostModel.ibm_sp_colony()
    assert model.eager_limit(1) == 32 * KB


def test_copy_reduce_wire_time_shapes():
    model = CostModel.ibm_sp_colony()
    assert model.copy_time(0) == pytest.approx(model.sm_copy_latency)
    assert model.copy_time(2**20) > model.copy_time(2**10)
    assert model.wire_time(0) == pytest.approx(model.net_latency)
    # The core premise: an intra-node copy is much cheaper than a wire hop.
    assert model.copy_time(1024) < model.wire_time(1024) / 5
    # Reduce streams slower than plain copy (two reads + a write + ALU).
    assert model.reduce_time(2**20) > model.copy_time(2**20)


def test_evolve_returns_modified_copy():
    base = CostModel.ibm_sp_colony()
    faster = base.evolve(net_latency=1e-6)
    assert faster.net_latency == 1e-6
    assert base.net_latency != 1e-6
    assert faster.net_bandwidth == base.net_bandwidth


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        CostModel(net_bandwidth=0)
    with pytest.raises(ConfigurationError):
        CostModel(net_latency=-1)
    with pytest.raises(ConfigurationError):
        CostModel(spin_yield_threshold=0)
    with pytest.raises(ConfigurationError):
        CostModel(eager_pool_bytes=-1)


NUMERIC_FIELDS = [
    entry.name for entry in dataclasses.fields(CostModel) if entry.name != "eager_limits"
]


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_validation_rejects_non_finite_values(name):
    # NaN slips past every range check (all comparisons are false); a NaN
    # copy bandwidth used to hang a 1 KB SRM broadcast.
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError, match=name):
            CostModel(**{name: value})


def test_zero_still_switches_daemon_noise_off():
    assert CostModel(daemon_interval=0.0).daemon_interval == 0.0


def test_presets_are_valid_and_distinct():
    colony = CostModel.ibm_sp_colony()
    commodity = CostModel.commodity_cluster()
    fat = CostModel.fat_smp()
    assert commodity.net_latency > colony.net_latency
    assert fat.memory_bus_bandwidth > colony.memory_bus_bandwidth


# ---------------------------------------------------------------------------
# cost terms + the breakdown probe
# ---------------------------------------------------------------------------


def test_cost_terms_algebra():
    a = CostTerms({"copy": 1.0, "wire": 2.0})
    b = CostTerms({"wire": 3.0, "reduce": 0.5})
    merged = a + b
    assert merged.as_dict() == {"copy": 1.0, "reduce": 0.5, "wire": 5.0}
    scaled = 3 * a
    assert scaled.as_dict() == {"copy": 3.0, "wire": 6.0}
    # Scalars fold into the catch-all "other" bucket; 0 + terms is identity
    # (so sum() works over CostTerms).
    assert (a + 1.5).as_dict()["other"] == 1.5
    assert sum([a, b]).total == pytest.approx(a.total + b.total)
    assert float(merged) == pytest.approx(6.5)
    assert a < b  # totals: 3.0 < 3.5
    assert b > a
    assert CostTerms.coerce(0).as_dict() == {}
    assert CostTerms.coerce(2.0).as_dict() == {"other": 2.0}
    assert CostTerms.coerce(a) is a


def test_probe_primitives_return_single_terms():
    model = CostModel.ibm_sp_colony()
    probe = model.probe()
    assert probe.copy_time(KB).as_dict() == {"copy": model.copy_time(KB)}
    assert probe.wire_time(KB).as_dict() == {"wire": model.wire_time(KB)}
    assert probe.reduce_time(KB).as_dict() == {"reduce": model.reduce_time(KB)}
    # Non-primitive attributes pass through to the wrapped model.
    assert probe.net_latency == model.net_latency
    assert set(COST_TERMS) == {"copy", "wire", "reduce", "eager"}


def test_eager_time_is_zero_below_the_limit():
    model = CostModel.ibm_sp_colony()
    limit = model.eager_limit(16)
    assert model.eager_time(limit, 16) == 0.0
    penalty = model.eager_time(limit + 1, 16)
    assert penalty == pytest.approx(
        2 * (model.rendezvous_control_cost + model.net_latency)
    )
    probed = model.probe().eager_time(limit + 1, 16)
    assert probed.as_dict() == {"eager": penalty}


def test_probe_breakdown_totals_match_plain_estimates_for_every_variant():
    # The invariant predict_terms rests on: every registered cost hook is
    # built from the model primitives by sums, scalar multiples and max, so
    # evaluating it against the probe yields the same total as evaluating it
    # against the model.
    from repro.core import SRMConfig
    from repro.core.dispatch import (
        SelectionEnv,
        predict_terms,
        registered_ops,
        variants_for,
    )

    model = CostModel.ibm_sp_colony()
    config = SRMConfig()
    checked = 0
    for op in registered_ops():
        for entry in variants_for(op):
            for nbytes in (0, 1, 8 * KB, 64 * KB + 1, 2**20):
                # One task per node skips the SMP stages; three nodes fold
                # the exchange allreduce's excess master.
                for nodes in (1, 2, 3, 16):
                    for ppn in (1, 16):
                        env = SelectionEnv(
                            op=op, nbytes=nbytes, nodes=nodes, ppn=ppn,
                            config=config, cost=model,
                        )
                        terms, total = predict_terms(entry, env)
                        assert total == pytest.approx(entry.cost(env), rel=1e-12)
                        assert total == pytest.approx(sum(terms.values()), rel=1e-12)
                        assert set(terms) <= set(COST_TERMS) | {"other"}
                        checked += 1
    assert checked > 100


#: Every latency and per-message overhead of the cost model: with these at
#: zero, only byte-proportional time is left.
_PER_MESSAGE_FIELDS = (
    "sm_copy_latency", "flag_set_cost", "flag_poll_interval", "yield_cost",
    "net_latency", "rma_origin_overhead", "rma_target_overhead",
    "counter_update_cost", "interrupt_cost", "mpi_send_overhead",
    "mpi_recv_overhead", "mpi_unexpected_overhead", "mpi_blocked_recv_wakeup",
    "mpi_shm_wakeup", "rendezvous_control_cost",
)


@pytest.mark.parametrize("op", ["broadcast", "reduce", "allreduce", "barrier"])
def test_srm_hooks_put_only_per_message_constants_in_other(op):
    # Byte time must reach calibrate's copy, wire and reduce columns: a hook
    # that divides bytes by a bandwidth itself would park it in ``other``.
    from repro.core import SRMConfig
    from repro.core.dispatch import SelectionEnv, predict_terms, variants_for

    model = CostModel.ibm_sp_colony().evolve(
        **{name: 0.0 for name in _PER_MESSAGE_FIELDS}
    )
    for entry in variants_for(op):
        for nbytes in (0, 64, 4 * KB, 64 * KB, 64 * KB + 8, 2**20):
            for nodes in (1, 3, 4, 16):
                for ppn in (1, 16):
                    env = SelectionEnv(
                        op=op, nbytes=nbytes, nodes=nodes, ppn=ppn,
                        config=SRMConfig(), cost=model,
                    )
                    terms, _total = predict_terms(entry, env)
                    assert terms.get("other", 0.0) == 0.0, (entry, nbytes, nodes, ppn, terms)


def test_every_reduce_variant_prices_its_operator_passes():
    from repro.core import SRMConfig
    from repro.core.dispatch import SelectionEnv, predict_terms, variants_for

    env = SelectionEnv(
        op="reduce", nbytes=64 * KB, nodes=4, ppn=16,
        config=SRMConfig(), cost=CostModel.ibm_sp_colony(),
    )
    for entry in variants_for("reduce"):
        terms, _total = predict_terms(entry, env)
        assert terms.get("reduce", 0.0) > 0, (entry, terms)
