"""Unit tests for events, conditions, and process semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.events import Chain


class Boom(Exception):
    pass


def test_event_triggers_once():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(Boom())


def test_event_value_before_trigger_raises():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_fail_requires_exception_instance():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failed_event_crashes_run():
    engine = Engine()
    engine.event().fail(Boom("nobody caught me"))
    with pytest.raises(Boom):
        engine.run()


def test_defused_failed_event_is_silent():
    engine = Engine()
    event = engine.event()
    event.fail(Boom())
    event.defuse()
    engine.run()  # must not raise


def test_process_receives_event_value():
    engine = Engine()
    received = []

    def program():
        value = yield engine.timeout(1.0, value="payload")
        received.append(value)

    engine.run(until=engine.process(program()))
    assert received == ["payload"]


def test_process_exception_thrown_at_yield_point():
    engine = Engine()
    event = engine.event()
    caught = []

    def failer():
        yield engine.timeout(1.0)
        event.fail(Boom("kapow"))

    def waiter():
        try:
            yield event
        except Boom as exc:
            caught.append(str(exc))

    engine.process(failer())
    engine.run(until=engine.process(waiter()))
    assert caught == ["kapow"]


def test_process_join_returns_child_value():
    engine = Engine()

    def child():
        yield engine.timeout(2.0)
        return "child-result"

    def parent():
        result = yield engine.process(child())
        return result

    assert engine.run(until=engine.process(parent())) == "child-result"


def test_process_failure_propagates_to_joiner():
    engine = Engine()

    def child():
        yield engine.timeout(1.0)
        raise Boom("from child")

    def parent():
        with pytest.raises(Boom):
            yield engine.process(child())
        return "handled"

    assert engine.run(until=engine.process(parent())) == "handled"


def test_unjoined_process_failure_crashes_run():
    engine = Engine()

    def child():
        yield engine.timeout(1.0)
        raise Boom()

    engine.process(child())
    with pytest.raises(Boom):
        engine.run()


def test_yielding_non_event_fails_process():
    engine = Engine()

    def bad():
        yield 42  # type: ignore[misc]

    process = engine.process(bad())
    with pytest.raises(SimulationError):
        engine.run(until=process)


def test_process_requires_generator():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.process(lambda: None)  # type: ignore[arg-type]


def test_subgenerator_composition_with_yield_from():
    engine = Engine()

    def inner(duration):
        yield engine.timeout(duration)
        return duration * 2

    def outer():
        first = yield from inner(1.0)
        second = yield from inner(2.0)
        return first + second

    assert engine.run(until=engine.process(outer())) == 6.0
    assert engine.now == 3.0


def test_all_of_collects_values_in_order():
    engine = Engine()
    condition = engine.all_of(
        [engine.timeout(3.0, value="c"), engine.timeout(1.0, value="a"), engine.timeout(2.0, value="b")]
    )
    assert engine.run(until=condition) == ["c", "a", "b"]
    assert engine.now == 3.0


def test_all_of_empty_fires_immediately():
    engine = Engine()
    condition = engine.all_of([])
    engine.run(until=condition)
    assert engine.now == 0.0


def test_all_of_fails_fast_on_child_failure():
    engine = Engine()
    bad = engine.event()
    bad.fail(Boom(), delay=1.0)
    condition = engine.all_of([engine.timeout(10.0), bad])
    with pytest.raises(Boom):
        engine.run(until=condition)
    assert engine.now == 1.0


def test_any_of_returns_first_index_and_value():
    engine = Engine()
    condition = engine.any_of([engine.timeout(5.0, value="slow"), engine.timeout(1.0, value="fast")])
    assert engine.run(until=condition) == (1, "fast")
    assert engine.now == 1.0


def test_any_of_empty_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.any_of([])


def test_condition_rejects_cross_engine_events():
    one, two = Engine(), Engine()
    with pytest.raises(SimulationError):
        one.all_of([two.timeout(1.0)])


def test_callback_on_processed_event_rejected():
    engine = Engine()
    timer = engine.timeout(1.0)
    engine.run()
    with pytest.raises(SimulationError):
        timer.add_callback(lambda e: None)


def test_callbacks_property_reflects_lazy_storage():
    engine = Engine()
    event = engine.event()
    assert event.callbacks == []
    first, second, third = (lambda e: None), (lambda e: None), (lambda e: None)
    event.add_callback(first)
    assert event.callbacks == [first]
    event.add_callback(second)
    event.add_callback(third)
    assert event.callbacks == [first, second, third]
    event.callbacks.append("intruder")  # snapshots are detached copies
    assert event.callbacks == [first, second, third]
    event.succeed()
    engine.run()
    assert event.callbacks is None  # matches the processed-event contract


def test_all_callbacks_run_in_add_order():
    engine = Engine()
    seen = []
    timer = engine.timeout(1.0)
    for tag in range(4):  # exercises the _cb0 slot plus the overflow list
        timer.add_callback(lambda e, tag=tag: seen.append(tag))
    engine.run()
    assert seen == [0, 1, 2, 3]


def test_any_of_duplicate_event_reports_first_index():
    engine = Engine()
    timer = engine.timeout(1.0, value="x")
    condition = engine.any_of([timer, timer])
    assert engine.run(until=condition) == (0, "x")


def test_process_waiting_on_introspection():
    engine = Engine()
    gate = engine.event()

    def program():
        yield gate

    process = engine.process(program())
    engine.run(until=1.0)
    assert process.waiting_on is gate
    assert process.is_alive
    gate.succeed()
    engine.run()
    assert not process.is_alive


# ---------------------------------------------------------------------------
# Chained waits
# ---------------------------------------------------------------------------


def test_chain_fires_delay_after_source_with_its_value():
    engine = Engine()
    source = engine.event(name="flag:x")
    seen = []

    def waiter():
        value = yield Chain(source, lambda: 2.0)
        seen.append((engine.now, value))

    def writer():
        yield engine.timeout(1.0)
        source.succeed("set")

    engine.process(waiter())
    engine.process(writer())
    engine.run()
    assert seen == [(3.0, "set")]


def test_chain_keeps_the_order_of_the_timeout_it_replaces():
    # A waiter that resumes at the source and then sleeps, and one that
    # yields a chain, must interleave with a same-instant rival identically:
    # the chain takes its sequence number where the sleep's timeout did.
    def run(chained):
        engine = Engine()
        source = engine.event()
        order = []

        def waiter():
            if chained:
                yield Chain(source, lambda: 1.0)
            else:
                yield source
                yield engine.timeout(1.0)
            order.append("waiter")

        def rival():
            source.succeed()
            yield engine.timeout(1.0)
            order.append("rival")

        def late_rival():
            yield engine.timeout(0.0)
            yield engine.timeout(1.0)
            order.append("late-rival")

        engine.process(waiter())
        engine.process(rival())
        engine.process(late_rival())
        engine.run()
        return order, engine.events_processed

    assert run(chained=True) == run(chained=False)


def test_chain_fails_at_once_with_its_source():
    engine = Engine()
    source = engine.event()
    caught = []

    def waiter():
        try:
            yield Chain(source, lambda: 5.0)
        except Boom:
            caught.append(engine.now)

    engine.process(waiter())
    source.fail(Boom(), delay=1.0)
    engine.run()
    assert caught == [1.0]


def test_chain_reports_as_its_source_until_the_source_fires():
    engine = Engine()
    source = engine.all_of([engine.event(name="a")])
    chain = Chain(source, lambda: 1.0)
    assert repr(chain) == repr(source)
    assert chain.name is None
    named = Chain(engine.event(name="flag:x"), lambda: 1.0)
    assert named.name == "flag:x"
    assert "flag:x" in repr(named)
