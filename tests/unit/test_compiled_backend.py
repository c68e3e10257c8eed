"""Unit tests for the compiled (C extension) event core and backend seam.

The oracle-parity tests run only when ``repro.sim._ckernel`` is built
(``make ext``); the backend-registry validation tests run everywhere,
including on extension-less hosts — that fallback leg is itself part of
the contract.
"""

import logging
import pickle

import pytest

from repro.config.system import SimConfig, SystemConfig
from repro.sim import compiled as compiled_mod
from repro.sim.backends import (
    BACKEND_ENV,
    ConfigError,
    available_backends,
    build_engine,
    resolve_backend,
)
from repro.sim.compiled import CompiledEngine, CompiledQueue, is_available
from repro.sim.engine import Engine, SimulationError, SimulationStall
from repro.sim.event import Event, EventQueue

needs_ckernel = pytest.mark.skipif(
    not is_available(), reason="repro.sim._ckernel extension not built"
)


def _noop():
    pass


def _tick(engine, i):
    """Module-level (hence picklable) self-rescheduling callback."""
    engine.trace.append((engine.now, i))
    if i < 6:
        engine.post(1.5, _tick, engine, i + 1)


# ----------------------------------------------------------------------
# Queue parity with the heap oracle
# ----------------------------------------------------------------------

@needs_ckernel
def test_compiled_pops_in_time_priority_seq_order():
    q = CompiledQueue()
    q.push(Event(5.0, _noop))
    q.push(Event(1.0, _noop, priority=1))
    q.push(Event(1.0, _noop))
    q.push(Event(1.0, _noop, priority=-1))
    keys = []
    while True:
        event = q.pop()
        if event is None:
            break
        keys.append((event.time, event.priority))
    assert keys == [(1.0, -1), (1.0, 0), (1.0, 1), (5.0, 0)]


@needs_ckernel
def test_compiled_ties_break_by_insertion_seq():
    q = CompiledQueue()
    oracle = EventQueue()
    for i in range(20):
        q.push_entry(1.0, 0, _noop, (i,))
        oracle.push_entry(1.0, 0, _noop, (i,))
    got = [q.pop().args[0] for _ in range(20)]
    want = [oracle.pop().args[0] for _ in range(20)]
    assert got == want == list(range(20))


@needs_ckernel
def test_compiled_cancel_skips_and_len_counts_live():
    q = CompiledQueue()
    keep = q.push(Event(1.0, _noop))
    drop = q.push(Event(0.5, _noop))
    drop.cancel()
    assert len(q) == 1
    assert q.peek_time() == 1.0
    assert q.pop() is keep
    assert q.pop() is None


@needs_ckernel
def test_compiled_time_objects_preserved():
    """Integer times stay ints: the engine clock must not drift to float."""
    q = CompiledQueue()
    q.push_entry(3, 0, _noop, ())
    event = q.pop()
    assert event.time == 3 and type(event.time) is int


@needs_ckernel
def test_compiled_heavy_cancellation_compacts():
    """Cancelled-entry bookkeeping matches the oracle's lazy compaction:
    the cancelled counter is driven back down instead of growing without
    bound under cancel-heavy traffic."""
    from repro.sim.event import _COMPACT_LIMIT

    q = CompiledQueue()
    live = 100
    for i in range(live):
        q.push(Event(1e9 + i, _noop))
    for i in range(3 * _COMPACT_LIMIT):
        q.push(Event(float(i), _noop)).cancel()
        assert q._cancelled <= max(q._live, _COMPACT_LIMIT) + 1
    assert len(q) == live


@needs_ckernel
def test_compiled_snapshot_matches_oracle():
    def build(q):
        q.push(Event(2.0, _noop, (1,)))
        q.push_entry(1.0, 0, _noop, (2,))
        q.push_entry(1.0, -1, _noop, (3,))
        q.push(Event(0.5, _noop, (4,))).cancel()
        q._sched(1.0, 1.0, _noop, (5,))

    cq, oq = CompiledQueue(), EventQueue()
    build(cq)
    build(oq)
    got = [(e.time, e.priority, e.seq, e.args) for e in cq.snapshot()]
    want = [(e.time, e.priority, e.seq, e.args) for e in oq.snapshot()]
    assert got == want


@needs_ckernel
def test_compiled_sched_pops_like_the_heap():
    """The access path's one scheduling call: the C ``_sched`` clamps and
    routes exactly like ``EventQueue._sched``, so pop order, seq stamps
    and time objects agree (clamped entries carry ``now`` itself)."""
    def drive(q):
        popped = []
        now = 0
        for step, (rel, delta) in enumerate(
            [(">", 5), ("==", 0), ("<", 3), (">", 2.5), ("==", 0), ("<", 1),
             (">", 5), (">", 0.5)]
        ):
            time = {"<": now - delta, "==": float(now), ">": now + delta}[rel]
            q._sched(now, time, _noop, (step,))
            if step % 3 == 2:
                event = q.pop()
                popped.append(event)
                now = event.time
        while len(q):
            popped.append(q.pop())
        return [(e.time, type(e.time), e.priority, e.seq, e.args)
                for e in popped]

    assert drive(CompiledQueue()) == drive(EventQueue())


# ----------------------------------------------------------------------
# Pickling / snapshot state
# ----------------------------------------------------------------------

@needs_ckernel
def test_compiled_queue_pickle_round_trip():
    q = CompiledQueue()
    handle = q.push(Event(2.0, _noop, (1,)))
    q.push_entry(1.0, 0, _noop, (2,))
    q.push_entry(3.0, -1, _noop, (3,))
    handle.cancel()
    restored = pickle.loads(pickle.dumps(q))
    assert type(restored) is CompiledQueue
    assert len(restored) == 2
    assert [e.args[0] for e in (restored.pop(), restored.pop())] == [2, 3]
    assert restored.pop() is None


@needs_ckernel
def test_compiled_getstate_is_oracle_layout():
    """One state format for every backend: the compiled queue captures
    in the exact ``EventQueue.__getstate__`` layout, so a snapshot can
    rebuild either class."""
    q = CompiledQueue()
    q.push(Event(1.0, _noop))
    state = q.__getstate__()
    assert sorted(state) == sorted(
        ["_heap", "_lane", "_seq", "_live", "_cancelled", "_pool"]
    )
    assert state["_pool"] == []

    fallback = EventQueue.__new__(EventQueue)
    fallback.__setstate__(state)
    assert len(fallback) == 1
    assert fallback.pop().time == 1.0


@needs_ckernel
def test_compiled_engine_pickle_requires_pause():
    engine = CompiledEngine()

    def reentrant():
        with pytest.raises(SimulationError, match="running engine"):
            pickle.dumps(engine)

    engine.post(1.0, reentrant)
    engine.run()


@needs_ckernel
def test_compiled_engine_restores_onto_heap_when_unavailable(
    monkeypatch, caplog
):
    """A snapshot taken under the compiled backend restores on an
    extension-less host as the pure-Python heap engine — with a logged
    warning, and byte-identical behaviour from the pause point on."""
    compiled_engine = CompiledEngine()
    compiled_engine.trace = []
    compiled_engine.post(0.5, _tick, compiled_engine, 0)
    compiled_engine.run(until=3.0)
    blob = pickle.dumps(compiled_engine)

    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    with caplog.at_level(logging.WARNING, logger="repro.sim.compiled"):
        restored = pickle.loads(blob)
    assert type(restored) is Engine
    assert type(restored._queue) is EventQueue
    assert any("pure-Python heap" in r.message for r in caplog.records)

    # The prefix trace travelled with the snapshot; continue to the end.
    assert restored.trace == compiled_engine.trace
    restored.run()

    # Oracle reference: the same program run uninterrupted on the heap.
    heap_engine = Engine()
    heap_engine.trace = []
    heap_engine.post(0.5, _tick, heap_engine, 0)
    heap_engine.run()
    assert restored.trace == heap_engine.trace
    assert restored.now == heap_engine.now
    assert restored.events_executed == heap_engine.events_executed


@needs_ckernel
def test_mid_run_machine_snapshot_restores_onto_heap(monkeypatch):
    """A whole machine paused mid-run under ``compiled`` forks onto the
    heap engine on an extension-less host and finishes byte-identically:
    the access path's bound ``_sched`` resolves on either queue."""
    from repro.config.presets import tiny_system
    from repro.harness.io import result_to_dict
    from repro.harness.runner import harvest_result, prepare_run, run_workload

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    config = tiny_system(2).with_engine_backend("compiled")
    machine, built, kernels = prepare_run(
        "MT", policy="griffin", config=config, scale=0.008, seed=5
    )
    machine.start(kernels)
    machine.run_until(machine.hyper.migration_period // 2)
    snap = machine.snapshot()

    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    forked = snap.fork()
    assert type(forked.engine._queue) is EventQueue
    forked.finish()
    heap_run = run_workload("MT", "griffin", config=tiny_system(2),
                            scale=0.008, seed=5)
    assert result_to_dict(harvest_result(forked, built)) == result_to_dict(
        heap_run
    )


# ----------------------------------------------------------------------
# Engine error-message parity
# ----------------------------------------------------------------------

@needs_ckernel
@pytest.mark.parametrize("call", ["schedule", "schedule_at", "post", "post_at"])
def test_compiled_rejects_past_with_oracle_message(call):
    heap, comp = Engine(), CompiledEngine()
    for engine in (heap, comp):
        engine.post(10.0, _noop)
        engine.run()
        assert engine.now == 10.0
    errors = {}
    for name, engine in (("heap", heap), ("compiled", comp)):
        with pytest.raises(SimulationError) as exc:
            if call in ("schedule", "post"):
                getattr(engine, call)(-1.0, _noop)
            else:
                getattr(engine, call)(5.0, _noop)
        errors[name] = str(exc.value)
    assert errors["heap"] == errors["compiled"]


@needs_ckernel
def test_compiled_rejected_post_still_consumes_seq():
    """Like the oracle, a rejected post burns a sequence number, so the
    tie-break ordering of every later event matches exactly."""
    def burn(engine):
        with pytest.raises(SimulationError):
            engine.post(-1.0, _noop)
        engine.post(1.0, _noop)

    heap, comp = Engine(), CompiledEngine()
    burn(heap)
    burn(comp)
    assert comp._queue.pop().seq == heap._queue.pop().seq


@needs_ckernel
def test_compiled_stall_error_matches_oracle():
    def build(engine):
        def spin():
            engine.post(0.0, spin)
        engine.post(1.0, spin)

    messages = {}
    for name, engine in (("heap", Engine()), ("compiled", CompiledEngine())):
        build(engine)
        with pytest.raises(SimulationStall) as exc:
            engine.run(stall_threshold=50)
        messages[name] = (str(exc.value), exc.value.diagnostics)
    assert messages["heap"] == messages["compiled"]


@needs_ckernel
def test_compiled_budget_error_matches_oracle():
    def build(engine):
        def tick():
            engine.post(1.0, tick)
        engine.post(1.0, tick)

    messages = {}
    for name, engine in (("heap", Engine()), ("compiled", CompiledEngine())):
        build(engine)
        with pytest.raises(SimulationStall) as exc:
            engine.run(max_events=5, strict_budget=True)
        messages[name] = (str(exc.value), exc.value.diagnostics)
        assert engine.exhausted
        assert engine.events_executed == 5
    assert messages["heap"] == messages["compiled"]


@needs_ckernel
def test_compiled_run_parks_clock_at_bound():
    heap, comp = Engine(), CompiledEngine()
    for engine in (heap, comp):
        engine.post(1.0, _noop)
        engine.post(10.0, _noop)
        engine.run(until=4)
    assert comp.now == heap.now == 4
    assert len(comp._queue) == len(heap._queue) == 1


# ----------------------------------------------------------------------
# Backend registry validation (runs on extension-less hosts too)
# ----------------------------------------------------------------------

def test_resolve_backend_unknown_name_is_config_error(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(ConfigError, match="unknown engine backend"):
        resolve_backend("bogus")
    with pytest.raises(ConfigError, match="heap, compiled"):
        resolve_backend("bogus")
    # The dual inheritance existing callers rely on.
    assert issubclass(ConfigError, SimulationError)
    assert issubclass(ConfigError, ValueError)


def test_resolve_backend_env_override_validated(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    with pytest.raises(ConfigError, match="bogus"):
        resolve_backend("heap")


def test_resolve_compiled_without_extension_names_alternatives(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    assert available_backends() == ("heap",)
    with pytest.raises(ConfigError, match="not built") as exc:
        resolve_backend("compiled")
    assert "available backends: heap" in str(exc.value)
    # ...and via the env override, same eager refusal.
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    with pytest.raises(ConfigError, match="make ext"):
        resolve_backend("heap")


def test_sim_config_accepts_compiled_name(monkeypatch):
    """Name validity is checked at config time; extension availability
    only at engine-build time — so a config naming ``compiled`` can be
    constructed (and shipped to a build host) anywhere."""
    monkeypatch.setattr(compiled_mod, "_ckernel", None)
    assert SimConfig(engine_backend="compiled").engine_backend == "compiled"
    with pytest.raises(ConfigError):
        SimConfig(engine_backend="bogus")


@needs_ckernel
def test_build_engine_compiled_type(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend("compiled") == "compiled"
    assert type(build_engine("compiled")) is CompiledEngine


def test_with_engine_backend_compiled():
    config = SystemConfig(num_gpus=2)
    compiled = config.with_engine_backend("compiled")
    assert compiled.sim.engine_backend == "compiled"
    assert config.sim.engine_backend == "heap"
