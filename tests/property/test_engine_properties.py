"""Property-based tests for engine/event-queue ordering invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.event import Event, EventQueue
from repro.sim.resource import SlotResource, ThroughputResource

times = st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=100)


@given(times)
@settings(max_examples=60)
def test_events_pop_in_nondecreasing_time_order(ts):
    q = EventQueue()
    for t in ts:
        q.push(Event(t, lambda: None))
    popped = []
    while True:
        e = q.pop()
        if e is None:
            break
        popped.append(e.time)
    assert popped == sorted(popped)


@given(times)
@settings(max_examples=60)
def test_engine_clock_is_monotone(ts):
    engine = Engine()
    observed = []
    for t in ts:
        engine.schedule(t, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.integers(min_value=1, max_value=10_000),
), max_size=80))
@settings(max_examples=60)
def test_throughput_resource_never_overlaps_jobs(jobs):
    pipe = ThroughputResource("p", 32.0)
    last_finish = 0.0
    for now, size in sorted(jobs):
        finish = pipe.acquire(now, size)
        start = finish - size / 32.0
        assert start >= last_finish - 1e-6
        assert start >= now - 1e-6
        last_finish = finish


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.integers(min_value=1, max_value=1000),
), max_size=80), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_slot_resource_bounded_concurrency(jobs, slots):
    res = SlotResource("s", slots)
    intervals = []
    for now, duration in sorted(jobs):
        finish = res.acquire(now, duration)
        intervals.append((finish - duration, finish))
    # At any job start, at most `slots` jobs overlap (1e-3 tolerance for
    # float round-trip of start = finish - duration; durations are >= 1).
    eps = 1e-3
    for start, _ in intervals:
        probe = start + eps
        overlapping = sum(1 for s, f in intervals if s <= probe < f)
        assert overlapping <= slots


def _noop(*args):
    pass


def _inlined_sched(q, now, time, callback, args):
    """The access path's former hand-inlined scheduling branch.

    Kept as the oracle for :meth:`EventQueue._sched`, which replaced its
    copies at every scheduling site.
    """
    seq = q._seq
    q._seq = seq + 1
    pool = q._pool
    if pool:
        entry = pool.pop()
        entry[0] = time if time > now else now
        entry[1] = 0
        entry[2] = seq
        entry[3] = callback
        entry[4] = args
    else:
        entry = [time if time > now else now, 0, seq, callback, args, None]
    if time <= now:
        q._lane.append(entry)
    else:
        heapq.heappush(q._heap, entry)
    q._live += 1


def _queue_state(q):
    """Everything _sched may touch; times carry their type (clamped
    entries must hold the ``now`` object itself)."""
    def entries(store):
        return [(type(e[0]), e) for e in store]

    return (entries(q._heap), entries(q._lane), q._seq, q._live,
            len(q._pool))


_sched_ops = st.lists(
    st.one_of(
        st.just(("pop",)),
        st.tuples(
            st.just("sched"),
            st.sampled_from(["<", "==", ">"]),
            st.one_of(st.integers(min_value=1, max_value=50),
                      st.floats(min_value=0.5, max_value=50.0)),
        ),
    ),
    max_size=60,
)


@given(st.integers(min_value=0, max_value=8), _sched_ops)
@settings(max_examples=150)
def test_sched_matches_the_inlined_branch(pooled, ops):
    """``EventQueue._sched`` leaves the heap, lane, seq, live count and
    pop order exactly as the inlined branch did — for times before, at
    and after ``now``, with an empty and a non-empty entry pool."""
    new, old = EventQueue(), EventQueue()
    for q in (new, old):
        # Recycled entries make the pool non-empty (when pooled > 0).
        for _ in range(pooled):
            q.push_entry(0, 0, _noop, ())
        while q.pop() is not None:
            pass
    now = 0
    for n, op in enumerate(ops):
        if op[0] == "pop":
            a, b = new.pop(), old.pop()
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.time, a.priority, a.seq, a.args) == (
                    b.time, b.priority, b.seq, b.args)
                assert type(a.time) is type(b.time)
                now = a.time  # the engine's clock follows the pops
        else:
            _, rel, delta = op
            time = {"<": now - delta, "==": float(now), ">": now + delta}[rel]
            new._sched(now, time, _noop, (n,))
            _inlined_sched(old, now, time, _noop, (n,))
        assert _queue_state(new) == _queue_state(old)
    while True:
        a, b = new.pop(), old.pop()
        if a is None or b is None:
            assert a is None and b is None
            break
        assert (a.time, a.seq, a.args) == (b.time, b.seq, b.args)
