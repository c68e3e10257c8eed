"""Event and event-queue primitives.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties at
identical timestamps (lower runs first) and ``seq`` guarantees FIFO order —
and therefore determinism — among events with equal time and priority.

Internally the queue stores plain list entries
``[time, priority, seq, callback, args, event]`` so ordering uses C-level
list comparison (``seq`` is unique, so a comparison never reaches the
callback field).  The ``event`` slot is the optional cancel handle: it is
only allocated when the caller asked for one (:meth:`EventQueue.push`,
``Engine.schedule``); the engine's no-handle ``post`` paths leave it
``None``.  Entry lists are recycled through a bounded free pool, which
keeps steady-state scheduling allocation-free.

Two structures hold pending entries:

* a heap, for arbitrary future times;
* a same-cycle FIFO lane (deque), fed only with priority-0 entries stamped
  at the *current* simulation time.  The clock never moves backwards, so
  lane entries are appended in non-decreasing key order and the lane stays
  sorted by construction; the true next event is whichever of the two
  heads compares smaller.  This gives zero-delay chains (the common case
  in the access fast path) O(1) scheduling instead of O(log n).

Cancellation keeps exact semantics: a cancelled event is skipped at pop
time.  A live-entry counter updated on push/pop/cancel makes ``len`` and
``bool`` O(1), and the backing stores are compacted in place once
cancelled entries outnumber live ones (in place, so the engine's run-loop
aliases stay valid).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable, Optional

_POOL_MAX = 4096
_COMPACT_MIN = 16
# Absolute ceiling on retained cancelled entries.  The relative trigger
# (cancelled > live) alone lets a queue with a large live population
# carry an equally large cancelled population between compactions; the
# ceiling bounds the backing store at live + _COMPACT_LIMIT entries no
# matter how lopsided the cancel traffic gets.
_COMPACT_LIMIT = 4096


class Event:
    """A scheduled callback.

    Attributes:
        time: Simulation time (cycles) at which the event fires.
        priority: Tie-breaker at equal times; lower fires first.
        seq: Monotonic sequence number assigned by the queue.
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        cancelled: When True the event is skipped at fire time.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "_queue",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = -1
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                self._queue = None
                queue._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time}, prio={self.priority}, cb={name})"


def _is_live(entry: list) -> bool:
    event = entry[5]
    return event is None or not event.cancelled


class EventQueue:
    """A deterministic priority queue of scheduled callbacks."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._lane: deque = deque()
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._pool: list[list] = []

    # ------------------------------------------------------------------
    # Entry plumbing
    # ------------------------------------------------------------------

    def _entry(self, time, priority, callback, args, event) -> list:
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = priority
            entry[2] = seq
            entry[3] = callback
            entry[4] = args
            entry[5] = event
            return entry
        return [time, priority, seq, callback, args, event]

    def _recycle(self, entry: list) -> None:
        if len(self._pool) < _POOL_MAX:
            entry[3] = entry[4] = entry[5] = None
            self._pool.append(entry)

    def _note_cancel(self, event: Optional[Event] = None) -> None:
        """A live event was cancelled (called from :meth:`Event.cancel`).

        ``event`` identifies the cancelled handle.  The heap does not need
        it (liveness is re-read from the handle at pop time); the argument
        keeps the signature shared with the compiled core.
        """
        self._live -= 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= _COMPACT_MIN and (
            cancelled > self._live or cancelled >= _COMPACT_LIMIT
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries, *in place* so run-loop aliases survive."""
        heap = self._heap
        heap[:] = [entry for entry in heap if _is_live(entry)]
        heapq.heapify(heap)
        lane = self._lane
        if lane:
            keep = [entry for entry in lane if _is_live(entry)]
            lane.clear()
            lane.extend(keep)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def push(self, event: Event) -> Event:
        """Insert ``event`` and stamp its sequence number."""
        entry = self._entry(
            event.time, event.priority, event.callback, event.args, event
        )
        event.seq = entry[2]
        event._queue = self
        heapq.heappush(self._heap, entry)
        self._live += 1
        return event

    def push_entry(self, time, priority, callback, args) -> None:
        """Heap-schedule a callback with no cancel handle (hot path)."""
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = priority
            entry[2] = seq
            entry[3] = callback
            entry[4] = args
        else:
            entry = [time, priority, seq, callback, args, None]
        heapq.heappush(self._heap, entry)
        self._live += 1

    def _sched(self, now, time, callback, args) -> None:
        """Schedule a priority-0 callback at ``max(time, now)``.

        The access path's one scheduling call (``now`` is the engine
        clock): a clamped entry joins the same-cycle lane, a future one
        the heap.  The compiled core's ``_sched`` is its C twin.
        """
        seq = self._seq
        self._seq = seq + 1
        future = time > now
        if not future:
            time = now
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = 0
            entry[2] = seq
            entry[3] = callback
            entry[4] = args
        else:
            entry = [time, 0, seq, callback, args, None]
        if future:
            _heappush(self._heap, entry)
        else:
            self._lane.append(entry)
        self._live += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def _skip_cancelled_heads(self) -> None:
        heap = self._heap
        while heap:
            event = heap[0][5]
            if event is not None and event.cancelled:
                self._recycle(heapq.heappop(heap))
                self._cancelled -= 1
            else:
                break
        lane = self._lane
        while lane:
            event = lane[0][5]
            if event is not None and event.cancelled:
                self._recycle(lane.popleft())
                self._cancelled -= 1
            else:
                break

    def _pop_entry(self) -> Optional[list]:
        """Remove and return the earliest live entry, or None."""
        self._skip_cancelled_heads()
        heap = self._heap
        lane = self._lane
        if lane:
            if heap and heap[0] < lane[0]:
                entry = heapq.heappop(heap)
            else:
                entry = lane.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return None
        self._live -= 1
        return entry

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None."""
        entry = self._pop_entry()
        if entry is None:
            return None
        event = entry[5]
        if event is None:
            event = Event(entry[0], entry[3], entry[4], entry[1])
            event.seq = entry[2]
        else:
            event._queue = None
        self._recycle(entry)
        return event

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event, or None."""
        self._skip_cancelled_heads()
        heap = self._heap
        lane = self._lane
        if heap and lane:
            return heap[0][0] if heap[0] < lane[0] else lane[0][0]
        if heap:
            return heap[0][0]
        if lane:
            return lane[0][0]
        return None

    def snapshot(self, limit: int = 20) -> list[Event]:
        """The earliest ``limit`` live events, in firing order (diagnostics)."""
        entries = [e for e in self._heap if _is_live(e)]
        entries.extend(e for e in self._lane if _is_live(e))
        entries.sort()
        out = []
        for entry in entries[:limit]:
            event = entry[5]
            if event is None:
                event = Event(entry[0], entry[3], entry[4], entry[1])
                event.seq = entry[2]
            out.append(event)
        return out

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # State capture (snapshot/fork support)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle everything observable; drop the free pool.

        Pooled entries are recycled storage whose contents can never be
        observed again, so a restored queue starts with an empty pool:
        entry allocation order is not part of simulation state, and
        scheduling behaviour is byte-identical either way.
        """
        state = self.__dict__.copy()
        state["_pool"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool = []
