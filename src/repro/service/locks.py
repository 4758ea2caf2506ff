"""Concurrency primitives for the service front doors.

* :class:`CombiningQueue` — the one FIFO queue both front doors
  (:class:`~repro.service.BlockService` and
  :class:`~repro.service.VolumeService`) run their requests from, one at
  a time, by flat combining (Hendler, Incze, Shavit and Tzafrir, "Flat
  Combining and the Synchronization-Parallelism Tradeoff", SPAA 2010);
* :class:`FifoSemaphore` — the strict-FIFO admission gate that bounds
  ``BlockService``'s requests in flight (``max_inflight``);
* a two-level lock ladder that no module of the package takes any more
  (below the combining queue every layer is single-caller), always
  acquired in the same global order:

  1. the **array lock** (:class:`ArrayRWLock`) — shared by foreground
     requests, exclusive for operations that change what *every* stripe
     means. Exclusive acquisition waits for in-flight requests to retire
     and blocks new ones;
  2. **per-stripe locks** (:class:`StripeLockManager`) — a request takes
     the locks of every stripe its byte range touches, in ascending
     stripe order. Ordered acquisition makes deadlock impossible: any two
     requests contending on two stripes block on them in the same order.

  Stripe locks are refcounted and created on demand, so the manager's
  memory footprint follows the *contended* stripe set, not the array
  size. Nothing acquires an array lock while holding a stripe lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "ArrayRWLock",
    "CombiningQueue",
    "FifoSemaphore",
    "QueuedCall",
    "StripeLockManager",
    "held_lock",
]


def held_lock() -> threading.Lock:
    """A new lock, already acquired: a gate whose ``acquire`` waits
    until someone else releases it."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class QueuedCall:
    """One call queued on a :class:`CombiningQueue` and, once it has
    run, its outcome.

    ``gate`` is created held; releasing it wakes the caller, which then
    finds the outcome here, or ``leads`` set when it is to run the queue
    as the combiner.
    """

    __slots__ = ("call", "gate", "leads", "result", "error")

    def __init__(self, call: Callable[[], Any]) -> None:
        self.call = call
        self.gate = held_lock()
        self.leads = False
        self.result: Any = None
        self.error: BaseException | None = None

    def run(self) -> None:
        """Run the call and keep its outcome. An ``Exception`` stays
        with the request; any other ``BaseException`` propagates too,
        because the thread running the request is going down."""
        try:
            self.result = self.call()
        except BaseException as exc:  # noqa: BLE001 - the caller's
            self.error = exc
            if not isinstance(exc, Exception):
                raise

    def outcome(self) -> Any:
        """The call's result; raises what it raised."""
        if self.error is not None:
            raise self.error
        return self.result


class CombiningQueue:
    """One FIFO queue whose requests run one at a time, on their
    callers' threads, by flat combining.

    A caller queues a request with :meth:`permit`. If no *combiner* (the
    thread currently running queued requests) is active, the caller
    becomes it and calls :meth:`combine`; otherwise it sleeps on the
    request's gate until the request has run, or until the role is
    handed to it. The combiner runs requests back to back and wakes each
    caller once its request is done, so no wake-up sits between two
    requests. Rules:

    * **FIFO**: requests run in the order they were queued;
    * **bounded rounds**: once its own request is done, a combiner runs
      at most the requests already waiting, then hands the role to the
      oldest waiter, so with N callers it runs at most N − 1 others;
    * **errors stay with their caller**: a request keeps its own
      ``Exception``. Any other ``BaseException`` fails the request it
      interrupted and propagates on the combiner's thread, and the role
      still passes on, so no waiter is left stranded.

    A request is any object with a ``run()`` method (which keeps an
    ``Exception`` on the request and lets any other ``BaseException``
    propagate), a ``gate`` (a :func:`held_lock`) and a ``leads`` flag;
    :class:`QueuedCall` is the plain one.
    """

    def __init__(self) -> None:
        #: Guards ``combining`` and the hand-off; requests are appended
        #: under it and only the combiner takes them off the queue.
        self._lock = threading.Lock()
        self.waiting: deque = deque()
        self.combining = False

    def permit(self, request: Any) -> threading.Lock:
        """Queue ``request``; returns the gate its caller acquires to
        wait for its turn.

        The gate opens once the request has run, or with
        ``request.leads`` set when the caller is to combine: at once if
        no combiner is active, else when the last one hands over.
        """
        with self._lock:
            if self.combining:
                self.waiting.append(request)
            else:
                self.combining = request.leads = True
                request.gate.release()
        return request.gate

    def execute(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` as one queued request; returns its result or
        raises what it raised."""
        request = QueuedCall(call)
        self.permit(request).acquire()
        if request.leads:
            self.combine(request)
        return request.outcome()

    def combine(self, own: Any) -> None:
        """Run ``own``, then the requests waiting once it is done, in
        arrival order; then hand the combiner role to the oldest waiter
        left, or stand down."""
        try:
            own.run()
            for _ in range(len(self.waiting)):
                request = self.waiting.popleft()
                try:
                    request.run()
                finally:
                    request.gate.release()
        finally:
            with self._lock:
                if self.waiting:
                    heir = self.waiting.popleft()
                    heir.leads = True
                    heir.gate.release()
                else:
                    self.combining = False


class FifoSemaphore:
    """A counting semaphore with strict FIFO wakeup order.

    ``threading.Semaphore`` makes no ordering promise: its ``release``
    wakes *some* waiter, and under contention the thread that arrived
    last is regularly admitted first — which is exactly the tail-latency
    driver the service's admission gate saw at 8 workers. Here every
    contended ``acquire`` takes a ticket (an event appended to a deque)
    and ``release`` hands its slot directly to the oldest ticket without
    ever letting a newcomer barge past the queue, so admission order is
    arrival order.

    Also the service's contention meter: :attr:`acquisitions` counts
    every acquire and :attr:`wait_ms` accumulates time spent blocked
    (contended acquires only — the uncontended fast path is not timed).
    """

    def __init__(self, value: int) -> None:
        if value < 1:
            raise ValueError("value must be >= 1")
        self._lock = threading.Lock()
        self._initial = value
        self._value = value
        self._waiters: deque[threading.Event] = deque()
        self.acquisitions = 0
        self.wait_ms = 0.0

    @property
    def waiting(self) -> int:
        """Threads currently queued behind the gate."""
        with self._lock:
            return len(self._waiters)

    def acquire(self) -> None:
        """Take one slot, queuing FIFO behind earlier arrivals."""
        with self._lock:
            self.acquisitions += 1
            if self._value > 0 and not self._waiters:
                self._value -= 1
                return
            ticket = threading.Event()
            self._waiters.append(ticket)
        started = time.perf_counter()
        # The releasing thread hands its slot directly to this ticket:
        # the wait returning IS the acquisition (no re-check loop a
        # newcomer could race).
        ticket.wait()
        waited = (time.perf_counter() - started) * 1e3
        with self._lock:
            self.wait_ms += waited

    def release(self) -> None:
        """Free one slot, waking the longest-waiting acquirer if any."""
        with self._lock:
            if self._waiters:
                self._waiters.popleft().set()
            elif self._value >= self._initial:
                raise ValueError("semaphore released too many times")
            else:
                self._value += 1

    def __enter__(self) -> "FifoSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class ArrayRWLock:
    """A readers-writer lock with writer preference.

    Requests hold it shared; an operation that changes what every
    stripe means (a layout change, a scrub, a close) holds it exclusive.
    Writer preference — a waiting writer blocks *new* readers — keeps a
    steady foreground stream from starving the writer forever.

    :attr:`acquisitions` counts shared+exclusive acquires; :attr:`wait_ms`
    accumulates time spent blocked on contended acquires.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self.acquisitions = 0
        self.wait_ms = 0.0

    def acquire_shared(self) -> None:
        """Take the lock shared; blocks while a writer holds or waits."""
        with self._cond:
            self.acquisitions += 1
            if self._writer or self._writers_waiting:
                started = time.perf_counter()
                while self._writer or self._writers_waiting:
                    self._cond.wait()
                self.wait_ms += (time.perf_counter() - started) * 1e3
            self._readers += 1

    def release_shared(self) -> None:
        """Drop a shared hold, waking a waiting writer if we were last."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        """Take the lock exclusive once every reader has retired."""
        with self._cond:
            self.acquisitions += 1
            self._writers_waiting += 1
            started = (
                time.perf_counter()
                if self._writer or self._readers
                else None
            )
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            if started is not None:
                self.wait_ms += (time.perf_counter() - started) * 1e3
            self._writer = True

    def release_exclusive(self) -> None:
        """Drop the exclusive hold and wake all waiters."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the lock shared for the duration of the block."""
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the lock exclusive for the duration of the block."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()


class _StripeLock:
    """One stripe's lock plus the refcount keeping it alive."""

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


class StripeLockManager:
    """On-demand, refcounted per-stripe mutexes with ordered acquisition.

    :meth:`locked` takes the locks of a stripe set in ascending index
    order and releases them in reverse. Because every caller sorts, the
    wait-for graph over stripe locks is acyclic — two requests touching
    stripes {3, 7} and {7, 3} both lock 3 before 7, so neither can hold
    7 while waiting on 3.

    :attr:`acquisitions` counts individual stripe-lock acquires (a batch
    locking a 5-stripe union counts 5); :attr:`wait_ms` accumulates time
    spent blocked on contended stripe locks.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locks: dict[int, _StripeLock] = {}
        self.acquisitions = 0
        self.wait_ms = 0.0

    def __len__(self) -> int:
        """Stripe locks currently alive (held or being waited on)."""
        with self._mutex:
            return len(self._locks)

    def _checkout(self, stripe: int) -> _StripeLock:
        with self._mutex:
            entry = self._locks.get(stripe)
            if entry is None:
                entry = self._locks[stripe] = _StripeLock()
            entry.refs += 1
            return entry

    def _checkin(self, stripe: int, entry: _StripeLock) -> None:
        with self._mutex:
            entry.refs -= 1
            if entry.refs == 0:
                del self._locks[stripe]

    @contextmanager
    def locked(self, stripes: Iterable[int]) -> Iterator[None]:
        """Hold the locks of ``stripes`` (deduplicated, ascending)."""
        ordered = sorted(set(stripes))
        held: list[tuple[int, _StripeLock]] = []
        waited_ms = 0.0
        try:
            for stripe in ordered:
                entry = self._checkout(stripe)
                # Timed slow path only when contended: perf_counter
                # stays off the uncontended fast path.
                if not entry.lock.acquire(blocking=False):
                    started = time.perf_counter()
                    entry.lock.acquire()
                    waited_ms += (time.perf_counter() - started) * 1e3
                held.append((stripe, entry))
            if waited_ms or ordered:
                with self._mutex:
                    self.acquisitions += len(ordered)
                    self.wait_ms += waited_ms
            yield
        finally:
            for stripe, entry in reversed(held):
                entry.lock.release()
                self._checkin(stripe, entry)
