"""The concurrent block service: a thread-pool front-end over the store.

Every layer below this one was written single-caller first and made
thread-safe by PR 6; :class:`BlockService` is the component that lets
callers actually contend. It owns the locking discipline:

* each request resolves its byte range to the stripe set it touches and
  executes under the array lock (shared) plus those stripes' locks in
  ascending order — overlapping requests serialize per stripe,
  disjoint requests run in parallel;
* maintenance — injected-fault handling, throttled
  :class:`~repro.faults.repair.RepairController` rebuild/scrub ticks —
  runs under the array lock (exclusive), so it always sees a quiescent
  array, exactly like the serial replay loop it generalizes;
* admission is a strict-FIFO counting semaphore (``max_inflight``):
  requests beyond the limit queue at the door *in arrival order* —
  ``threading.Semaphore`` wakeups are unordered and let late arrivals
  barge past long waiters, which was a driver of the 26 ms p99 at 8
  workers — and the QoS arbiter interleaves one repair tick per
  ``repair_every`` completed foreground requests — the concurrent
  analogue of ``BlockDevice.replay(scrub_every=...)``;
* every admitted request runs through one pipeline, admission →
  :meth:`BlockService._dispatch` → :meth:`BlockService._complete`, as
  part of a batch. With ``batch_size`` 0 or 1 the batch is the request
  alone, executed on the caller's thread; above 1 a single dispatcher
  thread buffers arrivals (adaptive window — it stops waiting early
  when arrivals can't fill a batch, and drains anything already queued
  beyond it), composes each batch by **stripe affinity** — same-stripe
  requests join for free, a small budget caps the distinct stripes a
  batch opens, per-stripe FIFO order is preserved so the reordering is
  invisible — then takes the array lock and the batch's stripe-lock
  union *once* and executes the whole batch through
  :meth:`~repro.store.ArrayStore.execute_batch`'s merged span I/O.
  Chunk ``IoCounters`` are identical to per-request execution; only the
  syscall count and the per-request Python overhead drop.

Latency is measured per request from admission to completion
(:class:`ServiceStats` collects the samples; `p50/p99` come from
:func:`percentile`), which is what the closed-loop load generator in
:mod:`repro.service.loadgen` sweeps against offered load.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_bytes_array, check_byte_range
from repro.faults.inject import FaultError, retry_faults
from repro.raid.blockdevice import BlockDevice
from repro.service.locks import ArrayRWLock, FifoSemaphore, StripeLockManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.repair import RepairController
    from repro.store import ArrayStore

__all__ = ["BlockService", "ServiceStats", "percentile"]

#: Shared completed future returned for inline (batch_size=1) writes.
#: Writes resolve to ``None`` and a finished future is immutable —
#: ``cancel()`` refuses, ``add_done_callback`` invokes without
#: retaining — so one instance serves every caller and the degenerate
#: batch path skips a Future allocation + condition notify per request.
_WRITE_DONE: "Future[None]" = Future()
_WRITE_DONE.set_result(None)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(samples)
    # Standard nearest-rank: the ceil(f*N)-th order statistic (1-based);
    # round() would banker's-round the 5-sample median down to rank 2.
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class ServiceStats:
    """What the service did, and how long each request took."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    retried_requests: int = 0
    repair_ticks: int = 0
    #: Per-request latency in milliseconds, admission to completion.
    latencies_ms: list[float] = field(repr=False, default_factory=list)

    @property
    def requests(self) -> int:
        """Foreground requests completed."""
        return self.reads + self.writes

    def record(self, is_write: bool, length: int, elapsed_ms: float) -> None:
        """Account one completed request (the caller serializes)."""
        if is_write:
            self.writes += 1
            self.bytes_written += length
        else:
            self.reads += 1
            self.bytes_read += length
        self.latencies_ms.append(elapsed_ms)

    @property
    def mean_latency_ms(self) -> float:
        """Mean request latency in milliseconds."""
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def p50_latency_ms(self) -> float:
        """Median request latency in milliseconds."""
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99_latency_ms(self) -> float:
        """99th-percentile request latency in milliseconds."""
        return percentile(self.latencies_ms, 0.99)


class _Request:
    """One admitted request and, once executed, its outcome.

    :meth:`BlockService._dispatch` leaves ``result`` or ``error`` on the
    request. Requests executed on their caller's thread are read back
    from there and never allocate a :class:`Future`; requests queued to
    the dispatcher also carry the ``future`` their caller waits on.
    """

    __slots__ = (
        "is_write", "offset", "length", "payload", "stripes", "started",
        "result", "error", "future",
    )

    def __init__(
        self,
        is_write: bool,
        offset: int,
        length: int,
        payload: np.ndarray | None,
        stripes: range,
        started: float,
    ) -> None:
        self.is_write = is_write
        self.offset = offset
        self.length = length
        self.payload = payload
        #: The stripes the byte range touches, computed once at admission.
        self.stripes = stripes
        self.started = started
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.future: "Future[np.ndarray | None] | None" = None

    def __str__(self) -> str:
        """How :func:`retry_faults` names the request if its cap fires."""
        return f"request at offset {self.offset}"

    def outcome(self) -> np.ndarray | None:
        """The request's result (waiting for the dispatcher if queued);
        raises what the request raised."""
        if self.future is not None:
            return self.future.result()
        if self.error is not None:
            raise self.error
        return self.result

    def settle(self, future: "Future[np.ndarray | None]") -> "Future":
        """Resolve ``future`` to the request's outcome; returns it."""
        if self.error is None:
            future.set_result(self.result)
        else:
            future.set_exception(self.error)
        return future


class BlockService:
    """Thread-safe byte-addressed front-end over an array store.

    Args:
        store: the (thread-safe) :class:`~repro.store.ArrayStore` to
            serve. A :class:`~repro.raid.BlockDevice` is built over it
            for address math; its serial :meth:`~repro.raid.BlockDevice.
            replay` remains available and unaffected.
        workers: threads in the request pool used by :meth:`submit_read`
            / :meth:`submit_write`. Synchronous :meth:`read` /
            :meth:`write` execute on the caller's thread (a closed-loop
            client *is* its own worker) but share the same admission and
            locking discipline.
        repair: optional :class:`~repro.faults.repair.RepairController`;
            injected faults surfacing from requests are dispatched
            through it (under the exclusive array lock) and the request
            retried, as in serial replay.
        repair_every: run one background repair tick after every this
            many completed foreground requests (0 = tick only on
            faults). The tick runs exclusive — foreground admission
            stalls for exactly the tick's bounded chunk budget.
        max_inflight: admission bound on concurrently executing
            requests; defaults to ``4 * workers`` (and at least
            ``batch_size`` in batched mode, so a full batch can ever
            assemble).
        batch_size: 0 (default) and 1 execute every request on its
            caller's thread as a batch of one; 0 also refuses
            :meth:`enqueue`, so 1 is the batched mode's degenerate
            per-request baseline. Above 1 admitted requests go to a
            single dispatcher thread that groups up to this many of
            them per :meth:`~repro.store.ArrayStore.execute_batch` call,
            locking the batch's stripe union once.
        batch_window_s: longest the dispatcher waits for a batch to
            fill once its first request arrived. The effective wait
            adapts: it halves after an underfull batch (arrivals too
            slow to fill one — don't stall them) and doubles back after
            full batches, bounded by this value.
    """

    def __init__(
        self,
        store: "ArrayStore",
        *,
        workers: int = 4,
        repair: "RepairController | None" = None,
        repair_every: int = 0,
        max_inflight: int | None = None,
        batch_size: int = 0,
        batch_window_s: float = 0.002,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if repair_every < 0:
            raise ValueError("repair_every must be >= 0")
        if repair_every and repair is None:
            raise ValueError("repair_every needs a repair controller")
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if batch_window_s <= 0:
            raise ValueError("batch_window_s must be positive")
        self.store = store
        self.device = BlockDevice(store)
        #: Addressable bytes (the device's full logical capacity).
        self.capacity_bytes = self.device.capacity_bytes
        self.workers = workers
        self.repair = repair
        self.repair_every = repair_every
        self.batch_size = batch_size
        self.batch_window_s = batch_window_s
        self.stats = ServiceStats()
        self._array = ArrayRWLock()
        self._stripe_locks = StripeLockManager()
        inflight = max_inflight if max_inflight is not None else 4 * workers
        self._admission = FifoSemaphore(max(inflight, batch_size))
        self._stats_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        #: Dispatcher plumbing (inert while ``batch_size <= 1``).
        self._queue: "queue.SimpleQueue[_Request | None]" = (
            queue.SimpleQueue()
        )
        self._dispatcher: threading.Thread | None = None
        self._dispatcher_lock = threading.Lock()
        self._batch_wait_s = batch_window_s
        self._per_stripe_bytes = store.code.num_data * store.chunk_bytes
        #: Distinct new stripes one batch may open during stripe-affinity
        #: composition (see :meth:`_compose`); same-stripe requests join
        #: for free, so a small budget is what concentrates a batch onto
        #: few stripes and lets span merging actually bite.
        self._stripe_budget = max(2, batch_size // 5)
        #: Batches dispatched and requests they carried (mean batch fill
        #: = ``batched_requests / batches``; 1 whenever ``batch_size <= 1``).
        self.batches = 0
        self.batched_requests = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-service",
            )
        return self._pool

    def close(self) -> None:
        """Drain repair, flush the cache, shut pool and dispatcher down."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._dispatcher is not None:
            self._queue.put(None)
            self._dispatcher.join(timeout=60.0)
            self._dispatcher = None
        with self._array.exclusive():
            if self.repair is not None:
                self.repair.drain()
            # The final flush runs with any fault plan still armed; give
            # it the same repair-and-retry treatment as request I/O so a
            # latent sector surfacing on a parity anchor read doesn't
            # escape close() with dirty stripes still in the cache.
            retry_faults(
                self.store.flush,
                self.repair.handle_fault if self.repair is not None else None,
                "cache flush",
            )

    def contention(self) -> dict[str, float | int]:
        """Lock-contention counters for benchmark attribution.

        Counts and blocked-time accumulate for the service's lifetime:
        admission-gate, array-lock and stripe-lock acquisitions plus the
        milliseconds spent blocked on each (contended acquires only).
        """
        return {
            "admission_acquisitions": self._admission.acquisitions,
            "admission_wait_ms": round(self._admission.wait_ms, 3),
            "array_lock_acquisitions": self._array.acquisitions,
            "array_lock_wait_ms": round(self._array.wait_ms, 3),
            "stripe_lock_acquisitions": self._stripe_locks.acquisitions,
            "stripe_lock_wait_ms": round(self._stripe_locks.wait_ms, 3),
        }

    def __enter__(self) -> "BlockService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # public I/O
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (admitted, stripe-locked)."""
        check_byte_range(offset, length, self.capacity_bytes, "device")
        return self._admit(False, offset, length, None).outcome().tobytes()

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        """Write ``data`` at ``offset`` (admitted, stripe-locked)."""
        buf = as_bytes_array(data)
        check_byte_range(offset, buf.size, self.capacity_bytes, "device")
        self._admit(True, offset, buf.size, buf).outcome()

    def submit_read(self, offset: int, length: int) -> "Future[bytes]":
        """Queue a read on the service pool; returns its future."""
        check_byte_range(offset, length, self.capacity_bytes, "device")
        return self._executor().submit(self.read, offset, length)

    def submit_write(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> "Future[None]":
        """Queue a write on the service pool; returns its future."""
        return self._executor().submit(self.write, offset, data)

    def enqueue(
        self,
        is_write: bool,
        offset: int,
        data_or_length: bytes | bytearray | np.ndarray | int,
    ) -> "Future[np.ndarray | None]":
        """Asynchronous admission into batched mode (no pool thread).

        Acquires an admission slot on the *calling* thread — so a single
        submitter issuing requests in order is backpressured, not
        reordered; the slot is released when the request completes. This
        is the open-loop entry the batched load generator drives: queue
        depth up to ``max_inflight`` from one submitter is what lets
        batches fill. With ``batch_size=1`` the request has already run
        when the (completed) future is returned.
        """
        if not self.batch_size:
            raise ValueError("enqueue() requires batched mode (batch_size > 0)")
        if is_write:
            payload = as_bytes_array(data_or_length)
            length = payload.size
        else:
            payload = None
            length = int(data_or_length)
        check_byte_range(offset, length, self.capacity_bytes, "device")
        request = self._admit(is_write, offset, length, payload)
        if request.future is not None:
            return request.future
        if is_write and request.error is None:
            return _WRITE_DONE
        return request.settle(Future())

    # ------------------------------------------------------------------
    # execution: admission -> _dispatch -> _complete
    # ------------------------------------------------------------------
    def _admit(
        self,
        is_write: bool,
        offset: int,
        length: int,
        payload: np.ndarray | None,
    ) -> _Request:
        """Admit one request and start it through the pipeline.

        With ``batch_size <= 1`` the request runs to completion here, on
        the caller's thread, as a batch of one. Above 1 it is handed to
        the dispatcher with a future; its admission slot stays held while
        it waits in the queue — ``max_inflight`` bounds queue depth,
        which is the backpressure that lets batches assemble without
        unbounded buffering.
        """
        per_stripe = self._per_stripe_bytes
        stripes = range(
            offset // per_stripe, (offset + length - 1) // per_stripe + 1
        )
        request = _Request(
            is_write, offset, length, payload, stripes, time.perf_counter()
        )
        self._admission.acquire()
        if self.batch_size > 1:
            request.future = Future()
            self._ensure_dispatcher()
            self._queue.put(request)
            return request
        batch = [request]
        self._dispatch(batch)
        self._complete(batch)
        return request

    def _dispatch(self, batch: "list[_Request]") -> None:
        """Execute one batch, leaving each request's outcome on it.

        Single-request batches and fault-injected stores run request by
        request through :meth:`_attempt` under :func:`retry_faults` —
        the repair-and-retry discipline has no batched analogue (a fault
        mid-batch must not re-execute the requests that already landed).
        Everything else locks the batch's stripe union once under the
        shared array lock and runs :meth:`ArrayStore.execute_batch`;
        being the only foreground dispatcher while holding the array
        lock shared is what satisfies ``execute_batch``'s
        no-concurrent-writer contract for gap-bridged spans.
        """
        if len(batch) == 1 or self.store.fault_plan is not None:
            for request in batch:
                try:
                    request.result = retry_faults(
                        self._attempt, self._handle_fault, request, request
                    )
                except BaseException as exc:  # noqa: BLE001 - the caller's
                    request.error = exc
            return
        stripes: set[int] = set()
        for request in batch:
            stripes.update(request.stripes)
        ops = [
            (
                request.is_write,
                request.offset,
                request.payload if request.is_write else request.length,
            )
            for request in batch
        ]
        try:
            with self._array.shared(), self._stripe_locks.locked(stripes):
                results = self.store.execute_batch(ops)
        except BaseException as exc:  # noqa: BLE001 - fan out to callers
            for request in batch:
                request.error = exc
            return
        for request, result in zip(batch, results):
            request.result = result

    def _attempt(self, request: _Request) -> np.ndarray | None:
        """One execution of ``request`` under the shared array lock and
        its stripes' locks."""
        with self._array.shared(), self._stripe_locks.locked(request.stripes):
            try:
                if request.is_write:
                    self.store.write_bytes(request.offset, request.payload)
                    return None
                return self.store.read_bytes(request.offset, request.length)
            except FaultError as exc:
                # Close the write hole *while the stripe locks are still
                # held*: the journal replays absolute span values, so
                # another writer slipping into this stripe before the
                # roll-forward would have its parity deltas erased by the
                # stale replay. A second fault mid-replay leaves the
                # remainder pending for the exclusive handler.
                try:
                    self.store.quarantine_interrupted_write(exc.disk)
                except FaultError:
                    pass
                raise

    def _handle_fault(self, exc: FaultError) -> bool:
        """Hand a request's fault to the repair controller; True when
        the request may retry.

        Runs under the exclusive array lock. The failed attempt's locks
        unwound with the exception, so taking it cannot self-deadlock.
        """
        if self.repair is None:
            return False
        with self._array.exclusive():
            if not self.repair.handle_fault(exc):
                return False
        with self._stats_lock:
            self.stats.retried_requests += 1
        return True

    def _complete(self, batch: "list[_Request]") -> None:
        """Account for an executed batch and hand back its outcomes.

        One rule for every mode: only requests that returned count as
        completed — in the stats and toward the ``repair_every`` QoS
        tick. Admission slots are released and queued requests' futures
        resolved after the stats are in, then any repair ticks that came
        due run; :meth:`_dispatch` has released every lock by now, so a
        tick taking the exclusive array lock cannot self-deadlock.
        """
        now = time.perf_counter()
        ticks = 0
        with self._stats_lock:
            self.batches += 1
            self.batched_requests += len(batch)
            stats = self.stats
            before = stats.requests
            for request in batch:
                if request.error is None:
                    stats.record(
                        request.is_write, request.length,
                        (now - request.started) * 1e3,
                    )
            if self.repair_every:
                every = self.repair_every
                ticks = stats.requests // every - before // every
        for request in batch:
            self._admission.release()
            if request.future is not None:
                request.settle(request.future)
        for _ in range(ticks):
            self._repair_tick()

    # ------------------------------------------------------------------
    # the coalescing dispatcher (batch_size > 1)
    # ------------------------------------------------------------------
    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is not None:
            return
        with self._dispatcher_lock:
            if self._dispatcher is None and not self._closed:
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-batch-dispatcher",
                    daemon=True,
                )
                self._dispatcher = thread
                thread.start()

    def _dispatch_loop(self) -> None:
        """Collect pending requests, compose affine batches, dispatch.

        Each round :meth:`_collect` fills the dispatcher's pending
        buffer (blocking for the first arrival, adaptively waiting for a
        full batch, then draining whatever else already queued — the
        deeper the buffer, the better :meth:`_compose` can group by
        stripe) and :meth:`_compose` carves one batch out of it. On
        shutdown the remaining pending requests drain batch by batch.
        """
        pending: "list[_Request]" = []
        stopping = False
        while True:
            if not stopping:
                stopping = self._collect(pending)
            if not pending:
                return
            batch = self._compose(pending)
            self._dispatch(batch)
            self._complete(batch)
            if stopping and not pending:
                return

    def _collect(self, pending: "list[_Request]") -> bool:
        """Top up the pending buffer from the arrival queue.

        Blocks for the first request when the buffer is empty (no busy
        wait), then drains further arrivals until a full batch is
        buffered or the adaptive window expires. The window halves after
        an underfull round — arrivals too slow to fill a batch shouldn't
        stall behind a timer — and doubles back toward
        ``batch_window_s`` after full ones. A final non-blocking drain
        deepens the buffer past ``batch_size`` for free: admission
        (``max_inflight``) bounds it, and every extra buffered request
        widens the stripe-affinity window :meth:`_compose` selects from.
        Returns True when the shutdown sentinel was consumed.
        """
        if not pending:
            item = self._queue.get()
            if item is None:
                return True
            pending.append(item)
        if len(pending) < self.batch_size:
            deadline = time.perf_counter() + self._batch_wait_s
            while len(pending) < self.batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    nxt = (
                        self._queue.get(timeout=remaining)
                        if remaining > 0
                        else self._queue.get_nowait()
                    )
                except queue.Empty:
                    break
                if nxt is None:
                    return True
                pending.append(nxt)
            if len(pending) >= self.batch_size:
                self._batch_wait_s = min(
                    self.batch_window_s, self._batch_wait_s * 2
                )
            else:
                self._batch_wait_s = max(
                    self.batch_window_s / 64, self._batch_wait_s / 2
                )
        while True:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                return False
            if nxt is None:
                return True
            pending.append(nxt)

    def _compose(self, pending: "list[_Request]") -> "list[_Request]":
        """Carve one stripe-affine batch out of the pending buffer.

        Consecutive arrivals rarely share stripes, which caps span
        merging at whatever locality the workload happens to interleave;
        selecting *same-stripe* requests from a deeper buffer is what
        turns per-stripe dedup and span coalescing into real syscall
        reductions. The scan runs in strict arrival order with two
        rules that keep reordering invisible:

        * a request is only taken while none of its stripes is
          *blocked*; skipping a request blocks its stripes for the rest
          of the pass, so two requests touching a common stripe can
          never swap — per-stripe FIFO order is preserved, and requests
          on disjoint stripes commute byte-for-byte (``IoCounters`` are
          metered from per-item plans, so aggregate accounting is
          composition-independent too);
        * the head of the buffer is always taken (no starvation), and
          after it each request must either stay within the batch's
          stripes or fit the remaining new-stripe budget.
        """
        if len(pending) <= self.batch_size:
            batch = list(pending)
            pending.clear()
            return batch
        size = self.batch_size
        selected: list[int] = []
        batch_stripes: set[int] = set()
        blocked: set[int] = set()
        budget = self._stripe_budget
        for index, request in enumerate(pending):
            stripes = request.stripes
            if blocked and any(s in blocked for s in stripes):
                blocked.update(stripes)
                continue
            new = sum(1 for s in stripes if s not in batch_stripes)
            if not selected or (
                len(selected) < size and (new == 0 or new <= budget)
            ):
                selected.append(index)
                budget -= new
                batch_stripes.update(stripes)
                if len(selected) >= size:
                    break
            else:
                blocked.update(stripes)
        batch = [pending[index] for index in selected]
        for index in reversed(selected):
            del pending[index]
        return batch

    def _repair_tick(self) -> None:
        """One throttled repair tick under the exclusive array lock."""
        with self._array.exclusive():
            self.repair.tick()
        with self._stats_lock:
            self.stats.repair_ticks += 1

    def drain_repair(self) -> None:
        """Run repair ticks (exclusive) until the array is healthy."""
        if self.repair is None:
            return
        with self._array.exclusive():
            self.repair.drain()
