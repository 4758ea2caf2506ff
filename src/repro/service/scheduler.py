"""The block service: many callers, one array.

:class:`BlockService` is the byte-addressed front door of one
:class:`~repro.store.ArrayStore`. It decides *who runs when*; below it
one request, or one batch, runs at a time:

* **flat combining.** Every request — ``read``, ``write``, an
  ``enqueue``d request, ``drain_repair`` and the flush in ``close`` —
  joins one FIFO :class:`~repro.service.locks.CombiningQueue`, the same
  queue :class:`~repro.service.VolumeService` runs from. A caller that
  finds no combiner runs the queue on its own thread; every other
  caller sleeps until its request has run, an ``enqueue`` too. Requests
  run in arrival order, rounds are bounded, and a request's
  ``Exception`` is raised in its own caller only (the queue's rules).
  No thread is started for this.
* **a coalescing dispatcher where batches merge I/O.** With
  ``batch_size`` above 1 on a store without a stripe cache, a single
  dispatcher thread buffers arrivals (adaptive window — it stops
  waiting early when arrivals can't fill a batch, and drains anything
  already queued beyond it), composes each batch by **stripe affinity**
  — same-stripe requests join for free, a small budget caps the
  distinct stripes a batch opens, per-stripe FIFO order is preserved so
  the reordering is invisible — and runs the batch through the queue as
  one request, via :meth:`~repro.store.ArrayStore.execute_batch`'s
  merged span I/O. Chunk ``IoCounters`` are identical to per-request
  execution; only the syscall count and the per-request Python overhead
  drop. On a cached store ``execute_batch`` applies its ops one by one
  through the cache and merges nothing, so there, as with
  ``batch_size`` 0 or 1, requests combine and no dispatcher exists. The
  mode is decided once, at construction.
* **maintenance runs below the queue.** Injected faults surfacing from
  a request go to the :class:`~repro.faults.repair.RepairController`
  from within that request, which then retries; one throttled repair
  tick runs after every ``repair_every`` completed foreground requests,
  right after the request or batch that brought it due — the
  concurrent analogue of ``BlockDevice.replay(scrub_every=...)``. Either
  way repair sees a quiescent array, as in the serial replay loop.
* **admission** is a strict-FIFO counting semaphore (``max_inflight``)
  on requests admitted and not yet completed; in dispatcher mode it is
  the backpressure that lets batches assemble without unbounded
  buffering.

Every request runs through one pipeline, :meth:`BlockService._dispatch`
→ :meth:`BlockService._complete`, as a batch: of one, or as the
dispatcher composed it. Everything below the queue (store, cache,
journal, repair controller) is single-caller and takes no locks, so
direct multi-threaded use of the store beside a running service is
unsupported. Once :meth:`BlockService.close` has begun, every new
request raises ``RuntimeError``.

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
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_bytes_array, check_byte_range
from repro.faults.inject import FaultError, retry_faults
from repro.raid.blockdevice import BlockDevice
from repro.service.locks import CombiningQueue, FifoSemaphore, held_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.repair import RepairController
    from repro.store import ArrayStore

__all__ = ["BlockService", "ServiceStats", "percentile"]

#: Shared completed future returned for writes ``enqueue`` ran before
#: returning. Writes resolve to ``None`` and a finished future is
#: immutable — ``cancel()`` refuses, ``add_done_callback`` invokes
#: without retaining — so one instance serves every caller and the
#: common path skips a Future allocation + condition notify per request.
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

    It is what the combining queue runs (:meth:`run`), with ``gate``
    the held lock its caller sleeps on; such a request carries its
    outcome on itself and allocates no :class:`Future`. In dispatcher
    mode it carries a ``future`` instead, which resolves once the
    request's batch has run.
    """

    __slots__ = (
        "service", "is_write", "offset", "length", "payload", "stripes",
        "started", "result", "error", "future", "gate", "leads",
    )

    def __init__(
        self,
        service: "BlockService",
        is_write: bool,
        offset: int,
        length: int,
        payload: np.ndarray | None,
        started: float,
    ) -> None:
        self.service = service
        self.is_write = is_write
        self.offset = offset
        self.length = length
        self.payload = payload
        #: The stripes the byte range touches; set for the dispatcher,
        #: which composes batches by them.
        self.stripes: range | None = None
        self.started = started
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.future: "Future[np.ndarray | None] | None" = None
        self.gate: threading.Lock | None = None
        self.leads = False

    def __str__(self) -> str:
        """How :func:`retry_faults` names the request if its cap fires."""
        return f"request at offset {self.offset}"

    def run(self) -> None:
        """Execute the request as a batch of one (the combiner calls
        this)."""
        self.service._serve([self])

    def outcome(self) -> np.ndarray | None:
        """The request's result (waiting for the dispatcher if queued
        there); raises what the request raised."""
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
    """Byte-addressed front door over an array store, safe to call from
    many threads.

    Args:
        store: the :class:`~repro.store.ArrayStore` to serve. A
            :class:`~repro.raid.BlockDevice` is built over it for address
            math; its serial :meth:`~repro.raid.BlockDevice.replay`
            remains available and unaffected. Other threads must not use
            the store directly while the service runs.
        workers: threads in the request pool used by :meth:`submit_read`
            / :meth:`submit_write`. Synchronous :meth:`read` /
            :meth:`write` queue from the caller's thread (a closed-loop
            client *is* its own worker) and run there or on whichever
            caller is combining.
        repair: optional :class:`~repro.faults.repair.RepairController`;
            injected faults surfacing from requests are dispatched
            through it and the request retried, as in serial replay.
        repair_every: run one background repair tick after every this
            many completed foreground requests (0 = tick only on
            faults). The tick runs below the queue, so later requests
            wait for exactly the tick's bounded chunk budget.
        max_inflight: admission bound on requests admitted and not yet
            completed, in every mode; defaults to ``4 * workers`` (and at
            least ``batch_size``, so a full batch can ever assemble). In
            dispatcher mode it bounds the dispatcher's buffer; otherwise
            every caller waits for its own request, so it bounds the
            callers in the combining queue at once.
        batch_size: 0 (default) and 1 execute every request as a batch
            of one through the combining queue; 0 also refuses
            :meth:`enqueue`, so 1 is the batched mode's degenerate
            per-request baseline. Above 1, on a store without a stripe
            cache, admitted requests go to a single dispatcher thread
            that groups up to this many of them per
            :meth:`~repro.store.ArrayStore.execute_batch` call. On a
            cached store, where ``execute_batch`` merges no I/O, values
            above 1 combine as 1 does.
        batch_window_s: longest the dispatcher waits for a batch to
            fill once its first request arrived; unused without a
            dispatcher. The effective wait adapts: it halves after an
            underfull batch (arrivals too slow to fill one — don't stall
            them) and doubles back after full batches, bounded by this
            value.
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
        inflight = max_inflight if max_inflight is not None else 4 * workers
        self._admission = FifoSemaphore(max(inflight, batch_size))
        #: Runs every request, batch and maintenance call, one at a time.
        self._combiner = CombiningQueue()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        #: Whether a dispatcher composes batches: only where
        #: ``execute_batch`` merges span I/O, on a store without a cache,
        #: and until :meth:`close` stops it (under ``_dispatcher_lock``).
        self._dispatching = batch_size > 1 and store.cache is None
        #: Dispatcher plumbing (inert unless ``_dispatching``).
        self._arrivals: "queue.SimpleQueue[_Request | None]" = (
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
        #: Batches executed and requests they carried (mean batch fill =
        #: ``batched_requests / batches``; 1 without a dispatcher).
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
        """Refuse new requests; drain the pool, the dispatcher and the
        queue; then drain repair and flush the cache, as one queued
        request. Requests submitted to the pool before still run."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # A request that raced past the closed check finds the
        # dispatcher gone and combines instead.
        with self._dispatcher_lock:
            dispatcher, self._dispatching = self._dispatcher, False
            if dispatcher is not None:
                self._arrivals.put(None)
        if dispatcher is not None:
            dispatcher.join(timeout=60.0)
        self._combiner.execute(self._drain_and_flush)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the block service is closed")

    def _drain_and_flush(self) -> None:
        if self.repair is not None:
            self.repair.drain()
        # The final flush runs with any fault plan still armed; give it
        # the same repair-and-retry treatment as request I/O so a latent
        # sector surfacing on a parity anchor read doesn't escape
        # close() with dirty stripes still in the cache.
        retry_faults(
            self.store.flush,
            self.repair.handle_fault if self.repair is not None else None,
            "cache flush",
        )

    def contention(self) -> dict[str, float | int]:
        """Admission counters for benchmark attribution.

        Counts and blocked time accumulate for the service's lifetime:
        admission-gate acquisitions plus the milliseconds spent blocked
        on it (contended acquires only).
        """
        return {
            "admission_acquisitions": self._admission.acquisitions,
            "admission_wait_ms": round(self._admission.wait_ms, 3),
        }

    def __enter__(self) -> "BlockService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # public I/O
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``."""
        self._check_open()
        return self._read(offset, length)

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        """Write ``data`` at ``offset``."""
        self._check_open()
        self._write(offset, data)

    def _read(self, offset: int, length: int) -> bytes:
        check_byte_range(offset, length, self.capacity_bytes, "device")
        return self._admit(False, offset, length, None).outcome().tobytes()

    def _write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        buf = as_bytes_array(data)
        check_byte_range(offset, buf.size, self.capacity_bytes, "device")
        self._admit(True, offset, buf.size, buf).outcome()

    def submit_read(self, offset: int, length: int) -> "Future[bytes]":
        """Queue a read on the service pool; returns its future."""
        self._check_open()
        check_byte_range(offset, length, self.capacity_bytes, "device")
        return self._executor().submit(self._read, offset, length)

    def submit_write(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> "Future[None]":
        """Queue a write on the service pool; returns its future."""
        self._check_open()
        return self._executor().submit(self._write, offset, data)

    def enqueue(
        self,
        is_write: bool,
        offset: int,
        data_or_length: bytes | bytearray | np.ndarray | int,
    ) -> "Future[np.ndarray | None]":
        """Asynchronous admission in batched mode (no pool thread).

        Acquires an admission slot on the *calling* thread — so a single
        submitter issuing requests in order is backpressured, not
        reordered; the slot is released when the request completes. This
        is the open-loop entry the batched load generator drives. In
        dispatcher mode the returned future resolves once the request's
        batch has run, and queue depth up to ``max_inflight`` from one
        submitter is what lets batches fill. Otherwise the request joins
        the combining queue as :meth:`read` and :meth:`write` do, and
        has run, on this thread or on the combiner's, when this returns
        a completed future.
        """
        self._check_open()
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

        In dispatcher mode the request is handed to the dispatcher with
        a future; its admission slot stays held while it waits there.
        Otherwise it joins the combining queue and the caller waits
        until it has run, running the queue itself if no combiner is
        active.
        """
        request = _Request(
            self, is_write, offset, length, payload, time.perf_counter()
        )
        self._admission.acquire()
        if self._dispatching and self._to_dispatcher(request):
            return request
        request.gate = held_lock()
        self._combiner.permit(request).acquire()
        if request.leads:
            self._combiner.combine(request)
        return request

    def _serve(self, batch: "list[_Request]") -> None:
        """Run one batch below the combining queue."""
        self._dispatch(batch)
        self._complete(batch)

    def _dispatch(self, batch: "list[_Request]") -> None:
        """Execute one batch, leaving each request's outcome on it.

        Single-request batches and fault-injected stores run request by
        request through :meth:`_attempt` under :func:`retry_faults` —
        the repair-and-retry discipline has no batched analogue (a fault
        mid-batch must not re-execute the requests that already landed).
        Everything else runs :meth:`ArrayStore.execute_batch`; running
        below the queue, one batch at a time, is what satisfies its
        no-concurrent-writer contract for gap-bridged spans. A
        ``BaseException`` that is not an ``Exception`` becomes the
        outcome of every request it kept from finishing.
        """
        if len(batch) == 1 or self.store.fault_plan is not None:
            for index, request in enumerate(batch):
                try:
                    request.result = retry_faults(
                        self._attempt, self._handle_fault, request, request
                    )
                except Exception as exc:  # noqa: BLE001 - the caller's
                    request.error = exc
                except BaseException as exc:  # noqa: BLE001 - see _complete
                    for unfinished in batch[index:]:
                        unfinished.error = exc
                    return
            return
        ops = [
            (
                request.is_write,
                request.offset,
                request.payload if request.is_write else request.length,
            )
            for request in batch
        ]
        try:
            results = self.store.execute_batch(ops)
        except BaseException as exc:  # noqa: BLE001 - fan out to callers
            for request in batch:
                request.error = exc
            return
        for request, result in zip(batch, results):
            request.result = result

    def _attempt(self, request: _Request) -> np.ndarray | None:
        """One execution of ``request``."""
        try:
            if request.is_write:
                self.store.write_bytes(request.offset, request.payload)
                return None
            return self.store.read_bytes(request.offset, request.length)
        except FaultError as exc:
            # Close the write hole before the fault handler or any later
            # request touches the stripe: the journal replays absolute
            # span values, so a later write landing first would have its
            # parity deltas erased by the stale replay. A second fault
            # mid-replay leaves the remainder pending for the handler.
            try:
                self.store.quarantine_interrupted_write(exc.disk)
            except FaultError:
                pass
            raise

    def _handle_fault(self, exc: FaultError) -> bool:
        """Hand a request's fault to the repair controller; True when
        the request may retry. Runs below the queue, so the controller
        sees a quiescent array."""
        if self.repair is None or not self.repair.handle_fault(exc):
            return False
        self.stats.retried_requests += 1
        return True

    def _complete(self, batch: "list[_Request]") -> None:
        """Account for an executed batch, run the repair ticks it
        brought due, and hand back its outcomes.

        One rule for every mode: only requests that returned count as
        completed — in the stats and toward the ``repair_every`` QoS
        tick. Due ticks run before the outcomes are handed back, and a
        tick's error becomes the outcome of every request in the batch.
        Then admission slots are released and dispatcher futures
        resolved. A ``BaseException`` that is not an ``Exception`` skips
        the ticks and propagates after the hand-back: the thread running
        the batch is going down.
        """
        now = time.perf_counter()
        self.batches += 1
        self.batched_requests += len(batch)
        stats = self.stats
        before = stats.requests
        interrupted: BaseException | None = None
        for request in batch:
            if request.error is None:
                stats.record(
                    request.is_write, request.length,
                    (now - request.started) * 1e3,
                )
            elif not isinstance(request.error, Exception):
                interrupted = request.error
        try:
            if self.repair_every and interrupted is None:
                every = self.repair_every
                for _ in range(stats.requests // every - before // every):
                    self._repair_tick()
        except Exception as exc:  # noqa: BLE001 - the batch's callers'
            for request in batch:
                request.error = exc
        finally:
            for request in batch:
                self._admission.release()
                if request.future is not None:
                    request.settle(request.future)
        if interrupted is not None:
            raise interrupted

    def _repair_tick(self) -> None:
        """One throttled repair tick (below the queue)."""
        self.repair.tick()
        self.stats.repair_ticks += 1

    def drain_repair(self) -> None:
        """Run repair ticks, as one queued request, until the array is
        healthy."""
        if self.repair is not None:
            self._combiner.execute(self.repair.drain)

    # ------------------------------------------------------------------
    # the coalescing dispatcher (batch_size > 1, no stripe cache)
    # ------------------------------------------------------------------
    def _to_dispatcher(self, request: _Request) -> bool:
        """Hand ``request`` to the dispatcher, starting it on first use;
        False once :meth:`close` has stopped it."""
        with self._dispatcher_lock:
            if not self._dispatching:
                return False
            per_stripe = self._per_stripe_bytes
            request.stripes = range(
                request.offset // per_stripe,
                (request.offset + request.length - 1) // per_stripe + 1,
            )
            # Running, so its holder cannot cancel it and resolving it
            # cannot fail.
            request.future = Future()
            request.future.set_running_or_notify_cancel()
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-batch-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
            self._arrivals.put(request)
            return True

    def _dispatch_loop(self) -> None:
        """Collect pending requests, compose affine batches, dispatch.

        Each round :meth:`_collect` fills the dispatcher's pending
        buffer (blocking for the first arrival, adaptively waiting for a
        full batch, then draining whatever else already queued — the
        deeper the buffer, the better :meth:`_compose` can group by
        stripe) and :meth:`_compose` carves one batch out of it, which
        runs through the combining queue as one request. On shutdown the
        remaining pending requests drain batch by batch.

        A ``BaseException`` that interrupts a batch is already the
        outcome of the batch's unfinished requests, in their futures; the
        dispatcher goes on serving, so no later request is stranded.
        """
        pending: "list[_Request]" = []
        stopping = False
        while True:
            if not stopping:
                stopping = self._collect(pending)
            if not pending:
                return
            batch = self._compose(pending)
            try:
                self._combiner.execute(partial(self._serve, batch))
            except BaseException:  # noqa: BLE001 - handed to the batch
                pass
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
            item = self._arrivals.get()
            if item is None:
                return True
            pending.append(item)
        if len(pending) < self.batch_size:
            deadline = time.perf_counter() + self._batch_wait_s
            while len(pending) < self.batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    nxt = (
                        self._arrivals.get(timeout=remaining)
                        if remaining > 0
                        else self._arrivals.get_nowait()
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
                nxt = self._arrivals.get_nowait()
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
