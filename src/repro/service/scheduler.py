"""The block service: many callers, one array.

:class:`BlockService` is the byte-addressed front door of one
:class:`~repro.store.ArrayStore`. It decides *who runs when*; below it
one request, or one batch, runs at a time, and it starts no thread to
do so:

* **flat combining.** Every request — ``read``, ``write``, an
  ``enqueue``d request, ``drain_repair`` and the flush in ``close`` —
  joins one FIFO :class:`~repro.service.locks.CombiningQueue`, the same
  queue :class:`~repro.service.VolumeService` runs from. A caller that
  finds no combiner runs the queue on its own thread; every other
  caller sleeps until its request has run, an ``enqueue`` too. Requests
  run in arrival order, rounds are bounded, and a request's
  ``Exception`` is raised in its own caller only (the queue's rules).
* **held batches where batches merge I/O.** With ``batch_size`` above
  1 on a store without a stripe cache, a request is *held* instead:
  its queued call puts it in the held set and returns, with a future.
  A batch is carved from the held set by **stripe affinity** —
  same-stripe requests join for free, a small budget caps the distinct
  stripes a batch opens, per-stripe FIFO order is preserved so the
  reordering is invisible — and runs through
  :meth:`~repro.store.ArrayStore.execute_batch`'s merged span I/O.
  The request that finds ``max_inflight`` requests held first runs one
  such batch; asking a held future for its outcome, any ``read``,
  ``write`` or ``submit_*`` (each waits for its own held request),
  ``drain_repair`` and ``close`` run every held request, batch by
  batch. So batch composition is a pure function of the request
  stream. Chunk ``IoCounters`` are identical to per-request execution;
  only the syscall count and the per-request Python overhead drop. On a
  cached store ``execute_batch`` applies its ops one by one through the
  cache and merges nothing, so there, as with ``batch_size`` 0 or 1,
  every request runs as soon as its turn comes. The mode is decided
  once, at construction.
* **maintenance runs below the queue.** Injected faults surfacing from
  a request go to the :class:`~repro.faults.repair.RepairController`
  from within that request, which then retries; one throttled repair
  tick runs after every ``repair_every`` completed foreground requests,
  right after the request or batch that brought it due — the
  concurrent analogue of ``BlockDevice.replay(scrub_every=...)``. Either
  way repair sees a quiescent array, as in the serial replay loop.
* **admission** is a strict-FIFO counting semaphore (``max_inflight``)
  on requests admitted and not yet completed. Held requests take no
  slot: the held set is bounded by ``max_inflight`` itself.

Every request runs through one pipeline, :meth:`BlockService._dispatch`
→ :meth:`BlockService._complete`, as a batch: of one, or as carved
from the held set. Everything below the queue (store, cache, journal,
repair controller) is single-caller and takes no locks, so direct
multi-threaded use of the store beside a running service is
unsupported. Once :meth:`BlockService.close` has begun, every new
request raises ``RuntimeError``.

Latency is measured per request from admission to completion
(:class:`ServiceStats` collects the samples; `p50/p99` come from
:func:`percentile`), which is what the closed-loop load generator in
:mod:`repro.service.loadgen` sweeps against offered load.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

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


def percentile(samples: "Sequence[float]", fraction: float) -> float:
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
    #: Per-request latency in milliseconds, admission to completion:
    #: float64 samples, 8 bytes each where a list of floats takes 32.
    latencies_ms: array = field(
        repr=False, default_factory=lambda: array("d")
    )

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


class _HeldFuture(Future):
    """The future of a held request. :func:`concurrent.futures.wait`
    and ``as_completed`` ask it for nothing, so on their own they wait
    for whatever next runs the held set."""

    def __init__(self, service: "BlockService") -> None:
        super().__init__()
        self._service = service
        # Running, so its holder cannot cancel it and resolving it
        # cannot fail.
        self.set_running_or_notify_cancel()

    def _run_held(self) -> None:
        if not self.done():
            self._service._combiner.execute(self._service._run_held)

    def result(self, timeout: float | None = None):
        """Run every held request, as one queued call on this thread,
        then return the request's result (``timeout`` does not bound
        that call)."""
        self._run_held()
        return super().result(timeout)

    def exception(self, timeout: float | None = None):
        """Run every held request as :meth:`result` does, then return
        the request's exception."""
        self._run_held()
        return super().exception(timeout)


class _Request:
    """One admitted request and, once executed, its outcome.

    It is what the combining queue runs (:meth:`run`), with ``gate``
    the held lock its caller sleeps on; such a request carries its
    outcome on itself and allocates no :class:`Future`. A held request
    carries a :class:`_HeldFuture` instead, which resolves once the
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
        #: The stripes the byte range touches; set for a held request,
        #: since batches are carved by them.
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
        """The request's result (running the held set first if it is
        held); raises what the request raised."""
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
            completed; defaults to ``4 * workers`` (and at least
            ``batch_size``, so a full batch can ever be held). Every
            caller waits for its own request, so it bounds the callers
            in the combining queue at once; where requests are held it
            bounds the held set instead.
        batch_size: 0 (default) and 1 execute every request as a batch
            of one through the combining queue; 0 also refuses
            :meth:`enqueue`, so 1 is the batched mode's degenerate
            per-request baseline. Above 1, on a store without a stripe
            cache, requests are held and run in batches of up to this
            many per :meth:`~repro.store.ArrayStore.execute_batch` call
            (see the module docstring). On a cached store, where
            ``execute_batch`` merges no I/O, values above 1 run requests
            as 1 does.
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
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if repair_every < 0:
            raise ValueError("repair_every must be >= 0")
        if repair_every and repair is None:
            raise ValueError("repair_every needs a repair controller")
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        self.store = store
        self.device = BlockDevice(store)
        #: Addressable bytes (the device's full logical capacity).
        self.capacity_bytes = self.device.capacity_bytes
        self.workers = workers
        self.repair = repair
        self.repair_every = repair_every
        self.batch_size = batch_size
        self.stats = ServiceStats()
        inflight = max_inflight if max_inflight is not None else 4 * workers
        self._window = max(inflight, batch_size)
        self._admission = FifoSemaphore(self._window)
        #: Runs every request, batch and maintenance call, one at a time.
        self._combiner = CombiningQueue()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        #: Whether requests are held and run in carved batches: only
        #: where ``execute_batch`` merges span I/O, on a store without a
        #: cache.
        self._batching = batch_size > 1 and store.cache is None
        #: Held requests in arrival order (touched only below the queue).
        self._held: "list[_Request]" = []
        self._per_stripe_bytes = store.code.num_data * store.chunk_bytes
        #: Distinct new stripes one batch may open during stripe-affinity
        #: composition (see :meth:`_compose`); same-stripe requests join
        #: for free, so a small budget is what concentrates a batch onto
        #: few stripes and lets span merging actually bite.
        self._stripe_budget = max(2, batch_size // 5)
        #: Batches executed and requests they carried (mean batch fill =
        #: ``batched_requests / batches``; 1 unless requests are held).
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
        """Refuse new requests; drain the pool and the queue; then run
        every held request, drain repair and flush the cache, as one
        queued request. Requests submitted to the pool before still
        run."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._combiner.execute(self._drain_and_flush)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the block service is closed")

    def _drain(self) -> None:
        """Run every held request, then repair until the array is
        healthy (below the queue)."""
        self._run_held()
        if self.repair is not None:
            self.repair.drain()

    def _drain_and_flush(self) -> None:
        self._drain()
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
        on it (contended acquires only). A service that holds requests
        takes no slot, so it counts nothing here.
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

        This is the open-loop entry the batched load generator drives.
        Where requests are held, the request is held and the returned
        future resolves once its batch has run: up to ``max_inflight``
        held requests from one submitter is what lets batches fill, and
        the ``enqueue`` that finds them all held first runs one batch on
        its own thread. Otherwise the request joins the combining queue
        as :meth:`read` and :meth:`write` do (taking an admission slot
        on the calling thread), and has run, on this thread or on the
        combiner's, when this returns a completed future.
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

        Where requests are held, a queued call holds the request, with
        a :class:`_HeldFuture` and no admission slot. Otherwise it
        takes a slot, joins the combining queue and the caller waits
        until it has run, running the queue itself if no combiner is
        active.
        """
        request = _Request(
            self, is_write, offset, length, payload, time.perf_counter()
        )
        if self._batching:
            per_stripe = self._per_stripe_bytes
            request.stripes = range(
                offset // per_stripe, (offset + length - 1) // per_stripe + 1
            )
            request.future = _HeldFuture(self)
            self._combiner.execute(partial(self._hold, request))
            return request
        self._admission.acquire()
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
        Then admission slots are released and held requests' futures
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
                if request.future is None:
                    self._admission.release()
                else:
                    request.settle(request.future)
        if interrupted is not None:
            raise interrupted

    def _repair_tick(self) -> None:
        """One throttled repair tick (below the queue)."""
        self.repair.tick()
        self.stats.repair_ticks += 1

    def drain_repair(self) -> None:
        """Run every held request, then repair ticks until the array is
        healthy, as one queued request."""
        self._combiner.execute(self._drain)

    # ------------------------------------------------------------------
    # held requests (batch_size > 1, no stripe cache)
    # ------------------------------------------------------------------
    def _hold(self, request: _Request) -> None:
        """Hold ``request`` (below the queue). A held set already
        ``max_inflight`` deep first runs the one batch :meth:`_compose`
        carves from it: a sliding window over the request stream."""
        held = self._held
        if len(held) >= self._window:
            self._serve(self._compose(held))
        held.append(request)
        if self._closed:
            # Raced past close's check, maybe behind its drain: nothing
            # would run it later.
            self._run_held()

    def _run_held(self) -> None:
        """Run every held request, in the batches :meth:`_compose`
        carves (below the queue). A ``BaseException`` from a batch
        propagates and leaves the rest held for the next run."""
        held = self._held
        while held:
            self._serve(self._compose(held))

    def _compose(self, pending: "list[_Request]") -> "list[_Request]":
        """Carve one stripe-affine batch out of the held requests.

        Consecutive arrivals rarely share stripes, which caps span
        merging at whatever locality the workload happens to interleave;
        selecting *same-stripe* requests from a deeper held set is what
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
        * the oldest held request is always taken (no starvation), and
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
