"""Closed-loop concurrent trace replay against the block service.

The serial :meth:`repro.raid.BlockDevice.replay` answers "what does one
caller cost"; this module answers the ROADMAP's fleet question: what
happens to tail latency when *N* callers contend. Each worker replays
its own trace closed-loop — issue a request, wait for completion, issue
the next — so offered load is set by the worker count, the classic
closed-loop load-generator model. Latency is sampled per request
(admission to completion) and summarized as p50/p99.

Determinism contract (the cross-validation PR 3 established, extended to
concurrency): payload bytes are the same offset-derived pattern serial
replay uses, so replaying **disjoint** traces concurrently must produce
a byte-identical array and identical aggregate ``IoCounters`` to
replaying them back-to-back serially — per-stripe state never depends
on cross-stripe interleaving. :func:`split_disjoint` builds such traces
by confining one source trace to per-worker stripe-aligned partitions;
``tests/test_service.py`` and ``benchmarks/bench_service.py`` hold the
service to the contract.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.raid.blockdevice import _payload
from repro.service.scheduler import BlockService, ServiceStats
from repro.store.metering import IoCounters, SyscallCounters
from repro.traces.model import Trace, TraceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.repair import RepairStats
    from repro.raid.cache import CacheStats
    from repro.store import ArrayStore

__all__ = [
    "ConcurrentReplayResult",
    "replay_batched",
    "replay_concurrent",
    "split_disjoint",
]


@dataclass
class ConcurrentReplayResult(ServiceStats):
    """Measured outcome of a replay: the service's stats plus context."""

    workers: int = 1
    elapsed_s: float = 0.0
    #: Aggregate measured chunk I/O over the whole replay (foreground +
    #: any repair), from the store's own meters.
    io: IoCounters = field(default_factory=IoCounters)
    cache: "CacheStats | None" = None
    repair: "RepairStats | None" = None
    #: Physical backing-file syscalls over the replay window.
    syscalls: SyscallCounters = field(default_factory=SyscallCounters)
    #: Admission counters from :meth:`BlockService.contention`: the
    #: ``max_inflight`` gate's acquisitions and blocked milliseconds.
    contention: dict[str, float | int] = field(default_factory=dict)
    #: CPUs on the recording host (scaling context for the counters).
    host_cpus: int = 0
    #: Batch geometry: requested batch size (0 = per-request execution)
    #: and batches actually executed (one per request unless a
    #: dispatcher composed them).
    batch_size: int = 0
    batches: int = 0

    @property
    def throughput_iops(self) -> float:
        """Completed requests per wall-clock second."""
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def syscalls_per_request(self) -> float:
        """Mean backing-file syscalls per completed request."""
        return self.syscalls.total / self.requests if self.requests else 0.0


def split_disjoint(
    trace: Trace, parts: int, store: "ArrayStore"
) -> list[Trace]:
    """Split ``trace`` into ``parts`` traces over disjoint stripe ranges.

    The store's stripes are divided into ``parts`` equal contiguous
    partitions (stripe-aligned, so no two partitions share any parity
    chain); requests are dealt round-robin and each request's offset is
    folded into its partition's byte range, lengths clamped to the
    partition — the same wrap-and-clamp convention serial replay applies
    at device scale. Replaying the pieces concurrently is then free of
    data races *by address*, which is what makes the serial-equivalence
    contract testable.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if len(trace) < parts:
        raise ValueError(
            f"trace has {len(trace)} requests, cannot feed {parts} workers"
        )
    stripes_per_part = store.stripes // parts
    if stripes_per_part < 1:
        raise ValueError(
            f"{store.stripes} stripes cannot host {parts} disjoint partitions"
        )
    part_bytes = stripes_per_part * store.code.num_data * store.chunk_bytes
    buckets: list[list[TraceRequest]] = [[] for _ in range(parts)]
    for index, request in enumerate(trace):
        part = index % parts
        offset = request.offset % part_bytes
        buckets[part].append(
            TraceRequest(
                timestamp=request.timestamp,
                offset=part * part_bytes + offset,
                length=min(request.length, part_bytes - offset),
                is_write=request.is_write,
            )
        )
    return [
        Trace(f"{trace.name}[{part}/{parts}]", requests)
        for part, requests in enumerate(buckets)
    ]


def _replay(
    store: "ArrayStore",
    service: BlockService,
    drive: Callable[[BlockService], None],
) -> ConcurrentReplayResult:
    """Run ``drive(service)``, close the service, measure the window.

    The service is closed (repair drained, cache flushed) before the
    result is assembled, so the aggregate counters cover everything the
    replay made durable — mirroring what serial
    :meth:`~repro.raid.BlockDevice.replay` counts. A drive that timed
    out leaves the service open: closing it would wait on the same
    stuck request.
    """
    io_before = store.io.snapshot()
    syscalls_before = store.syscalls.snapshot()
    cache = store.cache
    cache_before = cache.stats.snapshot() if cache is not None else None
    started = time.perf_counter()
    try:
        drive(service)
    except TimeoutError:
        raise
    except BaseException:
        service.close()
        raise
    service.close()
    return ConcurrentReplayResult(
        **asdict(service.stats),
        workers=service.workers,
        elapsed_s=time.perf_counter() - started,
        io=store.io.snapshot() - io_before,
        cache=(
            cache.stats.snapshot() - cache_before
            if cache is not None
            else None
        ),
        repair=service.repair.stats if service.repair is not None else None,
        syscalls=store.syscalls.snapshot() - syscalls_before,
        contention=service.contention(),
        host_cpus=os.cpu_count() or 1,
        batch_size=service.batch_size,
        batches=service.batches,
    )


def _replay_worker(
    service: BlockService,
    trace: Trace,
    barrier: threading.Barrier,
    errors: list[BaseException],
) -> None:
    """One closed-loop client: replay ``trace`` request by request."""
    fold = service.device._map_request
    try:
        barrier.wait()
        for request in trace:
            offset, length = fold(request)
            if request.is_write:
                service.write(offset, _payload(request, length))
            else:
                service.read(offset, length)
    except BaseException as exc:
        # Recorded for the caller to re-raise after join — swallowed
        # here so the thread dies quietly instead of double-reporting.
        errors.append(exc)
        # Unblock workers still waiting on the start barrier.
        barrier.abort()


def replay_concurrent(
    store: "ArrayStore",
    traces: Sequence[Trace],
    *,
    repair=None,
    repair_every: int = 0,
    join_timeout_s: float = 600.0,
    batch_size: int = 0,
) -> ConcurrentReplayResult:
    """Replay ``traces`` concurrently, one closed-loop worker per trace.

    Workers start together (barrier-synchronized) and each replays its
    trace through a shared :class:`BlockService`, whose combining queue
    runs their requests one at a time, in arrival order, on the workers'
    own threads. With ``batch_size > 1`` on a store without a stripe
    cache the service's dispatcher batches instead — workers stay
    closed-loop, so batches only fill as far as the worker count allows;
    use :func:`replay_batched` for an open-loop batch sweep.
    """

    def drive(service: BlockService) -> None:
        barrier = threading.Barrier(len(traces))
        errors: list[BaseException] = []
        threads = [
            threading.Thread(
                target=_replay_worker,
                args=(service, trace, barrier, errors),
                name=f"repro-loadgen-{index}",
                daemon=True,
            )
            for index, trace in enumerate(traces)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=join_timeout_s)
            if thread.is_alive():
                raise TimeoutError(
                    f"load worker {thread.name} still running after "
                    f"{join_timeout_s}s — suspected deadlock"
                )
        if errors:
            # Prefer the root cause over the BrokenBarrierError fallout
            # the abort caused in the other workers.
            raise next(
                (
                    error
                    for error in errors
                    if not isinstance(error, threading.BrokenBarrierError)
                ),
                errors[0],
            )

    service = BlockService(
        store,
        workers=max(1, len(traces)),
        repair=repair,
        repair_every=repair_every,
        batch_size=batch_size,
    )
    return _replay(store, service, drive)


def replay_batched(
    store: "ArrayStore",
    trace: Trace,
    *,
    batch_size: int,
    window: int | None = None,
    repair=None,
    repair_every: int = 0,
    join_timeout_s: float = 600.0,
) -> ConcurrentReplayResult:
    """Replay ``trace`` open-loop through a batching service.

    One submitter issues requests in strict trace order via
    :meth:`BlockService.enqueue`. Batches fill only on a store without a
    stripe cache, where the service runs a dispatcher: the admission
    gate (``window`` outstanding requests, default ``16 * batch_size``)
    is the only backpressure, so the dispatcher sees a standing queue
    and batches actually fill — a closed-loop worker pool can never
    offer more than ``workers`` concurrent requests, which is why the
    worker sweep and the batch sweep are different experiments. The
    default window is deliberately much deeper than one batch: it is the
    dispatcher's stripe-affinity reorder horizon, and affinity is what
    converts cross-request overlap into span coalescing. On a cached
    store, and at ``batch_size=1``, every request runs on the submitter's
    thread as it is issued, a batch of one, so the replay is the serial
    one, down to the cache's hit and eviction counts. Replay stays
    deterministic at the byte level regardless of batch size: the
    dispatcher preserves per-stripe FIFO order and requests on disjoint
    stripes commute, so any two batch sizes produce byte-identical
    arrays and identical aggregate chunk ``IoCounters``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    def drive(service: BlockService) -> None:
        fold = service.device._map_request
        futures = []
        for request in trace:
            offset, length = fold(request)
            futures.append(
                service.enqueue(True, offset, _payload(request, length))
                if request.is_write
                else service.enqueue(False, offset, length)
            )
        for future in futures:
            future.result(timeout=join_timeout_s)

    service = BlockService(
        store,
        workers=1,
        repair=repair,
        repair_every=repair_every,
        batch_size=batch_size,
        max_inflight=window if window is not None else max(32, 16 * batch_size),
    )
    return _replay(store, service, drive)
