"""A byte-addressed block device over the real erasure-coded store.

:class:`repro.store.ArrayStore` speaks chunks; real traces speak bytes at
arbitrary (sector-aligned or not) offsets. :class:`BlockDevice` closes
that gap: unaligned offsets and lengths, partial-chunk read-modify-write,
and multi-stripe requests all route through the store's planner-driven
byte path, so a sub-chunk write still costs exactly what the plan says
(on TIP: 1 data + 3 parity chunks read and written — the partial-chunk
splice rides on the delta path's existing pre-read for free).

:meth:`BlockDevice.replay` runs any :class:`~repro.traces.Trace` —
synthetic (:func:`~repro.traces.generate_trace`) or parsed from a CSV
(:func:`~repro.traces.parse_csv_trace`) — against the backing files and
returns per-request and aggregate measured I/O counters, the real-store
counterpart of the DiskSim simulator's planned replay (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_bytes_array, check_byte_range
from repro.faults.inject import FaultError, retry_faults
from repro.traces.model import Trace, TraceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.repair import RepairController, RepairStats
    from repro.raid.cache import CacheStats
    from repro.store import ArrayStore, IoCounters

__all__ = ["BlockDevice", "ReplayResult"]


@dataclass
class ReplayResult:
    """Measured outcome of replaying one trace against a real store."""

    trace_name: str
    requests: int
    reads: int
    writes: int
    bytes_read: int
    bytes_written: int
    read_chunks: int
    write_chunks: int
    io: "IoCounters"
    per_request: list["IoCounters"] = field(repr=False, default_factory=list)
    #: Write-back cache stats for this replay (None when uncached):
    #: hit rate, raw-vs-coalesced I/O, parity-write amortization.
    cache: "CacheStats | None" = None
    #: Repair-loop stats for this replay (None when no controller was
    #: attached): faults handled, stripes rebuilt, rebuild I/O.
    repair: "RepairStats | None" = None
    #: Requests retried after an injected fault was handled.
    retried_requests: int = 0

    @property
    def chunks_per_write(self) -> float:
        """Average measured chunk I/Os per write request (Fig. 12's axis,
        measured on real files instead of counted analytically)."""
        return self.write_chunks / self.writes if self.writes else 0.0

    @property
    def chunks_per_read(self) -> float:
        """Average measured chunk I/Os per read request."""
        return self.read_chunks / self.reads if self.reads else 0.0


class BlockDevice:
    """Byte-granular front-end over an :class:`~repro.store.ArrayStore`.

    Args:
        store: the chunk store to serve from. The device addresses the
            store's full logical capacity
            (``store.capacity_chunks * store.chunk_bytes`` bytes).
    """

    def __init__(self, store: "ArrayStore") -> None:
        self.store = store
        self.mapping = store.planner.mapping
        self.capacity_bytes = store.capacity_chunks * store.chunk_bytes

    # ------------------------------------------------------------------
    # byte I/O
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (degraded-safe)."""
        check_byte_range(offset, length, self.capacity_bytes, "device")
        return self.store.read_bytes(offset, length).tobytes()

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        """Write ``data`` at byte ``offset``; any alignment is accepted.

        Partial-chunk updates are read-modify-write on the store's delta
        fast path: the old chunk the delta needs anyway provides the
        bytes around the splice, so unaligned writes cost exactly the
        same chunk I/Os as aligned ones.
        """
        buf = as_bytes_array(data)
        check_byte_range(offset, buf.size, self.capacity_bytes, "device")
        self.store.write_bytes(offset, buf)

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def _map_request(self, request: TraceRequest) -> tuple[int, int]:
        """Fold a trace request into the device's address space.

        Traces address the volume they were captured on; the replayed
        device is usually smaller. Offsets wrap modulo capacity and
        lengths clamp to the remaining span — the standard trace-replay
        convention, preserving the request-size distribution for all but
        the (rare) wrap-straddling requests.
        """
        offset = request.offset % self.capacity_bytes
        length = min(request.length, self.capacity_bytes - offset)
        return offset, length

    def replay(
        self,
        trace: Trace,
        repair: "RepairController | None" = None,
        scrub_every: int = 0,
    ) -> ReplayResult:
        """Replay every request of ``trace`` against the real store.

        Returns measured per-request and aggregate
        :class:`~repro.store.IoCounters` — the store meters actual chunk
        transfers to/from its backing files, so these numbers are
        evidence, not estimates.

        With a :class:`~repro.faults.repair.RepairController` attached,
        injected faults surfacing from a request are handled (disk
        replaced and queued for rebuild, latent stripe repaired, write
        journal rolled forward) and the request retried; with
        ``scrub_every > 0`` the controller additionally gets one
        throttled :meth:`~repro.faults.repair.RepairController.tick`
        every that many requests, interleaving rebuild/scrub bandwidth
        with foreground traffic. Any rebuild still in flight is drained
        before returning, so the device always hands back a healthy
        array. Background repair I/O lands in the aggregate ``io`` but
        not in ``per_request`` — the split ``bench_scrub`` reports.
        """
        store = self.store
        cache = getattr(store, "cache", None)
        cache_before = cache.stats.snapshot() if cache is not None else None
        start = store.io.snapshot()
        per_request: list[IoCounters] = []
        reads = writes = 0
        bytes_read = bytes_written = 0
        read_chunks = write_chunks = 0
        retried = 0

        def handle_fault(exc: FaultError) -> bool:
            nonlocal retried
            handled = repair.handle_fault(exc)
            retried += handled
            return handled

        handler = handle_fault if repair is not None else None
        for index, request in enumerate(trace):
            offset, length = self._map_request(request)
            before = store.io.snapshot()
            what = f"request at offset {offset}"
            if request.is_write:
                payload = _payload(request, length)
                retry_faults(store.write_bytes, handler, what, offset, payload)
            else:
                retry_faults(store.read_bytes, handler, what, offset, length)
            done = store.io.snapshot() - before
            per_request.append(done)
            if request.is_write:
                writes += 1
                bytes_written += length
                write_chunks += done.total_chunks
            else:
                reads += 1
                bytes_read += length
                read_chunks += done.total_chunks
            if (
                repair is not None
                and scrub_every > 0
                and (index + 1) % scrub_every == 0
            ):
                repair.tick()
        if repair is not None:
            repair.drain()
        if cache is not None:
            # Flush so the aggregate counters cover everything the trace
            # made durable; the final flush belongs to the replay as a
            # whole, not to any single request.
            store.flush()
        return ReplayResult(
            trace_name=trace.name,
            requests=len(per_request),
            reads=reads,
            writes=writes,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            read_chunks=read_chunks,
            write_chunks=write_chunks,
            io=store.io.snapshot() - start,
            per_request=per_request,
            cache=(
                cache.stats.snapshot() - cache_before
                if cache is not None
                else None
            ),
            repair=repair.stats if repair is not None else None,
            retried_requests=retried,
        )


def _payload(request: TraceRequest, length: int) -> np.ndarray:
    """Deterministic per-request payload bytes for write replay.

    Traces carry no data, only geometry; replay needs bytes. Each request
    gets a cheap deterministic pattern derived from its offset so repeated
    replays are reproducible and read-back checks are meaningful.
    """
    seed = (request.offset * 2654435761 + request.length) & 0xFFFFFFFF
    pattern = np.arange(length, dtype=np.int64) + seed
    return (pattern % 251).astype(np.uint8)
