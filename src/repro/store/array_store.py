"""A persistent erasure-coded chunk store over per-disk backing files.

Layout: disk ``d`` is one file of ``stripes * rows`` chunks; element
``(row, col)`` of stripe ``s`` lives at chunk offset ``s * rows + row`` of
disk ``col``'s file — the same mapping the simulator's RAID controller
uses. The public interface is a logical chunk device:

* :meth:`ArrayStore.write_chunks` / :meth:`read_chunks` — logical I/O
  with parity maintenance;
* :meth:`fail_disk` / :meth:`rebuild` — take a disk offline (its file is
  zeroed, like a replaced drive) and reconstruct it from survivors;
* :meth:`scrub` — verify every stripe's parity chains.

Write path (the paper's headline property, Sec. III / Table 2): a small
write takes the **delta read-modify-write fast path** — read the old data
chunk and the parity chunks that depend on it (``ArrayCode.
parity_dependents``, derived from the generator matrix), XOR the data
delta through each, write back. On TIP that is exactly 1 data + 3 parity
chunks read and written, the provable optimum; chained codes (STAR,
Triple-Star) touch more. A healthy run for which that costs more chunk
I/Os than **reconstruct-write** takes RCW instead: read the data the run
leaves, re-encode the stripe, write the run's chunks and their dependent
parities, one span I/O per disk each way (the paper's RMW/RCW split,
Sec. VI-B). Degraded writes take the **full-stripe path** (load,
reconstruct, re-encode, store). The shared planner picks the path by
chunk I/O count. Aligned whole-stripe overwrites load nothing:
:meth:`ArrayStore.write_stripes` encodes a run of them as one batch and
writes each disk's span with one write. Every path that re-encodes
whole stripes journals one *data record* of their logical data, from
which replay re-derives the parity.

Multi-stripe buffers are *disk-order batches* of shape ``(cols,
stripes, rows, chunk)``: ``batch[col]`` is exactly disk ``col``'s span
of those stripes, so loading a batch is one read straight into place
per surviving disk and storing it one contiguous write per disk, and
``ArrayCode.encode`` / ``Decoder.decode_columns`` run over every stripe
of it in one call.

Every operation is metered: :attr:`ArrayStore.io` accumulates chunk
reads/writes split by data/parity for the store's lifetime, and
:attr:`ArrayStore.last_io` holds the same counters for the most recent
public operation — this is how tests and the write-path ablation prove
the per-write I/O footprint rather than assume it.

With ``cache_stripes > 0`` a write-back stripe cache
(:mod:`repro.raid.cache`) sits in front of the delta path: healthy
logical I/O is absorbed, successive parity deltas per stripe are
XOR-coalesced, and parity is committed once per flush (eviction,
:meth:`ArrayStore.flush`, :meth:`ArrayStore.close`) with data strictly
before parity. The cache's :class:`CacheStats` report raw-vs-coalesced
chunk I/O; the store's own counters then meter the coalesced traffic.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Sequence

import numpy as np

from repro._util import as_bytes_array, check_byte_range
from repro.codes.base import ArrayCode, Decoder, Position
from repro.raid.mapping import WIDE_WRITE_STRIPES, ChunkRun
from repro.raid.planner import BatchItem, RequestPlanner, RunPlan
from repro.store.journal import JournalRecord, MemoryJournal, WriteJournal
from repro.store.metering import IoCounters, SyscallCounters

if TYPE_CHECKING:
    from repro.faults.inject import FaultPlan

__all__ = ["ArrayStore", "DiskFailedError", "IoCounters", "WRITE_MODES"]

logger = logging.getLogger(__name__)

#: Valid ``write_mode`` arguments: ``auto`` picks delta, reconstruct-
#: write or the stripe path per run by chunk I/O count, ``delta``/
#: ``stripe`` force one path (degraded writes always use the stripe path
#: regardless).
WRITE_MODES = ("auto", "delta", "stripe")

#: ``write_mode`` → planner write strategy. The store executes plans; the
#: planner (shared with the DiskSim controller) owns path selection.
_MODE_TO_STRATEGY = {"auto": "delta", "delta": "delta-always", "stripe": "stripe"}

#: Vectored I/O availability (Linux/BSD yes, some platforms no). Without
#: ``preadv`` a span is read as bytes and copied into place; without
#: ``pwritev`` it is written with ``pwrite``. Either way one syscall per
#: span.
_HAS_PREADV = hasattr(os, "preadv")
_HAS_PWRITEV = hasattr(os, "pwritev")
_HAS_FADVISE = hasattr(os, "posix_fadvise")


class DiskFailedError(RuntimeError):
    """Raised when an operation needs a disk that is marked failed."""


class ArrayStore:
    """An erasure-coded chunk store persisted as one file per disk.

    Args:
        code: the array code protecting the store.
        directory: where the per-disk files live (created if missing).
        stripes: stripe count; capacity = ``stripes * code.num_data``
            chunks.
        chunk_bytes: chunk (element) size in bytes.
        write_mode: ``"auto"`` (default) picks delta RMW,
            reconstruct-write or full-stripe per run by chunk I/O count;
            ``"delta"`` / ``"stripe"`` force one path (delta still falls
            back while degraded).
        rebuild_batch: stripes read, bulk-decoded and written back per
            rebuild round. Batching turns per-stripe reads into one
            contiguous span read per surviving disk and lets one
            recovery-plan run decode every stripe of the batch.
        cache_stripes: capacity of the write-back stripe cache
            (:class:`repro.raid.cache.StripeCache`) in stripes; 0
            (default) disables caching. With a cache, healthy logical
            I/O is absorbed and parity deltas from successive writes to
            one stripe are XOR-coalesced, committed on eviction /
            :meth:`flush` / :meth:`close` with data strictly before
            parity. While degraded the cache is drained and bypassed.
        fault_plan: a :class:`repro.faults.inject.FaultPlan` to inject
            at the span-I/O boundary (every backing-file read/write
            passes through a :class:`~repro.faults.inject.
            FaultyDiskBackend`); ``None`` (default) runs faultless.
            With a plan set, mutating writes additionally keep an
            in-memory journal so a write interrupted mid-flight by an
            injected fault can be rolled forward with
            :meth:`complete_interrupted_write`.
        journal: a :class:`~repro.store.journal.WriteJournal` to record
            write intents in. ``None`` (default) keeps the original
            behaviour: a private in-memory :class:`~repro.store.journal.
            MemoryJournal`, active only while a fault plan is attached.
            Passing a journal explicitly — typically a shared on-disk
            :class:`~repro.store.journal.IntentJournal` — journals
            *every* mutating run (journal-before-data), and if the
            journal holds unrecovered records for this store's
            ``shard_id`` from a previous process they are rolled
            forward during ``__init__`` before any I/O is served.
        shard_id: this store's id inside a shared journal (and inside a
            :class:`~repro.volume.VolumeManager`); 0 for standalone
            stores.
        span_bridge_chunks: gap-bridging distance (in chunks) for
            :meth:`execute_batch` span coalescing — two planned chunk
            I/Os on one disk separated by at most this many uncovered
            chunks merge into one span, trading extra bytes moved at
            memory speed for one syscall saved. 0 coalesces strictly
            adjacent chunks only. Logical :class:`IoCounters` are
            unaffected (bridged gaps are not metered).

    Reopening a directory whose backing files don't match the requested
    geometry raises ``ValueError`` rather than destroying the contents.
    Backing files are kept open (unbuffered) for the store's lifetime;
    call :meth:`close` or use the store as a context manager.

    Single-caller: the store takes no locks, and each call must return
    before the next starts. Serve concurrent callers through
    :class:`~repro.service.BlockService` (or, for a volume's shards,
    :class:`~repro.service.VolumeService`); direct multi-threaded use
    is unsupported.
    """

    def __init__(
        self,
        code: ArrayCode,
        directory: str | Path,
        stripes: int = 16,
        chunk_bytes: int = 4096,
        write_mode: str = "auto",
        rebuild_batch: int = 32,
        cache_stripes: int = 0,
        fault_plan: "FaultPlan | None" = None,
        journal: WriteJournal | None = None,
        shard_id: int = 0,
        span_bridge_chunks: int = 16,
    ) -> None:
        if stripes <= 0 or chunk_bytes <= 0:
            raise ValueError("stripes and chunk_bytes must be positive")
        if span_bridge_chunks < 0:
            raise ValueError("span_bridge_chunks must be >= 0")
        if write_mode not in WRITE_MODES:
            raise ValueError(
                f"write_mode must be one of {WRITE_MODES}, got {write_mode!r}"
            )
        if rebuild_batch < 1:
            raise ValueError("rebuild_batch must be >= 1")
        if cache_stripes < 0:
            raise ValueError("cache_stripes must be >= 0")
        self.code = code
        self.directory = Path(directory)
        self.stripes = stripes
        self.chunk_bytes = chunk_bytes
        self.write_mode = write_mode
        self.rebuild_batch = rebuild_batch
        self.failed: set[int] = set()
        self.io = IoCounters()
        self.last_io = IoCounters()
        #: Physical backing-file syscalls (orthogonal to the logical
        #: chunk counters above — see :class:`SyscallCounters`).
        self.syscalls = SyscallCounters()
        #: Max uncovered chunks :meth:`execute_batch` bridges when
        #: coalescing planned chunk I/Os into per-disk spans. A bridged
        #: gap trades a memory-speed copy for a saved syscall; gap bytes
        #: are pre-read in the same batch and written back unchanged.
        self.span_bridge_chunks = span_bridge_chunks
        #: Stripe-runs served by the delta fast path / full-stripe path.
        self.fast_path_writes = 0
        self.slow_path_writes = 0
        #: The shared RAID planning layer: address math + write-path
        #: selection, identical to the DiskSim controller's.
        self.planner = RequestPlanner(
            code, chunk_bytes, write_strategy=_MODE_TO_STRATEGY[write_mode]
        )
        self.cache = None
        if cache_stripes:
            # Deferred import: the cache layers on this module's counters.
            from repro.raid.cache import StripeCache

            self.cache = StripeCache(
                self, code, chunk_bytes, cache_stripes,
                raw_planner=self.planner,
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._disk_bytes = self.planner.mapping.disk_bytes(stripes)
        self._handles: dict[int, BinaryIO] = {}
        self._decoder: Decoder | None = None
        #: The write-intent journal. Default: a private in-memory
        #: journal, active only under a fault plan (it exists to roll an
        #: injected-fault-interrupted write forward; absolute span
        #: values make the replay idempotent). An explicitly passed
        #: journal — e.g. a volume's shared on-disk IntentJournal —
        #: journals every mutating run and is never closed by this
        #: store (its owner closes it once).
        self.shard_id = shard_id
        self._owns_journal = journal is None
        self._journal_always = journal is not None
        self.journal: WriteJournal = (
            journal if journal is not None else MemoryJournal()
        )
        #: Observers of foreground writes: each registered set collects
        #: the stripe indices mutated while it is watching (used by the
        #: incremental repair loop to re-rebuild stripes written during
        #: a rebuild tick).
        self._write_watchers: list[set[int]] = []
        self.fault_plan: "FaultPlan | None" = None
        self._backend = None
        if fault_plan is not None:
            self.set_fault_plan(fault_plan)
        #: Metering role per stored cell (0 data, 1 parity; EMPTY absent).
        self._roles = code.roles
        # Chunks a whole-column transfer moves, split (data, parity) —
        # EMPTY cells carry no information and are not metered.
        self._col_profile = [[0, 0] for _ in range(code.cols)]
        for (_, col), role in self._roles.items():
            self._col_profile[col][role] += 1
        #: Grid rows and columns of the data cells in logical order: the
        #: fancy index that lays whole stripes of payload into a batch.
        self._data_rows, self._data_cols = np.array(code.data_positions).T
        #: The same for the EMPTY cells, which a new batch must zero.
        self._empty_rows, self._empty_cols = np.array(
            [pos for pos in np.ndindex(code.rows, code.cols)
             if pos not in self._roles],
            dtype=np.intp,
        ).reshape(-1, 2).T
        for disk in range(code.cols):
            path = self._disk_path(disk)
            if path.exists():
                actual = path.stat().st_size
                if actual != self._disk_bytes:
                    raise ValueError(
                        f"{path} holds {actual} bytes but the requested "
                        f"geometry (stripes={stripes}, rows={code.rows}, "
                        f"chunk_bytes={chunk_bytes}) needs "
                        f"{self._disk_bytes}; refusing to wipe an existing "
                        f"store — reopen with the original geometry or use "
                        f"a fresh directory"
                    )
            else:
                # Sparse: a hole reads back as zeros, so a fresh disk
                # costs no data writes.
                with path.open("wb") as handle:
                    handle.truncate(self._disk_bytes)
        recover = getattr(self.journal, "recover", None)
        if recover is not None and getattr(self.journal, "durable", False):
            # Replay-on-open: roll forward any write intents a previous
            # process sealed but never committed, before serving any
            # I/O. Recovery bypasses fault injection (it models the
            # controller's own recovery path, not foreground traffic)
            # and is idempotent — a crash mid-recovery just replays the
            # still-unmarked transactions on the next open.
            recover(self._recover_record, shard=self.shard_id)

    def _recover_record(self, record: JournalRecord) -> None:
        """Persist one recovered journal record (raw span writes)."""
        if record.stripe_data:
            self._replay_stripes(record, (), self._raw_write_span)
            return
        self._raw_write_span(record.disk, record.offset, record.payload)
        self._count(*record.meter, wrote=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the cache, then close all backing-file handles
        (reopened lazily if reused).

        The handle close runs even when the cache flush raises (the
        flush error still propagates): dirty write-back state must
        never silently pin open file handles.
        """
        try:
            if self.cache is not None:
                self.cache.flush()
        finally:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    def set_fault_plan(self, plan: "FaultPlan | None") -> None:
        """Attach (or with ``None`` detach) a fault-injection plan.

        All subsequent span I/O flows through a
        :class:`~repro.faults.inject.FaultyDiskBackend` consulting the
        plan; the raw backing files stay the source of truth.
        """
        self.fault_plan = plan
        if plan is None:
            self._backend = None
            return
        from repro.faults.inject import FaultyDiskBackend

        self._backend = FaultyDiskBackend(
            self._raw_read_span, self._raw_write_span, plan, self.chunk_bytes
        )

    def flush(self) -> int:
        """Write back every dirty cached stripe; returns stripes flushed
        (0 when uncached — the uncached store is always write-through)."""
        if self.cache is None:
            return 0
        return self.cache.flush()

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def capacity_chunks(self) -> int:
        """Logical chunks the store can hold."""
        return self.stripes * self.code.num_data

    @property
    def capacity_bytes(self) -> int:
        """Logical bytes the store can hold."""
        return self.capacity_chunks * self.chunk_bytes

    def _disk_path(self, disk: int) -> Path:
        return self.directory / f"disk{disk:03d}.img"

    def _handle(self, disk: int) -> BinaryIO:
        """The disk's persistent unbuffered file handle (opened once).

        Opened with random-access advice where the platform has it: the
        store reads exact spans, so readahead only fetches bytes nobody
        asked for, and on a sparse file's holes it made each 4 KiB read
        cost about 0.3 ms instead of a few microseconds.
        """
        handle = self._handles.get(disk)
        if handle is None or handle.closed:
            handle = self._disk_path(disk).open("r+b", buffering=0)
            if _HAS_FADVISE:
                os.posix_fadvise(handle.fileno(), 0, 0, os.POSIX_FADV_RANDOM)
            self._handles[disk] = handle
        return handle

    def _raw_read_span(self, disk: int, offset: int, length: int) -> bytes:
        fd = self._handle(disk).fileno()
        parts = []
        remaining = length
        cursor = offset
        calls = 0
        while remaining:
            piece = os.pread(fd, remaining, cursor)
            calls += 1
            if not piece:
                raise IOError(
                    f"short read on disk {disk} at offset {offset}"
                )
            parts.append(piece)
            remaining -= len(piece)
            cursor += len(piece)
        self.syscalls.reads += calls
        return b"".join(parts) if len(parts) > 1 else parts[0]

    def _raw_write_span(self, disk: int, offset: int, data) -> None:
        """Write the contiguous buffer ``data`` (bytes or a C-contiguous
        array) at ``offset``: one ``pwritev`` straight from its memory,
        or one ``pwrite`` without ``pwritev``; a short write resumes
        after the bytes that landed."""
        fd = self._handle(disk).fileno()
        view = memoryview(data).cast("B")
        cursor = offset
        calls = 0
        while view:
            if _HAS_PWRITEV:
                written = os.pwritev(fd, [view], cursor)
            else:
                written = os.pwrite(fd, view, cursor)
            calls += 1
            if not written:
                raise IOError(f"short write on disk {disk} at offset {offset}")
            view = view[written:]
            cursor += written
        if _HAS_PWRITEV:
            self.syscalls.vector_writes += calls
        else:
            self.syscalls.writes += calls

    def _read_span(self, disk: int, offset: int, length: int) -> bytes:
        if self._backend is not None:
            return self._backend.read(disk, offset, length)
        return self._raw_read_span(disk, offset, length)

    def _read_span_into(self, disk: int, offset: int, buf: np.ndarray) -> None:
        """Fill the C-contiguous array ``buf`` from the span at ``offset``.

        ``preadv`` is the zero-copy form of ``pread``: one call fills
        ``buf`` directly, skipping the intermediate ``bytes`` object, and
        a short read resumes where it stopped. With a fault plan
        attached, or without ``preadv``, the span is read as bytes
        (still one syscall) and copied.
        """
        if self._backend is not None or not _HAS_PREADV:
            raw = self._read_span(disk, offset, buf.nbytes)
            buf.reshape(-1)[:] = np.frombuffer(raw, dtype=np.uint8)
            return
        fd = self._handle(disk).fileno()
        view = memoryview(buf).cast("B")
        cursor = offset
        calls = 0
        while view:
            got = os.preadv(fd, [view], cursor)
            calls += 1
            if not got:
                raise IOError(f"short read on disk {disk} at offset {offset}")
            view = view[got:]
            cursor += got
        self.syscalls.vector_reads += calls

    def _write_span(self, disk: int, offset: int, data) -> None:
        if self._backend is not None:
            self._backend.write(disk, offset, data)
        else:
            self._raw_write_span(disk, offset, data)

    def _reset_last_io(self) -> None:
        """Start a fresh ``last_io`` window for one public operation.

        The window is rebound, not cleared, so a reference held to the
        previous operation's counters stays as it was. Behind a service
        front door, an operation is whatever the queue ran last; the
        service layer reports per-request latency and aggregate
        :attr:`io` instead.
        """
        self.last_io = IoCounters()

    def _count(self, data: int, parity: int, *, wrote: bool) -> None:
        for counters in (self.io, self.last_io):
            if wrote:
                counters.data_chunks_written += data
                counters.parity_chunks_written += parity
            else:
                counters.data_chunks_read += data
                counters.parity_chunks_read += parity

    def _count_element(self, pos: tuple[int, int], *, wrote: bool) -> None:
        role = self._roles.get(pos)
        if role is not None:
            self._count(1 - role, role, wrote=wrote)

    def _current_decoder(self) -> Decoder:
        """The decoder for the present failure set, reused across stripes
        and operations (the algebra is solved once per ``(code, failed)``)."""
        key = tuple(sorted(self.failed))
        if self._decoder is None or self._decoder.failed != key:
            self._decoder = self.code.decoder_for(key)
        return self._decoder

    # ------------------------------------------------------------------
    # element / stripe I/O
    # ------------------------------------------------------------------
    def _read_element(self, stripe: int, pos: tuple[int, int]) -> np.ndarray:
        row, col = pos
        if col in self.failed:
            raise DiskFailedError(f"disk {col} is failed")
        offset = (stripe * self.code.rows + row) * self.chunk_bytes
        data = self._read_span(col, offset, self.chunk_bytes)
        self._count_element(pos, wrote=False)
        return np.frombuffer(data, dtype=np.uint8).copy()

    def _write_element(
        self, stripe: int, pos: tuple[int, int], chunk: np.ndarray
    ) -> None:
        row, col = pos
        if col in self.failed:
            return  # writes to failed disks are dropped, as in a real array
        offset = (stripe * self.code.rows + row) * self.chunk_bytes
        self._write_span(col, offset, chunk.tobytes())
        self._count_element(pos, wrote=True)
        # Element writes mutate surviving columns outside the planner
        # path (scrubber repairs, cache flushes): an in-flight rebuild
        # must re-reconstruct the stripe afterwards.
        for watcher in self._write_watchers:
            watcher.add(stripe)

    def read_element(self, stripe: int, pos: tuple[int, int]) -> np.ndarray:
        """Raw element read for the cache layer (no parity maintenance)."""
        return self._read_element(stripe, pos)

    def write_element(
        self, stripe: int, pos: tuple[int, int], chunk: np.ndarray
    ) -> None:
        """Raw element write for the cache layer (no parity maintenance).

        The caller owns stripe consistency: the write-back cache commits
        a stripe's data chunks and its coalesced parity updates together
        at flush time.
        """
        self._write_element(stripe, pos, chunk)

    def _load_stripe(self, stripe: int) -> np.ndarray:
        """Read a whole stripe as a one-stripe batch (failed columns
        come back zeroed)."""
        return self._load_stripe_batch(stripe, 1)

    def _load_stripe_batch(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive stripes as one disk-order batch.

        The result has shape ``(cols, count, rows, chunk_bytes)``:
        ``batch[col]`` is disk ``col``'s span of the batch, read straight
        into place with one read per surviving disk, and stripe
        ``start + i`` is ``batch[:, i]``. Failed columns come back
        zeroed. One ``Decoder.decode_columns`` call decodes every stripe.
        """
        rows, cols, chunk = self.code.rows, self.code.cols, self.chunk_bytes
        batch = np.empty((cols, count, rows, chunk), dtype=np.uint8)
        span = rows * chunk
        for col in range(cols):
            if col in self.failed:
                batch[col] = 0
                continue
            self._read_span_into(col, start * span, batch[col])
            data, parity = self._col_profile[col]
            self._count(data * count, parity * count, wrote=False)
        return batch

    def _write_columns(
        self,
        first: int,
        batch: np.ndarray,
        cols: Iterable[int],
        write: "Callable[[int, int, np.ndarray], None] | None" = None,
    ) -> None:
        """Write columns ``cols`` of a disk-order batch, one write each.

        ``batch`` holds consecutive stripes from ``first`` (see
        :meth:`_load_stripe_batch`), so each disk's span is the
        contiguous ``batch[col]``; only the chunks written are metered.
        The wide whole-stripe write, the stripe path, journal replay and
        the rebuild write-back go through here; ``write`` replaces the
        fault-injected span writer (recovery writes raw).
        """
        count = batch.shape[1]
        offset = first * self.code.rows * self.chunk_bytes
        write = write or self._write_span
        for col in cols:
            write(col, offset, batch[col])
            data, parity = self._col_profile[col]
            self._count(data * count, parity * count, wrote=True)

    # ------------------------------------------------------------------
    # write journal & write watchers (crash-consistency support)
    # ------------------------------------------------------------------
    @property
    def _journalling(self) -> bool:
        """True when mutating runs record their intents.

        Always on with an explicit (shared / on-disk) journal; with the
        default private in-memory journal, only while a fault plan is
        attached (nothing else can interrupt a write mid-flight).
        """
        return self._journal_always or self.fault_plan is not None

    def _journal_entry(
        self, stripe: int, pos: tuple[int, int], chunk: np.ndarray
    ) -> None:
        """Record one pending element write (no-op while not journaling)."""
        if not self._journalling:
            return
        row, col = pos
        role = self._roles[pos]
        offset = (stripe * self.code.rows + row) * self.chunk_bytes
        self.journal.log(
            JournalRecord(
                shard=self.shard_id, disk=col, offset=offset,
                payload=chunk, meter=(1 - role, role),
            )
        )

    def _journal_stripes(self, first: int, data: np.ndarray) -> None:
        """Log and seal one data record: ``data`` is the logical data of
        whole stripes from ``first``, journaled as is (no copy)."""
        if self._journalling:
            self.journal.log(
                JournalRecord(
                    shard=self.shard_id,
                    disk=-1,
                    offset=first * self.code.rows * self.chunk_bytes,
                    payload=data,
                    stripe_data=True,
                )
            )
        self._seal_journal()

    def _seal_journal(self) -> None:
        """Durability barrier: journal-before-data. Must return before
        the run's first span write mutates the array."""
        if self._journalling:
            self.journal.seal(self.shard_id)

    def _commit_journal(self) -> None:
        """Retire the run's transaction: every intended write landed."""
        if self._journalling:
            self.journal.commit(self.shard_id)

    def complete_interrupted_write(self) -> int:
        """Roll the journal of an interrupted write forward; returns the
        span writes replayed.

        A fault surfacing mid-write (a disk fail-stopping between the
        data and parity writes of a delta run, say) leaves the stripe's
        parity chains inconsistent — the classic write hole. The journal
        holds every span the interrupted operation intended to write, as
        *absolute* values, so replaying it (skipping disks that have
        since failed) is idempotent and restores consistency no matter
        where the original write stopped. Call after handling the fault
        (replacing / failing the disk); a clean journal returns 0.

        Idempotent under repetition *and* interruption: each record is
        dropped from the pending set only once its replay write
        returned, so a second fault mid-replay loses nothing — the next
        call replays exactly the remainder — and once the journal is
        committed further calls are no-ops. The same discipline makes it
        safe for the on-disk journal to observe the identical
        interrupted write again at reopen: replay-on-open rewrites the
        same absolute spans.
        """
        return self._roll_journal_forward(skip=self.failed)

    def quarantine_interrupted_write(self, skip_disk: int | None) -> int:
        """Roll the interrupted write forward *before* any later write
        can land; returns the span writes replayed.

        The journal replays absolute span values, so the roll-forward
        must happen before any later write to the same stripe can land —
        otherwise the stale absolutes would silently erase that write's
        parity deltas (and the eventual rebuild would then "solve" the
        corrupted parity into a wrong data chunk with clean syndromes).
        The block service's fault path calls this from the faulting
        request, before the fault leaves it and the next queued request
        runs, which is exactly that before-anyone-else window. ``skip_disk``
        is the disk the in-flight fault names: it is not formally failed
        yet, but writing to it would just re-raise. Its record is
        dropped unwritten — identical to what
        :meth:`complete_interrupted_write` does once the disk is marked
        failed — because its content already lives in the replayed
        parity.
        """
        skip = set(self.failed)
        if skip_disk is not None:
            skip.add(skip_disk)
        return self._roll_journal_forward(skip=skip)

    def _roll_journal_forward(self, skip: "set[int] | frozenset[int]") -> int:
        replayed = 0
        for record in self.journal.pending(self.shard_id):
            if record.stripe_data:
                replayed += self._replay_stripes(record, skip, self._write_span)
            elif record.disk not in skip:
                self._write_span(record.disk, record.offset, record.payload)
                self._count(*record.meter, wrote=True)
                replayed += 1
            self.journal.drop_pending(self.shard_id, record)
        self.journal.commit(self.shard_id)
        if replayed and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "store: rolled forward %d journaled span writes", replayed
            )
        return replayed

    def _replay_stripes(
        self,
        record: JournalRecord,
        skip: Iterable[int],
        write: "Callable[[int, int, np.ndarray], None]",
    ) -> int:
        """Roll a data record forward: encode its stripes, write every
        column not in ``skip`` with ``write``; returns spans written."""
        batch = self._encode_stripes(np.frombuffer(record.payload, dtype=np.uint8))
        first = record.offset // (self.code.rows * self.chunk_bytes)
        cols = [col for col in range(self.code.cols) if col not in skip]
        self._write_columns(first, batch, cols, write)
        return len(cols)

    def watch_writes(self) -> set[int]:
        """Register and return a live set that collects the stripe index
        of every foreground write executed while watching."""
        watcher: set[int] = set()
        self._write_watchers.append(watcher)
        return watcher

    def unwatch_writes(self, watcher: set[int]) -> None:
        """Deregister a set returned by :meth:`watch_writes`."""
        self._write_watchers.remove(watcher)

    # ------------------------------------------------------------------
    # logical byte / chunk I/O
    # ------------------------------------------------------------------
    def write_chunks(self, start: int, chunks: np.ndarray) -> None:
        """Write consecutive logical chunks starting at index ``start``.

        Each per-stripe run executes the plan the shared RAID planner
        produces: the delta read-modify-write fast path (small runs,
        healthy array), reconstruct-write (longer healthy runs) or the
        full-stripe load/re-encode/store path (while degraded — the
        stripe is reconstructed first so parity recomputation sees
        correct data).
        """
        chunks = np.asarray(chunks, dtype=np.uint8)
        if chunks.ndim != 2 or chunks.shape[1] != self.chunk_bytes:
            raise ValueError(
                f"chunks must be (k, {self.chunk_bytes}), got {chunks.shape}"
            )
        offset = start * self.chunk_bytes
        check_byte_range(offset, chunks.nbytes, self.capacity_bytes, "store")
        self._reset_last_io()
        self._route_write(offset, np.ascontiguousarray(chunks).reshape(-1))

    def write_bytes(self, offset: int, data: bytes | np.ndarray) -> None:
        """Write ``data`` at byte ``offset``; any alignment is accepted.

        Unaligned heads/tails splice into the old chunk contents the
        write path reads anyway (the delta path pre-reads old data, the
        stripe path loads the stripe), so partial-chunk RMW costs no
        extra chunk I/Os over an aligned write of the same span.
        """
        buf = as_bytes_array(data)
        check_byte_range(offset, buf.size, self.capacity_bytes, "store")
        self._reset_last_io()
        self._route_write(offset, buf)

    def _route_write(self, offset: int, buf: np.ndarray) -> None:
        """Send a validated write through the cache or the direct path.

        Degraded arrays disengage the cache: any write-back state is
        drained (surviving parity still absorbs the coalesced deltas —
        correct degraded-write semantics) and dropped so no stale chunk
        can be served after the array changes underneath the cache.
        """
        if self.cache is not None:
            if self.failed:
                self.cache.drop()
            else:
                self.cache.write(offset, buf)
                return
        self._execute_write(offset, buf)

    def _execute_write(self, offset: int, buf: np.ndarray) -> None:
        failed_key = tuple(sorted(self.failed))
        mapping = self.planner.mapping
        runs = mapping.byte_runs(offset, buf.size)
        index = cursor = 0
        while index < len(runs):
            run = runs[index]
            plan = self.planner.plan_write_run(
                run.start,
                run.length,
                failed_key,
                partial=run.is_partial(self.chunk_bytes),
            )
            count = 1
            if plan.path == "stripe" and not plan.reads:
                # An aligned whole-stripe overwrite takes the whole
                # stripes after it along, as one wide write.
                count = mapping.whole_stripes(run, buf.size - cursor)
            nbytes = count * run.nbytes
            self._write_run(run, buf[cursor : cursor + nbytes], plan)
            index += count
            cursor += nbytes

    def _write_run(self, run: ChunkRun, payload: np.ndarray, plan: RunPlan) -> None:
        """Execute one per-stripe write run by its plan, and meter it.

        A whole-stripe overwrite's ``payload`` may go on over the
        following whole stripes: :meth:`write_stripes` takes them all.
        """
        if plan.path == "delta":
            self._delta_write_run(run, payload)
            self.fast_path_writes += 1
        elif plan.path == "rcw":
            self._rcw_write_run(run, payload, plan)
            self.slow_path_writes += 1
        elif plan.reads:
            self._stripe_write_run(run, payload, plan)
            self.slow_path_writes += 1
        else:
            self.write_stripes(run.stripe, payload)  # meters itself
            return
        for watcher in self._write_watchers:
            watcher.add(run.stripe)

    def _splice(
        self, run: ChunkRun, index: int, cursor: int, payload: np.ndarray,
        old: np.ndarray | None,
    ) -> tuple[np.ndarray, int]:
        """New contents of the ``index``-th covered chunk of ``run``.

        Full chunks come straight from the payload; a partial head/tail
        splices the payload fragment onto ``old`` (the pre-read chunk).
        Returns ``(new_chunk, bytes_consumed)``.
        """
        chunk = self.chunk_bytes
        skip = run.skip if index == 0 else 0
        take = min(chunk - skip, run.nbytes - cursor)
        if skip == 0 and take == chunk:
            return payload[cursor : cursor + chunk], chunk
        assert old is not None
        new = old.copy()
        new[skip : skip + take] = payload[cursor : cursor + take]
        return new, take

    def _delta_write_run(self, run: ChunkRun, payload: np.ndarray) -> None:
        """Delta RMW: read old data + dependent parities only, XOR the
        data delta through each dependent chain, write back.

        Two strict phases, matching the planner's read-then-write plan
        shape: *every* pre-read (old data, then old parity) completes
        before the first byte is mutated, so a read-side injected fault
        (latent sector, fail-stop) surfaces while the stripe is still
        untouched and the whole run can simply be retried after repair.
        The write phase is journaled first (see
        :meth:`complete_interrupted_write`), then lands data before
        parity.
        """
        code = self.code
        # -- read phase -------------------------------------------------
        parity_deltas: dict[tuple[int, int], np.ndarray] = {}
        new_data: list[tuple[tuple[int, int], np.ndarray]] = []
        cursor = 0
        for index in range(run.length):
            pos = code.data_positions[run.start + index]
            old = self._read_element(run.stripe, pos)
            new, consumed = self._splice(run, index, cursor, payload, old)
            cursor += consumed
            delta = np.bitwise_xor(old, new)
            new_data.append((pos, new))
            for parity in code.parity_dependents[pos]:
                acc = parity_deltas.get(parity)
                if acc is None:
                    # copy: the same delta buffer feeds several parities
                    parity_deltas[parity] = delta.copy()
                else:
                    np.bitwise_xor(acc, delta, out=acc)
        new_parity: list[tuple[tuple[int, int], np.ndarray]] = []
        for parity in sorted(parity_deltas):
            old = self._read_element(run.stripe, parity)
            np.bitwise_xor(old, parity_deltas[parity], out=old)
            new_parity.append((parity, old))
        # -- write phase ------------------------------------------------
        for pos, chunk in new_data + new_parity:
            self._journal_entry(run.stripe, pos, chunk)
        self._seal_journal()
        for pos, chunk in new_data:
            self._write_element(run.stripe, pos, chunk)
        for pos, chunk in new_parity:
            self._write_element(run.stripe, pos, chunk)
        self._commit_journal()

    def _splice_run(
        self, run: ChunkRun, payload: np.ndarray, batch: np.ndarray
    ) -> None:
        """Splice ``payload`` over the run's chunks of a one-stripe
        batch; partly covered chunks keep the batch's old bytes around
        it."""
        cursor = 0
        for index in range(run.length):
            row, col = self.code.data_positions[run.start + index]
            new, consumed = self._splice(
                run, index, cursor, payload, batch[col, 0, row]
            )
            cursor += consumed
            batch[col, 0, row] = new

    def _stripe_data(self, batch: np.ndarray) -> np.ndarray:
        """The logical data of a one-stripe batch, in logical order."""
        return batch[self._data_cols, 0, self._data_rows].reshape(-1)

    def _rcw_write_run(
        self, run: ChunkRun, payload: np.ndarray, plan: RunPlan
    ) -> None:
        """Reconstruct-write: read the data the run leaves, re-encode,
        write the run's chunks and their dependent parities.

        Each disk's planned reads land straight in a one-stripe batch
        with one read over the rows from its first to its last read
        cell, the payload is spliced in and one encode recomputes the
        parity. The stripe's new logical data is journaled as one data
        record, then each disk's planned writes go out as one write over
        its rows from first to last written cell. Rows a span bridges
        but the plan leaves out are either overwritten in the batch
        before they are used, or written back with the bytes just read
        or their re-encoded parity; only planned chunks are metered.
        """
        code, chunk = self.code, self.chunk_bytes
        batch = np.zeros((code.cols, 1, code.rows, chunk), dtype=np.uint8)
        base = run.stripe * code.rows
        for col, rows in _column_rows(plan.reads):
            self._read_span_into(
                col, (base + rows.start) * chunk, batch[col, 0, rows]
            )
        data_read, parity_read, data_written, parity_written = plan.counts
        self._count(data_read, parity_read, wrote=False)
        self._splice_run(run, payload, batch)
        code.encode(batch)
        self._journal_stripes(run.stripe, self._stripe_data(batch))
        for col, rows in _column_rows(plan.writes):
            self._write_span(
                col, (base + rows.start) * chunk, batch[col, 0, rows]
            )
        self._count(data_written, parity_written, wrote=True)
        self._commit_journal()

    def _stripe_write_run(
        self, run: ChunkRun, payload: np.ndarray, plan: RunPlan
    ) -> None:
        """Full-stripe path: load, (reconstruct,) splice, re-encode, store.

        Aligned whole-stripe overwrites need nothing old and take
        :meth:`write_stripes` instead.
        """
        batch = self._load_stripe(run.stripe)
        if plan.decode:
            # Degraded write: reconstruct the stripe before updating
            # so parity recomputation sees correct data.
            self._current_decoder().decode_columns(batch)
        self._splice_run(run, payload, batch)
        self.code.encode(batch)
        self._store_stripes(run.stripe, batch, self._stripe_data(batch))

    def write_stripes(self, stripe: int, payload: np.ndarray) -> None:
        """Overwrite whole consecutive stripes from ``stripe`` (wide write).

        ``payload`` holds the logical data of at most
        :data:`~repro.raid.mapping.WIDE_WRITE_STRIPES` stripes. Every
        data element is replaced, so nothing is read: the stripes are
        laid into one disk-order batch, encoded by one
        :meth:`ArrayCode.encode` call and stored by
        :meth:`_store_stripes`. Meters exactly what
        as many single-stripe runs meter: chunk counters,
        ``slow_path_writes`` and watched stripes. This is also the
        write-back cache's full-stripe bypass (a
        :class:`~repro.raid.cache.CacheBackend` method).
        """
        code, chunk = self.code, self.chunk_bytes
        count, rest = divmod(payload.size, code.num_data * chunk)
        if (
            rest
            or not 0 < count <= WIDE_WRITE_STRIPES
            or not 0 <= stripe <= self.stripes - count
        ):
            raise ValueError(
                f"payload must hold 1..{WIDE_WRITE_STRIPES} whole stripes "
                f"inside the store"
            )
        payload = payload.reshape(-1)
        self._store_stripes(stripe, self._encode_stripes(payload), payload)
        self.slow_path_writes += count
        for watcher in self._write_watchers:
            watcher.update(range(stripe, stripe + count))

    def _encode_stripes(self, data: np.ndarray) -> np.ndarray:
        """Lay the logical data of whole stripes into one disk-order
        batch (see :meth:`_load_stripe_batch`) and encode it.

        The batch is allocated uninitialised: the data cells are copied
        in, the encode writes every parity cell, and only the EMPTY
        cells are zeroed.
        """
        code, chunk = self.code, self.chunk_bytes
        count = data.size // (code.num_data * chunk)
        batch = np.empty((code.cols, count, code.rows, chunk), dtype=np.uint8)
        batch[self._data_cols, :, self._data_rows] = data.reshape(
            count, code.num_data, chunk
        ).transpose(1, 0, 2)
        if self._empty_rows.size:
            batch[self._empty_cols, :, self._empty_rows] = 0
        code.encode(batch)
        return batch

    def _store_stripes(
        self, first: int, batch: np.ndarray, data: np.ndarray
    ) -> None:
        """Journal ``data``, then write every surviving column of ``batch``.

        ``batch`` holds consecutive stripes from ``first``, encoded from
        ``data``, their logical data. The transaction is one data record
        of ``data``, and :meth:`_write_columns` gives each surviving disk
        one contiguous write.
        """
        self._journal_stripes(first, data)
        survivors = [col for col in range(self.code.cols) if col not in self.failed]
        self._write_columns(first, batch, survivors)
        self._commit_journal()

    def read_chunks(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` logical chunks from ``start`` (degraded-safe)."""
        offset, length = start * self.chunk_bytes, count * self.chunk_bytes
        check_byte_range(offset, length, self.capacity_bytes, "store")
        self._reset_last_io()
        return self._route_read(offset, length).reshape(count, self.chunk_bytes)

    def read_bytes(self, offset: int, length: int) -> np.ndarray:
        """Read ``length`` bytes at ``offset`` (degraded-safe).

        Chunk-granular underneath — partial head/tail chunks are read
        whole and sliced, exactly as the planner prices them.
        """
        check_byte_range(offset, length, self.capacity_bytes, "store")
        self._reset_last_io()
        return self._route_read(offset, length)

    def _route_read(self, offset: int, length: int) -> np.ndarray:
        """Send a validated read through the cache or the direct path."""
        if self.cache is not None:
            if self.failed:
                self.cache.drop()
            else:
                return self.cache.read(offset, length)
        return self._execute_read(offset, length)

    def _execute_read(self, offset: int, length: int) -> np.ndarray:
        out = np.empty(length, dtype=np.uint8)
        failed_key = tuple(sorted(self.failed))
        cursor = 0
        for run in self.planner.mapping.byte_runs(offset, length):
            plan = self.planner.plan_read_run(run.start, run.length, failed_key)
            cursor += self._read_run_into(run, plan, out, cursor)
        return out

    def _read_run_into(
        self, run: ChunkRun, plan: RunPlan, out: np.ndarray, base: int
    ) -> int:
        """Execute one read run into ``out`` at ``base``; returns bytes
        produced (``run.nbytes``)."""
        chunk = self.chunk_bytes
        batch = None
        if plan.decode:
            # The run touches a failed column: read every survivor of
            # the stripe and reconstruct on the fly.
            batch = self._load_stripe(run.stripe)
            self._current_decoder().decode_columns(batch)
        consumed = 0
        cursor = base
        for index in range(run.length):
            row, col = self.code.data_positions[run.start + index]
            if batch is not None:
                data = batch[col, 0, row]
            else:
                data = self._read_element(run.stripe, (row, col))
            skip = run.skip if index == 0 else 0
            take = min(chunk - skip, run.nbytes - consumed)
            out[cursor : cursor + take] = data[skip : skip + take]
            cursor += take
            consumed += take
        return consumed

    # ------------------------------------------------------------------
    # batched execution (cross-request span I/O)
    # ------------------------------------------------------------------
    def execute_batch(
        self, ops: "Sequence[tuple[bool, int, object]]"
    ) -> list[np.ndarray | None]:
        """Execute a batch of requests with cross-request span I/O.

        ``ops`` is a sequence of ``(is_write, offset, payload)`` tuples:
        writes carry their payload (bytes or uint8 array), reads carry
        their byte length. Returns one entry per op, in order — ``None``
        for writes, the read data for reads.

        The batch is planned once (:meth:`RequestPlanner.plan_batch`):
        per-stripe run groups where every run takes the delta fast path
        or reconstruct-write execute through merged, gap-bridged
        per-disk spans — one
        ``preadv``/``pwritev`` per span instead of one ``pread``/
        ``pwrite`` per chunk per request — with all delta folding done
        in memory between the two span phases, one sealed journal
        transaction covering the whole batch, and chunk
        :class:`IoCounters` metered from the per-item run plans so the
        logical accounting is byte-for-byte what replaying the ops
        serially would meter (the paper's 1+3 contract; only
        :attr:`syscalls` sees the coalescing). Degraded arrays, stores
        with a fault plan attached, cached stores, stripe-path run
        groups and single-op batches fall back to the serial machinery,
        which is trivially equivalent.

        Gap bridging writes back chunks *between* planned writes
        (pre-read in the same batch, written back unchanged), and those
        gap chunks can belong to stripes no op of the batch touches: one
        more reason the store is single-caller.
        """
        normalized: list[tuple[bool, int, np.ndarray | int]] = []
        for is_write, offset, payload in ops:
            if is_write:
                payload = as_bytes_array(payload)
                length = payload.size
            else:
                payload = length = int(payload)  # type: ignore[arg-type]
            check_byte_range(offset, length, self.capacity_bytes, "store")
            normalized.append((is_write, offset, payload))
        if not normalized:
            return []
        self._reset_last_io()
        if self.cache is not None:
            if self.failed:
                self.cache.drop()
            else:
                return self.cache.apply_batch(normalized)
        if self.failed or self._backend is not None or len(normalized) < 2:
            return self._serial_batch(normalized)
        return self._span_batch(normalized)

    def _serial_batch(
        self, ops: list[tuple[bool, int, np.ndarray | int]]
    ) -> list[np.ndarray | None]:
        """Execute a batch op-by-op through the serial machinery."""
        results: list[np.ndarray | None] = []
        for is_write, offset, payload in ops:
            if is_write:
                self._execute_write(offset, payload)
                results.append(None)
            else:
                results.append(self._execute_read(offset, payload))
        return results

    def _span_batch(
        self, ops: list[tuple[bool, int, np.ndarray | int]]
    ) -> list[np.ndarray | None]:
        """The merged span path (healthy, uncached, unfaulted, ≥2 ops)."""
        chunk = self.chunk_bytes
        plan = self.planner.plan_batch(
            [
                (is_write, offset, payload.size if is_write else payload)
                for is_write, offset, payload in ops
            ],
            bridge=self.span_bridge_chunks,
        )
        results: list[np.ndarray | None] = [
            None if is_write else np.empty(payload, dtype=np.uint8)
            for is_write, _, payload in ops
        ]
        # Phase 1 — bulk pre-read: one vectored syscall per merged span.
        # ``state`` maps (disk, lba_chunk) to a *view into the span
        # buffer*; folding mutates the views in place, so later items in
        # a group observe earlier items' writes exactly as serial
        # execution order would — and write-back (phase 3) is a single
        # contiguous slice of the already-updated buffer per span.
        state: dict[tuple[int, int], np.ndarray] = {}
        cover: dict[int, list[tuple[int, np.ndarray]]] = {}
        for span in plan.read_spans:
            buf = np.empty(span.chunks * chunk, dtype=np.uint8)
            self._read_span_into(span.disk, span.lba_chunk * chunk, buf)
            cover.setdefault(span.disk, []).append((span.lba_chunk, buf))
            for i, lba in enumerate(span.lbas()):
                state[(span.disk, lba)] = buf[i * chunk : (i + 1) * chunk]
        counts = plan.counts
        if counts.chunks_read:
            self._count(
                counts.data_chunks_read,
                counts.parity_chunks_read,
                wrote=False,
            )
        # Phase 2 — fold every batchable group in memory, arrival order.
        dirty: dict[tuple[int, int], np.ndarray] = {}
        for group in plan.batchable_groups:
            for item in group.items:
                if item.is_write:
                    buf = ops[item.op_index][2]
                    if item.plan.path == "rcw":
                        self._fold_rcw_item(group.stripe, item, buf, state, dirty)
                        self.slow_path_writes += 1
                    else:
                        self._fold_write_item(group.stripe, item, buf, state, dirty)
                        self.fast_path_writes += 1
                    for watcher in self._write_watchers:
                        watcher.add(group.stripe)
                else:
                    self._fill_read_item(
                        group.stripe, item, state, results[item.op_index]
                    )
        # Phase 3 — journal-before-data (one sealed transaction for the
        # whole batch), then one vectored write-back per merged span.
        # Span gaps rewrite ``state`` contents that were never dirtied —
        # byte-identical to what phase 1 read, see the class docstring.
        journalled = self._journalling and bool(dirty)
        if journalled:
            rows = self.code.rows
            for disk, lba in sorted(dirty):
                self._journal_entry(
                    lba // rows, (lba % rows, disk), dirty[(disk, lba)]
                )
            self._seal_journal()
        # Every write span lies inside one read span (the planner
        # expands read coverage over write-span gaps), so its bytes are
        # one contiguous, already-folded slice of that span's buffer.
        for span in plan.write_spans:
            start, buf = next(
                (start, buf)
                for start, buf in cover[span.disk]
                if start <= span.lba_chunk
                and span.stop <= start + buf.size // chunk
            )
            self._raw_write_span(
                span.disk,
                span.lba_chunk * chunk,
                buf[(span.lba_chunk - start) * chunk : (span.stop - start) * chunk],
            )
        if counts.chunks_written:
            self._count(
                counts.data_chunks_written,
                counts.parity_chunks_written,
                wrote=True,
            )
        if journalled:
            self._commit_journal()
        # Phase 4 — stripe-path / decoding groups: the serial per-run
        # machinery (meters and journals itself, per run, as ever).
        for group in plan.fallback_groups:
            for item in group.items:
                if item.is_write:
                    buf = ops[item.op_index][2]
                    payload = buf[item.cursor : item.cursor + item.run.nbytes]
                    self._write_run(item.run, payload, item.plan)
                else:
                    self._read_run_into(
                        item.run, item.plan,
                        results[item.op_index], item.cursor,
                    )
        return results

    def _fold_write_item(
        self,
        stripe: int,
        item: BatchItem,
        buf: np.ndarray,
        state: dict[tuple[int, int], np.ndarray],
        dirty: dict[tuple[int, int], np.ndarray],
    ) -> None:
        """Fold one delta write run into the batch state (no disk I/O).

        The in-memory mirror of :meth:`_delta_write_run`: splice new
        data over ``state`` (the pre-read or already-folded contents),
        XOR each data delta through its dependent parity chains. Every
        ``state`` entry is a view into a span buffer and is updated *in
        place*, so the span write-back needs no gather — the buffer
        already holds the folded bytes; ``dirty`` marks which views the
        journal must record.
        """
        code = self.code
        rows = code.rows
        run = item.run
        payload = buf[item.cursor : item.cursor + run.nbytes]
        parity_deltas: dict[tuple[int, int], np.ndarray] = {}
        cursor = 0
        for index in range(run.length):
            row, col = code.data_positions[run.start + index]
            key = (col, stripe * rows + row)
            old = state[key]
            new, consumed = self._splice(run, index, cursor, payload, old)
            cursor += consumed
            delta = np.bitwise_xor(old, new)
            old[:] = new  # fold into the span buffer itself
            dirty[key] = old
            for parity in code.parity_dependents[(row, col)]:
                acc = parity_deltas.get(parity)
                if acc is None:
                    # copy: the same delta buffer feeds several parities
                    parity_deltas[parity] = delta.copy()
                else:
                    np.bitwise_xor(acc, delta, out=acc)
        for parity in sorted(parity_deltas):
            row, col = parity
            key = (col, stripe * rows + row)
            view = state[key]
            np.bitwise_xor(view, parity_deltas[parity], out=view)
            dirty[key] = view

    def _fold_rcw_item(
        self,
        stripe: int,
        item: BatchItem,
        buf: np.ndarray,
        state: dict[tuple[int, int], np.ndarray],
        dirty: dict[tuple[int, int], np.ndarray],
    ) -> None:
        """Fold one reconstruct-write run into the batch state (no disk
        I/O): the in-memory mirror of :meth:`_rcw_write_run`.

        Every data cell of the stripe is in ``state`` — the run's as
        planned writes, the rest as planned reads — so the stripe is
        re-encoded from them with the payload spliced in, and the
        planned write cells are updated in place.
        """
        code = self.code
        rows = code.rows
        batch = np.zeros((code.cols, 1, rows, self.chunk_bytes), dtype=np.uint8)
        for row, col in code.data_positions:
            batch[col, 0, row] = state[(col, stripe * rows + row)]
        run = item.run
        self._splice_run(run, buf[item.cursor : item.cursor + run.nbytes], batch)
        code.encode(batch)
        for row, col in item.plan.writes:
            key = (col, stripe * rows + row)
            view = state[key]
            view[:] = batch[col, 0, row]
            dirty[key] = view

    def _fill_read_item(
        self,
        stripe: int,
        item: BatchItem,
        state: dict[tuple[int, int], np.ndarray],
        out: np.ndarray,
    ) -> None:
        """Serve one read run from the batch state into ``out``."""
        chunk = self.chunk_bytes
        rows = self.code.rows
        run = item.run
        consumed = 0
        cursor = item.cursor
        for index in range(run.length):
            row, col = self.code.data_positions[run.start + index]
            data = state[(col, stripe * rows + row)]
            skip = run.skip if index == 0 else 0
            take = min(chunk - skip, run.nbytes - consumed)
            out[cursor : cursor + take] = data[skip : skip + take]
            cursor += take
            consumed += take

    # ------------------------------------------------------------------
    # failures, rebuild, scrubbing
    # ------------------------------------------------------------------
    def fail_disk(self, disk: int) -> None:
        """Mark ``disk`` failed and wipe its backing file (drive swap)."""
        if not 0 <= disk < self.code.cols:
            raise ValueError(f"disk {disk} out of range")
        if len(self.failed | {disk}) > self.code.faults:
            raise DiskFailedError(
                f"failing disk {disk} would exceed the fault budget "
                f"({self.code.faults})"
            )
        self.failed.add(disk)
        logger.info(
            "store: disk %d failed (%d/%d fault budget used)",
            disk, len(self.failed), self.code.faults,
        )
        # Raw wipe: the zeroed file models a factory-fresh replacement
        # drive, so it is never subject to fault injection. Truncating
        # to nothing and back leaves one hole, which reads as zeros.
        fd = self._handle(disk).fileno()
        os.ftruncate(fd, 0)
        os.ftruncate(fd, self._disk_bytes)
        if self.cache is not None:
            # Drain write-back state immediately under degraded semantics:
            # deltas land in surviving parity, and no stale chunk can be
            # served after the array changed underneath the cache.
            self.cache.drop()

    def rebuild(self) -> int:
        """Reconstruct every failed disk from survivors; returns stripes
        rebuilt. The store is fully healthy afterwards.

        Batched pipeline: each round reads ``rebuild_batch`` stripes as
        one disk-order batch (one contiguous span read per surviving
        disk), decodes them with one recovery-plan run and writes back
        only the reconstructed columns, one contiguous write per failed
        disk. Surviving disks are read once and never written.

        Exception-safe: ``failed`` stays marked until *every* stripe has
        been decoded and stored, so an error partway through (I/O,
        decode) leaves the store correctly degraded — reads keep
        reconstructing on the fly and a later :meth:`rebuild` can retry —
        instead of a "healthy" array whose rebuilt columns hold zeros.
        """
        if not self.failed:
            return 0
        self._reset_last_io()
        logger.info(
            "store: rebuild of disks %s starting (%d stripes)",
            sorted(self.failed), self.stripes,
        )
        self.rebuild_stripes(0, self.stripes)
        self.finish_rebuild()
        return self.stripes

    def rebuild_stripes(self, start: int, count: int) -> int:
        """Reconstruct the failed columns of ``count`` stripes from
        ``start``, in place, *without* changing the failure state.

        This is the incremental unit the throttled repair loop drives:
        the array stays formally degraded (reads keep reconstructing on
        the fly, writes keep skipping failed columns) until every stripe
        — including any re-dirtied by foreground writes between ticks, see
        :meth:`watch_writes` — has been rebuilt and the caller invokes
        :meth:`finish_rebuild`. Returns the stripes rebuilt.
        """
        if not self.failed:
            return 0
        if start < 0 or count < 0 or start + count > self.stripes:
            raise ValueError("stripe range out of bounds")
        if self.cache is not None:
            # Commit coalesced deltas to surviving parity and drop the
            # cache before reading stripes straight off the disks.
            self.cache.drop()
        failed = sorted(self.failed)
        decoder = self._current_decoder()
        size = max(1, min(self.rebuild_batch, count or 1))
        for base in range(start, start + count, size):
            n = min(size, start + count - base)
            batch = self._load_stripe_batch(base, n)
            decoder.decode_columns(batch)
            # Survivors already hold these bytes: write back only the
            # reconstructed columns.
            self._write_columns(base, batch, failed)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "store: rebuilt stripes [%d, %d) for disks %s",
                start, start + count, failed,
            )
        return count

    def finish_rebuild(self) -> None:
        """Declare the rebuild complete: clear the failure set.

        Only call once every stripe has been reconstructed via
        :meth:`rebuild_stripes` (and any stripes written during the
        rebuild re-reconstructed); :meth:`rebuild` does this bookkeeping
        itself.
        """
        if self.failed:
            logger.info(
                "store: rebuild of disks %s complete", sorted(self.failed)
            )
        self.failed.clear()

    def read_stripes(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive stripes as one metered disk-order
        batch of shape ``(cols, count, rows, chunk_bytes)``; failed
        columns come back zeroed. Stripe ``start + i`` is
        ``batch[:, i]``, and element ``(row, col)`` of every stripe is
        ``batch[col, :, row]`` — the layout ``ArrayCode.encode``,
        ``Decoder.decode_columns``, ``ArrayCode.verify_stripe`` and the
        scrubber's batched syndrome check consume directly.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if start < 0 or start + count > self.stripes:
            raise ValueError("stripe range out of bounds")
        return self._load_stripe_batch(start, count)

    def scrub(self) -> list[int]:
        """Verify all stripes; returns the indices of corrupt stripes."""
        if self.failed:
            raise DiskFailedError("cannot scrub a degraded array")
        self._reset_last_io()
        if self.cache is not None:
            self.cache.flush()
        return [
            stripe
            for stripe in range(self.stripes)
            if not self.code.verify_stripe(self._load_stripe(stripe))
        ]


def _column_rows(cells: Iterable[Position]) -> list[tuple[int, slice]]:
    """Per disk holding any of ``cells``, the stripe rows from its first
    to its last cell: the span one I/O covers."""
    rows: dict[int, list[int]] = {}
    for row, col in cells:
        rows.setdefault(col, []).append(row)
    return [
        (col, slice(min(found), max(found) + 1))
        for col, found in sorted(rows.items())
    ]
