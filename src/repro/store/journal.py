"""Pluggable write-intent journals: the store's crash-consistency spine.

A mutating store operation (a delta run, a full-stripe run, a restripe
extent copy) intends a known set of absolute span writes before it
touches any byte. The journal captures that intent so a crash — an
injected fault mid-operation, or a whole-process kill — can be resolved
by *rolling the intent forward*: every journaled span is an absolute
value, so replay is idempotent no matter how many of the original
writes landed or how many times the replay itself is attempted.

Two implementations share the :class:`WriteJournal` protocol:

* :class:`MemoryJournal` — the original in-process journal extracted
  from :class:`~repro.store.ArrayStore`. Intents live in thread-local
  lists (each thread's in-flight operation owns its own transaction);
  it survives injected faults, not process death. This is the default
  every existing single-store configuration keeps.
* :class:`IntentJournal` — a crash-consistent on-disk journal: intent
  records with CRC32-guarded headers and payloads are appended and
  fsynced *before* the first data write (journal-before-data ordering),
  commit markers are appended after the operation completes and fsynced
  lazily in groups (group commit), and :meth:`IntentJournal.recover`
  replays any transaction whose commit marker is missing when the file
  is reopened. Because replay is idempotent, a lost commit marker costs
  a redundant replay, never correctness — which is exactly what makes
  group commit safe.

One journal instance can be **shared across stores**: every record
carries the ``shard`` id of the store that logged it (the
:class:`~repro.volume.VolumeManager` gives each of its shards a unique
id), transactions are per ``(thread, shard)``, and recovery can be
filtered per shard so each store rolls forward exactly its own writes.
"""

from __future__ import annotations

import errno
import logging
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Protocol
from zlib import crc32

__all__ = [
    "IntentJournal",
    "JournalCorruptionError",
    "JournalRecord",
    "MemoryJournal",
    "WriteJournal",
]

logger = logging.getLogger(__name__)

#: Record kinds in the on-disk format.
_KIND_INTENT = 1
_KIND_COMMIT = 2

#: On-disk record header: magic, kind, shard, disk, txn, offset, length,
#: data-chunk count, parity-chunk count, payload CRC32, header CRC32.
_HEADER = struct.Struct("<2sBxIiQQIHHII")
_MAGIC = b"RJ"


class JournalCorruptionError(RuntimeError):
    """A journal record failed its checksum mid-file (not a torn tail)."""


@dataclass(frozen=True)
class JournalRecord:
    """One intended span write: absolute payload at (shard, disk, offset).

    ``meter`` is the ``(data_chunks, parity_chunks)`` split the write
    moves, carried so a replay can account its I/O exactly like the
    original operation would have.
    """

    shard: int
    disk: int
    offset: int
    payload: bytes
    meter: tuple[int, int] = (0, 0)


class WriteJournal(Protocol):
    """Intent-journal protocol the store's write path drives.

    Transaction scope is one mutating run on one shard, executed by one
    thread: ``log`` each intended span, ``seal`` the transaction (a
    durability barrier — nothing may be journaled *after* data writes
    begin), then ``commit`` once every span landed. ``pending`` exposes
    the calling thread's sealed-but-uncommitted records so an
    interrupted operation can be rolled forward in process.
    """

    def log(self, record: JournalRecord) -> None:
        """Add one intended span write to the open transaction."""
        ...  # pragma: no cover - protocol

    def seal(self, shard: int) -> None:
        """Make the open transaction's intents durable (journal-before-
        data: must return before the first data byte is mutated)."""
        ...  # pragma: no cover - protocol

    def commit(self, shard: int) -> None:
        """Retire the transaction: every intended span write landed."""
        ...  # pragma: no cover - protocol

    def pending(self, shard: int) -> list[JournalRecord]:
        """The calling thread's in-flight records for ``shard``."""
        ...  # pragma: no cover - protocol

    def drop_pending(self, shard: int, record: JournalRecord) -> None:
        """Mark one pending record replayed (idempotency bookkeeping)."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any resources (a shared journal is closed once, by
        its owner)."""
        ...  # pragma: no cover - protocol


class MemoryJournal:
    """The in-process journal: thread-local intent lists, no durability.

    Extracted verbatim in behaviour from the store's original
    ``_journal_tls`` machinery: each thread's in-flight operation owns
    its own transaction, a fault interrupts that same thread, and the
    repair path rolls it forward on that thread too — so concurrent
    writers can never clear each other's entries. ``seal`` is a no-op
    (there is nothing to make durable) and recovery across process
    restarts is impossible by design; that is :class:`IntentJournal`'s
    job.
    """

    #: Memory journals survive injected faults only; reopen recovery is
    #: a no-op, which the store consults to decide whether a journal
    #: needs replay-on-open.
    durable = False

    def __init__(self) -> None:
        self._tls = threading.local()

    def _entries(self) -> dict[int, list[JournalRecord]]:
        by_shard = getattr(self._tls, "by_shard", None)
        if by_shard is None:
            by_shard = self._tls.by_shard = {}
        return by_shard

    def log(self, record: JournalRecord) -> None:
        """Queue ``record`` on the calling thread's pending list."""
        self._entries().setdefault(record.shard, []).append(record)

    def seal(self, shard: int) -> None:
        """No durability barrier to take for an in-memory journal."""
        return None

    def commit(self, shard: int) -> None:
        """Discard the calling thread's pending records for ``shard``."""
        self._entries().pop(shard, None)

    def pending(self, shard: int) -> list[JournalRecord]:
        """Snapshot the calling thread's uncommitted records."""
        return list(self._entries().get(shard, ()))

    def drop_pending(self, shard: int, record: JournalRecord) -> None:
        """Remove one replayed record from the pending list (idempotent)."""
        entries = self._entries().get(shard)
        if entries is not None:
            try:
                entries.remove(record)
            except ValueError:
                pass  # already dropped by an earlier replay: idempotent

    def recover(
        self,
        writer: Callable[[JournalRecord], None],
        shard: int | None = None,
    ) -> int:
        """Nothing survives a restart; present for interface symmetry."""
        return 0

    def close(self) -> None:
        """Nothing to release for an in-memory journal."""
        return None


class IntentJournal:
    """Crash-consistent shared on-disk intent journal.

    Args:
        path: the journal file (created empty if absent). Opening scans
            the existing contents: fully-checksummed transactions whose
            commit marker is missing become *recoverable* and are
            replayed by :meth:`recover`; a torn tail (short or
            checksum-failing final records) is discarded — journal-
            before-data ordering guarantees no data write of that
            transaction ever started.
        group_commit: fsync the file once per this many commit markers
            instead of per commit. Lost markers are harmless (replay is
            idempotent), so the group size only bounds redundant replay
            work after a crash, not correctness.
        checkpoint_records: compact the file once this many records have
            been appended since the last truncation/compaction, *even
            while transactions are open*. The quiescent checkpoint in
            :meth:`commit` only fires when no transaction is in flight —
            under sustained concurrent load that moment never comes and
            the file grows without bound. Compaction atomically rewrites
            the file to just its live (sealed-but-uncommitted +
            unrecovered) transactions, preserving their txn ids so later
            commit markers still match. 0 disables the threshold.

    Thread safety: ``log``/``seal``/``commit`` may be called from many
    threads (one in-flight transaction per ``(thread, shard)``); all
    file appends happen under one internal lock, so records are never
    interleaved mid-record.
    """

    durable = True

    def __init__(
        self,
        path: str | Path,
        group_commit: int = 8,
        checkpoint_records: int = 1024,
    ) -> None:
        if group_commit < 1:
            raise ValueError("group_commit must be >= 1")
        if checkpoint_records < 0:
            raise ValueError("checkpoint_records must be >= 0")
        self.path = Path(path)
        self.group_commit = group_commit
        self.checkpoint_records = checkpoint_records
        #: Threshold-triggered compactions performed (diagnostics).
        self.compactions = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_txn = 1
        self._unsynced_commits = 0
        self._records_since_checkpoint = 0
        #: Sealed-but-uncommitted transactions by id, shared across
        #: threads so `pending_records()` can audit the whole journal.
        self._open_txns: dict[int, list[JournalRecord]] = {}
        self._txn_of_thread: dict[tuple[int, int], int] = {}
        #: Transactions found uncommitted on open, awaiting `recover`.
        self._recoverable: dict[int, list[JournalRecord]] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.touch()
        self._scan()
        self._file = open(self.path, "ab", buffering=0)

    # ------------------------------------------------------------------
    # on-disk format
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(kind: int, txn: int, record: JournalRecord) -> bytes:
        payload = record.payload if kind == _KIND_INTENT else b""
        data, parity = record.meter
        head = _HEADER.pack(
            _MAGIC, kind, record.shard, record.disk, txn, record.offset,
            len(payload), data, parity, crc32(payload), 0,
        )
        # Header CRC covers everything before the CRC field itself.
        head = head[:-4] + struct.pack("<I", crc32(head[:-4]))
        return head + payload

    @staticmethod
    def _decode(buf: bytes, cursor: int) -> tuple[int, int, JournalRecord] | None:
        """Parse one record at ``cursor``; None = clean torn tail."""
        head_end = cursor + _HEADER.size
        if head_end > len(buf):
            return None if cursor == len(buf) else _torn(cursor)
        head = buf[cursor:head_end]
        (magic, kind, shard, disk, txn, offset, length, data, parity,
         payload_crc, head_crc) = _HEADER.unpack(head)
        if magic != _MAGIC or crc32(head[:-4]) != head_crc:
            return _torn(cursor)
        payload_end = head_end + length
        if payload_end > len(buf):
            return _torn(cursor)
        payload = buf[head_end:payload_end]
        if crc32(payload) != payload_crc:
            return _torn(cursor)
        record = JournalRecord(
            shard=shard, disk=disk, offset=offset, payload=payload,
            meter=(data, parity),
        )
        return kind, txn, record

    def _scan(self) -> None:
        """Parse the file, partition transactions committed/uncommitted."""
        buf = self.path.read_bytes()
        cursor = 0
        intents: dict[int, list[JournalRecord]] = {}
        committed: set[int] = set()
        top_txn = 0
        records_seen = 0
        while cursor < len(buf):
            parsed = self._decode(buf, cursor)
            if parsed is None:
                break
            kind, txn, record = parsed
            top_txn = max(top_txn, txn)
            records_seen += 1
            if kind == _KIND_COMMIT:
                committed.add(txn)
                intents.pop(txn, None)
            else:
                intents.setdefault(txn, []).append(record)
            cursor += _HEADER.size + len(record.payload)
        self._records_since_checkpoint = records_seen
        if cursor < len(buf):
            logger.warning(
                "journal %s: discarding torn tail at byte %d of %d",
                self.path, cursor, len(buf),
            )
        self._recoverable = intents
        self._next_txn = top_txn + 1
        if intents:
            logger.info(
                "journal %s: %d uncommitted transaction(s) await recovery",
                self.path, len(intents),
            )

    # ------------------------------------------------------------------
    # low-level file ops (override points for crash-injection tests)
    # ------------------------------------------------------------------
    def _append(self, data: bytes) -> None:
        """Append all of ``data``, or raise with the file as it was.

        An unbuffered write may land only part of its buffer (a signal,
        or ``ENOSPC`` partway through a record), so loop on the count it
        returns. On failure the torn piece is cut off again: recovery
        stops parsing at the first bad record, so leaving it would hide
        every transaction sealed after it.
        """
        start = self._file.tell()
        view = memoryview(data)
        try:
            while view:
                written = self._file.write(view)
                if not written:
                    raise OSError(
                        errno.EIO, f"journal {self.path}: append wrote nothing"
                    )
                view = view[written:]
        except BaseException:
            self._file.truncate(start)
            self._file.seek(start)
            raise

    def _sync(self) -> None:
        os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # WriteJournal protocol
    # ------------------------------------------------------------------
    def _open_records(self, shard: int) -> list[JournalRecord]:
        by_shard = getattr(self._tls, "by_shard", None)
        if by_shard is None:
            by_shard = self._tls.by_shard = {}
        return by_shard.setdefault(shard, [])

    def log(self, record: JournalRecord) -> None:
        """Queue an intent on the calling thread's open transaction."""
        self._open_records(record.shard).append(record)

    def seal(self, shard: int) -> None:
        """Append + fsync the open transaction's intents (the barrier)."""
        records = self._open_records(shard)
        if not records:
            return
        key = (threading.get_ident(), shard)
        with self._lock:
            txn = self._next_txn
            self._next_txn += 1
            blob = b"".join(
                self._encode(_KIND_INTENT, txn, record) for record in records
            )
            self._append(blob)
            self._sync()
            self._open_txns[txn] = list(records)
            self._txn_of_thread[key] = txn
            self._records_since_checkpoint += len(records)
            self._maybe_compact_locked()

    def commit(self, shard: int) -> None:
        """Append the commit marker; fsync once per ``group_commit``."""
        records = self._open_records(shard)
        records.clear()
        key = (threading.get_ident(), shard)
        with self._lock:
            txn = self._txn_of_thread.pop(key, None)
            if txn is None:
                return  # nothing sealed (journal-off path): no-op
            self._open_txns.pop(txn, None)
            marker = JournalRecord(shard=shard, disk=0, offset=0, payload=b"")
            self._append(self._encode(_KIND_COMMIT, txn, marker))
            self._unsynced_commits += 1
            if self._unsynced_commits >= self.group_commit:
                self._sync()
                self._unsynced_commits = 0
            self._records_since_checkpoint += 1
            if not self._open_txns and not self._recoverable:
                self._checkpoint_locked()
            else:
                self._maybe_compact_locked()

    def pending(self, shard: int) -> list[JournalRecord]:
        """Snapshot the calling thread's not-yet-committed intents."""
        return list(self._open_records(shard))

    def drop_pending(self, shard: int, record: JournalRecord) -> None:
        """Remove one replayed record from the open list (idempotent)."""
        entries = self._open_records(shard)
        try:
            entries.remove(record)
        except ValueError:
            pass  # already dropped: replay retried after partial progress

    # ------------------------------------------------------------------
    # recovery / audit
    # ------------------------------------------------------------------
    def recover(
        self,
        writer: Callable[[JournalRecord], None],
        shard: int | None = None,
    ) -> int:
        """Roll forward uncommitted transactions found at open.

        ``writer`` receives each :class:`JournalRecord` and must persist
        its payload at (disk, offset) of the record's shard. With
        ``shard`` given only that shard's transactions replay (a volume
        recovers shard by shard as it opens each store); transactions
        are replayed in txn order. Returns span writes replayed. Each
        recovered transaction gets a commit marker, so a second
        ``recover`` — or a crash mid-recovery followed by another open —
        replays only what is still unmarked (idempotent end to end).
        """
        replayed = 0
        with self._lock:
            todo = sorted(
                txn for txn, records in self._recoverable.items()
                if shard is None or any(r.shard == shard for r in records)
            )
        for txn in todo:
            records = self._recoverable.get(txn, ())
            for record in records:
                if shard is None or record.shard == shard:
                    writer(record)
                    replayed += 1
            with self._lock:
                remaining = [
                    r for r in self._recoverable.get(txn, ())
                    if shard is not None and r.shard != shard
                ]
                if remaining:
                    self._recoverable[txn] = remaining
                    continue
                self._recoverable.pop(txn, None)
                marker = JournalRecord(
                    shard=shard if shard is not None else 0,
                    disk=0, offset=0, payload=b"",
                )
                self._append(self._encode(_KIND_COMMIT, txn, marker))
                self._sync()
        if replayed:
            logger.info(
                "journal %s: recovered %d span write(s)%s",
                self.path, replayed,
                f" for shard {shard}" if shard is not None else "",
            )
        return replayed

    def pending_records(self) -> list[JournalRecord]:
        """Every record not yet retired: sealed-but-uncommitted
        transactions of live threads plus unrecovered transactions from
        a previous process. The close-flush audit asserts this is empty
        after an orderly shutdown."""
        with self._lock:
            records = [
                record
                for txn in sorted(self._open_txns)
                for record in self._open_txns[txn]
            ]
            records.extend(
                record
                for txn in sorted(self._recoverable)
                for record in self._recoverable[txn]
            )
        return records

    def iter_records(self) -> Iterator[tuple[int, int, JournalRecord]]:
        """Parse the on-disk file: yields ``(kind, txn, record)``
        (diagnostics and tests; the torn tail is silently clipped)."""
        buf = self.path.read_bytes()
        cursor = 0
        while cursor < len(buf):
            parsed = self._decode(buf, cursor)
            if parsed is None:
                return
            yield parsed
            cursor += _HEADER.size + len(parsed[2].payload)

    # ------------------------------------------------------------------
    # checkpoint / lifecycle
    # ------------------------------------------------------------------
    def _checkpoint_locked(self) -> None:
        """Truncate the file: every logged transaction is retired."""
        self._file.truncate(0)
        self._file.seek(0)
        self._sync()
        self._unsynced_commits = 0
        self._records_since_checkpoint = 0

    def _maybe_compact_locked(self) -> None:
        """Compact once the append count crosses ``checkpoint_records``."""
        if (
            self.checkpoint_records
            and self._records_since_checkpoint >= self.checkpoint_records
        ):
            self._compact_locked()

    def _compact_locked(self) -> None:
        """Rewrite the file to just its live transactions, atomically.

        The sustained-load companion of :meth:`_checkpoint_locked`:
        retired transactions (intents plus commit markers) dominate the
        file under steady traffic, and with some transaction always in
        flight the quiescent truncation never fires. Live records —
        sealed-but-uncommitted plus unrecovered — are re-encoded under
        their *original* txn ids into a temp file which atomically
        replaces the journal, so a commit marker appended afterwards
        still matches its intents and a crash at any point leaves either
        the complete old file or the complete new one (both recover
        identically: the live set is the same).
        """
        live: list[bytes] = []
        count = 0
        for source in (self._open_txns, self._recoverable):
            for txn in sorted(source):
                for record in source[txn]:
                    live.append(self._encode(_KIND_INTENT, txn, record))
                    count += 1
        tmp = self.path.with_name(self.path.name + ".compact")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(live))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._file.close()
        self._file = open(self.path, "ab", buffering=0)
        self._sync()
        self._unsynced_commits = 0
        self._records_since_checkpoint = count
        self.compactions += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "journal %s: compacted to %d live record(s)",
                self.path, count,
            )

    def checkpoint(self) -> bool:
        """Truncate the journal if nothing is pending; returns success."""
        with self._lock:
            if self._open_txns or self._recoverable:
                return False
            self._checkpoint_locked()
            return True

    def close(self) -> None:
        """Flush commit markers and close the file handle."""
        with self._lock:
            if self._file.closed:
                return
            if self._unsynced_commits:
                self._sync()
                self._unsynced_commits = 0
            if not self._open_txns and not self._recoverable:
                self._checkpoint_locked()
            self._file.close()

    def __enter__(self) -> "IntentJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _torn(cursor: int) -> None:
    """A checksum failure is treated as the torn tail: journal-before-
    data ordering means nothing after it ever mutated the array."""
    return None
