"""The elastic volume manager: many arrays, one byte address space.

A :class:`VolumeManager` stripes a byte space over N *shards* — each a
full :class:`~repro.store.ArrayStore` with its own code family and
geometry — and owns everything one array cannot:

* **two-level addressing** via :class:`~repro.volume.VolumeMapping`
  (volume byte → extent → shard → shard byte), with per-request routing
  that survives an in-flight migration (the cursor routing rule);
* **one shared on-disk intent journal**
  (:class:`~repro.store.journal.IntentJournal`) every shard seals its
  write intents into, so a crash anywhere — foreground write, restripe
  copy — is resolved by replay at the next open;
* **metadata** (``volume.json``, atomically replaced and fsynced) naming
  the shard set, the extent size, and any migration in flight, so
  :meth:`VolumeManager.open` reconstructs the exact routing state a
  crash interrupted;
* **the locking discipline**, acquired strictly in the order
  volume → shard → stripe: a volume-level readers-writer lock (shared
  by foreground I/O *and* restripe ticks, exclusive only for
  shutdown/metadata swaps), per-extent locks from a
  :class:`~repro.service.StripeLockManager` keyed by extent index, and
  per-shard stripe locks wrapped around every shard I/O so two volume
  requests landing on one shard stripe through different extents can
  never race its parity read-modify-write. A request is routed and
  locked per extent, but the routed runs that are contiguous inside one
  shard go to that shard as one I/O, so a long write reaches each shard
  as whole stripes rather than extent-sized pieces.

Shards keep their own write-back caches, planners, and counters; the
volume aggregates per-shard :class:`~repro.store.IoCounters` with
:meth:`IoCounters.merged`. Closing the volume flushes every shard's
cache exactly once and audits the shared journal for orphaned records
— a non-empty journal after an orderly close means some write path
skipped its commit, which is a bug worth crashing loudly over.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.codes import make_code
from repro.raid.mapping import ArrayMapping
from repro.service.locks import ArrayRWLock, StripeLockManager
from repro.store import ArrayStore, IntentJournal, IoCounters
from repro.volume.mapping import VolumeMapping, VolumeRun

__all__ = ["ShardSpec", "VolumeManager", "VolumeStatus"]

logger = logging.getLogger(__name__)

_META_NAME = "volume.json"
_JOURNAL_NAME = "intent.journal"
_META_VERSION = 1


@dataclass(frozen=True)
class ShardSpec:
    """Geometry of one shard: an array code plus a store shape."""

    family: str
    n: int
    stripes: int
    chunk_bytes: int = 4096
    cache_stripes: int = 0

    def capacity_bytes(self) -> int:
        """Logical bytes this shard can hold (pure arithmetic)."""
        code = make_code(self.family, self.n)
        return ArrayMapping(code, self.chunk_bytes).capacity_bytes(
            self.stripes
        )

    def to_meta(self) -> dict:
        """Serialize the spec for ``volume.json``."""
        return {
            "family": self.family,
            "n": self.n,
            "stripes": self.stripes,
            "chunk_bytes": self.chunk_bytes,
            "cache_stripes": self.cache_stripes,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "ShardSpec":
        """Rebuild a spec from its ``volume.json`` entry."""
        return cls(
            family=meta["family"],
            n=meta["n"],
            stripes=meta["stripes"],
            chunk_bytes=meta["chunk_bytes"],
            cache_stripes=meta.get("cache_stripes", 0),
        )


@dataclass
class VolumeStatus:
    """A point-in-time snapshot of a volume's shape and health."""

    directory: str
    volume_bytes: int
    extent_bytes: int
    total_extents: int
    shards: list[dict]
    restripe_active: bool
    restripe_cursor: int
    restripe_target: list[dict] = field(default_factory=list)
    io: IoCounters = field(default_factory=IoCounters)
    failed_disks: dict[int, list[int]] = field(default_factory=dict)


class _Shard:
    """One mounted shard: its store, uid, and stripe-lock table."""

    __slots__ = ("uid", "spec", "store", "stripe_locks", "directory")

    def __init__(
        self, uid: int, spec: ShardSpec, store: ArrayStore, directory: Path
    ) -> None:
        self.uid = uid
        self.spec = spec
        self.store = store
        self.directory = directory
        self.stripe_locks = StripeLockManager()


class _ShardIO:
    """Routed extent runs merged into one contiguous shard I/O.

    ``pieces`` lists the ``(request_cursor, nbytes)`` slices of the
    request the I/O carries, in shard order.
    """

    __slots__ = ("shard", "offset", "nbytes", "pieces")

    def __init__(self, shard: _Shard, offset: int) -> None:
        self.shard = shard
        self.offset = offset
        self.nbytes = 0
        self.pieces: list[tuple[int, int]] = []


class VolumeManager:
    """N erasure-coded shards behind one crash-consistent byte space.

    Construct with :meth:`create` (a fresh volume) or :meth:`open` (an
    existing directory — uncommitted journal records are rolled forward
    and an interrupted migration's routing state is restored before the
    constructor returns). The instance is thread-safe; many callers may
    read/write concurrently while a :class:`~repro.volume.Restriper`
    migrates extents in the background.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        _meta: dict,
        _journal: IntentJournal,
    ) -> None:
        self.directory = Path(directory)
        self.journal = _journal
        self._meta = _meta
        self.extent_bytes: int = _meta["extent_bytes"]
        self.volume_bytes: int = _meta["volume_bytes"]
        self._rwlock = ArrayRWLock()
        self._extent_locks = StripeLockManager()
        self._state_lock = threading.Lock()
        self._closed = False
        self._shards: list[_Shard] = [
            self._mount(entry) for entry in _meta["shards"]
        ]
        self.mapping = VolumeMapping(
            [shard.store.capacity_bytes for shard in self._shards],
            self.extent_bytes,
        )
        if self.mapping.volume_bytes < self.volume_bytes:
            raise ValueError(
                f"shard set holds {self.mapping.volume_bytes} bytes, "
                f"less than the volume's {self.volume_bytes}"
            )
        # Migration state (None / empty while no restripe is in flight).
        self._new_shards: list[_Shard] = []
        self._new_mapping: VolumeMapping | None = None
        self._cursor = 0
        restripe = _meta.get("restripe")
        if restripe:
            self._new_shards = [
                self._mount(entry) for entry in restripe["target"]
            ]
            self._new_mapping = VolumeMapping(
                [shard.store.capacity_bytes for shard in self._new_shards],
                self.extent_bytes,
            )
            self._cursor = restripe["cursor"]
            logger.info(
                "volume %s: resuming restripe at extent %d/%d",
                self.directory, self._cursor, self.total_extents,
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path,
        shards: Sequence[ShardSpec],
        extent_bytes: int = 1 << 16,
        group_commit: int = 8,
    ) -> "VolumeManager":
        """Create a fresh volume striped over ``shards``."""
        directory = Path(directory)
        if (directory / _META_NAME).exists():
            raise ValueError(
                f"{directory} already holds a volume; use open()"
            )
        if not shards:
            raise ValueError("a volume needs at least one shard")
        directory.mkdir(parents=True, exist_ok=True)
        mapping = VolumeMapping(
            [spec.capacity_bytes() for spec in shards], extent_bytes
        )
        meta = {
            "version": _META_VERSION,
            "extent_bytes": extent_bytes,
            "volume_bytes": mapping.volume_bytes,
            "next_uid": len(shards),
            "shards": [
                {
                    "uid": uid,
                    "dir": f"shard{uid:03d}",
                    **spec.to_meta(),
                }
                for uid, spec in enumerate(shards)
            ],
            "restripe": None,
        }
        _write_meta(directory, meta)
        journal = IntentJournal(
            directory / _JOURNAL_NAME, group_commit=group_commit
        )
        return cls(directory, _meta=meta, _journal=journal)

    @classmethod
    def open(
        cls, directory: str | Path, group_commit: int = 8
    ) -> "VolumeManager":
        """Open an existing volume, recovering journal and migration
        state left by a crash."""
        directory = Path(directory)
        meta_path = directory / _META_NAME
        if not meta_path.exists():
            raise ValueError(f"{directory} holds no volume metadata")
        meta = json.loads(meta_path.read_text())
        if meta.get("version") != _META_VERSION:
            raise ValueError(
                f"unsupported volume metadata version {meta.get('version')}"
            )
        journal = IntentJournal(
            directory / _JOURNAL_NAME, group_commit=group_commit
        )
        return cls(directory, _meta=meta, _journal=journal)

    def _mount(self, entry: dict) -> _Shard:
        spec = ShardSpec.from_meta(entry)
        store = ArrayStore(
            make_code(spec.family, spec.n),
            self.directory / entry["dir"],
            stripes=spec.stripes,
            chunk_bytes=spec.chunk_bytes,
            cache_stripes=spec.cache_stripes,
            journal=self.journal,
            shard_id=entry["uid"],
        )
        return _Shard(entry["uid"], spec, store, self.directory / entry["dir"])

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Addressable bytes (constant across migrations)."""
        return self.volume_bytes

    @property
    def total_extents(self) -> int:
        """Extents the volume's byte space comprises."""
        return self.volume_bytes // self.extent_bytes

    @property
    def shards(self) -> list[ArrayStore]:
        """The current (source) shard stores, in mapping order."""
        return [shard.store for shard in self._shards]

    @property
    def restriping(self) -> bool:
        """True while a migration is in flight."""
        return self._new_mapping is not None

    @property
    def restripe_cursor(self) -> int:
        """Extents already living in the new layout."""
        with self._state_lock:
            return self._cursor

    @property
    def io(self) -> IoCounters:
        """Aggregate chunk I/O over every mounted shard (old and new)."""
        return IoCounters.merged(
            shard.store.io for shard in self._all_shards()
        )

    def _all_shards(self) -> Iterator[_Shard]:
        yield from self._shards
        yield from self._new_shards

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, run: VolumeRun) -> tuple[_Shard, int]:
        """Resolve one extent run to its shard by the cursor rule.

        Must be called with ``run.extent``'s lock held: the restriper
        advances the cursor only while holding the extents it copied,
        so under the extent lock the answer cannot change mid-I/O.
        """
        if self._new_mapping is not None and run.extent < self._cursor:
            shard_index, base = self._new_mapping.locate(run.extent)
            within = run.volume_offset - run.extent * self.extent_bytes
            return self._new_shards[shard_index], base + within
        return self._shards[run.shard], run.shard_offset

    def _shard_ios(self, runs: list[VolumeRun]) -> list[_ShardIO]:
        """Route every extent run, then merge the runs contiguous inside
        one shard into one shard I/O (first-touched shard first).

        Same locking rule as :meth:`_route`: the runs' extent locks must
        be held. Runs routed to different layouts of a migration land on
        different shard objects, so a merged I/O never mixes layouts.
        """
        ios: list[_ShardIO] = []
        last: dict[_Shard, _ShardIO] = {}
        cursor = 0
        for run in runs:
            shard, offset = self._route(run)
            io = last.get(shard)
            if io is None or io.offset + io.nbytes != offset:
                io = last[shard] = _ShardIO(shard, offset)
                ios.append(io)
            io.nbytes += run.nbytes
            io.pieces.append((cursor, run.nbytes))
            cursor += run.nbytes
        return ios

    def _shard_write(
        self, shard: _Shard, offset: int, payload: np.ndarray
    ) -> None:
        stripes = [
            r.stripe
            for r in shard.store.planner.mapping.byte_runs(
                offset, payload.size
            )
        ]
        with shard.stripe_locks.locked(stripes):
            shard.store.write_bytes(offset, payload)

    def _shard_read(
        self, shard: _Shard, offset: int, length: int
    ) -> np.ndarray:
        stripes = [
            r.stripe
            for r in shard.store.planner.mapping.byte_runs(offset, length)
        ]
        with shard.stripe_locks.locked(stripes):
            return shard.store.read_bytes(offset, length)

    # ------------------------------------------------------------------
    # public byte I/O
    # ------------------------------------------------------------------
    def write_bytes(self, offset: int, data: bytes | np.ndarray) -> None:
        """Write ``data`` at volume byte ``offset`` (any alignment)."""
        buf = (
            np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
            if isinstance(data, np.ndarray)
            else np.frombuffer(bytes(data), dtype=np.uint8)
        )
        if buf.size == 0:
            raise ValueError("cannot write zero bytes")
        self._check_range(offset, buf.size)
        with self._rwlock.shared():
            # Resolve runs under the volume lock: finish_restripe swaps
            # the mapping and shard list under the exclusive lock, so a
            # plan computed outside would route into retired shards.
            runs = self.mapping.byte_runs(offset, buf.size)
            with self._extent_locks.locked(run.extent for run in runs):
                for io in self._shard_ios(runs):
                    pieces = [buf[at : at + size] for at, size in io.pieces]
                    self._shard_write(
                        io.shard,
                        io.offset,
                        pieces[0] if len(pieces) == 1 else np.concatenate(pieces),
                    )

    def read_bytes(self, offset: int, length: int) -> np.ndarray:
        """Read ``length`` bytes at volume byte ``offset``."""
        self._check_range(offset, length)
        out = np.empty(length, dtype=np.uint8)
        with self._rwlock.shared():
            # Same ordering rule as write_bytes: the mapping may only
            # be consulted under the volume lock.
            runs = self.mapping.byte_runs(offset, length)
            with self._extent_locks.locked(run.extent for run in runs):
                for io in self._shard_ios(runs):
                    data = self._shard_read(io.shard, io.offset, io.nbytes)
                    done = 0
                    for at, size in io.pieces:
                        out[at : at + size] = data[done : done + size]
                        done += size
        return out

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if length <= 0:
            raise ValueError(f"non-positive length {length}")
        if offset + length > self.volume_bytes:
            raise ValueError(
                f"range [{offset}, {offset + length}) exceeds volume "
                f"capacity {self.volume_bytes}"
            )

    # ------------------------------------------------------------------
    # migration plumbing (driven by repro.volume.Restriper)
    # ------------------------------------------------------------------
    def begin_restripe(self, target: Sequence[ShardSpec]) -> None:
        """Mount the target shard set and persist the migration intent.

        The cursor starts at 0: every extent still routes to the old
        layout. Idempotent resume is :meth:`open`'s job — calling this
        while a migration is already in flight is an error.
        """
        if self.restriping:
            raise RuntimeError("a restripe is already in flight")
        if not target:
            raise ValueError("target shard set is empty")
        target_mapping = VolumeMapping(
            [spec.capacity_bytes() for spec in target], self.extent_bytes
        )
        if target_mapping.volume_bytes < self.volume_bytes:
            raise ValueError(
                f"target holds {target_mapping.volume_bytes} bytes, "
                f"less than the volume's {self.volume_bytes}"
            )
        with self._rwlock.exclusive():
            next_uid = self._meta["next_uid"]
            entries = []
            for spec in target:
                entries.append(
                    {
                        "uid": next_uid,
                        "dir": f"shard{next_uid:03d}",
                        **spec.to_meta(),
                    }
                )
                next_uid += 1
            self._meta["next_uid"] = next_uid
            self._meta["restripe"] = {"target": entries, "cursor": 0}
            _write_meta(self.directory, self._meta)
            self._new_shards = [self._mount(entry) for entry in entries]
            self._new_mapping = VolumeMapping(
                [s.store.capacity_bytes for s in self._new_shards],
                self.extent_bytes,
            )
            with self._state_lock:
                self._cursor = 0
        logger.info(
            "volume %s: restripe started to %d target shard(s)",
            self.directory, len(target),
        )

    def copy_extents(self, start: int, count: int) -> int:
        """Copy extents ``[start, start + count)`` old → new layout and
        durably advance the cursor; returns extents copied.

        The restriper's inner loop. Runs under the volume lock *shared*
        — foreground traffic keeps flowing — holding only the copied
        extents' locks. The routing flip is ordered for crash safety:

        1. every extent of the batch is copied (reads route old, the
           writes go straight to the new layout's shards, journaled by
           their stores like any write);
        2. the cursor is persisted (atomic metadata replace + fsync);
        3. only then does the in-memory cursor move, flipping routing.

        A crash before (3) re-copies the batch on resume — idempotent,
        and no foreground write can have landed in the new layout's
        copy of those extents because routing never flipped.
        """
        if not self.restriping:
            raise RuntimeError("no restripe in flight")
        end = min(start + count, self.total_extents)
        if start >= end:
            return 0
        assert self._new_mapping is not None
        with self._rwlock.shared(), self._extent_locks.locked(
            range(start, end)
        ):
            for extent in range(start, end):
                old_shard = self._shards[self.mapping.locate(extent)[0]]
                old_base = self.mapping.locate(extent)[1]
                data = self._shard_read(
                    old_shard, old_base, self.extent_bytes
                )
                new_index, new_base = self._new_mapping.locate(extent)
                self._shard_write(
                    self._new_shards[new_index], new_base, data
                )
            with self._state_lock:
                self._meta["restripe"]["cursor"] = end
                _write_meta(self.directory, self._meta)
                self._cursor = end
        return end - start

    def finish_restripe(self) -> None:
        """Swap the target layout in and retire the old shards.

        Requires every extent to have been copied. The swap is one
        atomic metadata replace; the old shards' directories are
        removed afterwards (a crash in between leaves only orphaned
        directories, never a misrouted extent).
        """
        if not self.restriping:
            raise RuntimeError("no restripe in flight")
        if self.restripe_cursor < self.total_extents:
            raise RuntimeError(
                f"restripe incomplete: cursor "
                f"{self.restripe_cursor}/{self.total_extents}"
            )
        with self._rwlock.exclusive():
            for shard in self._new_shards:
                shard.store.flush()
            retired = self._shards
            self._meta["shards"] = self._meta["restripe"]["target"]
            self._meta["restripe"] = None
            _write_meta(self.directory, self._meta)
            self._shards = self._new_shards
            self.mapping = self._new_mapping  # type: ignore[assignment]
            self._new_shards = []
            self._new_mapping = None
            with self._state_lock:
                self._cursor = 0
            for shard in retired:
                shard.store.close()
                shutil.rmtree(shard.directory, ignore_errors=True)
            self.journal.checkpoint()
        logger.info(
            "volume %s: restripe complete, %d shard(s) retired",
            self.directory, len(retired),
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Flush every shard's write-back cache; returns stripes flushed."""
        with self._rwlock.shared():
            return sum(
                shard.store.flush() for shard in self._all_shards()
            )

    def scrub(self) -> dict[int, list[int]]:
        """Scrub every shard; returns ``{shard_uid: corrupt_stripes}``
        for shards that found any."""
        findings: dict[int, list[int]] = {}
        with self._rwlock.exclusive():
            for shard in self._all_shards():
                corrupt = shard.store.scrub()
                if corrupt:
                    findings[shard.uid] = corrupt
        return findings

    def status(self) -> VolumeStatus:
        """A consistent snapshot of shape, migration, and counters."""
        with self._rwlock.shared():
            restripe = self._meta.get("restripe")
            return VolumeStatus(
                directory=str(self.directory),
                volume_bytes=self.volume_bytes,
                extent_bytes=self.extent_bytes,
                total_extents=self.total_extents,
                shards=[dict(entry) for entry in self._meta["shards"]],
                restripe_active=self.restriping,
                restripe_cursor=self.restripe_cursor,
                restripe_target=(
                    [dict(e) for e in restripe["target"]] if restripe else []
                ),
                io=self.io,
                failed_disks={
                    shard.uid: sorted(shard.store.failed)
                    for shard in self._all_shards()
                    if shard.store.failed
                },
            )

    # ------------------------------------------------------------------
    # lifecycle (the close-flush audit)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every shard (flushing each write-back cache exactly
        once), then audit and close the shared journal.

        Every shard is closed even when an earlier one raises (the
        first error still propagates). After all shards closed, any
        record left in the journal is *orphaned* — some write path
        sealed an intent and never committed nor crashed — and raises
        ``RuntimeError``: silently checkpointing it away would destroy
        the only evidence of a write-path bug.
        """
        if self._closed:
            return
        self._closed = True
        first_error: BaseException | None = None
        with self._rwlock.exclusive():
            for shard in self._all_shards():
                try:
                    shard.store.close()
                except BaseException as exc:  # noqa: BLE001 - reraise below
                    if first_error is None:
                        first_error = exc
            orphans = self.journal.pending_records()
            self.journal.close()
        if first_error is not None:
            raise first_error
        if orphans:
            raise RuntimeError(
                f"volume close audit: {len(orphans)} orphaned journal "
                f"record(s) remain (shards "
                f"{sorted({r.shard for r in orphans})}) — a write path "
                f"sealed intents it never committed"
            )

    def __enter__(self) -> "VolumeManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _write_meta(directory: Path, meta: dict) -> None:
    """Atomically replace ``volume.json`` (write-temp, fsync, rename)."""
    path = directory / _META_NAME
    tmp = directory / (_META_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # Make the rename itself durable: fsync the containing directory.
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
