"""Write-back stripe cache with cross-request parity-delta coalescing.

The paper's headline property is *per-request* optimality: a single
chunk write touches exactly ``faults + 1`` elements (1 data + 3 parity
on TIP, Eqs. 1-3 / Table 2). Real traces, however, hammer the same
stripes repeatedly (Table 3 locality), and because TIP's three parities
are independent XOR chains, the parity deltas of successive writes to
one stripe *commute*: they can be XOR-folded into one accumulated delta
per parity and committed once per flush instead of once per request.
:class:`StripeCache` is that amortization layer.

Design
------

The cache operates over a narrow *backend* protocol — ``failed`` (a set
of failed columns), ``read_element(stripe, pos)``,
``write_element(stripe, pos, chunk)`` and ``write_stripes(stripe,
payload)`` — so one implementation serves two consumers:

* :class:`repro.store.ArrayStore` is the real backend: element I/Os hit
  backing files and are metered by the store's ``IoCounters``;
* the planner's ``"cached"`` strategy drives the *same* cache over a
  :class:`_RecordingBackend` that logs I/Os and returns zeros
  (:class:`ShadowCache`). Cache decisions depend only on request
  geometry, never on chunk contents, so the shadow's planned element
  I/Os equal the real cache's measured chunk I/Os *by construction* —
  the property ``tests/test_raid_plan_vs_store.py`` cross-validates.

Per cached stripe the :class:`ParityDeltaAccumulator` keeps:

* ``data`` — current contents of cached data chunks (dirty or clean);
* ``dirty`` — which cached chunks still need to reach the backend;
* ``acc`` — per-parity XOR-accumulated deltas not yet anchored to the
  old parity contents (the coalescing state);
* ``pending`` — fully computed new parity chunks awaiting write-out.

Flush ordering (crash safety)
-----------------------------

``_flush_stripe`` is failure-atomic per stripe and strictly orders
**data before parity**:

1. every remaining ``acc`` delta is anchored: old parity is read and
   XORed into a ``pending`` value (reads only — nothing persisted yet);
2. dirty data chunks are written, each discarded from ``dirty`` only
   after its write returns;
3. pending parity chunks are written, each discarded from ``pending``
   only after its write returns.

A crash at any point leaves the cache state retryable: re-running
``flush()`` re-issues exactly the writes that had not completed, and
because ``pending`` holds absolute parity *values* (not deltas), the
retry is idempotent — a delta is never applied twice. Parity is never
persisted ahead of its stripe's data, so surviving parity on disk is
always consistent either with the old data or with data already written.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from repro.codes.base import ArrayCode, Cell, Position
from repro.raid.mapping import ArrayMapping, ChunkRun
from repro.raid.planner import RequestPlanner
from repro.store.metering import IoCounters

logger = logging.getLogger(__name__)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "ParityDeltaAccumulator",
    "ShadowCache",
    "StripeCache",
]


class CacheBackend(Protocol):
    """Element-granular I/O the cache is layered over."""

    @property
    def failed(self) -> Iterable[int]:  # pragma: no cover - protocol
        """Columns currently failed (their I/Os are skipped)."""
        ...

    def read_element(
        self, stripe: int, pos: Position
    ) -> np.ndarray:  # pragma: no cover - protocol
        """Read one element chunk."""
        ...

    def write_element(
        self, stripe: int, pos: Position, chunk: np.ndarray
    ) -> None:  # pragma: no cover - protocol
        """Write one element chunk."""
        ...

    def write_stripes(
        self, stripe: int, payload: np.ndarray
    ) -> None:  # pragma: no cover - protocol
        """Overwrite whole consecutive stripes from their logical data
        (at most ``WIDE_WRITE_STRIPES``): encode, write every stored
        element of the surviving columns."""
        ...


@dataclass
class CacheStats:
    """Hit/miss accounting plus raw-vs-coalesced chunk I/O counters.

    ``io`` meters the chunk I/Os the cache actually issued to its
    backend (the *coalesced* cost). ``raw_io`` prices what the same
    request sequence would have cost uncached — each write run is priced
    with the store's own planner, each read run at one chunk per covered
    element — so ``raw_io - io`` is the I/O the cache absorbed and
    :attr:`parity_write_amortization` is the paper-level payoff: how many
    per-request parity commits were folded into each flushed one.
    """

    read_chunk_hits: int = 0
    read_chunk_misses: int = 0
    write_chunk_hits: int = 0
    write_chunk_misses: int = 0
    write_chunks: int = 0
    bypass_chunks: int = 0
    flushes: int = 0
    evictions: int = 0
    io: IoCounters = field(default_factory=IoCounters)
    raw_io: IoCounters = field(default_factory=IoCounters)

    @property
    def lookups(self) -> int:
        """Chunk lookups served by the cache (reads + write pre-reads)."""
        return (
            self.read_chunk_hits + self.read_chunk_misses
            + self.write_chunk_hits + self.write_chunk_misses
        )

    @property
    def hits(self) -> int:
        """Lookups answered from cached chunks (no backend read)."""
        return self.read_chunk_hits + self.write_chunk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of chunk lookups served without touching the backend."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def parity_write_amortization(self) -> float:
        """Uncached parity chunk writes per coalesced parity chunk write.

        ``inf`` when the cache absorbed parity writes but flushed none
        yet (all deltas still pending). Use
        :attr:`parity_write_amortization_or_none` anywhere the value is
        serialized: ``json.dumps`` renders ``inf`` as the non-standard
        token ``Infinity``, which strict parsers reject.
        """
        if self.io.parity_chunks_written == 0:
            return float("inf") if self.raw_io.parity_chunks_written else 1.0
        return (
            self.raw_io.parity_chunks_written
            / self.io.parity_chunks_written
        )

    @property
    def parity_write_amortization_or_none(self) -> float | None:
        """JSON-safe amortization: ``None`` instead of ``inf``."""
        ratio = self.parity_write_amortization
        return None if ratio == float("inf") else ratio

    @property
    def chunk_ios_saved(self) -> int:
        """Chunk I/Os the cache absorbed versus the uncached write path."""
        return self.raw_io.total_chunks - self.io.total_chunks

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current stats."""
        return CacheStats(
            self.read_chunk_hits, self.read_chunk_misses,
            self.write_chunk_hits, self.write_chunk_misses,
            self.write_chunks, self.bypass_chunks,
            self.flushes, self.evictions,
            self.io.snapshot(), self.raw_io.snapshot(),
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.read_chunk_hits - other.read_chunk_hits,
            self.read_chunk_misses - other.read_chunk_misses,
            self.write_chunk_hits - other.write_chunk_hits,
            self.write_chunk_misses - other.write_chunk_misses,
            self.write_chunks - other.write_chunks,
            self.bypass_chunks - other.bypass_chunks,
            self.flushes - other.flushes,
            self.evictions - other.evictions,
            self.io - other.io,
            self.raw_io - other.raw_io,
        )


@dataclass
class ParityDeltaAccumulator:
    """Per-stripe write-back state: cached chunks + folded parity deltas.

    ``acc`` XOR-folds the parity delta of every absorbed write; at flush
    each entry is anchored to the old parity contents and moved to
    ``pending`` as an absolute value, making crash-retry idempotent.
    """

    data: dict[int, np.ndarray] = field(default_factory=dict)
    dirty: set[int] = field(default_factory=set)
    acc: dict[Position, np.ndarray] = field(default_factory=dict)
    pending: dict[Position, np.ndarray] = field(default_factory=dict)

    @property
    def is_dirty(self) -> bool:
        """True when the stripe still owes writes to the backend."""
        return bool(self.dirty or self.acc or self.pending)

    def fold(self, parity: Position, delta: np.ndarray) -> None:
        """XOR ``delta`` into the accumulated delta for ``parity``."""
        target = self.pending.get(parity)
        if target is not None:
            np.bitwise_xor(target, delta, out=target)
            return
        target = self.acc.get(parity)
        if target is None:
            # copy: one delta buffer feeds several parity chains
            self.acc[parity] = delta.copy()
        else:
            np.bitwise_xor(target, delta, out=target)


class StripeCache:
    """LRU write-back cache of stripes with parity-delta coalescing.

    Args:
        backend: element I/O provider (:class:`CacheBackend`).
        code: the array code striping the backend.
        chunk_bytes: element size in bytes.
        capacity_stripes: stripes cached at once; inserting beyond this
            flushes and evicts the least-recently-used stripe.
        raw_planner: planner used to price the *uncached* cost of each
            absorbed request for :attr:`CacheStats.raw_io`; a
            ``"delta"``-strategy planner is built when omitted.

    Aligned full-stripe overwrites bypass the cache (and invalidate any
    cached state for those stripes): the backend's wide whole-stripe
    write already writes every stored element with zero pre-reads, which
    no amount of coalescing can beat.
    """

    def __init__(
        self,
        backend: CacheBackend,
        code: ArrayCode,
        chunk_bytes: int,
        capacity_stripes: int,
        raw_planner: RequestPlanner | None = None,
    ) -> None:
        if capacity_stripes < 1:
            raise ValueError("capacity_stripes must be >= 1")
        self.backend = backend
        self.code = code
        self.chunk_bytes = chunk_bytes
        self.capacity_stripes = capacity_stripes
        self.mapping = (
            raw_planner.mapping
            if raw_planner is not None
            else ArrayMapping(code, chunk_bytes)
        )
        self._raw = raw_planner or RequestPlanner(
            code, chunk_bytes, write_strategy="delta"
        )
        self.stats = CacheStats()
        self._stripes: OrderedDict[int, ParityDeltaAccumulator] = OrderedDict()
        # One reentrant lock guards every cache transition (LRU order,
        # accumulator fold, flush, eviction, stats). Coarse by design:
        # each transition is cheap relative to the backend chunk I/O it
        # coalesces, and holding the lock across a whole fold/flush makes
        # the per-stripe state machine atomic — a concurrent writer can
        # never observe (or fold into) a stripe mid-flush. Reentrant
        # because ``drop()`` calls ``flush()`` and eviction inside
        # ``write()`` flushes the victim.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._stripes)

    @property
    def cached_stripes(self) -> tuple[int, ...]:
        """Cached stripe indices, least recently used first."""
        with self._lock:
            return tuple(self._stripes)

    @property
    def dirty_stripes(self) -> tuple[int, ...]:
        """Cached stripes still owing writes, least recently used first."""
        with self._lock:
            return tuple(s for s, st in self._stripes.items() if st.is_dirty)

    def snapshot_stats(self) -> CacheStats:
        """An atomic copy of the running stats (no torn counter sets)."""
        with self._lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------
    # metered backend I/O
    # ------------------------------------------------------------------
    def _meter(self, pos: Position, *, wrote: bool) -> None:
        kind = self.code.kind(*pos)
        if kind == Cell.EMPTY:
            return
        counters = self.stats.io
        if kind == Cell.PARITY:
            if wrote:
                counters.parity_chunks_written += 1
            else:
                counters.parity_chunks_read += 1
        elif wrote:
            counters.data_chunks_written += 1
        else:
            counters.data_chunks_read += 1

    def _read(self, stripe: int, pos: Position) -> np.ndarray:
        chunk = self.backend.read_element(stripe, pos)
        self._meter(pos, wrote=False)
        return chunk

    def _write(self, stripe: int, pos: Position, chunk: np.ndarray) -> None:
        self.backend.write_element(stripe, pos, chunk)
        self._meter(pos, wrote=True)

    def _count_raw_positions(
        self, positions: Iterable[Position], *, wrote: bool
    ) -> None:
        counters = self.stats.raw_io
        for pos in positions:
            kind = self.code.kind(*pos)
            if kind == Cell.EMPTY:
                continue
            if kind == Cell.PARITY:
                if wrote:
                    counters.parity_chunks_written += 1
                else:
                    counters.parity_chunks_read += 1
            elif wrote:
                counters.data_chunks_written += 1
            else:
                counters.data_chunks_read += 1

    def _price_raw_write(self, run: ChunkRun) -> None:
        plan = self._raw.plan_write_run(
            run.start, run.length, (),
            partial=run.is_partial(self.chunk_bytes),
        )
        self._count_raw_positions(plan.reads, wrote=False)
        self._count_raw_positions(plan.writes, wrote=True)

    # ------------------------------------------------------------------
    # LRU bookkeeping
    # ------------------------------------------------------------------
    def _touch(self, stripe: int) -> ParityDeltaAccumulator:
        """The stripe's cache entry, inserted (evicting LRU) if absent."""
        state = self._stripes.get(stripe)
        if state is not None:
            self._stripes.move_to_end(stripe)
            return state
        while len(self._stripes) >= self.capacity_stripes:
            victim, victim_state = next(iter(self._stripes.items()))
            was_dirty = victim_state.is_dirty
            self._flush_stripe(victim, victim_state)
            del self._stripes[victim]
            self.stats.evictions += 1
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "cache: evicted stripe %d for %d (%s)",
                    victim, stripe, "flushed" if was_dirty else "clean",
                )
        state = ParityDeltaAccumulator()
        self._stripes[stripe] = state
        return state

    def invalidate(self, stripe: int) -> None:
        """Drop a stripe's cached state without flushing it."""
        with self._lock:
            self._stripes.pop(stripe, None)

    # ------------------------------------------------------------------
    # byte I/O
    # ------------------------------------------------------------------
    def write(self, offset: int, buf: np.ndarray) -> None:
        """Absorb a byte-addressed write (any alignment) into the cache.

        Each per-stripe run either bypasses (aligned full-stripe
        overwrite: the longest run of them, up to ``WIDE_WRITE_STRIPES``,
        goes to the backend as one wide write, exactly the uncached
        path) or is cached: old chunks are pre-read once per miss — the
        delta needs them anyway, and a partial head/tail splices onto
        them for free — the data delta is folded into each dependent
        parity's accumulator, and the new contents are kept dirty.
        """
        runs = self.mapping.byte_runs(offset, buf.size)
        index = cursor = 0
        while index < len(runs):
            run = runs[index]
            count = self.mapping.whole_stripes(run, buf.size - cursor)
            # Lock per stripe-run (per wide write), not per request: a
            # long write holds the cache only for one transition at a time.
            with self._lock:
                if count:
                    nbytes = count * run.nbytes
                    self._bypass_stripes(
                        runs[index : index + count],
                        buf[cursor : cursor + nbytes],
                    )
                else:
                    count, nbytes = 1, run.nbytes
                    self._price_raw_write(run)
                    self._absorb_run(run, buf[cursor : cursor + nbytes])
            index += count
            cursor += nbytes

    def _bypass_stripes(
        self, runs: list[ChunkRun], payload: np.ndarray
    ) -> None:
        """Aligned whole-stripe overwrites: one wide write through.

        Every element is replaced, so cached state for the stripes —
        including unflushed parity deltas — is obsolete and dropped.
        """
        for run in runs:
            self._price_raw_write(run)
            self.invalidate(run.stripe)
        self.backend.write_stripes(runs[0].stripe, payload)
        failed = set(self.backend.failed)
        stored = [
            pos for pos in self.code.nonempty_positions if pos[1] not in failed
        ]
        parity = sum(
            1 for pos in stored if self.code.kind(*pos) == Cell.PARITY
        )
        self.stats.io.data_chunks_written += len(runs) * (len(stored) - parity)
        self.stats.io.parity_chunks_written += len(runs) * parity
        self.stats.bypass_chunks += len(runs) * self.code.num_data

    def _absorb_run(self, run: ChunkRun, payload: np.ndarray) -> None:
        state = self._touch(run.stripe)
        chunk_bytes = self.chunk_bytes
        cursor = 0
        for index in range(run.length):
            within = run.start + index
            pos = self.code.data_positions[within]
            old = state.data.get(within)
            if old is None:
                old = self._read(run.stripe, pos)
                self.stats.write_chunk_misses += 1
            else:
                self.stats.write_chunk_hits += 1
            skip = run.skip if index == 0 else 0
            take = min(chunk_bytes - skip, run.nbytes - cursor)
            if skip == 0 and take == chunk_bytes:
                new = payload[cursor : cursor + chunk_bytes].copy()
            else:
                new = old.copy()
                new[skip : skip + take] = payload[cursor : cursor + take]
            cursor += take
            delta = np.bitwise_xor(old, new)
            for parity in self.code.parity_dependents[pos]:
                state.fold(parity, delta)
            state.data[within] = new
            state.dirty.add(within)
            self.stats.write_chunks += 1

    def read(self, offset: int, length: int) -> np.ndarray:
        """Serve a byte-addressed read, preferring cached chunks.

        Misses read through to the backend. A miss on an
        already-cached stripe populates that stripe's entry (the chunk
        stays clean); reads never allocate new stripe entries, so a
        read-heavy scan cannot evict write-back state.
        """
        out = np.empty(length, dtype=np.uint8)
        chunk_bytes = self.chunk_bytes
        cursor = 0
        for run in self.mapping.byte_runs(offset, length):
            with self._lock:
                state = self._stripes.get(run.stripe)
                if state is not None:
                    self._stripes.move_to_end(run.stripe)
                consumed = 0
                for index in range(run.length):
                    within = run.start + index
                    pos = self.code.data_positions[within]
                    chunk = None if state is None else state.data.get(within)
                    if chunk is None:
                        chunk = self._read(run.stripe, pos)
                        self.stats.read_chunk_misses += 1
                        if state is not None:
                            state.data[within] = chunk
                    else:
                        self.stats.read_chunk_hits += 1
                    skip = run.skip if index == 0 else 0
                    take = min(chunk_bytes - skip, run.nbytes - consumed)
                    out[cursor : cursor + take] = chunk[skip : skip + take]
                    cursor += take
                    consumed += take
                self._count_raw_positions(
                    (
                        self.code.data_positions[run.start + i]
                        for i in range(run.length)
                    ),
                    wrote=False,
                )
        return out

    def apply_batch(
        self, ops: "list[tuple[bool, int, np.ndarray | int]]"
    ) -> "list[np.ndarray | None]":
        """Apply a batch of ops in order under one cache lock hold.

        The batched front-end's cache entry point: each
        ``(is_write, offset, payload_or_length)`` op runs the exact
        per-run absorb/serve logic of :meth:`write` / :meth:`read` —
        successive writes to one stripe keep folding into the same
        :class:`ParityDeltaAccumulator` with no flush in between, and
        eviction fires exactly where the serial path fires it (capacity
        pressure in ``_touch``) so hit/miss accounting, chunk
        ``IoCounters`` and final contents stay byte-for-byte identical
        to applying the ops one by one. What the batch amortizes is the
        lock traffic: one reentrant hold instead of one acquisition per
        stripe-run.
        """
        with self._lock:
            results: "list[np.ndarray | None]" = []
            for is_write, offset, payload in ops:
                if is_write:
                    self.write(offset, payload)
                    results.append(None)
                else:
                    results.append(self.read(offset, payload))
            return results

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write back every dirty stripe (LRU order); returns stripes
        flushed. Entries stay cached (clean) for future hits.

        A stripe invalidated while the flush walks the list — e.g. by
        :meth:`ArrayStore.fail_disk` reacting to a fault surfaced by
        this very flush, or a full-stripe bypass write racing in — is
        simply skipped: its state is gone and owes nothing.
        """
        with self._lock:
            flushed = 0
            for stripe in list(self._stripes):
                state = self._stripes.get(stripe)
                if state is None:
                    continue  # invalidated mid-flush
                if self._flush_stripe(stripe, state):
                    flushed += 1
            if flushed and logger.isEnabledFor(logging.DEBUG):
                logger.debug("cache: flushed %d dirty stripes", flushed)
            return flushed

    def drop(self) -> None:
        """Flush everything, then empty the cache entirely."""
        with self._lock:
            logger.info(
                "cache: dropping %d cached stripes (flush + disengage)",
                len(self._stripes),
            )
            self.flush()
            self._stripes.clear()

    def _flush_stripe(
        self, stripe: int, state: ParityDeltaAccumulator
    ) -> bool:
        """Commit one stripe: anchor deltas, write data, then parity.

        Incremental and idempotent — each piece of pending state is
        discarded only after the backend write that persists it returns,
        so a crash mid-flush is retried by calling flush again. See the
        module docstring for the ordering invariant.
        """
        if not state.is_dirty:
            return False
        failed = set(self.backend.failed)
        for parity in sorted(state.acc):
            if parity[1] in failed:
                del state.acc[parity]  # the parity died with its disk
                continue
            delta = state.acc[parity]
            prev = state.pending.get(parity)
            if prev is not None:
                # Deltas folded after an interrupted flush anchored this
                # parity: fold onto the surviving anchor — re-reading
                # would double-apply the anchored part.
                np.bitwise_xor(prev, delta, out=prev)
            else:
                # Anchor only after the pre-read returns: an injected
                # fault on this read must leave the delta in ``acc`` or
                # the parity chain silently loses it (and a later
                # rebuild would decode a consistent-but-wrong chunk
                # through the stale chain).
                old = self._read(stripe, parity)
                state.pending[parity] = np.bitwise_xor(old, delta)
            del state.acc[parity]
        for within in sorted(state.dirty):
            pos = self.code.data_positions[within]
            if pos[1] not in failed:
                self._write(stripe, pos, state.data[within])
            state.dirty.discard(within)
        for parity in sorted(state.pending):
            if parity[1] not in failed:
                self._write(stripe, parity, state.pending[parity])
            del state.pending[parity]
        self.stats.flushes += 1
        return True


class _RecordingBackend:
    """Backend stub: logs element I/Os, returns zeros. Healthy only."""

    failed: frozenset[int] = frozenset()

    def __init__(self, code: ArrayCode, chunk_bytes: int) -> None:
        self.code = code
        self.chunk_bytes = chunk_bytes
        self.log: list[tuple[int, Position, bool]] = []

    def read_element(self, stripe: int, pos: Position) -> np.ndarray:
        """Log the read; contents never influence cache decisions."""
        self.log.append((stripe, pos, False))
        return np.zeros(self.chunk_bytes, dtype=np.uint8)

    def write_element(
        self, stripe: int, pos: Position, chunk: np.ndarray
    ) -> None:
        """Log the write; nothing is stored."""
        self.log.append((stripe, pos, True))

    def write_stripes(self, stripe: int, payload: np.ndarray) -> None:
        """Log a wide write as the element writes it issues."""
        count = payload.size // (self.code.num_data * self.chunk_bytes)
        for index in range(stripe, stripe + count):
            self.log.extend(
                (index, pos, True) for pos in self.code.nonempty_positions
            )


class ShadowCache:
    """Planner-side mirror of a cached store.

    Replays the exact :class:`StripeCache` logic over a recording
    backend and emits the element I/Os the real cache will issue for the
    same request sequence. Because cache behavior depends only on request
    geometry (offsets, lengths, LRU state) and never on chunk contents,
    feeding both caches the same sequence yields identical I/O logs —
    the ``"cached"`` planner strategy's exactness guarantee.
    """

    def __init__(
        self, code: ArrayCode, chunk_bytes: int, capacity_stripes: int
    ) -> None:
        self._backend = _RecordingBackend(code, chunk_bytes)
        self.cache = StripeCache(
            self._backend, code, chunk_bytes, capacity_stripes
        )

    @property
    def stats(self) -> CacheStats:
        """The shadow cache's predicted stats."""
        return self.cache.stats

    def _drain_log(self) -> list[tuple[int, Position, bool]]:
        log = list(self._backend.log)
        self._backend.log.clear()
        return log

    def record_write(
        self, offset: int, length: int
    ) -> list[tuple[int, Position, bool]]:
        """Element I/Os a cached store issues for this write request."""
        self._backend.log.clear()
        self.cache.write(offset, np.zeros(length, dtype=np.uint8))
        return self._drain_log()

    def record_read(
        self, offset: int, length: int
    ) -> list[tuple[int, Position, bool]]:
        """Element I/Os a cached store issues for this read request."""
        self._backend.log.clear()
        self.cache.read(offset, length)
        return self._drain_log()

    def record_flush(self) -> list[tuple[int, Position, bool]]:
        """Element I/Os flushing the currently dirty stripes issues."""
        self._backend.log.clear()
        self.cache.flush()
        return self._drain_log()
