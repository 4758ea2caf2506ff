"""Request planning: one write-path model for simulator and store.

A plan is an explicit, two-phase list of chunk-sized element I/Os
(pre-reads, then dependent writes). The same planner serves two very
different consumers:

* the DiskSim controller *prices* plans — each :class:`ElementIO` queues
  at a simulated disk (Fig. 13);
* :class:`repro.store.ArrayStore` *executes* plans — each element I/O
  becomes a real read/write against a backing file, metered by the
  store's :class:`~repro.store.IoCounters`.

Because both consume identical plans, the controller's planned element
I/O counts and the store's measured chunk I/Os must agree exactly —
the cross-validation ``tests/test_raid_plan_vs_store.py`` enforces.

Write strategies
----------------

``rmw`` / ``rcw`` / ``auto`` are the *analytic* models of
:mod:`repro.analysis.write_path` (the paper's Sec. VI-B accounting):
pre-read/write sets derived from the update-penalty closure, and
full-stripe runs written with no pre-reads. ``delta`` / ``delta-always``
/ ``stripe`` are the *executable* models — exactly what the store does:

* **delta** — per run, the cheapest of three paths in chunk I/Os: the
  delta read-modify-write fast path (read the old data chunks and the
  generator-derived dependent parities, XOR the delta through, write
  back); reconstruct-write, ``"rcw"`` (read every data chunk the run
  does not fully overwrite, re-encode, write the run's chunks and
  their dependent parities); or the full-stripe path
  (load/re-encode/store, or for an aligned whole-stripe overwrite just
  encode/store). Ties keep the stripe path first, then delta. Degraded
  runs always reconstruct the stripe. This is the store's
  ``write_mode="auto"``.
* **delta-always** / **stripe** — force one path (delta still falls
  back to the stripe path while degraded).

The delta parity set comes from :attr:`ArrayCode.parity_dependents`
(generator matrix), not the update-penalty closure: for chained codes a
data element can reach a parity an even number of times and cancel out,
in which case the parity's *value* does not change and no real I/O
happens. The analytic strategies keep the closure — that is the paper's
metric — which is precisely why plan-vs-measured validation needs the
executable strategies.

``cached`` is the *stateful* model of a write-back stripe cache
(:mod:`repro.raid.cache`): each :meth:`RequestPlanner.plan` call drives
a shadow copy of the real cache over a recording backend, so the planned
I/Os for a request *sequence* — including flush-on-eviction traffic and
:meth:`RequestPlanner.plan_flush` — mirror a cached store's measured
chunk I/Os one-for-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.write_path import choose_strategy, rcw_cost, rmw_cost
from repro.codes.base import ArrayCode, Cell, Position
from repro.raid.mapping import ArrayMapping, ChunkRun
from repro.traces.model import TraceRequest

__all__ = [
    "WRITE_STRATEGIES",
    "BatchGroup",
    "BatchItem",
    "BatchPlan",
    "DiskSpan",
    "ElementIO",
    "PlanCounts",
    "RequestPlan",
    "RequestPlanner",
    "RunPlan",
    "coalesce_chunks",
    "plan_io_counters",
]

#: Analytic strategies (paper accounting) + executable strategies
#: (what the store really does) + the stateful ``cached`` model of a
#: write-back stripe cache. See the module docstring.
WRITE_STRATEGIES = (
    "rmw", "rcw", "auto", "delta", "delta-always", "stripe", "cached",
)

_EXECUTABLE = ("delta", "delta-always", "stripe")


@dataclass(frozen=True)
class ElementIO:
    """One chunk-sized disk I/O derived from a logical request."""

    disk: int
    lba_chunk: int
    is_write: bool


@dataclass
class RequestPlan:
    """Two-phase I/O plan for one request: reads, then dependent writes."""

    reads: list[ElementIO]
    writes: list[ElementIO]

    @property
    def total_ios(self) -> int:
        """Element I/Os the plan issues."""
        return len(self.reads) + len(self.writes)


@dataclass(frozen=True)
class RunPlan:
    """Executable plan for one per-stripe run (positions, not LBAs).

    ``path`` is ``"delta"`` (read-modify-write on exactly the listed
    cells), ``"rcw"`` (read the listed data cells, splice, re-encode,
    write the listed cells) or ``"stripe"`` (load the listed ``reads``,
    reconstruct if ``decode``, re-encode, store the listed ``writes``).
    Positions are stripe-relative grid cells; the caller maps them to
    disks/LBAs. ``counts`` is the plan's chunk I/O split by role —
    (data reads, parity reads, data writes, parity writes) — fixed when
    the planner builds it, so executing or pricing a plan meters it
    without looking at its cells.
    """

    path: str
    reads: tuple[Position, ...]
    writes: tuple[Position, ...]
    decode: bool = False
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)

    @property
    def total_ios(self) -> int:
        """Chunk I/Os this run plan performs."""
        return len(self.reads) + len(self.writes)


@dataclass(frozen=True)
class PlanCounts:
    """Planned chunk I/Os split by element role (mirrors ``IoCounters``)."""

    data_chunks_read: int = 0
    parity_chunks_read: int = 0
    data_chunks_written: int = 0
    parity_chunks_written: int = 0

    @property
    def chunks_read(self) -> int:
        """Total planned chunk reads."""
        return self.data_chunks_read + self.parity_chunks_read

    @property
    def chunks_written(self) -> int:
        """Total planned chunk writes."""
        return self.data_chunks_written + self.parity_chunks_written

    @property
    def total_chunks(self) -> int:
        """Total planned chunk transfers."""
        return self.chunks_read + self.chunks_written


def plan_io_counters(code: ArrayCode, plan: RequestPlan) -> PlanCounts:
    """Split a plan's element I/Os into data/parity read/write counts.

    The element role is recovered from the address math (LBA → grid row),
    so the result is comparable field-by-field with the store's measured
    :class:`~repro.store.IoCounters`.
    """
    counts = [0, 0, 0, 0]  # data reads, parity reads, data writes, parity writes
    for io in plan.reads + plan.writes:
        kind = code.kind(io.lba_chunk % code.rows, io.disk)
        index = (2 if io.is_write else 0) + (1 if kind == Cell.PARITY else 0)
        counts[index] += 1
    return PlanCounts(*counts)


@dataclass(frozen=True)
class DiskSpan:
    """A contiguous chunk range on one disk (the scatter-gather unit).

    One span becomes one ``preadv``/``pwritev`` against the disk's
    backing file; ``chunks`` counts stripe units, so byte geometry is
    ``offset = lba_chunk * chunk_bytes`` / ``length = chunks *
    chunk_bytes``.
    """

    disk: int
    lba_chunk: int
    chunks: int

    @property
    def stop(self) -> int:
        """One past the last covered LBA chunk."""
        return self.lba_chunk + self.chunks

    def lbas(self) -> range:
        """The covered LBA chunks, ascending."""
        return range(self.lba_chunk, self.stop)


@dataclass(frozen=True)
class BatchItem:
    """One per-stripe run of one batched request, with its run plan.

    ``cursor`` is the byte offset into the request payload where this
    run's bytes begin — batch execution splices runs exactly where the
    serial path would.
    """

    op_index: int
    run: ChunkRun
    plan: RunPlan
    cursor: int
    is_write: bool


@dataclass
class BatchGroup:
    """All runs of a batch that land on one stripe, in arrival order.

    ``batchable`` marks groups whose every run takes the delta fast
    path or reconstruct-write; a group holding any stripe-path or
    decoding run is executed by the serial per-run machinery instead
    (it meters itself and is excluded from the batch spans and
    ``BatchPlan.counts``).
    """

    stripe: int
    items: list[BatchItem]
    batchable: bool = True


@dataclass
class BatchPlan:
    """Merged execution plan for a batch of byte-addressed requests.

    ``read_spans``/``write_spans`` are the deduplicated, gap-bridged
    per-disk span lists covering every *batchable* group; ``counts`` is
    the logical chunk accounting those groups must meter — the per-item
    sum of their run plans, NOT the span footprint, so ``IoCounters``
    stay byte-for-byte identical to replaying the requests serially
    (the paper's 1+3 accounting contract). Fallback groups are left out
    of both: the serial machinery that executes them meters them.
    """

    groups: list[BatchGroup]
    read_spans: list[DiskSpan]
    write_spans: list[DiskSpan]
    counts: PlanCounts

    @property
    def batchable_groups(self) -> list[BatchGroup]:
        """Groups the span path executes."""
        return [group for group in self.groups if group.batchable]

    @property
    def fallback_groups(self) -> list[BatchGroup]:
        """Groups deferred to the serial per-run machinery."""
        return [group for group in self.groups if not group.batchable]


def coalesce_chunks(
    chunks: Iterable[tuple[int, int]], bridge: int = 0
) -> list[DiskSpan]:
    """Merge ``(disk, lba_chunk)`` addresses into per-disk spans.

    Adjacent chunks always merge; ``bridge`` additionally merges spans
    separated by at most that many *uncovered* chunks, trading extra
    bytes moved for fewer syscalls (a gap chunk costs a memory-speed
    copy, a separate span costs a syscall). Callers bridging **write**
    spans must read the bridged gaps in the same batch and write them
    back unchanged — see ``ArrayStore.execute_batch``.
    """
    if bridge < 0:
        raise ValueError("bridge must be >= 0")
    spans: list[DiskSpan] = []
    by_disk: dict[int, list[int]] = {}
    for disk, lba in set(chunks):
        by_disk.setdefault(disk, []).append(lba)
    for disk in sorted(by_disk):
        lbas = sorted(by_disk[disk])
        start = prev = lbas[0]
        for lba in lbas[1:]:
            if lba - prev - 1 <= bridge:
                prev = lba
                continue
            spans.append(DiskSpan(disk, start, prev - start + 1))
            start = prev = lba
        spans.append(DiskSpan(disk, start, prev - start + 1))
    return spans


class RequestPlanner:
    """Builds element I/O plans for byte requests against one array code.

    Args:
        code: the erasure code striping this array.
        chunk_bytes: stripe-unit size (8 KB in the paper's configuration).
        write_strategy: one of :data:`WRITE_STRATEGIES`; see the module
            docstring for the analytic/executable split.
        cache_stripes: capacity of the write-back cache the ``"cached"``
            strategy models (ignored by other strategies). The cached
            model is *stateful* — successive :meth:`plan` calls mutate
            its LRU/dirty state exactly as the real cache's would — so
            one planner instance must see the same request sequence, in
            order, as the cached store it predicts.
    """

    def __init__(
        self,
        code: ArrayCode,
        chunk_bytes: int = 8 * 1024,
        write_strategy: str = "rmw",
        cache_stripes: int = 8,
    ) -> None:
        if write_strategy not in WRITE_STRATEGIES:
            raise ValueError(
                f"write_strategy must be one of {WRITE_STRATEGIES}, "
                f"got {write_strategy!r}"
            )
        self.code = code
        self.mapping = ArrayMapping(code, chunk_bytes)
        self.chunk_bytes = chunk_bytes
        self.write_strategy = write_strategy
        self._run_plans: dict[tuple, RunPlan] = {}
        self._cell_cache: dict[int, tuple] = {}
        self.shadow_cache = None
        if write_strategy == "cached":
            # Deferred import: cache.py layers on this module.
            from repro.raid.cache import ShadowCache

            self.shadow_cache = ShadowCache(code, chunk_bytes, cache_stripes)

    # ------------------------------------------------------------------
    # run-level planning (executable semantics — what the store does)
    # ------------------------------------------------------------------
    def plan_write_run(
        self,
        start: int,
        length: int,
        failed: tuple[int, ...] = (),
        partial: bool = False,
    ) -> RunPlan:
        """Executable write plan for ``length`` data elements at ``start``.

        Args:
            start: first logical data index within the stripe.
            length: number of consecutive data elements covered.
            failed: currently failed disks (forces the stripe path;
                their I/Os are dropped, as in a real array).
            partial: True when the run's first or last chunk is covered
                only partly by the request (a byte-addressed front-end);
                a partial full-stripe run still needs the old contents.
        """
        failed_key = tuple(sorted(set(failed)))
        key = (start, length, failed_key, bool(partial))
        plan = self._run_plans.get(key)
        if plan is None:
            plan = self._build_write_run(start, length, failed_key, partial)
            self._run_plans[key] = plan
        return plan

    def _build_write_run(
        self,
        start: int,
        length: int,
        failed: tuple[int, ...],
        partial: bool,
    ) -> RunPlan:
        strategy = self.write_strategy
        if strategy not in _EXECUTABLE:
            raise ValueError(
                f"run plans are executable-only; strategy {strategy!r} "
                f"plans at request granularity (use plan() for pricing)"
            )
        code = self.code
        full_overwrite = length == code.num_data and not partial
        survivors = tuple(
            pos for pos in code.nonempty_positions if pos[1] not in failed
        )
        if full_overwrite:
            stripe = self._plan("stripe", (), survivors)
        else:
            stripe = self._plan(
                "stripe", survivors, survivors, decode=bool(failed)
            )
        if failed or strategy == "stripe":
            return stripe
        delta = self._delta_plan(start, length)
        if strategy == "delta-always":
            return delta
        rcw = self._rcw_plan(start, length, partial)
        best = rcw if rcw.total_ios < delta.total_ios else delta
        return best if best.total_ios < stripe.total_ios else stripe

    def _delta_plan(self, start: int, length: int) -> RunPlan:
        key = ("delta", start, length)
        plan = self._run_plans.get(key)
        if plan is None:
            cells = self._run_cells(start, length)
            plan = self._run_plans[key] = self._plan("delta", cells, cells)
        return plan

    def _rcw_plan(self, start: int, length: int, partial: bool) -> RunPlan:
        """Reconstruct-write: read every data cell the run does not
        overwrite whole, write the run's cells and their dependents.

        A run covers only its first or last chunk partly when
        ``partial``; the plan does not know which, so it reads both.
        """
        stop = start + length
        reads = tuple(
            pos
            for index, pos in enumerate(self.code.data_positions)
            if not start <= index < stop
            or (partial and index in (start, stop - 1))
        )
        return self._plan("rcw", reads, self._run_cells(start, length))

    def _run_cells(self, start: int, length: int) -> tuple[Position, ...]:
        """The run's data cells, then their parity dependents, sorted."""
        code = self.code
        data = tuple(code.data_positions[start + i] for i in range(length))
        parities: set[Position] = set()
        for pos in data:
            parities.update(code.parity_dependents[pos])
        return data + tuple(sorted(parities))

    def _plan(
        self,
        path: str,
        reads: tuple[Position, ...],
        writes: tuple[Position, ...],
        decode: bool = False,
    ) -> RunPlan:
        """A run plan with its role counts filled in."""
        roles = self.code.roles
        data_reads = sum(1 for pos in reads if not roles[pos])
        data_writes = sum(1 for pos in writes if not roles[pos])
        counts = (
            data_reads, len(reads) - data_reads,
            data_writes, len(writes) - data_writes,
        )
        return RunPlan(path, reads, writes, decode=decode, counts=counts)

    def plan_read_run(
        self,
        start: int,
        length: int,
        failed: tuple[int, ...] = (),
    ) -> RunPlan:
        """Read plan for ``length`` data elements at ``start``.

        Healthy runs (or degraded runs touching no failed column) read
        exactly the covered elements; a run touching a failed column
        expands to every surviving element of the stripe — the recovery
        schedule's known set — and flags ``decode``.
        """
        failed_key = tuple(sorted(set(failed)))
        key = ("read", start, length, failed_key)
        plan = self._run_plans.get(key)
        if plan is not None:
            return plan
        code = self.code
        covered = tuple(code.data_positions[start + i] for i in range(length))
        if failed_key and any(col in failed_key for _, col in covered):
            decoder = code.decoder_for(failed_key)
            plan = self._plan(
                "stripe", tuple(decoder.plan.known_positions), (), decode=True
            )
        else:
            plan = self._plan("delta", covered, ())
        self._run_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # batch planning (cross-request span merging)
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        ops: Sequence[tuple[bool, int, int]],
        failed: tuple[int, ...] = (),
        bridge: int = 0,
    ) -> BatchPlan:
        """Merge a batch of ``(is_write, offset, length)`` requests.

        Each request is split into per-stripe runs and planned exactly
        as the serial path plans it (same cached :class:`RunPlan`
        objects), then the runs are grouped by stripe in arrival order.
        Groups where every run takes the delta fast path or
        reconstruct-write are *batchable* and contribute to the merged
        span lists:

        * **write spans** — the union of the groups' planned write
          positions, coalesced per disk with gap bridging ``bridge``;
        * **read spans** — the union of their planned pre-reads *plus
          every chunk a write span covers* (bridged write gaps must be
          in memory to be written back unchanged), coalesced the same
          way.

        Any group holding a stripe-path or decoding run — and every
        group when the array is degraded, since ``failed`` forces the
        stripe path — is flagged non-batchable for the caller's serial
        fallback.
        """
        failed_key = tuple(sorted(set(failed)))
        groups: dict[int, BatchGroup] = {}
        ordered: list[BatchGroup] = []
        for op_index, (is_write, offset, length) in enumerate(ops):
            cursor = 0
            for run in self.mapping.byte_runs(offset, length):
                if is_write:
                    plan = self.plan_write_run(
                        run.start,
                        run.length,
                        failed_key,
                        partial=run.is_partial(self.chunk_bytes),
                    )
                else:
                    plan = self.plan_read_run(
                        run.start, run.length, failed_key
                    )
                group = groups.get(run.stripe)
                if group is None:
                    group = groups[run.stripe] = BatchGroup(run.stripe, [])
                    ordered.append(group)
                group.items.append(
                    BatchItem(op_index, run, plan, cursor, is_write)
                )
                if plan.path == "stripe" or plan.decode:
                    group.batchable = False
                cursor += run.nbytes
        counts = [0, 0, 0, 0]
        read_chunks: set[tuple[int, int]] = set()
        write_chunks: set[tuple[int, int]] = set()
        rows = self.code.rows
        for group in ordered:
            if not group.batchable:
                continue
            base = group.stripe * rows
            for item in group.items:
                _, reads_rel, writes_rel = self._plan_cells(item.plan)
                for col, row in reads_rel:
                    read_chunks.add((col, base + row))
                for col, row in writes_rel:
                    write_chunks.add((col, base + row))
                plan_counts = item.plan.counts
                counts[0] += plan_counts[0]
                counts[1] += plan_counts[1]
                counts[2] += plan_counts[2]
                counts[3] += plan_counts[3]
        write_spans = coalesce_chunks(write_chunks, bridge)
        for span in write_spans:
            for lba in span.lbas():
                read_chunks.add((span.disk, lba))
        return BatchPlan(
            groups=ordered,
            read_spans=coalesce_chunks(read_chunks, bridge),
            write_spans=write_spans,
            counts=PlanCounts(counts[0], counts[1], counts[2], counts[3]),
        )

    def _plan_cells(self, plan: RunPlan) -> tuple:
        """Stripe-relative ``(disk, row)`` cells of a plan.

        ``plan_batch`` touches every element of every item; going through
        ``element_address`` per element dominated batch planning (a
        dataclass construction each). Run plans are interned in
        ``_run_plans`` for the planner's lifetime, so the flattened form
        is computed once per distinct plan. The cached tuple keeps the
        plan itself as its first field, which both pins the plan alive
        (making the ``id()`` key collision-free) and lets the lookup
        verify identity.
        """
        cached = self._cell_cache.get(id(plan))
        if cached is None or cached[0] is not plan:
            cached = (
                plan,
                tuple((pos[1], pos[0]) for pos in plan.reads),
                tuple((pos[1], pos[0]) for pos in plan.writes),
            )
            self._cell_cache[id(plan)] = cached
        return cached

    # ------------------------------------------------------------------
    # request-level planning (byte-addressed, for pricing/validation)
    # ------------------------------------------------------------------
    def plan(
        self, request: TraceRequest, failed: tuple[int, ...] = ()
    ) -> RequestPlan:
        """Build the element I/O plan for one byte-addressed request."""
        failed_key = tuple(sorted(set(failed)))
        if self.write_strategy == "cached":
            if failed_key:
                raise ValueError(
                    "the cached strategy models a healthy array; a cached "
                    "store drains its cache and bypasses it while degraded "
                    "— plan degraded requests with an executable strategy"
                )
            if request.is_write:
                log = self.shadow_cache.record_write(
                    request.offset, request.length
                )
            else:
                log = self.shadow_cache.record_read(
                    request.offset, request.length
                )
            return self._plan_from_log(log)
        reads: list[ElementIO] = []
        writes: list[ElementIO] = []
        for run in self.mapping.byte_runs(request.offset, request.length):
            if request.is_write:
                self._plan_write(run, failed_key, reads, writes)
            else:
                plan = self.plan_read_run(run.start, run.length, failed_key)
                for pos in plan.reads:
                    reads.append(self._io(run.stripe, pos, False))
        return RequestPlan(reads=_dedupe(reads), writes=_dedupe(writes))

    def _plan_write(
        self,
        run: ChunkRun,
        failed: tuple[int, ...],
        reads: list[ElementIO],
        writes: list[ElementIO],
    ) -> None:
        if self.write_strategy in _EXECUTABLE:
            plan = self.plan_write_run(
                run.start,
                run.length,
                failed,
                partial=run.is_partial(self.chunk_bytes),
            )
            for pos in plan.reads:
                if pos[1] not in failed:
                    reads.append(self._io(run.stripe, pos, False))
            for pos in plan.writes:
                if pos[1] not in failed:
                    writes.append(self._io(run.stripe, pos, True))
            return
        # Analytic strategies: the paper's accounting. Full-stripe runs
        # write every stored element with no pre-reads; partial runs use
        # the update-penalty cost sets of repro.analysis.write_path.
        code = self.code
        if run.length >= code.num_data:
            for pos in code.nonempty_positions:
                if pos[1] not in failed:
                    writes.append(self._io(run.stripe, pos, True))
            return
        positions = [
            code.data_positions[run.start + i] for i in range(run.length)
        ]
        if self.write_strategy == "rmw":
            cost = rmw_cost(code, positions)
        elif self.write_strategy == "rcw":
            cost = rcw_cost(code, positions)
        else:
            cost = choose_strategy(code, positions)
        for pos in cost.pre_reads:
            if pos[1] not in failed:
                reads.append(self._io(run.stripe, pos, False))
        for pos in cost.writes:
            if pos[1] not in failed:
                writes.append(self._io(run.stripe, pos, True))

    def plan_flush(self) -> RequestPlan:
        """Planned element I/O of flushing the cached model's dirty
        stripes (an empty plan for every other strategy)."""
        if self.shadow_cache is None:
            return RequestPlan(reads=[], writes=[])
        return self._plan_from_log(self.shadow_cache.record_flush())

    def _plan_from_log(
        self, log: list[tuple[int, Position, bool]]
    ) -> RequestPlan:
        """Convert a shadow-cache I/O log into a plan, verbatim.

        No dedupe: the log *is* the exact I/O sequence the real cache
        issues, and the exactness guarantee depends on mirroring it
        one-for-one.
        """
        reads: list[ElementIO] = []
        writes: list[ElementIO] = []
        for stripe, pos, is_write in log:
            target = writes if is_write else reads
            target.append(self._io(stripe, pos, is_write))
        return RequestPlan(reads=reads, writes=writes)

    def _io(self, stripe: int, pos: Position, is_write: bool) -> ElementIO:
        address = self.mapping.element_address(stripe, pos)
        return ElementIO(
            disk=address.disk, lba_chunk=address.lba_chunk, is_write=is_write
        )


def _dedupe(ios: list[ElementIO]) -> list[ElementIO]:
    """Drop duplicate element I/Os while preserving order."""
    seen: set[ElementIO] = set()
    out: list[ElementIO] = []
    for io in ios:
        if io not in seen:
            seen.add(io)
            out.append(io)
    return out
