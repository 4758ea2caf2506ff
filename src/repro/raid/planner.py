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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.write_path import choose_strategy, rcw_cost, rmw_cost
from repro.codes.base import ArrayCode, Cell, Position
from repro.raid.mapping import WIDE_WRITE_STRIPES, ArrayMapping, ChunkRun
from repro.traces.model import TraceRequest

__all__ = [
    "WRITE_STRATEGIES",
    "BatchItem",
    "BatchPass",
    "BatchPlan",
    "ElementIO",
    "PassLayout",
    "PlanCounts",
    "RequestPlan",
    "RequestPlanner",
    "RunPlan",
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


#: A span of a pass: ``(disk, lba, grid_row, chunks, data, parity)``.
#: ``lba`` counts chunks from the pass's first stripe; ``grid_row`` is
#: where the span starts in the disk's rows of the pass grid; ``data``
#: and ``parity`` are the planned chunks it moves, by role, which is
#: what the store meters (bridged chunks are not planned).
PassSpan = tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class PassLayout:
    """Where a pass's steps sit in its grid, and the spans it moves.

    A pass executes over one disk-order grid of shape ``(cols,
    stripes, rows, chunk)`` that holds, in ascending order, every
    stripe its spans touch. ``slots`` gives each step's first grid
    stripe. ``read_spans`` are read into the grid before the first
    step runs, ``write_spans`` written from it after the last.
    ``counts`` totals the spans' planned chunks: the sum of the steps'
    run plan counts. The layout depends only on the steps' run plans
    and their stripes relative to the first, so the planner caches it.
    """

    stripes: int
    slots: tuple[int, ...]
    read_spans: tuple[PassSpan, ...]
    write_spans: tuple[PassSpan, ...]
    counts: tuple[int, int, int, int]


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

    The rest is how the store executes the plan, filled in once for
    each plan the planner hands out. ``layout`` is the plan run alone
    as a one-stripe pass (:class:`PassLayout`): per disk, one read span
    and one write span over its planned cells, merged across gaps of at
    most the planner's ``bridge`` rows. A delta plan also reads the rows
    its write spans bridge, so they go back unchanged; a re-encoding
    plan rewrites them from its encode. ``write_runs`` are the planned
    written cells in runs of adjacent rows, ``(col, first_row,
    stop_row, data, parity)``: a delta plan journals one record per
    run. ``fold`` is a delta plan's parity update: the dependent
    parities' rows and columns, then layers ``(targets, sources)``:
    layer ``k`` XORs the delta of data chunk ``sources[i]`` (an index
    into the run) into parity ``targets[i]``, each parity's ``k``-th
    source, so no layer names a parity twice.
    """

    path: str
    reads: tuple[Position, ...]
    writes: tuple[Position, ...]
    decode: bool = False
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)
    layout: "PassLayout | None" = field(default=None, compare=False, repr=False)
    write_runs: tuple[tuple[int, int, int, int, int], ...] = ()
    fold: "tuple[np.ndarray, np.ndarray, tuple] | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_ios(self) -> int:
        """Chunk I/Os this run plan performs."""
        return len(self.reads) + len(self.writes)

    @property
    def reencodes(self) -> bool:
        """True for writes that re-encode their stripes (everything but
        delta): the encode rewrites every row of those stripes."""
        return bool(self.writes) and self.path != "delta"


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


@dataclass
class BatchItem:
    """One step of a pass: a per-stripe run of one request, with its
    run plan.

    The run covers data chunks ``[start, start + length)`` of stripe
    ``stripe``, and ``chunk`` is the index of its first chunk among the
    chunks its request touches. ``count`` is the stripes the step
    covers: more than one only for a wide write, whose run is the first
    of ``count`` aligned whole stripes. Its bytes follow from the
    request's (:meth:`bytes_of`), so one step serves every request of
    the same chunk shape.
    """

    op_index: int
    stripe: int
    start: int
    length: int
    chunk: int
    plan: RunPlan
    is_write: bool
    count: int = 1

    def bytes_of(
        self, offset: int, length: int, chunk_bytes: int
    ) -> tuple[int, int, int]:
        """``(cursor, skip, nbytes)`` of this step in a request of
        ``length`` bytes at ``offset``: where its bytes begin in the
        payload, how far into its first chunk, and how many there are."""
        lead = offset % chunk_bytes
        low = self.chunk * chunk_bytes
        begin = max(lead, low)
        end = min(lead + length, low + self.length * self.count * chunk_bytes)
        return begin - lead, begin - low, end - begin


@dataclass
class BatchPass:
    """One pass: steps in arrival order, from first stripe ``stripe``."""

    stripe: int
    items: list[BatchItem]
    layout: PassLayout


@dataclass
class BatchPlan:
    """Execution plan for a batch of byte-addressed requests: passes.

    Every per-stripe run of every request is one step of one pass, in
    arrival order. A pass reads each disk's spans once, runs its steps
    in memory and writes each disk's spans once. ``counts`` is the
    logical chunk accounting, the sum of the steps' run plans and NOT
    the span footprint, so ``IoCounters`` are byte-for-byte those of
    replaying the requests one by one (the paper's 1+3 accounting).
    """

    passes: list[BatchPass]
    #: The stripe the passes' and their runs' stripe numbers count from.
    base: int = 0

    @property
    def counts(self) -> PlanCounts:
        """Planned chunk I/Os of every pass, split by role."""
        return PlanCounts(*map(sum, zip((0, 0, 0, 0), *(
            step.layout.counts for step in self.passes
        ))))

    @property
    def span_ios(self) -> int:
        """Span I/Os the passes issue: one syscall each unless a
        transfer comes up short."""
        return sum(
            len(step.layout.read_spans) + len(step.layout.write_spans)
            for step in self.passes
        )


def _merge_spans(
    spans: dict[int, list[tuple[int, int, int, int]]], bridge: int
) -> list[tuple[int, int, int, int, int]]:
    """Merge each disk's ``(first, stop, data, parity)`` ranges into
    spans ``(disk, first, stop, data, parity)``, also across gaps of at
    most ``bridge`` uncovered rows, summing the ranges' planned data
    and parity chunks: a bridged gap moves bytes at memory speed where
    a separate span costs a syscall."""
    merged = []
    for disk in sorted(spans):
        ranges = sorted(spans[disk])
        first, stop, data, parity = ranges[0]
        for lo, hi, more_data, more_parity in ranges[1:]:
            if lo - stop <= bridge:
                stop = max(stop, hi)
                data += more_data
                parity += more_parity
                continue
            merged.append((disk, first, stop, data, parity))
            first, stop, data, parity = lo, hi, more_data, more_parity
        merged.append((disk, first, stop, data, parity))
    return merged


def _place(spans: list[tuple[int, int, int, int, int]]) -> tuple[PassSpan, ...]:
    """Merged spans ``(disk, first, stop, data, parity)`` of one stripe
    as the pass spans of a one-stripe grid."""
    return tuple(
        (col, first, first, stop - first, data, parity)
        for col, first, stop, data, parity in spans
    )


#: Layouts of passes other than a lone one-stripe step, and lone
#: requests' passes, the planner keeps before starting either cache
#: afresh.
_MAX_LAYOUTS = 1024
_MAX_REQUESTS = 256


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
        bridge: gap-bridging distance, in chunks, of the spans run plans
            and passes move (see :attr:`RunPlan.layout`); 0 merges
            adjacent chunks only.
        step_spans: plan each step as a pass of its own that moves the
            step's I/O units unmerged: one span per chunk of a delta or
            plain read run, one span per disk for a run that re-encodes
            or decodes stripes (``bridge`` is then unused). A fault plan
            counts span I/Os (``at_op``) and draws per chunk accessed,
            so a store under one plans this way: a fault schedule then
            meets the same span I/Os at the same requests whatever else
            the batch or request holds.
    """

    def __init__(
        self,
        code: ArrayCode,
        chunk_bytes: int = 8 * 1024,
        write_strategy: str = "rmw",
        cache_stripes: int = 8,
        bridge: int = 0,
        step_spans: bool = False,
    ) -> None:
        if write_strategy not in WRITE_STRATEGIES:
            raise ValueError(
                f"write_strategy must be one of {WRITE_STRATEGIES}, "
                f"got {write_strategy!r}"
            )
        if bridge < 0:
            raise ValueError("bridge must be >= 0")
        self.code = code
        self.mapping = ArrayMapping(code, chunk_bytes)
        self.chunk_bytes = chunk_bytes
        self.write_strategy = write_strategy
        self.bridge = bridge
        self.step_spans = step_spans
        #: Run plans, interned for the planner's lifetime: pass layouts
        #: are cached by their plans' ids.
        self._run_plans: dict[tuple, RunPlan] = {}
        self._layouts: dict[tuple, PassLayout] = {}
        self._requests: dict[tuple, list[BatchPass]] = {}
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
            plan = self._executable(
                self._build_write_run(start, length, failed_key, partial)
            )
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

    def _fold(
        self, data: tuple[Position, ...], parities: tuple[Position, ...]
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """A delta run's parity update (see :attr:`RunPlan.fold`)."""
        dependents = self.code.parity_dependents
        sources = [
            [i for i, pos in enumerate(data) if parity in dependents[pos]]
            for parity in parities
        ]
        layers = []
        for depth in range(max(map(len, sources), default=0)):
            targets = [j for j, found in enumerate(sources) if len(found) > depth]
            layers.append((
                slice(None) if len(targets) == len(parities)
                else np.array(targets, dtype=np.intp),
                np.array([sources[j][depth] for j in targets], dtype=np.intp),
            ))
        rows, cols = (
            np.array([pos[axis] for pos in parities], dtype=np.intp)
            for axis in (0, 1)
        )
        return rows, cols, tuple(layers)

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

    def _executable(self, plan: RunPlan) -> RunPlan:
        """``plan`` with the one-stripe layout, journal runs and, for a
        delta write, the parity fold the store executes it by (see
        :class:`RunPlan`). Built once for each plan the planner hands
        out, not for the candidates a write run is priced against."""
        roles = self.code.roles
        bridge = self._span_bridge(plan.path)

        def ranges(cells: tuple[Position, ...]) -> dict[int, list]:
            by_disk: dict[int, list] = {}
            for row, col in cells:
                role = roles[(row, col)]
                by_disk.setdefault(col, []).append((row, row + 1, 1 - role, role))
            return by_disk

        write_ranges = ranges(plan.writes)
        write_spans = _merge_spans(write_ranges, bridge)
        read_ranges = ranges(plan.reads)
        fold = None
        if plan.path == "delta" and plan.writes:
            # Bridged write rows go back as read.
            for col, first, stop, _, _ in write_spans:
                read_ranges.setdefault(col, []).append((first, stop, 0, 0))
            fold = self._fold(
                tuple(pos for pos in plan.writes if not roles[pos]),
                tuple(pos for pos in plan.writes if roles[pos]),
            )
        layout = PassLayout(
            stripes=1,
            slots=(0,),
            read_spans=_place(_merge_spans(read_ranges, bridge)),
            write_spans=_place(write_spans),
            counts=plan.counts,
        )
        return RunPlan(
            plan.path, plan.reads, plan.writes, decode=plan.decode,
            counts=plan.counts, layout=layout,
            write_runs=tuple(_merge_spans(write_ranges, 0)), fold=fold,
        )

    def _span_bridge(self, path: str) -> int:
        """Gap-bridging distance of ``path``'s spans: ``bridge``, or
        with ``step_spans`` none at all for delta and plain reads (-1
        keeps adjacent chunks apart) and the whole stripe otherwise."""
        if not self.step_spans:
            return self.bridge
        return -1 if path == "delta" else self.code.rows

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
        plan = self._run_plans[key] = self._executable(plan)
        return plan

    # ------------------------------------------------------------------
    # batch planning: passes over per-disk spans
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        ops: Sequence[tuple[bool, int, int]],
        failed: tuple[int, ...] = (),
    ) -> BatchPlan:
        """Plan a batch of ``(is_write, offset, length)`` requests as
        passes.

        Each request is split into per-stripe runs and each run planned
        exactly as :meth:`plan_write_run` / :meth:`plan_read_run` plan
        it; a write's aligned whole stripes form one wide-write step of
        up to :data:`~repro.raid.mapping.WIDE_WRITE_STRIPES`. Steps join
        the current pass in arrival order. A pass ends before a step
        that would take one request's stripes in it past
        ``WIDE_WRITE_STRIPES``, which bounds the buffers of a large
        request, and a wide write is a pass of its own: it reads
        nothing, and its grid is exactly its stripes. A batch of small
        requests is one pass. With ``step_spans`` every step is a pass
        of its own.

        A lone request's passes depend only on its chunk shape (see
        :meth:`_shape`), so they are planned once from stripe 0 and
        cached; the plan's ``base`` places them.
        """
        failed_key = tuple(sorted(set(failed)))
        if len(ops) != 1:
            return BatchPlan(
                self._passes([self._shape(*op) for op in ops], failed_key)
            )
        shape, base = self._shape(*ops[0])
        key = shape + (failed_key,)
        passes = self._requests.get(key)
        if passes is None:
            if len(self._requests) >= _MAX_REQUESTS:
                self._requests.clear()
            passes = self._requests[key] = self._passes([(shape, 0)], failed_key)
        return BatchPlan(passes, base)

    def _shape(
        self, is_write: bool, offset: int, length: int
    ) -> tuple[tuple[bool, int, int, bool, bool], int]:
        """A request's chunk shape and first stripe.

        The shape is ``(is_write, first, chunks, head, tail)``: the
        request touches ``chunks`` chunks from chunk ``first`` of its
        first stripe, and a write covers its first (``head``) or last
        (``tail``) chunk only partly. Every request of one shape plans
        alike; a read's plan does not depend on partial chunks.
        """
        chunk_bytes = self.chunk_bytes
        first, end = offset // chunk_bytes, offset + length
        chunks = (end - 1) // chunk_bytes - first + 1 if length > 0 else 0
        stripe, first = divmod(first, self.code.num_data)
        head = is_write and offset % chunk_bytes != 0
        tail = is_write and end % chunk_bytes != 0
        return (is_write, first, chunks, head, tail), stripe

    def _passes(
        self,
        shapes: Sequence[tuple[tuple[bool, int, int, bool, bool], int]],
        failed_key: tuple[int, ...],
    ) -> list[BatchPass]:
        """The passes of requests given by :meth:`_shape` (see
        :meth:`plan_batch`)."""
        num_data = self.code.num_data
        passes: list[BatchPass] = []
        items: list[BatchItem] = []
        for op_index, ((is_write, first, chunks, head, tail), stripe) in (
            enumerate(shapes)
        ):
            taken = done = 0
            while done < chunks:
                start = first if done == 0 else 0
                length = min(num_data - start, chunks - done)
                count, wide = 1, False
                if is_write:
                    last = done + length == chunks
                    plan = self.plan_write_run(
                        start, length, failed_key,
                        partial=(done == 0 and head) or (last and tail),
                    )
                    wide = plan.path == "stripe" and not plan.reads
                    if wide:
                        # A partly written last chunk is not whole.
                        whole = (chunks - done - int(tail)) // num_data
                        count = min(WIDE_WRITE_STRIPES, whole)
                else:
                    plan = self.plan_read_run(start, length, failed_key)
                if items and (wide or taken + count > WIDE_WRITE_STRIPES):
                    passes.append(self._pass(items))
                    items, taken = [], 0
                items.append(BatchItem(
                    op_index, stripe, start, length, done, plan, is_write, count
                ))
                taken += count
                if wide or self.step_spans:
                    passes.append(self._pass(items))
                    items, taken = [], 0
                done += count * length
                stripe += count
        if items:
            passes.append(self._pass(items))
        return passes

    def _pass(self, items: list[BatchItem]) -> BatchPass:
        """The pass of ``items``: a lone one-stripe step runs by its
        plan's layout, any other pass by one from the cache."""
        first = min(item.stripe for item in items)
        if len(items) == 1 and items[0].count == 1:
            return BatchPass(first, items, items[0].plan.layout)
        steps = tuple(
            (item.plan, item.stripe - first, item.count) for item in items
        )
        key = tuple((id(plan), offset, count) for plan, offset, count in steps)
        layout = self._layouts.get(key)
        if layout is None:
            if len(self._layouts) >= _MAX_LAYOUTS:
                self._layouts.clear()
            layout = self._layouts[key] = self._layout(steps)
        return BatchPass(first, items, layout)

    def _layout(self, steps: tuple[tuple[RunPlan, int, int], ...]) -> PassLayout:
        """Merge the steps' row spans into the pass's disk spans.

        ``steps`` holds each step's plan, first stripe (relative to the
        pass's first) and stripe count. Write spans merge the steps'
        write spans. Read spans merge their read spans and, in every
        stripe no step re-encodes, the rows of the write spans: a row
        written back that no step writes must be read first.
        """
        rows = self.code.rows
        reads: dict[int, list[tuple[int, int, int, int]]] = {}
        writes: dict[int, list[tuple[int, int, int, int]]] = {}
        reencoded: set[int] = set()
        touched: set[int] = set()
        for plan, first, count in steps:
            stripes = range(first, first + count)
            touched.update(stripes)
            if plan.reencodes:
                reencoded.update(stripes)
            for stripe in stripes:
                base = stripe * rows
                for col, lo, _, chunks, data, parity in plan.layout.read_spans:
                    reads.setdefault(col, []).append(
                        (base + lo, base + lo + chunks, data, parity)
                    )
                for col, lo, _, chunks, data, parity in plan.layout.write_spans:
                    writes.setdefault(col, []).append(
                        (base + lo, base + lo + chunks, data, parity)
                    )
        bridge = self._span_bridge(steps[0][0].path)
        write_spans = _merge_spans(writes, bridge)
        for col, lo, hi, _, _ in write_spans:
            for stripe in range(lo // rows, (hi - 1) // rows + 1):
                if stripe not in reencoded:
                    reads.setdefault(col, []).append(
                        (max(lo, stripe * rows), min(hi, (stripe + 1) * rows), 0, 0)
                    )
        read_spans = _merge_spans(reads, bridge)
        for _, lo, hi, _, _ in read_spans + write_spans:
            touched.update(range(lo // rows, (hi - 1) // rows + 1))
        slot = {stripe: i for i, stripe in enumerate(sorted(touched))}

        def place(spans: list[tuple[int, ...]]) -> tuple[PassSpan, ...]:
            return tuple(
                (col, lo, slot[lo // rows] * rows + lo % rows, hi - lo, data, parity)
                for col, lo, hi, data, parity in spans
            )

        def total(spans: list[tuple[int, ...]], role: int) -> int:
            return sum(span[3 + role] for span in spans)

        return PassLayout(
            stripes=len(slot),
            slots=tuple(slot[first] for _, first, _ in steps),
            read_spans=place(read_spans),
            write_spans=place(write_spans),
            counts=(
                total(read_spans, 0), total(read_spans, 1),
                total(write_spans, 0), total(write_spans, 1),
            ),
        )

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
