"""Compiled XOR plans: run-fused, wide-word, cache-blocked execution.

:meth:`XorSchedule.apply` is the *interpreted* reference executor: it
allocates a fresh packet per assign step and a zero packet per empty row,
which is fine for verification but wasteful on the steady-state encode /
decode / rebuild paths where the same schedule runs thousands of times
over large buffers. :class:`CompiledPlan` lowers a schedule once into a
flat program that executes with **zero per-step allocation**:

* **dead-code elimination**: when only a subset of outputs is needed
  (``Decoder.decode_columns(only_cols=...)``), steps that feed no needed
  output are dropped entirely;
* **liveness-based workspace reuse**: outputs that are only intermediate
  bases for other outputs live in a small workspace arena whose slots are
  recycled once their last reader has run;
* **run fusion**: consecutive ops sharing a destination lower into one
  *run* — a multi-source XOR accumulate. A run with sources
  ``s1 ^ s2 ^ ... ^ sk`` opens with the three-address form
  ``bitwise_xor(s1, s2, out=dest)`` instead of ``copyto`` + XOR, saving
  one full memory pass over the destination per run and one numpy
  dispatch;
* **wide-word execution**: 8-byte-aligned spans execute as ``uint64``
  views (numpy moves whole machine words per element either way, but the
  8x-shorter loops cut per-op shape handling); ragged widths fall back
  to ``uint8`` only for the sub-8-byte tail span;
* **measured cache blocking**: execution is chunked into column tiles
  sized from the host calibration in :mod:`repro.bitmatrix.tuning` —
  the measured effective cache divided by the plan's row footprint,
  floored so per-call dispatch overhead stays amortized — instead of a
  hard-coded footprint guess. Plans no wider than the clamp floor
  :data:`_TILE_MIN` always run as one tile and never trigger the
  calibration. All tile boundaries are 64-byte multiples so ``uint64``
  views never fall back mid-sweep; an explicit ``tile_bytes`` is
  rounded **up** to the next 64-byte multiple.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.bitmatrix.tuning import host_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bitmatrix.schedule import XorSchedule

__all__ = ["CompiledPlan", "compile_schedule", "round_tile_bytes"]

#: Buffer codes used in lowered ops: input packet, output row, workspace.
BUF_IN, BUF_OUT, BUF_WS = 0, 1, 2

#: All tile boundaries are multiples of this, so every interior tile of
#: an 8-aligned buffer stays ``uint64``-viewable (and cache-line whole).
TILE_ALIGN = 64

#: Auto-tile clamp range (both 64-byte multiples).
_TILE_MIN = 32 << 10
_TILE_MAX = 4 << 20

#: The auto tile is floored so measured per-call dispatch overhead is at
#: most ~1/this of the cached per-op XOR time.
_DISPATCH_AMORTIZE = 16

#: Below this width, building per-row ``uint64`` views costs more than
#: the shorter inner loops save; stay on the uint8 path.
_WIDE_WORD_MIN = 1 << 14


def round_tile_bytes(tile_bytes: int) -> int:
    """Round an explicit tile request **up** to a 64-byte multiple.

    The documented rule: tiles are always 64-byte multiples so that
    8-byte-aligned buffers never lose their ``uint64`` view mid-sweep
    (and no tile splits a cache line). Non-positive requests are
    rejected rather than silently clamped.
    """
    if tile_bytes <= 0:
        raise ValueError("tile_bytes must be positive")
    return -(-tile_bytes // TILE_ALIGN) * TILE_ALIGN


def compile_schedule(
    schedule: "XorSchedule",
    needed_outputs: Sequence[int] | None = None,
) -> "CompiledPlan":
    """Lower ``schedule`` to a :class:`CompiledPlan`.

    Args:
        schedule: the XOR program to lower.
        needed_outputs: schedule output indices that must be produced;
            ``None`` means all of them. Steps feeding only unneeded
            outputs are eliminated.
    """
    return CompiledPlan(schedule, needed_outputs)


class CompiledPlan:
    """A lowered XOR program executing into caller-provided buffers.

    Attributes:
        num_inputs: input packets the plan consumes.
        outputs: schedule output indices produced, in the row order of the
            ``outputs`` buffer passed to :meth:`execute_into`.
        num_workspace: arena rows needed for intermediate outputs (after
            liveness-based slot reuse).
        ops: the lowered program as ``(dest_buf, dest_idx, src_buf,
            src_idx, assign)`` tuples with buffer codes ``BUF_IN`` /
            ``BUF_OUT`` / ``BUF_WS``.
    """

    def __init__(
        self,
        schedule: "XorSchedule",
        needed_outputs: Sequence[int] | None = None,
    ) -> None:
        self.num_inputs = schedule.num_inputs
        if needed_outputs is None:
            needed = tuple(range(schedule.num_outputs))
        else:
            needed = tuple(sorted(set(needed_outputs)))
            for out in needed:
                if not 0 <= out < schedule.num_outputs:
                    raise ValueError(
                        f"needed output {out} outside 0..{schedule.num_outputs - 1}"
                    )
        self.outputs: tuple[int, ...] = needed
        self._lower(schedule, needed)
        self._ws_local = threading.local()

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def _lower(self, schedule: "XorSchedule", needed: tuple[int, ...]) -> None:
        # Dead-code elimination, backwards: a step survives iff its dest
        # is needed or (transitively) feeds a needed output as a base.
        required = set(needed)
        keep = [False] * len(schedule.ops)
        for i in range(len(schedule.ops) - 1, -1, -1):
            op = schedule.ops[i]
            if op.dest in required:
                keep[i] = True
                if op.source_kind == "out":
                    required.add(op.source)
        kept = [op for op, k in zip(schedule.ops, keep) if k]

        # Needed outputs map to rows of the caller's output buffer; the
        # remaining required outputs (pure intermediates) get workspace
        # slots, recycled after their final read/write.
        out_row = {out: row for row, out in enumerate(needed)}
        last_event: dict[int, int] = {}
        for idx, op in enumerate(kept):
            if op.dest not in out_row:
                last_event[op.dest] = idx
            if op.source_kind == "out" and op.source not in out_row:
                last_event[op.source] = idx

        ws_slot: dict[int, int] = {}
        free_slots: list[int] = []
        num_slots = 0
        ops: list[tuple[int, int, int, int, bool]] = []
        written: set[int] = set()
        for idx, op in enumerate(kept):
            if op.dest in out_row:
                dbuf, didx = BUF_OUT, out_row[op.dest]
            else:
                slot = ws_slot.get(op.dest)
                if slot is None:
                    if free_slots:
                        slot = free_slots.pop()
                    else:
                        slot = num_slots
                        num_slots += 1
                    ws_slot[op.dest] = slot
                dbuf, didx = BUF_WS, slot
            if op.source_kind == "in":
                sbuf, sidx = BUF_IN, op.source
            elif op.source in out_row:
                sbuf, sidx = BUF_OUT, out_row[op.source]
            else:
                sbuf, sidx = BUF_WS, ws_slot[op.source]
            ops.append((dbuf, didx, sbuf, sidx, op.assign))
            written.add(op.dest)
            # Recycle workspace slots whose output has no later use.
            for out in (op.dest, op.source if op.source_kind == "out" else None):
                if (
                    out is not None
                    and out in ws_slot
                    and last_event.get(out) == idx
                ):
                    free_slots.append(ws_slot.pop(out))

        self.ops = ops
        self.num_workspace = num_slots
        # Needed outputs never written are all-zero rows: memset targets.
        self.zero_rows: tuple[int, ...] = tuple(
            row for out, row in out_row.items() if out not in written
        )
        self.runs = self._fuse_runs(ops)

    @staticmethod
    def _fuse_runs(
        ops: list[tuple[int, int, int, int, bool]],
    ) -> list[tuple]:
        """Group the flat op list into multi-source accumulate runs.

        Each run is ``(dest, head, sources)`` with ``dest`` a
        ``(buffer, index)`` pair, ``head`` the assigning source (or
        ``None`` for a run that re-accumulates into an already-written
        destination), and ``sources`` the XOR-accumulated ``(buffer,
        index)`` pairs. A new run opens on every assign and whenever the
        destination changes — two distinct intermediates recycled into
        the same workspace slot can never merge, because the second one
        always begins with an assign.
        """
        runs: list[tuple] = []
        current: tuple[int, int] | None = None
        for dbuf, didx, sbuf, sidx, assign in ops:
            dest = (dbuf, didx)
            if assign:
                runs.append((dest, (sbuf, sidx), []))
                current = dest
            elif dest == current and runs:
                runs[-1][2].append((sbuf, sidx))
            else:  # accumulate into a dest this program never assigned
                runs.append((dest, None, [(sbuf, sidx)]))
                current = dest
        return [
            (dest, head, tuple(sources)) for dest, head, sources in runs
        ]

    # ------------------------------------------------------------------
    @property
    def xor_count(self) -> int:
        """Packet XORs per execution (excludes copies), after DCE."""
        return sum(1 for op in self.ops if not op[4])

    @property
    def memory_passes(self) -> int:
        """Full-width buffer sweeps per execution after run fusion.

        Each XOR source is streamed once; a run's head costs nothing
        extra (the opening three-address XOR folds it into the first
        accumulate) unless the run is a bare copy. The roofline stage of
        ``bench_engine.py`` uses this to convert payload throughput into
        achieved XOR-stream bandwidth.
        """
        passes = 0
        for _dest, head, sources in self.runs:
            if sources:
                passes += len(sources) + (head is not None)
            else:
                passes += 2  # bare copy: read head, write dest
        return passes

    def default_tile(self, width: int) -> int:
        """Tile width (bytes) from the measured host calibration.

        The measured effective cache divided by the plan's total row
        footprint, floored so per-call dispatch overhead stays under
        ~1/:data:`_DISPATCH_AMORTIZE` of cached per-op XOR time, clamped
        to [:data:`_TILE_MIN`, :data:`_TILE_MAX`] and rounded to a
        64-byte multiple. Hosts whose caches swallow the whole working
        set naturally get large tiles (fewer dispatches); small-cache
        hosts get tiles that actually fit.

        A width up to :data:`_TILE_MIN` is one tile of its 64-byte
        rounding whatever the host measures (the clamp floor covers
        it), so it returns that without calling :func:`host_profile`:
        request-path encodes and decodes never pay the calibration.
        """
        if 0 < width <= _TILE_MIN:
            return -(-width // TILE_ALIGN) * TILE_ALIGN
        rows = self.num_inputs + len(self.outputs) + self.num_workspace
        profile = host_profile()
        cache_tile = profile.effective_cache_bytes // max(rows, 1)
        floor = int(
            profile.dispatch_overhead_s
            * profile.xor_cached_gib_s
            * (1 << 30)
            * _DISPATCH_AMORTIZE
        )
        tile = min(max(cache_tile, floor, _TILE_MIN), _TILE_MAX)
        if width > 0:
            tile = min(tile, -(-width // TILE_ALIGN) * TILE_ALIGN)
        return max(tile - tile % TILE_ALIGN, TILE_ALIGN)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def _as_rows(
        buffers: np.ndarray | Sequence[np.ndarray], count: int, what: str
    ) -> list[np.ndarray]:
        """Normalize a 2-D matrix or sequence of 1-D packets to row views."""
        if isinstance(buffers, np.ndarray):
            if buffers.ndim != 2:
                raise ValueError(
                    f"{what} matrix must be 2-D, got shape {buffers.shape}"
                )
            rows = list(buffers)
        else:
            rows = list(buffers)
        if len(rows) != count:
            raise ValueError(f"expected {count} {what} rows, got {len(rows)}")
        width: int | None = None
        for i, row in enumerate(rows):
            if not isinstance(row, np.ndarray) or row.ndim != 1:
                raise ValueError(f"{what} row {i} must be a 1-D numpy array")
            if row.dtype != np.uint8:
                raise ValueError(
                    f"{what} row {i} must have dtype uint8, got {row.dtype}"
                )
            if width is None:
                width = row.shape[0]
            elif row.shape[0] != width:
                raise ValueError(
                    f"{what} row {i} has width {row.shape[0]}, row 0 has "
                    f"{width}; all rows must match"
                )
        return rows

    def execute(
        self,
        inputs: np.ndarray | Sequence[np.ndarray],
        tile_bytes: int | None = None,
    ) -> np.ndarray:
        """Run the plan, allocating and returning the output matrix."""
        ins = self._as_rows(inputs, self.num_inputs, "input")
        width = ins[0].shape[0] if ins else 0
        out = np.empty((len(self.outputs), width), dtype=np.uint8)
        self.execute_into(ins, out, tile_bytes=tile_bytes)
        return out

    def execute_into(
        self,
        inputs: np.ndarray | Sequence[np.ndarray],
        outputs: np.ndarray | Sequence[np.ndarray],
        tile_bytes: int | None = None,
    ) -> None:
        """Run the plan into caller-owned output rows, tile by tile.

        ``inputs`` / ``outputs`` are 2-D uint8 matrices or sequences of
        equal-width 1-D uint8 packets; output rows are overwritten in
        place and must not alias input rows. ``tile_bytes`` overrides the
        auto-chosen cache tile (``None`` = auto).
        """
        ins = self._as_rows(inputs, self.num_inputs, "input")
        outs = self._as_rows(outputs, len(self.outputs), "output")
        if not outs:
            return
        width = outs[0].shape[0]
        if ins and ins[0].shape[0] != width:
            raise ValueError(
                f"input width {ins[0].shape[0]} != output width {width}"
            )
        for row in self.zero_rows:
            outs[row][:] = 0
        if not self.runs:
            return
        if tile_bytes is None:
            tile = self.default_tile(width)
        else:
            tile = round_tile_bytes(tile_bytes)
        arena = self._workspace(min(tile, width))
        w8 = width - (width & 7)
        words = _u64_rows(ins + outs, w8) if width >= _WIDE_WORD_MIN else None
        if words is None:  # narrow, strided or misaligned: uint8
            self._sweep(ins, outs, list(arena), width, tile)
            return
        # Tiles are 64-byte multiples, so word tiles split at the same
        # byte boundaries; only a sub-8-byte tail runs as uint8.
        n = len(ins)
        self._sweep(
            words[:n], words[n:], list(arena.view(np.uint64)), w8 // 8, tile // 8
        )
        if w8 != width:
            self._sweep(
                [r[w8:] for r in ins], [r[w8:] for r in outs], list(arena),
                width - w8, tile,
            )

    def _sweep(
        self, ins: list, outs: list, ws: list, length: int, tile: int
    ) -> None:
        """Run the fused program over ``length`` elements of the input
        and output row views, ``tile`` elements at a time.

        Input and output rows are exactly ``length`` long; workspace
        rows ``ws`` are arena rows, trimmed to each tile. Rows are
        sliced per tile only when more than one tile runs.
        """
        if length <= tile:
            self._run_tile((ins, outs, [r[:length] for r in ws]), self.runs)
            return
        for lo in range(0, length, tile):
            hi = min(lo + tile, length)
            self._run_tile(
                (
                    [r[lo:hi] for r in ins],
                    [r[lo:hi] for r in outs],
                    [r[: hi - lo] for r in ws],
                ),
                self.runs,
            )

    @staticmethod
    def _run_tile(bufs: tuple[list, list, list], runs: list[tuple]) -> None:
        """Execute the fused runs over one tile's resolved row views.

        ``bufs`` is indexed by buffer code (``BUF_IN``/``BUF_OUT``/
        ``BUF_WS``). Each run with a head opens with the three-address
        ``bitwise_xor(head, first_source, out=dest)`` — destination is
        written, never read — then chains in-place XOR accumulates.
        """
        xor = np.bitwise_xor
        for (dbuf, didx), head, sources in runs:
            dest = bufs[dbuf][didx]
            if head is not None:
                harr = bufs[head[0]][head[1]]
                if sources:
                    first = sources[0]
                    xor(harr, bufs[first[0]][first[1]], out=dest)
                    rest = sources[1:]
                else:
                    np.copyto(dest, harr)
                    continue
            else:
                rest = sources
            for sbuf, sidx in rest:
                xor(dest, bufs[sbuf][sidx], out=dest)

    def _workspace(self, tile: int) -> np.ndarray:
        """The reusable intermediate arena, grown on demand.

        Row width is rounded up to a 64-byte multiple so every workspace
        row stays 8-byte aligned (``uint64``-viewable) regardless of the
        requested tile. The arena is **thread-local**: plans are cached
        and shared (``ArrayCode._compiled_plan_cache``, the store's
        decoder), so concurrent ``execute_into`` calls — e.g. degraded
        writes to two different stripes under their own stripe locks —
        must not share intermediate syndrome rows. A shared arena lets
        one thread overwrite another's partial syndromes, yielding a
        silently wrong (but parity-consistent, scrub-clean) decode.
        """
        if self.num_workspace == 0:
            return _EMPTY_WS
        want = -(-tile // TILE_ALIGN) * TILE_ALIGN
        ws = getattr(self._ws_local, "arena", None)
        if ws is None or ws.shape[1] < want:
            ws = np.empty((self.num_workspace, want), dtype=np.uint8)
            self._ws_local.arena = ws
        return ws

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledPlan in={self.num_inputs} out={len(self.outputs)} "
            f"ws={self.num_workspace} ops={len(self.ops)} "
            f"xors={self.xor_count}>"
        )


_EMPTY_WS = np.empty((0, 0), dtype=np.uint8)


def _u64_rows(rows: Sequence[np.ndarray], nbytes: int) -> list | None:
    """``uint64`` views of every row's first ``nbytes`` (a multiple of
    8), or None when a row is strided or not 8-byte aligned at its base.

    Tile offsets are 64-byte multiples, so base alignment is the only
    per-row condition needed for interior ``uint64`` views."""
    views = []
    for row in rows:
        if row.strides[0] != 1:
            return None
        view = row[:nbytes].view(np.uint64)
        if not view.flags.aligned:
            return None
        views.append(view)
    return views
