"""Compiled XOR plans: run-fused execution over whole grids.

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
  bases for other outputs live in a few workspace rows whose slots are
  recycled once their last reader has run;
* **run fusion**: consecutive ops sharing a destination lower into one
  *run* — a multi-source XOR accumulate. A run with sources
  ``s1 ^ s2 ^ ... ^ sk`` opens with the three-address form
  ``dest = s1 ^ s2`` instead of a copy and an XOR, saving one full
  memory pass over the destination per run.

Every plan is compiled with ``cells``, the grid cell of each input and
output row, and runs in place over a whole grid with
:meth:`CompiledPlan.run`: a 3-D grid ``(rows, cols, S)``, or a 4-D
*disk-order batch* ``(cols, stripes, rows, chunk)`` in which each disk's
span of the batch is one contiguous buffer (:func:`cell_view` indexes
both by ``[row, col]``). One call of the fused C kernel
(:mod:`repro.bitmatrix.kernel`) runs the plan's runs over every stripe,
with row offsets from a table built once per grid shape. Without the
kernel, :meth:`CompiledPlan.run_numpy` runs the same runs as numpy
ufuncs over strided cell views; it is also the kernel's oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.bitmatrix import kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bitmatrix.schedule import XorSchedule

__all__ = ["CompiledPlan", "cell_view"]

Position = tuple[int, int]
"""Grid coordinate ``(row, col)`` of a plan row's buffer."""

#: Buffer codes used in lowered ops: input packet, output row, workspace.
BUF_IN, BUF_OUT, BUF_WS = 0, 1, 2


def cell_view(grid: np.ndarray) -> np.ndarray:
    """``grid`` indexed ``[row, col]``: a 3-D grid ``(rows, cols, S)``
    as it is, a 4-D disk-order batch ``(cols, stripes, rows, chunk)``
    as its ``(rows, cols, stripes, chunk)`` view."""
    return grid if grid.ndim == 3 else grid.transpose(2, 0, 1, 3)


class CompiledPlan:
    """A lowered XOR program placed on a grid's cells.

    Plans refuse pickling and copying: the kernel reads the program and
    the per-shape tables by raw address, so a copy would keep reading
    this plan's buffers, which may be freed by then. Plans are shared
    (see ``ArrayCode._compiled_plan_cache``) and compiled anew where a
    second one is needed.

    Attributes:
        num_inputs: input rows the plan consumes.
        outputs: schedule output indices produced, in the order of
            ``out_cells``.
        num_workspace: workspace rows needed for intermediate outputs
            (after liveness-based slot reuse).
        ops: the lowered program as ``(dest_buf, dest_idx, src_buf,
            src_idx, assign)`` tuples with buffer codes ``BUF_IN`` /
            ``BUF_OUT`` / ``BUF_WS``.
        in_cells, out_cells: the grid cell of each input and output row.
    """

    def __init__(
        self,
        schedule: "XorSchedule",
        needed_outputs: Sequence[int] | None = None,
        *,
        cells: tuple[Sequence[Position], Sequence[Position]],
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
        self.in_cells: tuple[Position, ...] = tuple(cells[0])
        self.out_cells: tuple[Position, ...] = tuple(
            cells[1][out] for out in needed
        )
        if len(self.in_cells) != self.num_inputs:
            raise ValueError(
                f"{len(self.in_cells)} input cells for {self.num_inputs} inputs"
            )
        self._program = self._kernel_program()
        self._program_address = self._program.ctypes.data
        #: Kernel tables per grid shape (see :meth:`_table`).
        self._tables: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    def __reduce_ex__(self, protocol):
        raise TypeError(
            "a CompiledPlan cannot be pickled or copied: the kernel reads "
            "its program and tables by address, and a copy would still "
            "point at this plan's buffers; compile a new plan instead"
        )

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

    # ------------------------------------------------------------------
    # execution (fused C kernel, numpy fallback)
    # ------------------------------------------------------------------
    def _kernel_program(self) -> np.ndarray:
        """The runs, zero rows first, as the kernel's flat ``int32``
        program: ``[dest, head, nsrc, src...]`` per run, rows numbered
        inputs, then outputs, then workspace slots."""
        base = (0, self.num_inputs, self.num_inputs + len(self.outputs))
        program: list[int] = []
        for row in self.zero_rows:
            program += [base[BUF_OUT] + row, -1, 0]
        for (dbuf, didx), head, sources in self.runs:
            program += [
                base[dbuf] + didx,
                -1 if head is None else base[head[0]] + head[1],
                len(sources),
            ]
            program += [base[sbuf] + sidx for sbuf, sidx in sources]
        return np.array(program, dtype=np.int32)

    def _table(self, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """The kernel's table for grids of ``shape`` and its address,
        built once per shape: program length, row counts, stripe count,
        stride and width, tile, then each input and output row's byte
        offset in the grid (see ``xor_kernel.c``)."""
        table = self._tables.get(shape)
        if table is not None:
            return table
        if len(shape) == 3:
            rows, cols, width = shape
            count, stride = 1, 0
            col_bytes, row_bytes = width, cols * width
        else:
            cols, count, rows, width = shape
            stride = rows * width
            col_bytes, row_bytes = count * stride, width
        for row, col in self.in_cells + self.out_cells:
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(f"cell ({row},{col}) outside grid {shape}")
        header = [
            self._program.size, self.num_inputs, len(self.outputs),
            self.num_workspace, count, stride, width, kernel.TILE_BYTES,
        ]
        array = np.array(
            header + [
                row * row_bytes + col * col_bytes
                for row, col in self.in_cells + self.out_cells
            ],
            dtype=np.int64,
        )
        table = (array, array.ctypes.data)
        if len(self._tables) >= _MAX_TABLES:
            self._tables.clear()
        self._tables[shape] = table
        return table

    def run(self, grid: np.ndarray) -> None:
        """Run the plan in place over every stripe of ``grid``: read the
        input cells, overwrite the output cells.

        ``grid`` is a ``uint8`` 3-D grid or 4-D disk-order batch (see
        :func:`cell_view`). One call of the fused C kernel does the
        work, with the GIL released. Without the kernel, or for a grid
        that is not C-contiguous and writeable, :meth:`run_numpy` does.
        """
        if (
            not isinstance(grid, np.ndarray)
            or grid.dtype != np.uint8
            or grid.ndim not in (3, 4)
        ):
            raise ValueError("grid must be a 3-D or 4-D uint8 array")
        function = kernel.XOR_PLAN
        if function is None or not (
            grid.flags.c_contiguous and grid.flags.writeable
        ):
            self.run_numpy(grid)
            return
        _, table = self._table(grid.shape)
        if function(self._program_address, table, grid.ctypes.data):
            raise MemoryError("XOR kernel could not allocate its workspace")

    def run_numpy(self, grid: np.ndarray) -> None:
        """:meth:`run`'s numpy executor: the fallback without a C
        compiler, and the kernel's oracle.

        Each row is a ``[row, col]`` view of the grid, strided over the
        stripes of a batch; the fused runs execute as numpy ufuncs over
        whole rows. The workspace is allocated afresh on every call, so
        threads may run one shared plan at once. A run with a head
        opens with the three-address ``bitwise_xor(head, first_source,
        out=dest)`` (the destination is written, never read), then
        chains in-place XOR accumulates.
        """
        view = cell_view(grid)
        bufs = (
            [view[cell] for cell in self.in_cells],
            [view[cell] for cell in self.out_cells],
            list(np.empty((self.num_workspace, *view.shape[2:]), np.uint8)),
        )
        for row in self.zero_rows:
            bufs[BUF_OUT][row][...] = 0
        xor = np.bitwise_xor
        for (dbuf, didx), head, sources in self.runs:
            dest = bufs[dbuf][didx]
            rest = sources
            if head is not None:
                first = bufs[head[0]][head[1]]
                if not sources:
                    np.copyto(dest, first)
                    continue
                xor(first, bufs[sources[0][0]][sources[0][1]], out=dest)
                rest = sources[1:]
            for sbuf, sidx in rest:
                xor(dest, bufs[sbuf][sidx], out=dest)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledPlan in={self.num_inputs} out={len(self.outputs)} "
            f"ws={self.num_workspace} ops={len(self.ops)} "
            f"xors={self.xor_count}>"
        )


#: Grid shapes whose kernel tables one plan keeps; a plan run over more
#: distinct shapes starts its table cache afresh.
_MAX_TABLES = 32
