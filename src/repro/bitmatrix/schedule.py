"""XOR scheduling for bit-matrix products (Sec. IV-C1 of the TIP paper).

A bit-matrix/vector product over packets computes each output packet as
the XOR of the input packets selected by the ones of its row. Done
naively, a row with ``o`` ones costs ``o - 1`` XORs. *Bit matrix
scheduling* (Plank, "The RAID-6 Liberation codes", FAST'08) lowers the
total by deriving an output from an already-computed output that shares
most of its terms: if a computed row ``b`` differs from the target row in
``d`` bit positions, the target costs ``d`` XORs instead of ``o - 1``.

:func:`smart_schedule` implements a greedy version of that optimization;
it provably reaches the optimal schedule whenever rows form chains that
differ pairwise in few positions — which covers the "at most 2 erasures on
data disks" cases the paper singles out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "XorOp",
    "XorSchedule",
    "naive_schedule",
    "smart_schedule",
    "fuse_stages",
]


@dataclass(frozen=True)
class XorOp:
    """One step of a schedule: ``dest (op)= source``.

    ``source_kind`` is ``"in"`` (an input packet) or ``"out"`` (an already
    computed output packet); ``assign`` True means plain copy (the first
    term), False means XOR-accumulate.
    """

    dest: int
    source_kind: str
    source: int
    assign: bool


@dataclass
class XorSchedule:
    """An executable XOR program computing ``matrix @ inputs`` over GF(2).

    Attributes:
        num_inputs: number of input packets expected.
        num_outputs: number of output packets produced.
        ops: the program; XOR cost is the number of non-assign ops.
    """

    num_inputs: int
    num_outputs: int
    ops: list[XorOp] = field(default_factory=list)

    @property
    def xor_count(self) -> int:
        """Number of packet XOR operations the schedule performs."""
        return sum(1 for op in self.ops if not op.assign)

    def apply(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        """Execute the schedule on numpy packets; returns output packets."""
        if len(inputs) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input packets, got {len(inputs)}"
            )
        if not inputs:
            return [None] * self.num_outputs  # type: ignore[list-item]
        outputs: list[np.ndarray | None] = [None] * self.num_outputs
        shape, dtype = inputs[0].shape, inputs[0].dtype
        for op in self.ops:
            source = (
                inputs[op.source]
                if op.source_kind == "in"
                else outputs[op.source]
            )
            if source is None:
                raise RuntimeError(f"schedule uses output {op.source} before set")
            if op.assign:
                outputs[op.dest] = source.copy()
            else:
                dest = outputs[op.dest]
                if dest is None:
                    raise RuntimeError(f"XOR into unset output {op.dest}")
                np.bitwise_xor(dest, source, out=dest)
        for idx, out in enumerate(outputs):
            if out is None:  # all-zero row: produce a zero packet
                outputs[idx] = np.zeros(shape, dtype=dtype)
        return outputs  # type: ignore[return-value]

    def apply_bits(self, bits: np.ndarray) -> np.ndarray:
        """Execute the schedule on a plain 0/1 vector (for verification)."""
        packets = [np.array([b], dtype=np.uint8) for b in bits]
        return np.array([p[0] for p in self.apply(packets)], dtype=np.uint8)

    def compile(
        self,
        needed_outputs: list[int] | tuple[int, ...] | None = None,
        *,
        cells,
    ):
        """Lower to a :class:`~repro.bitmatrix.plan.CompiledPlan`.

        The compiled plan executes the same XOR program with zero
        per-step allocation and — when ``needed_outputs`` restricts the
        result — dead-code elimination plus workspace reuse for the
        intermediate outputs that remain. ``cells`` is ``(input cells,
        output cells)``: the grid cell of every input and of every
        schedule output (indexed by output index), where
        :meth:`CompiledPlan.run` reads and writes them. Output bytes are
        identical to :meth:`apply`.
        """
        from repro.bitmatrix.plan import CompiledPlan

        return CompiledPlan(self, needed_outputs, cells=cells)


def naive_schedule(matrix: np.ndarray) -> XorSchedule:
    """Schedule computing each output row independently, left to right."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    rows, cols = matrix.shape
    schedule = XorSchedule(num_inputs=cols, num_outputs=rows)
    for row in range(rows):
        first = True
        for col in range(cols):
            if matrix[row, col]:
                schedule.ops.append(XorOp(row, "in", col, assign=first))
                first = False
    return schedule


def fuse_stages(first: XorSchedule, second: XorSchedule) -> XorSchedule:
    """Fuse two schedules where ``second``'s inputs are ``first``'s outputs.

    The fused program reads ``first``'s inputs and produces
    ``second``'s outputs at indices ``0..second.num_outputs-1``;
    ``first``'s outputs ride along as trailing outputs (indices
    ``second.num_outputs..``) so the result is still a complete,
    independently executable :class:`XorSchedule`. Compiling the fusion
    with ``needed_outputs=range(second.num_outputs)`` dead-code-
    eliminates the trailing intermediates into recycled workspace rows —
    one blocked sweep instead of two full passes with a materialized
    intermediate matrix between them.

    This is how the decoder joins its sparse syndrome stage to the dense
    back-substitution stage: each cache tile computes syndromes and
    consumes them while they are still resident.

    ``second`` must not read an input that ``first`` never writes (an
    all-zero first-stage row produces no ops); callers zero the
    corresponding columns of the second stage's matrix before
    scheduling it.
    """
    if second.num_inputs != first.num_outputs:
        raise ValueError(
            f"stage mismatch: first produces {first.num_outputs} outputs, "
            f"second expects {second.num_inputs} inputs"
        )
    offset = second.num_outputs
    written = {op.dest for op in first.ops}
    fused = XorSchedule(
        num_inputs=first.num_inputs,
        num_outputs=offset + first.num_outputs,
    )
    for op in first.ops:
        source = op.source if op.source_kind == "in" else op.source + offset
        fused.ops.append(XorOp(op.dest + offset, op.source_kind, source, op.assign))
    for op in second.ops:
        if op.source_kind == "in":
            if op.source not in written:
                raise ValueError(
                    f"second stage reads input {op.source}, which the "
                    f"first stage never writes (all-zero row); zero that "
                    f"column of the second stage's matrix instead"
                )
            fused.ops.append(XorOp(op.dest, "out", op.source + offset, op.assign))
        else:
            fused.ops.append(XorOp(op.dest, "out", op.source, op.assign))
    return fused


def smart_schedule(matrix: np.ndarray) -> XorSchedule:
    """Greedy bit-matrix scheduling.

    At each step, choose the uncomputed output row whose cheapest
    derivation (from scratch, or by patching any already computed output
    row) costs the fewest XORs, and emit that derivation. Patching a base
    row ``b`` into target ``t`` costs ``hamming(b, t)`` XORs plus a copy.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    rows, cols = matrix.shape
    schedule = XorSchedule(num_inputs=cols, num_outputs=rows)
    remaining = set(range(rows))
    computed: list[int] = []
    row_ones = matrix.sum(axis=1)

    while remaining:
        best: tuple[int, int, int | None] | None = None  # (cost, target, base)
        for target in remaining:
            scratch_cost = max(int(row_ones[target]) - 1, 0)
            cost, base = scratch_cost, None
            for done in computed:
                distance = int(np.bitwise_xor(matrix[target], matrix[done]).sum())
                if distance < cost:
                    cost, base = distance, done
            if best is None or cost < best[0]:
                best = (cost, target, base)
        assert best is not None
        _, target, base = best
        remaining.discard(target)
        if base is None:
            first = True
            for col in range(cols):
                if matrix[target, col]:
                    schedule.ops.append(XorOp(target, "in", col, assign=first))
                    first = False
        else:
            schedule.ops.append(XorOp(target, "out", base, assign=True))
            diff = np.bitwise_xor(matrix[target], matrix[base])
            for col in range(cols):
                if diff[col]:
                    schedule.ops.append(XorOp(target, "in", col, assign=False))
        if row_ones[target]:
            computed.append(target)
    return schedule
