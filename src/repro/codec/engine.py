"""Bulk packet codec: scheduled XOR execution on numpy buffers.

Encoding multiplies the data vector by the generator's parity rows;
decoding replays a :class:`~repro.codes.base.Decoder` recovery schedule.
The throughput measurers run one of three engines:

* ``compiled`` (default) — what the store runs: ``ArrayCode.encode`` /
  ``Decoder.decode_columns`` over a disk-order batch, one call of the
  fused C kernel (:mod:`repro.bitmatrix.kernel`) per encode or decode;
  the numpy executor where no kernel could be built;
* ``numpy`` — :meth:`~repro.bitmatrix.plan.CompiledPlan.run_numpy`, the
  same compiled plan over the same batch as numpy ufuncs: the kernel's
  oracle and its no-compiler fallback;
* ``interpreted`` — :meth:`XorSchedule.apply` of the dense schedule on
  one ``(num_elements, width)`` matrix, the reference executor (fresh
  packet per assign step).

:meth:`StripeCodec.encode_into` / :meth:`StripeCodec.decode_into` run
the compiled plan's tiled numpy executor on contiguous matrices. Every
engine runs on one core, as the paper's word-wise C XOR loops do.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

import numpy as np

from repro.bitmatrix import kernel
from repro.codes.base import ArrayCode, encode_schedule_for

__all__ = [
    "StripeCodec",
    "ThroughputResult",
    "encode_schedule_for",
    "kernel_name",
    "measure_encode_throughput",
    "measure_decode_throughput",
]

#: Supported execution engines for the throughput measurers.
ENGINES = ("compiled", "numpy", "interpreted")

#: Kernel identifiers the measurers dispatch to, pinned by tests so a
#: refactor can never silently reroute a measurement (e.g. an
#: interpreted ``schedule.apply`` leaking into a compiled-engine number).
KERNEL_INTERPRETED = "XorSchedule.apply"
KERNEL_NUMPY = "CompiledPlan.run_numpy"
KERNEL_COMPILED = "xor_kernel.xor_plan"


class StripeCodec:
    """Packet codec for one code: precomputed schedules, bulk execution.

    Args:
        code: the array code.
        packet_size: bytes per element packet (the paper uses 4 KB).
        tile_bytes: cache-tile width for the compiled engine (``None`` =
            auto-sized from the plan's row footprint).
    """

    def __init__(
        self,
        code: ArrayCode,
        packet_size: int = 4096,
        tile_bytes: int | None = None,
    ) -> None:
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if tile_bytes is not None and tile_bytes <= 0:
            raise ValueError("tile_bytes must be positive")
        self.code = code
        self.packet_size = packet_size
        self.tile_bytes = tile_bytes
        self._encode_schedule = encode_schedule_for(code)
        self._encode_plan = code.encode_plan

    @property
    def data_bytes_per_stripe(self) -> int:
        """Payload bytes carried by one stripe."""
        return self.code.num_data * self.packet_size

    @property
    def encode_xors(self) -> int:
        """Packet XORs per stripe encode (after scheduling)."""
        return self._encode_schedule.xor_count

    @property
    def encode_plan(self):
        """The compiled encode plan (shared; treat as read-only)."""
        return self._encode_plan

    @staticmethod
    def _check_packets(
        packets: list[np.ndarray], expected: int, what: str
    ) -> None:
        """Validate packet count, dtype, contiguity and mutual shape.

        The XOR schedules broadcast packets against each other and the
        compiled engine executes ``out=`` ops on them, so a mismatched
        width would surface as a cryptic numpy broadcast error and a
        non-C-contiguous packet would defeat the contiguous inner loops
        the plan's tiling assumes; fail here with a message naming the
        offending packet instead.
        """
        if len(packets) != expected:
            raise ValueError(
                f"expected {expected} {what} packets, got {len(packets)}"
            )
        shape: tuple[int, ...] | None = None
        for i, packet in enumerate(packets):
            if not isinstance(packet, np.ndarray):
                raise ValueError(
                    f"{what} packet {i} must be a numpy uint8 array, got "
                    f"{type(packet).__name__}"
                )
            if packet.dtype != np.uint8:
                raise ValueError(
                    f"{what} packet {i} must have dtype uint8, got "
                    f"{packet.dtype}"
                )
            if not packet.flags.c_contiguous:
                raise ValueError(
                    f"{what} packet {i} is not C-contiguous; pass "
                    f"np.ascontiguousarray(packet) — the compiled engine "
                    f"runs in-place ops on contiguous buffers"
                )
            if shape is None:
                shape = packet.shape
            elif packet.shape != shape:
                raise ValueError(
                    f"{what} packet {i} has shape {packet.shape} but "
                    f"packet 0 has shape {shape}; all packets must match"
                )

    def _check_matrix(
        self, matrix: np.ndarray, rows: int, what: str
    ) -> np.ndarray:
        """Validate one contiguous ``(rows, width)`` uint8 matrix."""
        if not isinstance(matrix, np.ndarray):
            raise ValueError(f"{what} must be a numpy uint8 matrix")
        if matrix.ndim != 2 or matrix.shape[0] != rows:
            raise ValueError(
                f"{what} must have shape ({rows}, width), got {matrix.shape}"
            )
        if matrix.dtype != np.uint8:
            raise ValueError(f"{what} must have dtype uint8, got {matrix.dtype}")
        if not matrix.flags.c_contiguous:
            raise ValueError(
                f"{what} is not C-contiguous; pass np.ascontiguousarray(...)"
            )
        return matrix

    # ------------------------------------------------------------------
    # interpreted (reference) packet API
    # ------------------------------------------------------------------
    def encode_packets(self, data: list[np.ndarray]) -> list[np.ndarray]:
        """Compute all parity packets for logical data packets.

        Interpreted reference path; the compiled equivalent is
        :meth:`encode_into`.
        """
        self._check_packets(data, self.code.num_data, "data")
        return self._encode_schedule.apply(data)

    def decode_packets(
        self, failed: tuple[int, ...], known: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Recover the packets of ``failed`` columns from survivors.

        ``known`` must list the surviving elements' packets in the order
        of ``Decoder.plan.known_positions``. Interpreted reference path;
        the compiled equivalent is :meth:`decode_into`.
        """
        decoder = self.code.decoder_for(failed)
        self._check_packets(
            known, len(decoder.plan.known_positions), "survivor"
        )
        return decoder.plan.schedule.apply(known)

    # ------------------------------------------------------------------
    # compiled batch API
    # ------------------------------------------------------------------
    def encode_into(
        self, data: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Encode a ``(num_data, width)`` matrix into parity rows.

        Executes the compiled plan tile by tile — zero per-step
        allocation, output bytes identical to :meth:`encode_packets`.

        Args:
            data: contiguous ``(num_data, width)`` uint8 matrix; row
                order is the code's logical data order.
            out: optional preallocated ``(num_parity, width)`` uint8
                matrix (allocated when omitted).

        Returns:
            ``out``, parity rows in ``code.parity_positions`` order.
        """
        data = self._check_matrix(data, self.code.num_data, "data")
        if out is None:
            out = np.empty(
                (self.code.num_parity, data.shape[1]), dtype=np.uint8
            )
        else:
            out = self._check_matrix(out, self.code.num_parity, "out")
            if out.shape[1] != data.shape[1]:
                raise ValueError(
                    f"out width {out.shape[1]} != data width {data.shape[1]}"
                )
        self._encode_plan.execute_into(data, out, tile_bytes=self.tile_bytes)
        return out

    def decode_into(
        self,
        failed: tuple[int, ...],
        known: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Recover ``failed`` columns' elements from a survivor matrix.

        Args:
            failed: failed column indices.
            known: contiguous ``(num_known, width)`` uint8 matrix, rows
                in ``Decoder.plan.known_positions`` order.
            out: optional ``(num_unknown, width)`` uint8 matrix, rows in
                ``Decoder.plan.unknown_positions`` order.

        Returns:
            ``out`` with every erased element reconstructed.
        """
        decoder = self.code.decoder_for(failed)
        known = self._check_matrix(
            known, len(decoder.plan.known_positions), "survivor"
        )
        plan = decoder.compiled_plan()
        if out is None:
            out = np.empty(
                (len(decoder.plan.unknown_positions), known.shape[1]),
                dtype=np.uint8,
            )
        else:
            out = self._check_matrix(
                out, len(decoder.plan.unknown_positions), "out"
            )
            if out.shape[1] != known.shape[1]:
                raise ValueError(
                    f"out width {out.shape[1]} != survivor width "
                    f"{known.shape[1]}"
                )
        plan.execute_into(known, out, tile_bytes=self.tile_bytes)
        return out


@dataclass
class ThroughputResult:
    """Outcome of one throughput measurement."""

    name: str
    total_bytes: int
    seconds: float
    xors_per_element: float

    @property
    def gib_per_second(self) -> float:
        """Throughput in GiB/s of data processed."""
        return self.total_bytes / (1 << 30) / max(self.seconds, 1e-12)


def kernel_name(engine: str) -> str:
    """The kernel an engine string dispatches to.

    Both throughput measurers branch on exactly this mapping, so a test
    pinning it pins what every engine string actually measures:

    * ``"interpreted"`` → :data:`KERNEL_INTERPRETED` — the reference
      ``XorSchedule.apply`` of the *dense* schedule;
    * ``"numpy"`` → :data:`KERNEL_NUMPY` — ``CompiledPlan.run_numpy``;
    * ``"compiled"`` → :data:`KERNEL_COMPILED`, the fused C kernel the
      store's encodes and decodes run, or :data:`KERNEL_NUMPY` when no
      kernel could be built (the store then runs numpy too).
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "interpreted":
        return KERNEL_INTERPRETED
    if engine == "compiled" and kernel.XOR_PLAN is not None:
        return KERNEL_COMPILED
    return KERNEL_NUMPY


def _random_batch(
    code: ArrayCode, stripes: int, packet_size: int, rng: np.random.Generator
) -> np.ndarray:
    """A disk-order batch ``(cols, stripes, rows, packet_size)`` of
    random bytes: the layout the store encodes and decodes."""
    return rng.integers(
        0, 256, size=(code.cols, stripes, code.rows, packet_size),
        dtype=np.uint8,
    )


def measure_encode_throughput(
    code: ArrayCode,
    data_bytes: int = 64 << 20,
    packet_size: int = 4096,
    seed: int = 0,
    engine: str = "compiled",
) -> ThroughputResult:
    """Encode ``data_bytes`` of random data; report GiB/s (Fig. 14a).

    The compiled and numpy engines encode every stripe of one random
    disk-order batch in one call, as the store's wide writes do; the
    interpreted engine runs the schedule over one ``(num_data, S)``
    matrix. Plan compilation happens before the clock starts.
    """
    chosen = kernel_name(engine)
    codec = StripeCodec(code, packet_size)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)  # ceil division
    width = stripes * packet_size
    rng = np.random.default_rng(seed)
    if chosen == KERNEL_INTERPRETED:
        data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
        packets = [data[i] for i in range(code.num_data)]
        start = time.perf_counter()
        codec.encode_packets(packets)
        elapsed = time.perf_counter() - start
    else:
        batch = _random_batch(code, stripes, packet_size, rng)
        run = code.encode if chosen == KERNEL_COMPILED else (
            code.encode_plan.run_numpy
        )
        start = time.perf_counter()
        run(batch)
        elapsed = time.perf_counter() - start
    return ThroughputResult(
        name=code.name,
        total_bytes=code.num_data * width,
        seconds=elapsed,
        xors_per_element=codec.encode_xors / code.num_data,
    )


def measure_decode_throughput(
    code: ArrayCode,
    data_bytes: int = 64 << 20,
    packet_size: int = 4096,
    patterns: int = 10,
    seed: int = 0,
    engine: str = "compiled",
) -> ThroughputResult:
    """Average decoding throughput over random failures (Fig. 15a).

    For each sampled failure pattern (failures may hit data and parity
    disks alike, as in the paper), the recovery schedule runs over the
    survivors of a ``data_bytes``-sized region; throughput is data bytes
    per second of recovery work, averaged across patterns. Schedule
    construction and plan compilation (the algebra) are excluded,
    matching the paper's steady-state measurement. The compiled engine
    times ``Decoder.decode_columns`` over one random disk-order batch —
    the fused two-stage plan in one kernel call, exactly what rebuild
    runs — while ``xors_per_element`` always reports the dense
    schedule's count (the paper's decode cost metric; see
    ``Decoder.fused_xor_count`` for the executed count).
    """
    chosen = kernel_name(engine)
    codec = StripeCodec(code, packet_size)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)  # ceil division
    width = stripes * packet_size
    rng_np = np.random.default_rng(seed)
    rng = random.Random(seed)
    batch = (
        None if chosen == KERNEL_INTERPRETED
        else _random_batch(code, stripes, packet_size, rng_np)
    )
    all_combos = list(
        itertools.combinations(range(code.cols), code.faults)
    )
    combos = (
        rng.sample(all_combos, patterns)
        if len(all_combos) > patterns
        else all_combos
    )
    total_seconds = 0.0
    total_xor_per_elem = 0.0
    for combo in combos:
        decoder = code.decoder_for(combo)
        plan = decoder.compiled_plan()  # compile outside the timed region
        if chosen == KERNEL_INTERPRETED:
            num_known = len(decoder.plan.known_positions)
            fill = rng_np.integers(
                0, 256, size=(num_known, width), dtype=np.uint8
            )
            packets = [fill[i] for i in range(num_known)]
            start = time.perf_counter()
            decoder.plan.schedule.apply(packets)
            total_seconds += time.perf_counter() - start
        else:
            run = decoder.decode_columns if chosen == KERNEL_COMPILED else (
                plan.run_numpy
            )
            start = time.perf_counter()
            run(batch)
            total_seconds += time.perf_counter() - start
        total_xor_per_elem += decoder.xor_count / code.num_data
    count = len(combos)
    return ThroughputResult(
        name=code.name,
        total_bytes=code.num_data * width * count,
        seconds=total_seconds,
        xors_per_element=total_xor_per_elem / count,
    )
