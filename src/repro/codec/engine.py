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

Every engine runs on one core, as the paper's word-wise C XOR loops do.
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


def _stripes(code: ArrayCode, data_bytes: int, packet_size: int) -> int:
    """Whole stripes of ``packet_size``-byte packets that hold at least
    ``data_bytes`` of data."""
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    return -(-data_bytes // (code.num_data * packet_size))


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
    stripes = _stripes(code, data_bytes, packet_size)
    width = stripes * packet_size
    schedule = encode_schedule_for(code)
    rng = np.random.default_rng(seed)
    if chosen == KERNEL_INTERPRETED:
        data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
        packets = [data[i] for i in range(code.num_data)]
        start = time.perf_counter()
        schedule.apply(packets)
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
        xors_per_element=schedule.xor_count / code.num_data,
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
    stripes = _stripes(code, data_bytes, packet_size)
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
