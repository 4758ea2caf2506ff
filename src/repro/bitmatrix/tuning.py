"""Host memory-hierarchy calibration for the compiled XOR engine.

The compiled engine's tile size used to come from a hard-coded "32 MiB
aggregate footprint" heuristic — a guess about commodity cache sizes
that was wrong on both sides: on hosts with small effective caches it
thrashed, and on hosts where the whole working set fits a large L3 it
paid per-tile dispatch overhead for nothing. This module replaces the
guess with these one-time measurements:

* **streaming XOR bandwidth** — one in-place ``np.bitwise_xor`` over a
  buffer far larger than any cache: what an op pays when every operand
  comes from DRAM.
* **memcpy bandwidth** — ``np.copyto`` at the same size; the rate of
  pure data movement.
* **effective cache size** — the largest working-set footprint whose
  repeated in-place XOR still runs clearly above the streaming rate.
  Virtualized hosts lie in ``/sys`` (a vCPU may see the machine's full
  L3 while being entitled to a slice), so we trust timing, not topology.
* **dispatch overhead** — the fixed per-``np.bitwise_xor``-call cost
  (ufunc setup + slicing), which puts a floor under useful tile sizes:
  below it, tiling time goes to the interpreter instead of the bus.

Results are cached per process in a :class:`HostProfile`;
:func:`host_profile` is what :meth:`CompiledPlan.default_tile` consumes.
Tests pin the profile with :func:`set_host_profile` to make tile policy
deterministic. :func:`measure_working_set_xor_gib_s` is also the
roofline of ``benchmarks/bench_engine.py``, taken at the tile a plan
actually executes.

The measurement is not free: the streaming buffers add about 64 MiB to
the process's peak memory and the whole calibration takes ~0.1 s. It
runs only for plans wider than the tile clamp floor
(:data:`repro.bitmatrix.plan._TILE_MIN`, 32 KiB), where the answer can
change the tile; narrower request-path plans never trigger it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HostProfile",
    "host_profile",
    "set_host_profile",
    "measure_memcpy_gib_s",
    "measure_xor_gib_s",
    "measure_dispatch_overhead_s",
    "measure_effective_cache_bytes",
    "measure_working_set_xor_gib_s",
]

#: Buffer size for the streaming measurements: large enough to defeat
#: any per-core cache slice, small enough to allocate instantly.
_STREAM_BYTES = 32 << 20

#: Working-set ladder probed for the effective cache edge.
_CACHE_LADDER = (128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20)

#: A footprint counts as cache-resident when its repeated-XOR bandwidth
#: beats streaming by at least this factor; below it, reuse isn't
#: actually being served by a cache.
_CACHE_EDGE_RATIO = 1.3

_GIB = 1 << 30


@dataclass(frozen=True)
class HostProfile:
    """One host's measured memory/dispatch characteristics.

    Attributes:
        memcpy_gib_s: streaming ``np.copyto`` bandwidth.
        xor_gib_s: streaming in-place XOR bandwidth (bytes of destination
            per second; actual bus traffic is ~3x). The engine roofline.
        xor_cached_gib_s: the same XOR on a cache-resident working set —
            what a well-tiled kernel sees after first touch.
        dispatch_overhead_s: fixed seconds per numpy XOR call.
        effective_cache_bytes: largest measured cache-resident footprint.
    """

    memcpy_gib_s: float
    xor_gib_s: float
    xor_cached_gib_s: float
    dispatch_overhead_s: float
    effective_cache_bytes: int


_profile: HostProfile | None = None


def _best_seconds(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def measure_memcpy_gib_s(nbytes: int = _STREAM_BYTES, reps: int = 3) -> float:
    """Streaming ``np.copyto`` bandwidth in GiB/s."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty(nbytes, dtype=np.uint8)
    dst[:] = 0  # fault the pages outside the timed region
    return nbytes / _best_seconds(lambda: np.copyto(dst, src), reps) / _GIB


def measure_xor_gib_s(nbytes: int = _STREAM_BYTES, reps: int = 3) -> float:
    """Streaming in-place XOR bandwidth in GiB/s (destination bytes)."""
    src = np.full(nbytes, 0x5A, dtype=np.uint8)
    dst = np.ones(nbytes, dtype=np.uint8)
    return (
        nbytes
        / _best_seconds(lambda: np.bitwise_xor(dst, src, out=dst), reps)
        / _GIB
    )


def measure_dispatch_overhead_s(reps: int = 2000) -> float:
    """Fixed per-call cost of one tiny sliced numpy XOR.

    A 1 KiB in-place XOR is compute-free at memory speeds; what remains
    is ufunc dispatch plus the slice construction a tiled executor pays
    per op. That fixed cost is what caps how small a useful tile can be.
    """
    dst = np.ones(2048, dtype=np.uint8)
    src = np.full(2048, 0x5A, dtype=np.uint8)

    def one_op() -> None:
        np.bitwise_xor(dst[:1024], src[:1024], out=dst[:1024])

    one_op()  # warm the ufunc loop lookup
    start = time.perf_counter()
    for _ in range(reps):
        one_op()
    return max((time.perf_counter() - start) / reps, 1e-8)


def measure_working_set_xor_gib_s(footprint: int, reps: int = 3) -> float:
    """Repeated in-place XOR over a two-buffer working set of
    ``footprint`` bytes; cache-resident footprints run far above the
    streaming rate."""
    half = max(footprint // 2, 4096)
    dst = np.ones(half, dtype=np.uint8)
    src = np.full(half, 0x5A, dtype=np.uint8)
    sweeps = max(1, (8 << 20) // half)

    def run() -> None:
        for _ in range(sweeps):
            np.bitwise_xor(dst, src, out=dst)

    run()  # first touch outside the timed region
    return half * sweeps / _best_seconds(run, reps) / _GIB


def measure_effective_cache_bytes(
    stream_gib_s: float | None = None,
) -> tuple[int, float]:
    """Measured cache capacity as ``(bytes, cached_xor_gib_s)``.

    Walks the footprint ladder and returns the largest footprint that
    still beats streaming bandwidth by :data:`_CACHE_EDGE_RATIO`, plus
    the bandwidth observed at the smallest (fully resident) rung.
    """
    if stream_gib_s is None:
        stream_gib_s = measure_xor_gib_s()
    cached = measure_working_set_xor_gib_s(_CACHE_LADDER[0])
    edge = _CACHE_LADDER[0]
    for footprint in _CACHE_LADDER[1:]:
        rate = measure_working_set_xor_gib_s(footprint)
        if rate < _CACHE_EDGE_RATIO * stream_gib_s:
            break
        edge = footprint
    return edge, cached


def host_profile() -> HostProfile:
    """The cached per-process host calibration (measured on first call).

    The measurement costs ~0.1 s and ~64 MiB of peak memory, paid once;
    every subsequent call returns the cached profile.
    """
    global _profile
    if _profile is None:
        xor = measure_xor_gib_s()
        cache_bytes, cached_rate = measure_effective_cache_bytes(xor)
        _profile = HostProfile(
            memcpy_gib_s=measure_memcpy_gib_s(),
            xor_gib_s=xor,
            xor_cached_gib_s=cached_rate,
            dispatch_overhead_s=measure_dispatch_overhead_s(),
            effective_cache_bytes=cache_bytes,
        )
    return _profile


def set_host_profile(profile: HostProfile | None) -> None:
    """Pin (or with ``None`` reset) the cached profile — test hook."""
    global _profile
    _profile = profile
