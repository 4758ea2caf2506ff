"""Seeded request streams for the stack benchmark.

The benchmark owns its inputs: the Table III parameters below are copied
from the paper (and from ``repro.traces.synthetic``) rather than imported,
so a change to the library's trace generator cannot move what the
benchmark drives. Every stream is a set of flat numpy arrays built from
one seed; :meth:`Stream.digest` hashes them so two run records can prove
they drove identical requests.

Shapes copied from Table III: Poisson arrivals, lognormal request sizes
rounded up to whole 512-byte sectors (capped at 512 KiB, location solved
so the rounded mean matches the published average), the published write
share, 80 % of the non-sequential requests aimed at the first 20 % of
the region, and a sequential share that continues where the previous
request ended. Sizes and shares are stratified (see ``BLOCK``) rather
than drawn independently, which keeps a rare huge request from making
one seed's run slower than another's.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

SECTOR = 512
MAX_REQUEST_BYTES = 512 * 1024
#: Random bytes every write payload is sliced from.
POOL_BYTES = 8 << 20
#: Requests per stratum. Every block of this many requests holds the
#: same request sizes and the same numbers of writes, sequential and hot
#: requests, in a seeded order, so runs of different seeds do the same
#: work and differ only in where it lands.
BLOCK = 1000
_SIZE_SIGMA = 1.0


@dataclass(frozen=True)
class Mix:
    """Published statistics of one Table III trace."""

    name: str
    write_fraction: float
    mean_kib: float
    sequential_fraction: float


MIXES = {
    mix.name: mix
    for mix in (
        Mix("financial_1", 0.7684, 3.38, 0.10),
        Mix("financial_2", 0.1766, 2.39, 0.10),
        Mix("prxy_0", 0.9694, 4.76, 0.30),
    )
}


@dataclass
class Stream:
    """One request stream: parallel arrays, one entry per request.

    ``payload_at`` is where a write's bytes start in the payload pool;
    ``gap_s`` is the Poisson inter-arrival time an open loop waits
    before sending the request (closed loops ignore it).
    """

    is_write: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    payload_at: np.ndarray
    gap_s: np.ndarray

    def __len__(self) -> int:
        return int(self.offset.size)

    def digest(self) -> str:
        """SHA-256 over every array, in a fixed order."""
        sha = hashlib.sha256()
        for array in (
            self.is_write, self.offset, self.length, self.payload_at,
            self.gap_s,
        ):
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()


def payload_pool(seed: int) -> np.ndarray:
    """The seeded random bytes every write payload is a slice of."""
    rng = np.random.default_rng([seed, 0])
    return rng.integers(0, 256, POOL_BYTES, dtype=np.uint8)


def _block_sizes(mean_bytes: float) -> np.ndarray:
    """The ``BLOCK`` request sizes of one stratum: the lognormal's
    quantile midpoints, rounded up to whole sectors, with the location
    solved by bisection so their mean is ``mean_bytes``."""
    normal = NormalDist()
    grid = np.array([normal.inv_cdf((i + 0.5) / BLOCK) for i in range(BLOCK)])

    def sizes(mu: float) -> np.ndarray:
        raw = np.exp(mu + _SIZE_SIGMA * grid)
        return np.minimum(np.ceil(raw / SECTOR) * SECTOR, MAX_REQUEST_BYTES)

    lo, hi = math.log(SECTOR / 4), math.log(MAX_REQUEST_BYTES)
    for _ in range(60):
        mid = (lo + hi) / 2
        if sizes(mid).mean() < mean_bytes:
            lo = mid
        else:
            hi = mid
    return sizes((lo + hi) / 2).astype(np.int64)


def _shuffled_blocks(rng: np.random.Generator, block: np.ndarray, count: int) -> np.ndarray:
    """``count`` entries: ``block`` repeated, each copy in a fresh order."""
    copies = -(-count // block.size)
    return np.concatenate([rng.permutation(block) for _ in range(copies)])[:count]


def _flags(rng: np.random.Generator, share: float, count: int) -> np.ndarray:
    """Exactly ``round(share * BLOCK)`` true flags in every block."""
    block = np.arange(BLOCK) < round(share * BLOCK)
    return _shuffled_blocks(rng, block, count)


def mixed_stream(
    mix: Mix,
    count: int,
    region_bytes: int,
    seed: int,
    stream_id: int,
    *,
    base: int = 0,
    rate: float = 1.0,
) -> Stream:
    """``count`` requests of ``mix`` inside ``[base, base + region_bytes)``.

    ``stream_id`` selects an independent substream of ``seed``, so the
    clients and phases of one run never share requests.
    """
    if count <= 0 or region_bytes < 2 * SECTOR:
        raise ValueError("need a positive count and a region of two sectors")
    rng = np.random.default_rng([seed, stream_id])
    cap = min(MAX_REQUEST_BYTES, region_bytes // 2)
    sizes = np.minimum(_block_sizes(mix.mean_kib * 1024), cap)
    length = _shuffled_blocks(rng, sizes, count)
    is_write = _flags(rng, mix.write_fraction, count)
    sequential = _flags(rng, mix.sequential_fraction, count)
    hot = _flags(rng, 0.8, count)
    spray = rng.random(count)
    hot_bytes = max(region_bytes // 5, cap)
    offset = np.empty(count, dtype=np.int64)
    previous_end = 0
    for i in range(count):
        n = int(length[i])
        if sequential[i] and previous_end + n <= region_bytes:
            start = previous_end
        else:
            span = (hot_bytes if hot[i] else region_bytes) - n
            start = int(spray[i] * (span // SECTOR + 1)) * SECTOR
        offset[i] = start
        previous_end = start + n
    payload_at = (
        rng.integers(0, (POOL_BYTES - length) // SECTOR + 1) * SECTOR
    ).astype(np.int64)
    return Stream(
        is_write=is_write,
        offset=offset + base,
        length=length,
        payload_at=payload_at,
        gap_s=rng.exponential(1.0 / rate, count),
    )


def span_stream(pairs: int, spans: int, span_bytes: int, seed: int) -> Stream:
    """Aligned sequential spans: write span ``p``, then read span ``p-1``.

    The seed picks the starting span and the payload slices; the shape
    of the stream (and so every chunk and syscall count it causes) is
    the same for every seed.
    """
    if span_bytes > POOL_BYTES:
        raise ValueError("span larger than the payload pool")
    rng = np.random.default_rng([seed, 1])
    first = int(rng.integers(0, spans))
    written = (first + np.arange(pairs)) % spans
    count = 2 * pairs
    offset = np.empty(count, dtype=np.int64)
    offset[0::2] = written * span_bytes
    offset[1::2] = ((written - 1) % spans) * span_bytes
    is_write = np.zeros(count, dtype=bool)
    is_write[0::2] = True
    slots = (POOL_BYTES - span_bytes) // SECTOR + 1
    return Stream(
        is_write=is_write,
        offset=offset,
        length=np.full(count, span_bytes, dtype=np.int64),
        payload_at=rng.integers(0, slots, count).astype(np.int64) * SECTOR,
        gap_s=np.zeros(count),
    )
