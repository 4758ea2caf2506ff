"""Run one stack-benchmark workload in this interpreter and print its result.

``run.py`` starts this file in a fresh interpreter for every workload, so
each one gets its own peak RSS. The last line of standard output is one
JSON object that ``run.py`` turns into the benchmark's result.

Every workload drives the library only through its public front doors
(``VolumeService``, ``BlockService``, ``ArrayStore``, ``RepairController``),
keeps a model image of every byte it wrote, checks every read against
it, and ends with the correctness gate: read the whole region back
through the same front door, compare byte for byte, and require a clean
scrub.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import trace as spans  # noqa: E402
import workloads as gen  # noqa: E402
from repro.codes import make_code  # noqa: E402
from repro.faults.repair import RepairController  # noqa: E402
from repro.service import BlockService, VolumeService  # noqa: E402
from repro.store import ArrayStore, IoCounters, SyscallCounters  # noqa: E402
from repro.volume import ShardSpec, VolumeManager, VolumeMapping  # noqa: E402

MIB = 1 << 20
CHUNK_BYTES = 4096
#: Data chunks per TIP n=8 stripe.
STRIPE_CHUNKS = make_code("tip", 8).num_data
#: Prefill and read-back granularity, so peak RSS is the program's
#: memory and not one huge benchmark buffer.
SLICE_BYTES = 8 * MIB
FAILED_DISKS = (0, 3, 6)
#: Samples a latency class needs before its p99 is reported: the p99 of
#: 1,000 samples has ten samples beyond it.
P99_MIN_SAMPLES = 1000
SETUP_REPEATS = 3
REBUILD_REPEATS = 3
MAX_CHUNKS_PER_TICK = 256
#: An open loop whose sends ran later than this at ``SCHED_LAG_GATE``
#: fell behind its schedule and measured the load generator, not the
#: system, so the run is invalid. The gate is the p90, not the p99 that
#: is reported: on a shared 2-vCPU VM the hypervisor stops an idle
#: process for 10-18 ms several times a phase, which alone sends about
#: 1 % of requests over 2 ms late, while a generator that cannot keep
#: pace is late on most of its sends.
SCHED_LAG_LIMIT_MS = 2.0
SCHED_LAG_GATE = 0.90


def fsync_as_on_tmpfs(fd: int) -> None:
    """Stands in for ``os.fsync`` while a workload runs.

    The arrays live in the checkout, on a disk other tenants share, where
    a journal fsync waits for their traffic: it doubled ``oltp_volume``'s
    set-up time in busy periods. On tmpfs an fsync finds nothing to
    flush; this does the same, keeping the call (which the traced run
    counts) and its check of ``fd``.
    """
    os.fstat(fd)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the ceil(fraction * N)-th smallest.

    The benchmark's own, so a change to the library's statistics cannot
    move what the benchmark reports.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def latency_metrics(prefix: str, samples_ms: list[float]) -> dict[str, float]:
    """``<prefix>_p50_ms`` from any samples, ``<prefix>_p99_ms`` only
    from 1,000 on, so a p99 always has ten samples beyond it."""
    if not samples_ms:
        return {}
    out = {f"{prefix}_p50_ms": percentile(samples_ms, 0.50)}
    if len(samples_ms) >= P99_MIN_SAMPLES:
        out[f"{prefix}_p99_ms"] = percentile(samples_ms, 0.99)
    return out


class Image:
    """Model of every byte the benchmark wrote, and the read checker.

    A write that raised may have landed in part, so its range becomes
    unknown and is not compared afterwards.
    """

    def __init__(self, size: int) -> None:
        self.bytes = bytearray(size)
        self._array = np.frombuffer(self.bytes, dtype=np.uint8)
        self.unknown: list[tuple[int, int]] = []
        self.mismatches = 0

    def write(self, offset: int, payload: np.ndarray) -> None:
        self._array[offset : offset + payload.size] = payload

    def forget(self, offset: int, length: int) -> None:
        self.unknown.append((offset, offset + length))

    def expect(self, offset: int, length: int) -> bytearray:
        return self.bytes[offset : offset + length]

    def check(
        self, offset: int, data: bytes, expected: bytearray | None = None
    ) -> None:
        """Count a mismatch unless ``data`` equals the model (or the
        ``expected`` snapshot taken when the read was sent)."""
        if expected is None:
            expected = self.expect(offset, len(data))
        for lo, hi in self.unknown:
            lo, hi = max(lo, offset), min(hi, offset + len(data))
            if lo < hi:
                expected[lo - offset : hi - offset] = data[lo - offset : hi - offset]
        if expected != data:
            self.mismatches += 1


@dataclass
class Timed:
    """What a timed phase (or one client or cycle of it) did.

    ``completed`` requests moving ``done_bytes`` user bytes finished
    within ``phase``, the ``(start, end)`` they are rated over. ``busy``
    holds the request threads' busy intervals ``(thread id, start,
    end)`` for the tracing attribution check.
    """

    attempted: int = 0
    failed: int = 0
    writes: int = 0
    write_bytes: int = 0
    completed: int = 0
    done_bytes: int = 0
    phase: tuple[float, float] | None = None
    write_ms: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    rebuild_s: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    repair_ticks: int = 0
    repair_stripes: int = 0
    busy: list[tuple[int, float, float]] = field(default_factory=list)

    def absorb(self, other: "Timed") -> None:
        """Add another client's or cycle's counts and samples."""
        for name in (
            "attempted", "failed", "writes", "write_bytes", "completed",
            "done_bytes",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("write_ms", "read_ms", "lag_ms", "busy"):
            getattr(self, name).extend(getattr(other, name))
        if other.phase is not None:
            self.phase = other.phase if self.phase is None else (
                min(self.phase[0], other.phase[0]),
                max(self.phase[1], other.phase[1]),
            )


def _report_failure(what: str, exc: BaseException) -> None:
    print(f"stack benchmark: {what} raised {exc!r}", file=sys.stderr)


def closed_loop(
    front, stream: gen.Stream, pool: np.ndarray, image: Image, tally: Timed,
    done, *, step: int = 1,
) -> Timed:
    """One closed-loop client filling ``tally``.

    Sends the stream's requests back to back, wrapping around if it
    runs out, until ``done(tally)``, which is asked every ``step``
    requests. Latency is call to return.
    """
    is_write = stream.is_write.tolist()
    offsets = stream.offset.tolist()
    lengths = stream.length.tolist()
    payload_at = stream.payload_at.tolist()
    count = len(offsets)
    clock = time.perf_counter
    started = clock()
    index = 0
    while index % step or not done(tally):
        j = index % count
        offset, length = offsets[j], lengths[j]
        index += 1
        tally.attempted += 1
        if is_write[j]:
            at = payload_at[j]
            payload = pool[at : at + length]
            t0 = clock()
            try:
                front.write(offset, payload)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                tally.failed += 1
                image.forget(offset, length)
                _report_failure(f"write at {offset}", exc)
                continue
            tally.write_ms.append((clock() - t0) * 1e3)
            image.write(offset, payload)
            tally.writes += 1
            tally.write_bytes += length
        else:
            t0 = clock()
            try:
                data = front.read(offset, length)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                tally.failed += 1
                _report_failure(f"read at {offset}", exc)
                continue
            tally.read_ms.append((clock() - t0) * 1e3)
            image.check(offset, data)
        tally.completed += 1
        tally.done_bytes += length
    ended = clock()
    tally.phase = (started, ended)
    tally.busy.append((threading.get_ident(), started, ended))
    return tally


def timed_until(deadline: float, floor: int, group: list[Timed] | None = None):
    """Stop rule for closed loops: past ``deadline`` and ``floor`` reads
    and writes completed, counted over ``group`` (default: the asking
    client's own tally)."""

    def done(tally: Timed) -> bool:
        if time.perf_counter() < deadline:
            return False
        tallies = group if group is not None else [tally]
        return all(
            sum(len(getattr(t, name)) for t in tallies) >= floor
            for name in ("write_ms", "read_ms")
        )

    return done


def count_until(ops: int):
    """Stop rule for warm-ups: a fixed number of requests."""
    return lambda tally: tally.attempted >= ops


def prefill(front, image: Image, pool: np.ndarray) -> None:
    """Write the whole region in ``SLICE_BYTES`` pieces of the pool."""
    size = len(image.bytes)
    for offset in range(0, size, SLICE_BYTES):
        payload = pool[: min(SLICE_BYTES, size - offset)]
        front.write(offset, payload)
        image.write(offset, payload)


def read_back(front, image: Image) -> None:
    """Check the whole region, read through ``front``, against the model."""
    size = len(image.bytes)
    for offset in range(0, size, SLICE_BYTES):
        image.check(offset, bytes(front.read(offset, min(SLICE_BYTES, size - offset))))


def rebuild_all(stores: list[ArrayStore]) -> float:
    """Fail disks 0, 3, 6 of every store, repair to health; seconds."""
    started = time.perf_counter()
    for store in stores:
        for disk in FAILED_DISKS:
            store.fail_disk(disk)
    for store in stores:
        RepairController(store, max_chunks_per_tick=MAX_CHUNKS_PER_TICK).drain()
    return time.perf_counter() - started


def scaled(value: int, scale: float, least: int) -> int:
    return max(least, round(value * scale))


def tip_store(directory: Path, stripes: int, **kwargs) -> ArrayStore:
    return ArrayStore(
        make_code("tip", 8), directory, stripes=stripes,
        chunk_bytes=CHUNK_BYTES, **kwargs,
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: geometry, inputs, set-up, timed phase, gate."""

    def __init__(self, inputs: dict, scale: float, directory: Path) -> None:
        self.inputs = inputs
        self.pool = inputs["pool"]
        self.scale = scale
        self.directory = directory
        self.front = None
        self.image: Image

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Create the arrays, prefill them, run a fixed warm-up."""
        raise NotImplementedError

    def run(self, seconds: float, floor: int) -> Timed:
        raise NotImplementedError

    def stores(self) -> list[ArrayStore]:
        raise NotImplementedError

    def rebuild_samples(self, timed: Timed) -> list[float]:
        """rebuild_s samples. A workload whose timed phase rebuilds
        nothing fails disks 0, 3, 6 of every array and repairs them
        with no foreground load, ``REBUILD_REPEATS`` times."""
        return [rebuild_all(self.stores()) for _ in range(REBUILD_REPEATS)]

    def scrub_clean(self) -> bool:
        return all(store.scrub() == [] for store in self.stores())

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
            self.front = None

    def counters(self) -> dict:
        """Public counters of every layer, for per-layer deltas."""
        stores = self.stores()
        cache = stores[0].cache
        return {
            "io": IoCounters.merged(s.io for s in stores),
            "syscalls": sum(
                (s.syscalls.snapshot() for s in stores), SyscallCounters()
            ),
            "fast": sum(s.fast_path_writes for s in stores),
            "slow": sum(s.slow_path_writes for s in stores),
            "cache": cache.stats.snapshot() if cache is not None else None,
            "batches": getattr(self.front, "batches", 0),
            "batched": getattr(self.front, "batched_requests", 0),
        }


class OltpVolume(Workload):
    """VolumeService over 2 journaled TIP shards, 2 clients, financial_1."""

    SHARD_STRIPES = 256
    EXTENT_BYTES = 64 * 1024
    CLIENTS = 2
    STREAM = 60_000
    WARMUP = 200

    @classmethod
    def specs(cls, scale: float) -> list[ShardSpec]:
        stripes = scaled(cls.SHARD_STRIPES, scale, 8)
        return [ShardSpec("tip", 8, stripes, CHUNK_BYTES)] * 2

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        volume_bytes = VolumeMapping(
            [spec.capacity_bytes() for spec in cls.specs(scale)],
            cls.EXTENT_BYTES,
        ).volume_bytes
        half = volume_bytes // cls.CLIENTS
        mix = gen.MIXES["financial_1"]

        def per_client(first_id: int, count: int) -> list[gen.Stream]:
            return [
                gen.mixed_stream(mix, count, half, seed, first_id + c, base=c * half)
                for c in range(cls.CLIENTS)
            ]

        return {
            "pool": gen.payload_pool(seed),
            "warmup": per_client(10, cls.WARMUP),
            "timed": per_client(20, cls.STREAM),
        }

    def _build(self) -> None:
        self.volume = VolumeManager.create(
            self.directory / "volume", self.specs(self.scale),
            extent_bytes=self.EXTENT_BYTES, group_commit=8,
        )
        self.front = VolumeService(self.volume, workers=self.CLIENTS)

    def setup(self) -> None:
        self._build()
        self.image = Image(self.front.capacity_bytes)
        prefill(self.front, self.image, self.pool)
        warmup = scaled(self.WARMUP, self.scale, 10)
        self._clients(self.inputs["warmup"], lambda group: count_until(warmup))

    def _clients(self, streams: list[gen.Stream], make_done) -> Timed:
        """One closed-loop thread per stream, started together."""
        tallies = [Timed() for _ in streams]
        done = make_done(tallies)
        barrier = threading.Barrier(len(streams))

        def client(c: int) -> None:
            barrier.wait()
            closed_loop(
                self.front, streams[c], self.pool, self.image, tallies[c], done
            )

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = Timed()
        for tally in tallies:
            total.absorb(tally)
        return total

    def run(self, seconds: float, floor: int) -> Timed:
        deadline = time.perf_counter() + seconds
        return self._clients(
            self.inputs["timed"],
            lambda group: timed_until(deadline, floor, group),
        )

    def stores(self) -> list[ArrayStore]:
        return self.volume.shards

    def scrub_clean(self) -> bool:
        return self.volume.scrub() == {}


class OltpBlock(OltpVolume):
    """oltp_volume's requests through one unjournaled BlockService.

    A diagnostic twin, not in ``BENCHMARK.json``: one array of as many
    stripes as the two shards together, the same clients and the same
    request streams, so its traced run against oltp_volume's shows what
    the volume layer and its journal add on the same geometry.
    """

    def _build(self) -> None:
        stripes = sum(spec.stripes for spec in self.specs(self.scale))
        self.store = tip_store(self.directory / "array", stripes)
        self.front = BlockService(self.store)

    def stores(self) -> list[ArrayStore]:
        return [self.store]

    def scrub_clean(self) -> bool:
        return Workload.scrub_clean(self)


class StreamFullStripe(Workload):
    """BlockService over 1024 stripes: 4-stripe writes, reads behind them."""

    STRIPES = 1024
    SPAN_STRIPES = 4
    PAIRS = 40_000
    WARMUP_PAIRS = 20

    @classmethod
    def stripes(cls, scale: float) -> int:
        stripes = scaled(cls.STRIPES, scale, 2 * cls.SPAN_STRIPES)
        return stripes - stripes % cls.SPAN_STRIPES

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        spans_ = cls.stripes(scale) // cls.SPAN_STRIPES
        span = cls.SPAN_STRIPES * STRIPE_CHUNKS * CHUNK_BYTES
        return {
            "pool": gen.payload_pool(seed),
            "warmup": gen.span_stream(cls.WARMUP_PAIRS, spans_, span, seed + 1),
            "timed": gen.span_stream(cls.PAIRS, spans_, span, seed),
        }

    def setup(self) -> None:
        self.store = tip_store(self.directory / "array", self.stripes(self.scale))
        self.front = BlockService(self.store)
        self.image = Image(self.store.capacity_bytes)
        prefill(self.front, self.image, self.pool)
        closed_loop(
            self.front, self.inputs["warmup"], self.pool, self.image, Timed(),
            count_until(2 * self.WARMUP_PAIRS), step=2,
        )

    def run(self, seconds: float, floor: int) -> Timed:
        # step=2: the phase ends on a write/read pair, so every count
        # per request is the same for any run length and any seed.
        return closed_loop(
            self.front, self.inputs["timed"], self.pool, self.image, Timed(),
            timed_until(time.perf_counter() + seconds, floor), step=2,
        )

    def stores(self) -> list[ArrayStore]:
        return [self.store]


class DegradedRebuild(Workload):
    """BlockService with throttled repair; disks 0, 3, 6 failed; financial_2."""

    STRIPES = 1024
    STREAM = 20_000
    WARMUP = 200
    REPAIR_EVERY = 8

    @classmethod
    def stripes(cls, scale: float) -> int:
        return scaled(cls.STRIPES, scale, 8)

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        size = cls.stripes(scale) * STRIPE_CHUNKS * CHUNK_BYTES
        mix = gen.MIXES["financial_2"]
        return {
            "pool": gen.payload_pool(seed),
            "warmup": gen.mixed_stream(mix, cls.WARMUP, size, seed, 10),
            "timed": gen.mixed_stream(mix, cls.STREAM, size, seed, 20),
        }

    def setup(self) -> None:
        self.store = tip_store(self.directory / "array", self.stripes(self.scale))
        self.front = BlockService(self.store)
        self.image = Image(self.store.capacity_bytes)
        prefill(self.front, self.image, self.pool)
        # Warm the degraded read and decode path, then restore health.
        for disk in FAILED_DISKS:
            self.store.fail_disk(disk)
        closed_loop(
            self.front, self.inputs["warmup"], self.pool, self.image, Timed(),
            count_until(scaled(self.WARMUP, self.scale, 10)),
        )
        RepairController(self.store, max_chunks_per_tick=MAX_CHUNKS_PER_TICK).drain()

    def run(self, seconds: float, floor: int) -> Timed:
        """Rebuild cycles until ``seconds`` have passed and both latency
        classes hold ``floor`` samples. Each cycle fails disks 0, 3, 6
        and replays the same request stream from its start until the
        array is healthy, so every cycle does identical work."""
        store = self.store
        total = Timed()
        started = time.perf_counter()
        while (
            time.perf_counter() - started < seconds
            or len(total.write_ms) < floor
            or len(total.read_ms) < floor
        ):
            cycle_start = time.perf_counter()
            for disk in FAILED_DISKS:
                store.fail_disk(disk)
            repair = RepairController(store, max_chunks_per_tick=MAX_CHUNKS_PER_TICK)
            service = BlockService(store, repair=repair, repair_every=self.REPAIR_EVERY)
            cycle = closed_loop(
                service, self.inputs["timed"], self.pool, self.image, Timed(),
                lambda _: not store.failed,
            )
            service.close()
            cycle_end = time.perf_counter()
            cycle.busy = [(threading.get_ident(), cycle_start, cycle_end)]
            cycle.phase = (cycle_start, cycle_end)
            total.absorb(cycle)
            total.rebuild_s.append(cycle_end - cycle_start)
            total.repair_ticks += repair.stats.ticks
            total.repair_stripes += repair.stats.stripes_rebuilt
        return total

    def rebuild_samples(self, timed: Timed) -> list[float]:
        return timed.rebuild_s

    def stores(self) -> list[ArrayStore]:
        return [self.store]


class HotBatched(Workload):
    """Batched BlockService with a stripe cache; prxy_0; open, then saturated."""

    STRIPES = 512
    CACHE_STRIPES = 64
    BATCH = 16
    WINDOW = 256
    RATE = 1000.0
    STREAM = 100_000
    WARMUP = 500

    @classmethod
    def stripes(cls, scale: float) -> int:
        return scaled(cls.STRIPES, scale, 10)

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        size = cls.stripes(scale) * STRIPE_CHUNKS * CHUNK_BYTES
        mix = gen.MIXES["prxy_0"]
        return {
            "pool": gen.payload_pool(seed),
            "warmup": gen.mixed_stream(mix, cls.WARMUP, size, seed, 10),
            "open": gen.mixed_stream(mix, cls.STREAM, size, seed, 20, rate=cls.RATE),
            "saturated": gen.mixed_stream(mix, cls.STREAM, size, seed, 30),
        }

    def setup(self) -> None:
        self.store = tip_store(
            self.directory / "array", self.stripes(self.scale),
            cache_stripes=scaled(self.CACHE_STRIPES, self.scale, 2),
        )
        self.front = BlockService(
            self.store, batch_size=self.BATCH, max_inflight=self.WINDOW
        )
        self.image = Image(self.store.capacity_bytes)
        prefill(self.front, self.image, self.pool)
        warmup = scaled(self.WARMUP, self.scale, 10)
        self._submit(
            self.inputs["warmup"], lambda writes, reads: writes + reads >= warmup,
            paced=False,
        )

    def _submit(self, stream: gen.Stream, stop, *, paced: bool) -> Timed:
        """Send ``stream`` through :meth:`BlockService.enqueue` until
        ``stop(writes_sent, reads_sent)``, then wait for every request.

        Paced is the open loop: each request is due after the stream's
        Poisson gap and is timed from its due time; how late the
        submitter sent it is the schedule lag. Unpaced sends as fast as
        the admission window allows, timed from the call to enqueue.
        Completed requests are accounted in order as they finish, so
        the benchmark holds only the requests in flight.
        """
        tally = Timed()
        is_write = stream.is_write.tolist()
        offsets = stream.offset.tolist()
        lengths = stream.length.tolist()
        payload_at = stream.payload_at.tolist()
        gaps = stream.gap_s.tolist()
        count = len(offsets)
        clock = time.perf_counter
        front, image, pool = self.front, self.image, self.pool
        # [due, offset, length, expected read bytes or None, future, done]
        in_flight: deque[list] = deque()
        last_done = 0.0

        def account(entry: list) -> None:
            nonlocal last_done
            due, offset, length, expected, future, done = entry
            tally.attempted += 1
            exc = future.exception()
            if exc is not None:
                tally.failed += 1
                if expected is None:
                    image.forget(offset, length)
                _report_failure(f"request at {offset}", exc)
                return
            last_done = max(last_done, done)
            tally.completed += 1
            tally.done_bytes += length
            if expected is None:
                tally.writes += 1
                tally.write_bytes += length
                tally.write_ms.append((done - due) * 1e3)
            else:
                tally.read_ms.append((done - due) * 1e3)
                image.check(offset, bytes(future.result()), expected)

        writes = reads = 0
        started = due = clock()
        while not stop(writes, reads):
            j = (writes + reads) % count
            offset, length = offsets[j], lengths[j]
            if paced:
                due += gaps[j]
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                tally.lag_ms.append((clock() - due) * 1e3)
            else:
                due = clock()
            if is_write[j]:
                writes += 1
                at = payload_at[j]
                payload = pool[at : at + length]
                image.write(offset, payload)
                entry = [due, offset, length, None, None, 0.0]
                entry[4] = front.enqueue(True, offset, payload)
            else:
                reads += 1
                entry = [due, offset, length, image.expect(offset, length), None, 0.0]
                entry[4] = front.enqueue(False, offset, length)
            entry[4].add_done_callback(
                lambda _, entry=entry: entry.__setitem__(5, clock())
            )
            in_flight.append(entry)
            while in_flight and in_flight[0][5]:
                account(in_flight.popleft())
        submitted = clock()
        while in_flight:
            entry = in_flight.popleft()
            entry[4].exception()  # waits for the request
            while not entry[5]:
                # Futures wake waiters before running done-callbacks.
                time.sleep(0)
            account(entry)
        tally.phase = (started, max(last_done, submitted))
        tally.busy.append((threading.get_ident(), started, submitted))
        return tally

    def run(self, seconds: float, floor: int) -> Timed:
        """Phase A, the first third: open loop at 1,000 requests/s,
        giving write latency from due time and the schedule lag. Phase
        B, the rest: one submitter saturating a 256-deep admission
        window, giving throughput, goodput and read latency."""
        end_a = time.perf_counter() + seconds / 3
        phase_a = self._submit(
            self.inputs["open"],
            lambda writes, reads: time.perf_counter() >= end_a and writes >= floor,
            paced=True,
        )
        end_b = time.perf_counter() + seconds * 2 / 3
        phase_b = self._submit(
            self.inputs["saturated"],
            lambda writes, reads: time.perf_counter() >= end_b and reads >= floor,
            paced=False,
        )
        total = Timed()
        total.absorb(phase_a)
        total.absorb(phase_b)
        total.write_ms = phase_a.write_ms
        total.read_ms = phase_b.read_ms
        total.completed = phase_b.completed
        total.done_bytes = phase_b.done_bytes
        total.phase = phase_b.phase
        total.busy = phase_b.busy
        return total

    def stores(self) -> list[ArrayStore]:
        return [self.store]


WORKLOADS: dict[str, type[Workload]] = {
    "oltp_volume": OltpVolume,
    "stream_full_stripe": StreamFullStripe,
    "degraded_rebuild": DegradedRebuild,
    "hot_batched": HotBatched,
    "oltp_block": OltpBlock,
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(setup_s: list[float], timed: Timed) -> dict[str, float]:
    """``setup_s`` (``peak_rss_mib`` is taken at exit) and the timing
    diagnostics of the untraced run. Rates are over the whole timed
    phase, so a stall anywhere in it lowers them."""
    span_s = timed.phase[1] - timed.phase[0]
    metrics = {
        "setup_s": median(setup_s),
        "throughput_ops_s": timed.completed / span_s,
        "goodput_mib_s": timed.done_bytes / span_s / MIB,
    }
    metrics.update(latency_metrics("write", timed.write_ms))
    metrics.update(latency_metrics("read", timed.read_ms))
    return metrics


def layer_metrics(
    recorder: spans.SpanRecorder, before: dict, after: dict, timed: Timed
) -> dict[str, float]:
    """Per-layer metrics of a traced timed phase.

    Times are self time per request (or per write); counts are deltas
    of the layers' public counters. ``bench.tracing_overhead`` and
    ``bench.sched_lag_p99_ms`` need the untraced run and are added by
    ``run.py``.
    """
    threads = recorder.spans()
    self_ms = {k: v * 1e3 for k, v in spans.self_times(threads).items()}
    calls = spans.call_counts(threads)
    ops = max(timed.attempted, 1)
    writes = max(timed.writes, 1)

    def per_op(layer: str) -> float:
        return self_ms.get(layer, 0.0) / ops

    def gib_s(layer: str) -> float:
        seconds = self_ms.get(layer, 0.0) / 1e3
        return recorder.nbytes[layer] / seconds / 2**30 if seconds else 0.0

    io = after["io"] - before["io"]
    syscalls = after["syscalls"] - before["syscalls"]
    fast = after["fast"] - before["fast"]
    slow = after["slow"] - before["slow"]
    batches = after["batches"] - before["batches"]
    cache = after["cache"] - before["cache"] if after["cache"] else None
    rebuilds = len(timed.rebuild_s) if timed.repair_ticks else 0
    busy = sum(end - start for _, start, end in timed.busy)
    attributed = sum(
        spans.attributed_time(recorder.spans([ident]), start, end)
        for ident, start, end in timed.busy
    )
    return {
        "service.self_ms_per_op": per_op("service"),
        "service.admission_wait_ms_per_op": per_op("service.admission"),
        "service.lock_wait_ms_per_op": per_op("service.lock"),
        "service.batch_fill": (
            (after["batched"] - before["batched"]) / batches if batches else 1.0
        ),
        "volume.self_ms_per_op": per_op("volume"),
        "journal.ms_per_write": self_ms.get("journal", 0.0) / writes,
        "journal.fsyncs_per_write": calls.get("os.fsync", 0) / writes,
        "journal.bytes_per_user_byte": (
            recorder.nbytes["journal"] / max(timed.write_bytes, 1)
        ),
        "store.self_ms_per_op": per_op("store"),
        "store.fast_path_share": fast / (fast + slow) if fast + slow else 0.0,
        "store.chunks_read_per_op": io.chunks_read / ops,
        "store.chunks_written_per_op": io.chunks_written / ops,
        "store.parity_chunks_per_write": io.parity_chunks_written / writes,
        "store.syscalls_per_op": syscalls.total / ops,
        "planner.ms_per_op": per_op("planner"),
        "cache.ms_per_op": per_op("cache"),
        "cache.hit_rate": cache.hit_rate if cache else 0.0,
        "cache.parity_write_amortization": (
            (cache.parity_write_amortization_or_none or 0.0) if cache else 0.0
        ),
        "codes.encode_ms_per_op": per_op("codes.encode"),
        "codes.encode_gib_s": gib_s("codes.encode"),
        "codes.decode_ms_per_op": per_op("codes.decode"),
        "codes.decode_gib_s": gib_s("codes.decode"),
        "repair.tick_ms": (
            spans.inclusive_times(threads).get("repair", 0.0) * 1e3
            / timed.repair_ticks if timed.repair_ticks else 0.0
        ),
        "repair.ticks": timed.repair_ticks / rebuilds if rebuilds else 0.0,
        "repair.stripes_rebuilt": (
            timed.repair_stripes / rebuilds if rebuilds else 0.0
        ),
        "os.read_ms_per_op": per_op("os.read"),
        "os.write_ms_per_op": per_op("os.write"),
        "os.fsync_ms_per_op": per_op("os.fsync"),
        "bench.unattributed_share": 1.0 - attributed / busy if busy else 0.0,
    }


def inputs_digest(inputs: dict) -> str:
    """SHA-256 over the payload pool and every request stream."""
    sha = hashlib.sha256(inputs["pool"].tobytes())
    for name in sorted(inputs):
        if name == "pool":
            continue
        value = inputs[name]
        for stream in value if isinstance(value, list) else [value]:
            sha.update(f"{name}:{stream.digest()}".encode())
    return sha.hexdigest()


def run_workload(
    name: str, seed: int, seconds: float, scale: float, traced: bool,
    workdir: Path,
) -> dict:
    """Set up ``SETUP_REPEATS`` times, run the timed phase on the last
    set-up (traced or not), then the correctness gate."""
    cls = WORKLOADS[name]
    inputs = cls.make_inputs(seed, scale)
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        directory = workdir / f"setup-{repeat}"
        workload = cls(inputs, scale, directory)
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
        if repeat + 1 < SETUP_REPEATS:
            workload.close()
            shutil.rmtree(directory)

    floor = scaled(P99_MIN_SAMPLES, scale, 1)
    recorder = spans.SpanRecorder() if traced else None
    before = workload.counters()
    if recorder is not None:
        recorder.install(spans.entry_points())
    try:
        timed = workload.run(seconds * scale, floor)
    finally:
        if recorder is not None:
            recorder.uninstall()
    after = workload.counters()

    rebuild_s = workload.rebuild_samples(timed)
    metrics = end_to_end_metrics(setup_s, timed)
    metrics["rebuild_s"] = median(rebuild_s)
    read_back(workload.front, workload.image)
    scrub_clean = workload.scrub_clean()
    workload.close()

    lag_p99 = percentile(timed.lag_ms, 0.99) if timed.lag_ms else None
    result = {
        "workload": name,
        "correct": workload.image.mismatches == 0 and scrub_clean,
        "valid": not timed.lag_ms
        or percentile(timed.lag_ms, SCHED_LAG_GATE) <= SCHED_LAG_LIMIT_MS,
        "mismatches": workload.image.mismatches,
        "scrub_clean": scrub_clean,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "input_digest": inputs_digest(inputs),
        "setup_s": setup_s,
        "rebuild_s": rebuild_s,
        "samples": {"write": len(timed.write_ms), "read": len(timed.read_ms)},
        "sched_lag_p99_ms": lag_p99,
        "end_to_end": metrics,
    }
    if recorder is not None:
        result["per_layer"] = layer_metrics(recorder, before, after, timed)
        result["layer_self_ms"] = {
            k: v * 1e3 for k, v in spans.self_times(recorder.spans()).items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    os.fsync = fsync_as_on_tmpfs
    result = run_workload(
        args.workload, args.seed, args.seconds, args.scale, bool(args.trace),
        args.workdir,
    )
    # ru_maxrss is in KiB on Linux.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["end_to_end"]["peak_rss_mib"] = rss_mib
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
