"""Foreground latency while an elastic volume migrates under it.

The volume layer's headline claim is *online* restriping: extents move
between shard sets (and code families) while foreground I/O keeps
flowing, throttled by the restriper's per-tick extent batch. This
benchmark prices that claim the same way bench_service prices lock
contention: closed-loop worker threads drive writes/reads through
:class:`repro.service.VolumeService` over disjoint regions, and we
record p50/p99 request latency plus throughput

* at steady state (no migration), and
* during a TIP → STAR restripe at three throttle levels
  (``extents_per_tick`` = 1, 4, 16 — gentler throttles hold fewer
  extent locks per tick, so foreground tail latency should stay closer
  to steady state while the migration takes longer).

Two guards keep it evidence rather than narrative: every configuration
must end byte-identical to the workload's expected image (reads routed
across the moving cursor never see stale extents), and the migrated
volume must scrub clean under its new code family. Per-shard chunk
counters aggregate with :meth:`IoCounters.merged`.

Results land in ``results/bench_volume.txt`` and ``BENCH_volume.json``.
"""

import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from _common import emit, format_table
from repro.service import VolumeService, percentile
from repro.store import IoCounters
from repro.volume import ShardSpec, VolumeManager

SOURCE_SPECS = [
    ShardSpec("tip", 5, stripes=8, chunk_bytes=1024),
    ShardSpec("tip", 7, stripes=6, chunk_bytes=1024),
]
TARGET_SPECS = [
    ShardSpec("star", 7, stripes=48, chunk_bytes=1024),
]
EXTENT_BYTES = 4096
THROTTLES = (1, 4, 16)
TICK_DELAY = 0.004
WORKERS = 3
SLOT = 2048
PAYLOAD = 1536
STEADY_REQUESTS = 240

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_volume.json"


def _worker(service, worker, region, stop, expected):
    """One closed-loop caller: cycle writes (and reads) over its own
    disjoint slot range until told to stop."""
    rng = np.random.default_rng(1000 + worker)
    base = worker * region
    slots = region // SLOT
    index = 0
    while not stop.is_set():
        slot = index % slots
        offset = base + slot * SLOT
        payload = rng.integers(0, 256, PAYLOAD, dtype=np.uint8)
        service.write(offset, payload)
        expected[offset] = payload
        if index % 4 == 3:
            service.read(offset, PAYLOAD)
        index += 1


def _run_workload(volume, run_migration=None, min_seconds=0.0):
    """Drive WORKERS closed-loop callers; optionally migrate meanwhile.

    Returns ``(sampled latencies_ms, elapsed_s, expected image writes,
    migration stats | None)``. With a migration, sampling stops the
    moment the restripe completes, so every sample is a
    during-migration request.
    """
    service = VolumeService(volume, workers=WORKERS)
    region = volume.volume_bytes // WORKERS
    stop = threading.Event()
    expected: dict[int, np.ndarray] = {}
    threads = [
        threading.Thread(
            target=_worker, args=(service, w, region, stop, expected)
        )
        for w in range(WORKERS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    stats = None
    if run_migration is not None:
        stats = run_migration(service)
        sampled = len(service.stats.latencies_ms)
    if min_seconds:
        time.sleep(min_seconds)
        sampled = len(service.stats.latencies_ms)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies = service.stats.latencies_ms[:sampled]
    return service, latencies, elapsed, expected, stats


def _verify(volume, expected):
    image = volume.read_bytes(0, volume.volume_bytes)
    for offset, payload in expected.items():
        assert np.array_equal(
            image[offset : offset + payload.size], payload
        ), f"write at {offset} lost"
    assert volume.scrub() == {}


def _point(latencies, elapsed):
    return {
        "requests": len(latencies),
        "throughput_iops": round(len(latencies) / elapsed, 1),
        "p50_latency_ms": round(percentile(latencies, 0.50), 4),
        "p99_latency_ms": round(percentile(latencies, 0.99), 4),
    }


def test_volume_latency_during_restripe():
    """Steady state vs migration at three throttles; byte-equal guard."""
    rows = []
    payload = {
        "source": [spec.to_meta() for spec in SOURCE_SPECS],
        "target": [spec.to_meta() for spec in TARGET_SPECS],
        "extent_bytes": EXTENT_BYTES,
        "workers": WORKERS,
        "steady": None,
        "restripe": [],
    }

    # Steady state: same closed loop, no migration.
    with tempfile.TemporaryDirectory(prefix="bench-vol-") as tmpdir:
        volume = VolumeManager.create(
            Path(tmpdir) / "vol", SOURCE_SPECS, extent_bytes=EXTENT_BYTES
        )
        volume.write_bytes(
            0, np.zeros(volume.volume_bytes, dtype=np.uint8)
        )
        service, latencies, elapsed, expected, _ = _run_workload(
            volume, min_seconds=0.5
        )
        assert len(latencies) >= STEADY_REQUESTS // 2
        _verify(volume, expected)
        steady = _point(latencies, elapsed)
        steady["io"] = IoCounters.merged(
            shard.io for shard in volume.shards
        ).total_chunks
        payload["steady"] = steady
        service.close()
    rows.append([
        "steady", "-", steady["requests"],
        f"{steady['throughput_iops']:.0f}",
        f"{steady['p50_latency_ms']:.3f}",
        f"{steady['p99_latency_ms']:.3f}", "-",
    ])

    for throttle in THROTTLES:
        with tempfile.TemporaryDirectory(prefix="bench-vol-") as tmpdir:
            volume = VolumeManager.create(
                Path(tmpdir) / "vol", SOURCE_SPECS,
                extent_bytes=EXTENT_BYTES,
            )
            volume.write_bytes(
                0, np.zeros(volume.volume_bytes, dtype=np.uint8)
            )

            def migrate(service, throttle=throttle):
                service.start_restripe(
                    TARGET_SPECS, extents_per_tick=throttle,
                    tick_delay=TICK_DELAY,
                )
                return service.join_restripe()

            service, latencies, elapsed, expected, stats = _run_workload(
                volume, run_migration=migrate
            )
            assert stats is not None and stats.done
            assert stats.extents_copied == volume.total_extents
            assert latencies, "no foreground samples during migration"
            # The migrated volume serves the new family only.
            families = [
                s["family"] for s in volume.status().shards
            ]
            assert families == ["star"], families
            _verify(volume, expected)
            point = _point(latencies, elapsed)
            point.update(
                {
                    "extents_per_tick": throttle,
                    "ticks": stats.ticks,
                    "extents_copied": stats.extents_copied,
                    "migration_chunk_ios": stats.io.total_chunks,
                }
            )
            payload["restripe"].append(point)
            rows.append([
                "restripe", throttle, point["requests"],
                f"{point['throughput_iops']:.0f}",
                f"{point['p50_latency_ms']:.3f}",
                f"{point['p99_latency_ms']:.3f}", stats.ticks,
            ])
            service.close()

    # Gentler throttles take more ticks to move the same extents.
    ticks = [entry["ticks"] for entry in payload["restripe"]]
    assert ticks == sorted(ticks, reverse=True), ticks
    for entry in payload["restripe"]:
        assert entry["p99_latency_ms"] >= entry["p50_latency_ms"]

    emit(
        "bench_volume",
        [
            f"source=2x tip shards, target=star n=7, "
            f"extent={EXTENT_BYTES} B, {WORKERS} closed-loop workers",
            *format_table(
                ["config", "extents/tick", "requests", "req/s",
                 "p50 ms", "p99 ms", "ticks"],
                rows,
            ),
        ],
    )
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
