"""Scrub throughput and degraded-replay repair-throttle impact.

Two experiments for the fault subsystem (``repro.faults``):

* **Scrub throughput** — a full :class:`~repro.faults.Scrubber` pass
  over a populated store, clean and with injected damage (latent
  sectors + a silent bit flip), measuring stripes/s and scanned MB/s
  plus the classification outcome (everything found, fixed, nothing
  unfixable).
* **Repair throttle sweep** — the same faulty trace replay (one
  fail-stop mid-trace, online :class:`~repro.faults.RepairController`)
  at two-plus ``max_chunks_per_tick`` settings. A tighter throttle
  spreads the rebuild over more ticks, so more foreground requests are
  served degraded and the measured chunk reads rise; the final device
  image must nonetheless be byte-identical across throttles and to the
  fault-free replay.

Results land in ``results/bench_scrub.txt`` and ``BENCH_scrub.json``
(scrub stripes/s + MB/s, and per-throttle replay time / chunk I/O).
Run ``python benchmarks/bench_scrub.py --smoke`` for the tiny CI
configuration (same assertions, reduced sizes). Any size override
leaves those records alone: the run prints its tables and, when
``REPRO_BENCH_JSON`` names a file, writes its numbers there.
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from _common import format_table, record_target
from repro.codes import make_code
from repro.faults import FaultPlan, RepairController, Scrubber
from repro.raid import BlockDevice
from repro.store import ArrayStore
from repro.traces import generate_trace

N = 8
SIZE_ENVS = (
    "REPRO_BENCH_SCRUB_CHUNK",
    "REPRO_BENCH_SCRUB_STRIPES",
    "REPRO_BENCH_SCRUB_REQUESTS",
)
CHUNK = int(os.environ.get("REPRO_BENCH_SCRUB_CHUNK", "4096"))
STRIPES = int(os.environ.get("REPRO_BENCH_SCRUB_STRIPES", "64"))
REQUESTS = int(os.environ.get("REPRO_BENCH_SCRUB_REQUESTS", "400"))
THROTTLES = (64, 1024)

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_scrub.json"


def _record(name, lines, key, value):
    """Print one experiment's table and keep its numbers under ``key``.

    At full size that rewrites ``results/<name>.txt`` and the entry in
    ``BENCH_scrub.json``; a reduced run only prints, and writes the
    entry to the ``REPRO_BENCH_JSON`` file if one is named.
    """
    path = record_target(name, lines, JSON_PATH, SIZE_ENVS)
    if path is None:
        return
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["config"] = {
        "code": "tip", "n": N, "stripes": STRIPES, "chunk_bytes": CHUNK,
    }
    payload[key] = value
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _populate(store):
    pattern = (
        np.arange(store.capacity_bytes, dtype=np.int64) % 251
    ).astype(np.uint8)
    store.write_bytes(0, pattern)
    return pattern


def _timed_scrub(store, batch=8):
    scrubber = Scrubber(store, batch_stripes=batch)
    start = time.perf_counter()
    report = scrubber.run()
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_scrub_throughput():
    code = make_code("tip", N)
    rows = []
    result = {}
    with tempfile.TemporaryDirectory(prefix="bench-scrub-") as tmpdir:
        with ArrayStore(
            code, tmpdir, stripes=STRIPES, chunk_bytes=CHUNK
        ) as store:
            _populate(store)
            for label, plan in (
                ("clean", None),
                (
                    "faulty",
                    FaultPlan(seed=5)
                    .latent(disk=1, rate=0.02)
                    .bit_flip(disk=3, lba=7),
                ),
            ):
                store.set_fault_plan(plan)
                report, elapsed = _timed_scrub(store)
                store.set_fault_plan(None)
                scanned_mb = report.io.chunks_read * CHUNK / (1 << 20)
                stripes_s = report.stripes_scanned / elapsed
                entry = {
                    "stripes_scanned": report.stripes_scanned,
                    "errors_found": report.errors_found,
                    "errors_fixed": report.errors_fixed,
                    "unfixable": report.unfixable,
                    "seconds": round(elapsed, 4),
                    "stripes_per_s": round(stripes_s, 1),
                    "scan_mb_per_s": round(scanned_mb / elapsed, 1),
                }
                fraction = report.detection_fraction()
                if fraction is not None:
                    entry["detection_fraction"] = round(fraction, 3)
                result[label] = entry
                rows.append([
                    label, report.stripes_scanned, report.errors_found,
                    report.errors_fixed, report.unfixable,
                    f"{stripes_s:.0f}", f"{scanned_mb / elapsed:.1f}",
                ])
                assert report.unfixable == 0, label
                if label == "faulty":
                    assert report.errors_found >= 1
                    assert report.errors_fixed == report.errors_found
            # Repairs restored the stripes, not just silenced errors.
            assert store.scrub() == []
    _record(
        "bench_scrub",
        [
            f"code=tip n={N} stripes={STRIPES} chunk={CHUNK}",
            *format_table(
                ["pass", "stripes", "errors", "fixed", "unfixable",
                 "stripes/s", "MB/s"],
                rows,
            ),
        ],
        "scrub",
        result,
    )


def _faulty_replay(trace, throttle):
    code = make_code("tip", N)
    plan = FaultPlan(seed=11).fail_stop(disk=2, at_op=40)
    with tempfile.TemporaryDirectory(prefix="bench-scrub-") as tmpdir:
        with ArrayStore(
            code, tmpdir, stripes=STRIPES, chunk_bytes=CHUNK,
            fault_plan=plan,
        ) as store:
            repair = RepairController(store, max_chunks_per_tick=throttle)
            device = BlockDevice(store)
            start = time.perf_counter()
            result = device.replay(trace, repair=repair, scrub_every=10)
            elapsed = time.perf_counter() - start
            assert repair.stats.fail_stops_handled == 1
            assert not store.failed
            store.set_fault_plan(None)
            assert store.scrub() == []
            image = store.read_bytes(0, store.capacity_bytes).copy()
    return result, repair.stats, elapsed, image


def _clean_replay(trace):
    code = make_code("tip", N)
    with tempfile.TemporaryDirectory(prefix="bench-scrub-") as tmpdir:
        with ArrayStore(
            code, tmpdir, stripes=STRIPES, chunk_bytes=CHUNK
        ) as store:
            BlockDevice(store).replay(trace)
            return store.read_bytes(0, store.capacity_bytes).copy()


def test_degraded_replay_throttle_impact():
    """Tighter repair throttle -> longer degraded window -> more chunk
    reads; contents identical at every setting, and every rebuilt stripe
    costs exactly its footprint in chunk I/O."""
    trace = generate_trace("src2_0", requests=REQUESTS, seed=42)
    reference = _clean_replay(trace)
    footprint = len(make_code("tip", N).nonempty_positions)
    rows = []
    sweep = {}
    reads_by_throttle = []
    for throttle in THROTTLES:
        result, stats, elapsed, image = _faulty_replay(trace, throttle)
        assert np.array_equal(
            np.asarray(image), np.asarray(reference)
        ), throttle
        # Survivors are read once and the failed cells written once.
        assert (
            stats.rebuild_io.total_chunks == stats.stripes_rebuilt * footprint
        ), (throttle, stats.rebuild_io, stats.stripes_rebuilt)
        reads = result.io.chunks_read
        reads_by_throttle.append(reads)
        rows.append([
            throttle, f"{elapsed:.3f}", stats.stripes_rebuilt,
            reads, result.retried_requests,
        ])
        sweep[str(throttle)] = {
            "seconds": round(elapsed, 4),
            "stripes_rebuilt": stats.stripes_rebuilt,
            "chunk_reads": reads,
            "rebuild_chunk_ios": stats.rebuild_io.total_chunks,
            "requests_retried": result.retried_requests,
        }
    # The tightest throttle keeps the array degraded longest, so its
    # measured reads (reconstruction fan-in) can never drop below the
    # loosest setting's.
    assert reads_by_throttle[0] >= reads_by_throttle[-1], reads_by_throttle
    _record(
        "bench_scrub_throttle",
        [
            f"code=tip n={N} stripes={STRIPES} chunk={CHUNK} "
            f"requests={REQUESTS} fail_stop=disk2@op40",
            *format_table(
                ["chunks/tick", "seconds", "rebuilt", "chunk reads",
                 "retries"],
                rows,
            ),
        ],
        "degraded_replay",
        sweep,
    )


def main(argv):
    """Script entry: ``--smoke`` runs the tiny CI configuration."""
    import pytest

    if "--smoke" in argv:
        os.environ.setdefault("REPRO_BENCH_SCRUB_STRIPES", "16")
        os.environ.setdefault("REPRO_BENCH_SCRUB_REQUESTS", "120")
        os.environ.setdefault("REPRO_BENCH_SCRUB_CHUNK", "1024")
    return pytest.main([__file__, "-q"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
