"""Latency vs offered load through the concurrent block service.

The serial benchmarks answer "what does one caller cost"; this one
answers the service-layer question PR 6 exists for: what happens to
request latency when *N* closed-loop callers contend on one array.
Each sweep point replays the same write-heavy Table III trace split
into N disjoint stripe partitions (:func:`repro.service.split_disjoint`)
through :class:`repro.service.BlockService`, recording throughput and
p50/p99/mean request latency — offered load is the worker count, the
closed-loop load-generator convention.

Two guards make the sweep evidence rather than narrative:

* **serial equivalence** — at one sweep point the concurrent replay's
  final device image must be byte-identical to replaying the same
  partitions back-to-back serially, with identical aggregate
  ``IoCounters`` (the PR's acceptance criterion, run on every CI pass);
* **repair under load** — one configuration runs with fault injection
  and throttled background repair ticks active, and must still finish
  with a clean scrub.

A second experiment sweeps the *batched* request path: an open-loop
submitter keeps the service's held set full
(:func:`repro.service.replay_batched`) at batch sizes 1/4/16/64, guarded
by counters: byte-level and ``IoCounters`` equivalence against the
per-request path, batch 1 *being* the per-request path (one batch per
request, the unbatched replay's exact syscall counts, which are its
requests' planned span counts), and batch 16's exact backing-file
syscall count (1,688 at full size; about 3.7x fewer than batch 1's
6,239), the same in every round. Throughput ratios are recorded, not
asserted.

At full size, results land in ``results/bench_service*.txt`` and
``BENCH_service.json`` (p50/p99 per concurrency level and per batch
size, plus the repair-active configuration). Every record carries
``host_cpus``, the service's admission counters, and the syscall meter,
so throughput numbers can be attributed across machines. A run with
``REPRO_BENCH_SERVICE_REQUESTS`` set leaves those records alone: it
prints its tables and, when ``REPRO_BENCH_JSON`` names a file, writes
its numbers there.
"""

import json
import os
import statistics
import tempfile
from pathlib import Path

import numpy as np

from _common import format_table, record_target
from repro.codes import make_code
from repro.faults import FaultPlan, RepairController, Scrubber
from repro.raid import BlockDevice
from repro.service import replay_batched, replay_concurrent, split_disjoint
from repro.store import ArrayStore
from repro.traces import generate_trace

N = 8
CHUNK = 4096
STRIPES = 64
SIZE_ENV = "REPRO_BENCH_SERVICE_REQUESTS"
REQUESTS = int(os.environ.get(SIZE_ENV, "600"))
WORKLOAD = "prxy_0"
CONCURRENCY_LEVELS = (1, 2, 4, 8)
BATCH_LEVELS = (1, 4, 16, 64)
#: Interleaved measurement rounds per batch-sweep configuration; the
#: recorded speedups are medians of per-round ratios (drift control).
ROUNDS = 3
EQUIVALENCE_LEVEL = 4
REPAIR_LEVEL = 4
REPAIR_EVERY = 25
FAULT_SPEC = "seed=11;latent:disk=2,rate=0.002;transient:disk=4,rate=0.002"

#: Backing-file syscalls batch 16 issues, by request count. Batches are
#: carved from the held set by the request stream alone, so the count is
#: exact; these were named from a model of the carving rule before the
#: service was measured. Both sit under the floors the sweep kept while
#: a timed window composed the batches: 2,013 and 1,360, a quarter and
#: a third of the 8,052 and 4,081 syscalls the per-request path issued
#: when delta runs moved one chunk per syscall.
BATCH16_SYSCALLS = {600: 1688, 300: 1037}

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_service.json"


def _make_store(tmpdir, fault_plan=None):
    store = ArrayStore(
        make_code("tip", N), tmpdir, stripes=STRIPES, chunk_bytes=CHUNK,
        cache_stripes=0,
    )
    if fault_plan is not None:
        store.set_fault_plan(fault_plan)
    return store


def _point(result):
    point = {
        "workers": result.workers,
        "requests": result.requests,
        "throughput_iops": round(result.throughput_iops, 1),
        "p50_latency_ms": round(result.p50_latency_ms, 4),
        "p99_latency_ms": round(result.p99_latency_ms, 4),
        "mean_latency_ms": round(result.mean_latency_ms, 4),
        "retried_requests": result.retried_requests,
        "repair_ticks": result.repair_ticks,
        "host_cpus": result.host_cpus,
        "contention": dict(result.contention or {}),
        "batch_size": result.batch_size,
        "batches": result.batches,
    }
    if result.syscalls is not None:
        point["syscalls"] = {
            "reads": result.syscalls.reads,
            "writes": result.syscalls.writes,
            "vector_reads": result.syscalls.vector_reads,
            "vector_writes": result.syscalls.vector_writes,
            "total": result.syscalls.total,
            "per_request": round(result.syscalls_per_request, 2),
        }
    return point


def _record(name, lines, **sections):
    """Print one experiment's table and fold its sections into the
    record.

    At full size that rewrites ``results/<name>.txt`` and the sections'
    keys in ``BENCH_service.json``; a reduced run only prints, and
    merges the sections into the ``REPRO_BENCH_JSON`` file if one is
    named. The worker sweep and the batch sweep are separate tests;
    each rewrites only its own top-level keys so a partial run (``-x``,
    or a single ``-k`` selection) never clobbers the other's record.
    """
    path = record_target(name, lines, JSON_PATH, (SIZE_ENV,))
    if path is None:
        return
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(
        code="tip",
        n=N,
        chunk_bytes=CHUNK,
        stripes=STRIPES,
        requests=REQUESTS,
        trace=WORKLOAD,
    )
    payload.update(sections)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def _row(label, result):
    return [
        label, result.workers, f"{result.throughput_iops:.0f}",
        f"{result.p50_latency_ms:.3f}", f"{result.p99_latency_ms:.3f}",
        f"{result.mean_latency_ms:.3f}", result.repair_ticks,
    ]


def test_service_latency_vs_offered_load():
    """Sweep closed-loop workers; guard equivalence and record latency."""
    trace = generate_trace(WORKLOAD, requests=REQUESTS, seed=42)
    rows = []
    sweep = []

    for workers in CONCURRENCY_LEVELS:
        with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmpdir:
            with _make_store(tmpdir) as store:
                parts = split_disjoint(trace, workers, store)
                result = replay_concurrent(store, parts)
                image = store.read_bytes(0, store.capacity_bytes).copy()
        assert result.requests == REQUESTS
        assert len(result.latencies_ms) == REQUESTS
        assert result.p99_latency_ms >= result.p50_latency_ms
        rows.append(_row("healthy", result))
        sweep.append(_point(result))

        if workers == EQUIVALENCE_LEVEL:
            # The acceptance criterion: concurrent replay of disjoint
            # partitions ≡ serial replay, byte for byte and counter for
            # counter.
            with tempfile.TemporaryDirectory(prefix="bench-svc-") as ref:
                with _make_store(ref) as serial:
                    before = serial.io.snapshot()
                    device = BlockDevice(serial)
                    for part in parts:
                        device.replay(part)
                    serial_io = serial.io.snapshot() - before
                    serial_image = serial.read_bytes(
                        0, serial.capacity_bytes
                    ).copy()
            assert np.array_equal(image, serial_image), workers
            assert result.io == serial_io, workers

    # One configuration with background repair arbitrated against the
    # foreground: injected faults, one throttled tick per REPAIR_EVERY
    # completed requests, and a clean scrub at the end.
    plan = FaultPlan.parse(FAULT_SPEC)
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmpdir:
        with _make_store(tmpdir, fault_plan=plan) as store:
            repair = RepairController(store)
            parts = split_disjoint(trace, REPAIR_LEVEL, store)
            result = replay_concurrent(
                store, parts, repair=repair, repair_every=REPAIR_EVERY
            )
            store.set_fault_plan(None)  # audit, don't mint new faults
            report = Scrubber(store).run()
    assert report.unfixable == 0, report.summary()
    assert result.repair_ticks == REQUESTS // REPAIR_EVERY
    rows.append(_row("repair-on", result))
    repair_active = {
        **_point(result),
        "fault_spec": FAULT_SPEC,
        "repair_every": REPAIR_EVERY,
        "faults_injected": plan.stats.latent_minted
        + plan.stats.fail_stops,
        "scrub": report.summary(),
    }

    _record(
        "bench_service",
        [
            f"code=tip n={N} stripes={STRIPES} chunk={CHUNK} "
            f"requests={REQUESTS} trace={WORKLOAD}",
            *format_table(
                ["config", "workers", "req/s", "p50 ms", "p99 ms",
                 "mean ms", "ticks"],
                rows,
            ),
        ],
        sweep=sweep,
        repair_active=repair_active,
    )


def _batch_row(label, result):
    return [
        label,
        result.batch_size if result.batch_size else "-",
        f"{result.throughput_iops:.0f}",
        f"{result.p50_latency_ms:.3f}",
        f"{result.p99_latency_ms:.3f}",
        f"{result.syscalls_per_request:.1f}",
        result.batches,
    ]


def test_service_batched_throughput_sweep():
    """Sweep batch size under a standing open-loop queue.

    The worker sweep above is closed-loop, so it can never offer more
    than ``workers`` concurrent requests and batches would starve; here
    one submitter pushes the whole trace through
    :func:`repro.service.replay_batched`'s held window instead, and
    span coalescing actually engages. Three guards, all on counters,
    so none depends on the machine's timing:

    * **equivalence** — every batch size must produce the same device
      bytes and the same aggregate chunk ``IoCounters`` as the
      per-request path (coalescing is invisible at the chunk ledger);
    * **batch 1 is the per-request path** — it dispatches exactly one
      batch per request, inline, and issues exactly the unbatched
      replay's backing-file syscalls;
    * **exact batch-16 syscalls** — batch 16 must issue exactly
      ``BATCH16_SYSCALLS`` backing-file syscalls in every round: 1,688
      at full size and 1,037 at 300 requests, 3.7x and 3.0x fewer than
      batch 1's 6,239 and 3,155. Batch composition is a pure function
      of the trace (the enqueue that finds the held set full carves one
      batch from it; the first wait runs the rest), so the count
      repeats exactly. At any other request count every round must
      issue the same count.

    Throughput is recorded, not asserted: wall-clock ratios between
    batch sizes moved with every per-request or span-path speedup and
    with the host's drift. Every configuration is measured once per
    round, rounds repeat, and the record keeps the **median of the
    per-round ratios** — pairing cancels the drift, the median sheds
    the outliers.
    """
    trace = generate_trace(WORKLOAD, requests=REQUESTS, seed=42)

    def measure_unbatched():
        # Per-request baseline: single closed-loop worker, batch_size=0.
        # The one-partition split folds offsets into capacity the same
        # way the replay helpers do; reusing the folded trace for the
        # batched runs keeps the deterministic offset-derived payloads
        # identical.
        with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmpdir:
            with _make_store(tmpdir) as store:
                parts = split_disjoint(trace, 1, store)
                result = replay_concurrent(store, parts)
                image = store.read_bytes(0, store.capacity_bytes).copy()
                planned = sum(
                    store.planner.plan_batch(
                        [(request.is_write, request.offset, request.length)]
                    ).span_ios
                    for request in parts[0].requests
                )
        assert result.requests == REQUESTS
        # Each request runs as its planned span passes, one syscall a span.
        assert result.syscalls.total == planned, (result.syscalls, planned)
        return result, image, parts[0]

    def measure_batched(batch):
        with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmpdir:
            with _make_store(tmpdir) as store:
                result = replay_batched(store, folded, batch_size=batch)
                image = store.read_bytes(0, store.capacity_bytes).copy()
        assert result.requests == REQUESTS
        assert np.array_equal(image, base_image), batch
        assert result.io == base_io, batch
        return result

    order = ("base", *BATCH_LEVELS)
    runs = {key: [] for key in order}
    base_image = base_io = folded = None
    for _ in range(ROUNDS):
        for key in order:
            if key == "base":
                result, image, part = measure_unbatched()
                if base_image is None:
                    base_image, base_io, folded = image, result.io, part
                else:
                    assert np.array_equal(image, base_image)
                    assert result.io == base_io
            else:
                result = measure_batched(key)
            runs[key].append(result)

    def med_ratio(numerator, denominator):
        """Median over rounds of the paired throughput ratio."""
        return statistics.median(
            num.throughput_iops / den.throughput_iops
            for num, den in zip(runs[numerator], runs[denominator])
        )

    best = {
        key: max(runs[key], key=lambda r: r.throughput_iops)
        for key in order
    }
    base = best["base"]
    rows = [_batch_row("unbatched", base)]
    rows += [_batch_row("batched", best[batch]) for batch in BATCH_LEVELS]
    points = [_point(best[batch]) for batch in BATCH_LEVELS]

    b1, b16 = best[1], best[16]
    # Batch 1 is the per-request path: one inline batch per request and
    # exactly the unbatched replay's syscalls (and chunk I/O, above).
    for result in runs[1]:
        assert result.batches == REQUESTS, result.batches
        assert result.syscalls == runs["base"][0].syscalls, (
            result.syscalls,
            runs["base"][0].syscalls,
        )
    # Batch 16's count is exact, and the same in every round.
    expected = BATCH16_SYSCALLS.get(REQUESTS, runs[16][0].syscalls.total)
    for result in runs[16]:
        assert result.syscalls.total == expected, (result.syscalls, expected)
    b1_vs_base = med_ratio(1, "base")
    speedup = {
        batch: round(med_ratio(batch, 1), 3) for batch in BATCH_LEVELS
    }

    _record(
        "bench_service_batched",
        [
            f"code=tip n={N} stripes={STRIPES} chunk={CHUNK} "
            f"requests={REQUESTS} trace={WORKLOAD} open-loop",
            *format_table(
                ["config", "batch", "req/s", "p50 ms", "p99 ms",
                 "sys/req", "batches"],
                rows,
            ),
            f"median speedup vs batch=1 over {ROUNDS} rounds: {speedup}",
            "syscall reduction b16 vs b1: "
            f"{b1.syscalls.total / b16.syscalls.total:.1f}x",
        ],
        batch_sweep={
            "baseline_unbatched": _point(base),
            "points": points,
            "rounds": ROUNDS,
            "b1_vs_unbatched_median_ratio": round(b1_vs_base, 3),
            "speedup_vs_batch1": {
                str(batch): speedup[batch] for batch in BATCH_LEVELS
            },
            "syscall_reduction_b16_vs_b1": round(
                b1.syscalls.total / b16.syscalls.total, 2
            ),
        },
    )
