"""Write-back cache ablation: cache-on vs cache-off trace replay.

Replays the write-heavy Table III workloads (plus a locality-stressed
synthetic) against the real file-backed store with the write-back stripe
cache (:mod:`repro.raid.cache`) swept over capacities, measuring what
the per-request numbers of Fig. 12 leave on the floor: when a trace
revisits a stripe, TIP's three independent parity deltas XOR-coalesce
across requests and commit once per flush, so the *measured* parity
chunk writes fall below requests x (faults + 1) even though every
individual write is already update-optimal.

The workload specs are re-volumed to the replay device's capacity:
trace offsets wrap modulo device size anyway, and keeping the published
hot-region fraction *of the actual device* preserves the locality the
cache exists to exploit (a 16 GB hot region folded onto a 7.5 MiB
device is just uniform noise).

Two cross-checks make the sweep evidence rather than narrative:

* the cache's ``raw_io`` pricing (what the request stream would have
  cost uncached, priced per run with the store's own planner) must
  equal the *measured* counters of the genuinely uncached baseline
  replay, field for field;
* the cached replay's final device image must be byte-identical to the
  uncached one (same trace, deterministic payloads), and scrub clean.

At full size, results land in ``results/bench_cache.txt`` and
``BENCH_cache.json`` (hit rate + parity-writes-per-request per workload
and cache size). A run with ``REPRO_BENCH_CACHE_REQUESTS`` set leaves
those records alone: it prints its table and, when ``REPRO_BENCH_JSON``
names a file, writes its numbers there.
The amortization assertions are the CI guard the issue asks for:
coalesced parity writes <= uncached at every size, and strictly fewer
with amortization > 1.5x once the cache holds 8+ stripes.
"""

import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from _common import format_table, record_target
from repro.codes import make_code
from repro.raid import BlockDevice
from repro.store import ArrayStore
from repro.traces import generate_trace
from repro.traces.synthetic import TABLE3_WORKLOADS, WorkloadSpec

N = 8
CHUNK = 4096
STRIPES = 64
SIZE_ENV = "REPRO_BENCH_CACHE_REQUESTS"
REQUESTS = int(os.environ.get(SIZE_ENV, "500"))
CACHE_SIZES = (4, 8, 16, 32)
TABLE3_PICKS = ("prxy_0", "src2_0")

#: Acceptance bar: at this cache size and beyond, every write-heavy
#: workload must measure strictly fewer parity chunk writes than the
#: uncached replay, and the locality-stressed trace must beat it by
#: more than this factor (the Table III specs re-volumed here hover
#: around ~1.5x at 8 stripes; the bound with margin belongs to the
#: workload built to have reusable stripes).
AMORTIZATION_AT = 8
MIN_AMORTIZATION = 1.5
AMORTIZATION_WORKLOAD = "hot_writes"

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_cache.json"


def _capacity_bytes() -> int:
    code = make_code("tip", N)
    return STRIPES * code.num_data * CHUNK


def _workload_specs() -> dict[str, WorkloadSpec]:
    """Benchmark workloads, re-volumed to the replay device."""
    volume_gb = _capacity_bytes() / (1 << 30)
    specs = {
        name: replace(TABLE3_WORKLOADS[name], volume_gb=volume_gb)
        for name in TABLE3_PICKS
    }
    # Locality-stressed: nearly pure small writes with the standard
    # 80/20 hot region, volumed at half the device so the hot region
    # (~6 stripes) fits inside an 8-stripe cache — the workload shape
    # the write-back cache is for.
    specs["hot_writes"] = WorkloadSpec(
        "hot_writes", REQUESTS, 200.0, 0.97, 4.0,
        sequential_fraction=0.30, volume_gb=volume_gb / 2,
    )
    return specs


def _replay(trace, cache_stripes, return_image=False):
    """Replay ``trace`` on a fresh store; optionally return the device
    image read back after the final flush."""
    code = make_code("tip", N)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmpdir:
        with ArrayStore(
            code, tmpdir, stripes=STRIPES, chunk_bytes=CHUNK,
            cache_stripes=cache_stripes,
        ) as store:
            result = BlockDevice(store).replay(trace)
            image = (
                store.read_bytes(0, store.capacity_bytes).copy()
                if return_image
                else None
            )
            corrupt = store.scrub()
    assert corrupt == [], (cache_stripes, corrupt)
    return (result, image) if return_image else result


def _assert_counters_equal(pricing, measured, context):
    assert pricing.data_chunks_read == measured.data_chunks_read, context
    assert pricing.parity_chunks_read == measured.parity_chunks_read, context
    assert (
        pricing.data_chunks_written == measured.data_chunks_written
    ), context
    assert (
        pricing.parity_chunks_written == measured.parity_chunks_written
    ), context


def test_cache_replay_ablation():
    """Sweep cache size per workload; record + guard the amortization."""
    rows = []
    payload = {
        "code": "tip",
        "n": N,
        "chunk_bytes": CHUNK,
        "stripes": STRIPES,
        "requests": REQUESTS,
        "workloads": {},
    }
    for name, spec in _workload_specs().items():
        trace = generate_trace(spec, requests=REQUESTS, seed=42)
        baseline = _replay(trace, 0)
        base_parity = baseline.io.parity_chunks_written
        writes = max(baseline.writes, 1)
        rows.append(
            [name, 0, "-", base_parity, f"{base_parity / writes:.2f}", "-"]
        )
        sweep = {
            "0": {
                "parity_chunk_writes": base_parity,
                "parity_writes_per_request": round(base_parity / writes, 3),
            }
        }
        for size in CACHE_SIZES:
            result = _replay(trace, size)
            cache = result.cache
            # The cache's uncached pricing must equal the measured
            # uncached baseline — raw_io is evidence, not an estimate.
            _assert_counters_equal(cache.raw_io, baseline.io, (name, size))
            parity = result.io.parity_chunks_written
            amortization = cache.parity_write_amortization
            # JSON-safe: inf (parity absorbed, none flushed yet) becomes
            # null — json.dumps would emit the non-standard `Infinity`.
            finite = cache.parity_write_amortization_or_none
            rows.append([
                name, size, f"{cache.hit_rate:.1%}", parity,
                f"{parity / writes:.2f}",
                f"{amortization:.2f}" if finite is not None else "inf",
            ])
            sweep[str(size)] = {
                "hit_rate": round(cache.hit_rate, 4),
                "parity_chunk_writes": parity,
                "parity_writes_per_request": round(parity / writes, 3),
                "parity_write_amortization": (
                    round(finite, 3) if finite is not None else None
                ),
                "chunk_ios_saved": cache.chunk_ios_saved,
            }
            assert parity <= base_parity, (name, size, parity, base_parity)
            if size >= AMORTIZATION_AT:
                assert parity < base_parity, (name, size)
                if name == AMORTIZATION_WORKLOAD:
                    assert amortization > MIN_AMORTIZATION, (
                        name, size, amortization,
                    )
        payload["workloads"][name] = {
            "write_fraction": spec.write_fraction,
            "write_requests": baseline.writes,
            "sweep": sweep,
        }
    lines = [
        f"code=tip n={N} stripes={STRIPES} chunk={CHUNK} requests={REQUESTS}",
        *format_table(
            ["workload", "cache", "hit rate", "parity writes",
             "parity/write", "amortization"],
            rows,
        ),
    ]
    path = record_target("bench_cache", lines, JSON_PATH, (SIZE_ENV,))
    if path is None:
        return
    # allow_nan=False: any inf/nan sneaking into the payload is a bug in
    # the metrics, not something to serialize as non-standard JSON.
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def test_cached_replay_content_matches_uncached():
    """Same trace, same final bytes — with and without the cache."""
    spec = _workload_specs()["hot_writes"]
    trace = generate_trace(spec, requests=min(REQUESTS, 300), seed=7)
    _, uncached_image = _replay(trace, 0, return_image=True)
    _, cached_image = _replay(trace, AMORTIZATION_AT, return_image=True)
    assert np.array_equal(uncached_image, cached_image)
