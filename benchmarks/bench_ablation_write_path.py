"""Ablation: read-modify-write vs. reconstruct-write vs. auto selection.

The paper's response-time evaluation models RMW throughout; this ablation
quantifies what the classic large-write optimization would add on top of
TIP, and confirms the auto strategy never issues more element I/Os.

It also measures the same trade-off *end to end* on the file-backed
``ArrayStore``: the delta small-write fast path against the naive
full-stripe path on single-chunk writes, and delta against
reconstruct-write and the full-stripe path on partial-stripe runs. The
guards are the store's exact chunk and syscall counters; wall-clock
time is recorded, not asserted.
"""

import tempfile
import time

import numpy as np
from _common import code_for, emit, format_table

from repro.disksim import ArraySimulator, RaidController
from repro.store import ArrayStore
from repro.traces import TraceRequest, generate_trace

CHUNK = 8 * 1024
STRATEGIES = ("rmw", "rcw", "auto")
STORE_MODES = ("delta", "stripe")
#: Partial-stripe path → the ``write_mode`` that takes it for a 20-chunk
#: run of TIP n=8 (``auto`` picks reconstruct-write there).
PARTIAL_MODES = {"delta": "delta", "rcw": "auto", "stripe": "stripe"}


def io_counts_by_run_length(n: int = 12):
    """Element I/Os per strategy as the written run grows."""
    code = code_for("tip", n)
    controllers = {
        s: RaidController(code, CHUNK, write_strategy=s) for s in STRATEGIES
    }
    table = {}
    for chunks in (1, 2, 4, 8, 16, code.num_data - 1):
        request = TraceRequest(0.0, 0, chunks * CHUNK, True)
        table[chunks] = {
            s: controllers[s].plan(request).total_ios for s in STRATEGIES
        }
    return table


def response_times(n: int = 12):
    trace = generate_trace("usr_0", requests=900, seed=13).stretched(4.0)
    code = code_for("tip", n)
    return {
        s: ArraySimulator(code, CHUNK, write_strategy=s, seed=2)
        .run(trace)
        .mean_response_ms
        for s in STRATEGIES
    }


def test_ablation_write_path_io_counts(benchmark):
    table = benchmark.pedantic(io_counts_by_run_length, rounds=1, iterations=1)
    rows = [
        [str(chunks)] + [str(table[chunks][s]) for s in STRATEGIES]
        for chunks in table
    ]
    emit(
        "ablation_write_path_ios",
        format_table(["run (chunks)"] + list(STRATEGIES), rows),
    )
    for chunks, counts in table.items():
        assert counts["auto"] == min(counts.values()), chunks
    # Small writes: RMW wins; near-full-stripe: RCW wins.
    first = min(table)
    last = max(table)
    assert table[first]["rmw"] <= table[first]["rcw"]
    assert table[last]["rcw"] < table[last]["rmw"]


def store_delta_vs_full(
    n: int = 8,
    stripes: int = 4,
    chunk_bytes: int = 4096,
    writes: int = 200,
):
    """Single-chunk writes through the real file-backed store."""
    results = {}
    rng = np.random.default_rng(7)
    for mode in STORE_MODES:
        with tempfile.TemporaryDirectory(prefix=f"store-{mode}-") as tmp:
            store = ArrayStore(
                code_for("tip", n),
                tmp,
                stripes=stripes,
                chunk_bytes=chunk_bytes,
                write_mode=mode,
            )
            store.write_chunks(
                0,
                rng.integers(
                    0,
                    256,
                    size=(store.capacity_chunks, chunk_bytes),
                    dtype=np.uint8,
                ),
            )
            payloads = rng.integers(
                0, 256, size=(writes, 1, chunk_bytes), dtype=np.uint8
            )
            targets = rng.integers(0, store.capacity_chunks, size=writes)
            before = store.io.snapshot()
            start = time.perf_counter()
            for target, payload in zip(targets, payloads):
                store.write_chunks(int(target), payload)
            elapsed = time.perf_counter() - start
            delta_io = store.io - before
            assert store.scrub() == []
            results[mode] = {
                "writes": writes,
                "seconds": elapsed,
                "chunk_ios": delta_io.total_chunks,
                "parity_writes": delta_io.parity_chunks_written,
                "us_per_write": elapsed / writes * 1e6,
            }
    return results


def test_ablation_store_delta_path(benchmark):
    """The delta fast path beats full-stripe on single-chunk writes by
    exact chunk I/O counts; wall-clock time is recorded only."""
    results = benchmark.pedantic(store_delta_vs_full, rounds=1, iterations=1)
    rows = [
        [
            mode,
            str(results[mode]["chunk_ios"]),
            str(results[mode]["parity_writes"]),
            f"{results[mode]['us_per_write']:.0f}",
        ]
        for mode in STORE_MODES
    ]
    emit(
        "ablation_store_delta_path",
        format_table(
            ["mode", "chunk I/Os", "parity chunk writes", "us/write"], rows
        ),
    )
    delta, stripe = results["delta"], results["stripe"]
    writes = delta["writes"]
    # TIP's optimal footprint: 8 chunk I/Os per single-chunk write
    # (1 data + 3 parity, read and written), vs a whole stripe both ways
    # (48 stored chunks on TIP n=8).
    assert delta["chunk_ios"] == 8 * writes
    assert delta["parity_writes"] == 3 * writes
    assert stripe["chunk_ios"] == 2 * 48 * writes
    assert delta["chunk_ios"] < stripe["chunk_ios"] / 3


def store_partial_stripe(
    n: int = 8,
    stripes: int = 4,
    chunk_bytes: int = 4096,
    run_chunks: int = 20,
    writes: int = 60,
):
    """Aligned ``run_chunks``-chunk runs from the head of random stripes,
    through the real store on each partial-stripe path."""
    results = {}
    rng = np.random.default_rng(11)
    code = code_for("tip", n)
    for path, mode in PARTIAL_MODES.items():
        with tempfile.TemporaryDirectory(prefix=f"partial-{path}-") as tmp:
            store = ArrayStore(
                code, tmp, stripes=stripes, chunk_bytes=chunk_bytes,
                write_mode=mode,
            )
            store.write_chunks(
                0,
                rng.integers(
                    0, 256, size=(store.capacity_chunks, chunk_bytes),
                    dtype=np.uint8,
                ),
            )
            assert store.planner.plan_write_run(0, run_chunks).path == path
            payloads = rng.integers(
                0, 256, size=(writes, run_chunks, chunk_bytes), dtype=np.uint8
            )
            targets = rng.integers(0, stripes, size=writes) * code.num_data
            before = store.io.snapshot()
            calls = store.syscalls.snapshot()
            start = time.perf_counter()
            for target, payload in zip(targets, payloads):
                store.write_chunks(int(target), payload)
            elapsed = time.perf_counter() - start
            used = store.io - before
            syscalls = (store.syscalls - calls).total
            assert store.scrub() == []
            results[path] = {
                "writes": writes,
                "seconds": elapsed,
                "chunk_ios": used.total_chunks,
                "syscalls": syscalls,
                "us_per_write": elapsed / writes * 1e6,
            }
            store.close()
    return results


def test_ablation_store_partial_stripe(benchmark):
    """A 20-chunk run of a TIP n=8 stripe: reconstruct-write moves the
    fewest chunks, and every path issues one span I/O per disk and
    direction it touches. Exact counts per write; wall-clock time is
    recorded only."""
    results = benchmark.pedantic(store_partial_stripe, rounds=1, iterations=1)
    rows = [
        [
            path,
            str(results[path]["chunk_ios"] // results[path]["writes"]),
            str(results[path]["syscalls"] // results[path]["writes"]),
            f"{results[path]['us_per_write']:.0f}",
        ]
        for path in PARTIAL_MODES
    ]
    emit(
        "ablation_store_partial_stripe",
        format_table(
            ["path", "chunk I/Os/write", "syscalls/write", "us/write"], rows
        ),
    )
    # Rows 0-3 of the stripe are overwritten: 20 data + 16 dependent
    # parity chunks. Delta reads and writes those 36, one preadv and one
    # pwritev per disk; RCW reads the 10 data chunks of rows 4-5 (one
    # preadv on each of disks 0-6) and writes the 36 (one pwritev on
    # each of the 8 disks); the stripe path reads and writes all 48 (one
    # preadv and one pwritev per disk).
    expected = {"delta": (72, 16), "rcw": (46, 15), "stripe": (96, 16)}
    for path, (chunk_ios, syscalls) in expected.items():
        writes = results[path]["writes"]
        assert results[path]["chunk_ios"] == chunk_ios * writes, path
        assert results[path]["syscalls"] == syscalls * writes, path


def test_ablation_write_path_response_time(benchmark):
    times = benchmark.pedantic(response_times, rounds=1, iterations=1)
    rows = [[s, f"{times[s]:.2f}"] for s in STRATEGIES]
    emit(
        "ablation_write_path_latency",
        format_table(["strategy", "mean response ms"], rows),
    )
    # Auto must not be slower than always-RMW beyond noise.
    assert times["auto"] <= times["rmw"] * 1.05
