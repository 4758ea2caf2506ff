"""Execution-engine ablation: interpreted vs compiled.

Not a figure of the paper — this tracks the *engine* itself: the same
XOR schedules executed by the interpreted reference
(``XorSchedule.apply``) and by the compiled zero-allocation plan
(``StripeCodec.encode_into`` / ``decode_into``), single-threaded as in
the paper, on the Fig. 14 geometry (tip, n=12, 4 KiB packets, 32 MiB
region).

Methodology — two things make the paired ratio reproducible where
independently timed single passes swing by 40% on a noisy host:

1. Every engine is timed over the *same* warm buffers in alternating
   round-robin passes, and each engine keeps its best round. Host noise
   hits all engines equally instead of biasing whichever ran last.
2. The measurement runs in a **fresh subprocess**. The interpreted
   engine allocates its outputs and temporaries on every pass, so its
   cost depends on allocator state: in a fresh process glibc serves the
   large buffers by mmap and every pass pays the page faults, while
   after enough allocation churn (e.g. a long pytest run) it adaptively
   raises its mmap threshold and recycles arenas, hiding that cost.
   The compiled engine preallocates everything once and is immune
   either way — that immunity is the point of the design, and the
   fresh-process protocol is what a short-lived encode tool sees.

The guards are exact counts that state why the compiled engine wins:
it sweeps memory fewer times per data row on encode, executes fewer
XORs on decode, and re-acquires an evicted decoder's plan without
solving again. Speeds are recorded, never asserted. Byte-level
equivalence of the engines is asserted on the benchmark geometry (the
exhaustive check lives in tests/test_compiled_engine.py); throughputs
land in ``results/`` and, when ``REPRO_BENCH_JSON`` is set, in the JSON
file the CI smoke job publishes.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import numpy as np

N = 12
PACKET = 4096
ROUNDS = 7
DECODE_PATTERNS = 4


def _best_rounds(passes, rounds=ROUNDS):
    """Per-engine best wall time over ``rounds`` round-robin rounds."""
    for do_pass in passes.values():  # warm plans and page cache
        do_pass()
    best = dict.fromkeys(passes, float("inf"))
    for _ in range(rounds):
        for name, do_pass in passes.items():
            start = time.perf_counter()
            do_pass()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _roofline(plans):
    """Measured host ceilings for ``plans``, a list of ``(plan, width)``.

    ``xor_gib_s`` and ``memcpy_gib_s`` are the streaming rates over
    buffers far larger than any cache. ``tile_xor_gib_s`` is the ceiling
    at the tile the plans execute: in-place XOR bandwidth over one op's
    working set there, a destination row and a source row of
    ``default_tile(width)`` bytes each, repeated so both stay
    cache-resident. No memory pass of a tiled sweep can beat that op.
    Plans with different tiles combine as a harmonic mean weighted by
    their memory passes, so the ceiling prices the sweep actually run.
    """
    from repro.bitmatrix.tuning import (
        measure_memcpy_gib_s,
        measure_working_set_xor_gib_s,
        measure_xor_gib_s,
    )

    ceilings = {}
    ideal = passes = 0
    for plan, width in plans:
        tile = plan.default_tile(width)
        if tile not in ceilings:
            ceilings[tile] = measure_working_set_xor_gib_s(2 * tile)
        ideal += plan.memory_passes / ceilings[tile]
        passes += plan.memory_passes
    return {
        "memcpy_gib_s": measure_memcpy_gib_s(),
        "xor_gib_s": measure_xor_gib_s(),
        "tile_bytes": sorted(ceilings),
        "tile_xor_gib_s": passes / ideal,
    }


def _interpreted_passes(schedule):
    """Full-width memory passes of ``XorSchedule.apply``, counted as
    :attr:`CompiledPlan.memory_passes` counts them: an XOR streams its
    source once, and an assign copies (read the source, write a fresh
    packet). Run fusion opens each run with one three-address XOR
    instead of that copy, which is the pass it saves."""
    return sum(2 if op.assign else 1 for op in schedule.ops)


def _encode_probe(data_bytes):
    """Paired encode timings; returns best seconds per engine."""
    from repro.codec import StripeCodec, encode_schedule_for
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, PACKET)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)
    width = stripes * PACKET
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
    out = np.zeros((code.num_parity, width), dtype=np.uint8)
    packets = [data[i] for i in range(code.num_data)]

    passes = {
        "interpreted": lambda: codec.encode_packets(packets),
        "compiled": lambda: codec.encode_into(data, out),
    }
    best = _best_rounds(passes)
    return {
        "payload_bytes": code.num_data * width,
        "xors_per_element": codec.encode_xors / code.num_data,
        # Full-width row sweeps each engine performs per data row: the
        # compiled count converts payload GiB/s into achieved XOR-stream
        # GiB/s, and the pair states what run fusion saves.
        "passes_per_data_row": codec.encode_plan.memory_passes
        / code.num_data,
        "interpreted_passes_per_data_row": _interpreted_passes(
            encode_schedule_for(code)
        )
        / code.num_data,
        "seconds": best,
        "roofline": _roofline([(codec.encode_plan, width)]),
    }


def _decode_probe(data_bytes):
    """Paired decode timings over sampled failure patterns."""
    from repro.codec import StripeCodec
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, PACKET)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)
    width = stripes * PACKET
    rng_np = np.random.default_rng(3)
    combos = random.Random(3).sample(
        list(itertools.combinations(range(code.cols), code.faults)),
        DECODE_PATTERNS,
    )
    total = {"interpreted": 0.0, "compiled": 0.0}
    plans = []
    for combo in combos:
        decoder = code.decoder_for(combo)
        plans.append((decoder.compiled_plan(), width))
        known = rng_np.integers(
            0,
            256,
            size=(len(decoder.plan.known_positions), width),
            dtype=np.uint8,
        )
        out = np.zeros(
            (len(decoder.plan.unknown_positions), width), dtype=np.uint8
        )
        packets = [known[i] for i in range(known.shape[0])]
        passes = {
            "interpreted": lambda: decoder.plan.schedule.apply(packets),
            "compiled": lambda: codec.decode_into(combo, known, out),
        }
        best = _best_rounds(passes)
        for name, seconds in best.items():
            total[name] += seconds
    count = len(combos)
    return {
        "payload_bytes": code.num_data * width * count,
        # Dense-schedule XORs: the paper's decode cost metric (what the
        # interpreted engine executes).
        "xors_per_element": sum(
            code.decoder_for(c).xor_count for c in combos
        )
        / (code.num_data * count),
        # Fused two-stage XORs: what the compiled engine executes.
        "fused_xors_per_element": sum(
            code.decoder_for(c).fused_xor_count for c in combos
        )
        / (code.num_data * count),
        "passes_per_data_row": sum(plan.memory_passes for plan, _ in plans)
        / (code.num_data * count),
        "seconds": total,
        "plan": _plan_probe(combos),
        "roofline": _roofline(plans),
    }


def _plan_probe(combos, rounds=3):
    """Decode-plan acquisition: cost and ``Decoder._solve`` calls, cold
    vs warm vs after LRU eviction.

    ``cold`` solves the recovery system and lowers the schedule from
    scratch on a fresh code instance. ``warm`` hits the decoder LRU.
    ``evicted`` is the case the code-level caches exist for: a decoder
    cache of 1 forces every ``decoder_for`` to re-create the Decoder,
    but the recovery/compiled plan caches hand back the solved
    artifacts, so no solve runs again.
    """
    from repro.codes import make_code
    from repro.codes.base import Decoder

    solves = [0]
    solve = Decoder._solve

    def counted_solve(self):
        solves[0] += 1
        return solve(self)

    def measure(prepare, body):
        best = float("inf")
        solves[0] = 0
        for _ in range(rounds):
            state = prepare()
            start = time.perf_counter()
            body(state)
            best = min(best, time.perf_counter() - start)
        return best, solves[0] // rounds

    def acquire(code):
        return [code.decoder_for(combo).compiled_plan() for combo in combos]

    Decoder._solve = counted_solve
    try:
        cold = measure(
            lambda: [make_code("tip", N) for _ in combos],
            lambda codes: [
                c.decoder_for(combo).compiled_plan()
                for c, combo in zip(codes, combos)
            ],
        )
        warm_code = make_code("tip", N)
        acquire(warm_code)
        warm = measure(lambda: warm_code, acquire)
        evicted_code = make_code("tip", N)
        evicted_code.decoder_cache_size = 1
        acquire(evicted_code)
        evicted = measure(lambda: evicted_code, acquire)
    finally:
        Decoder._solve = solve
    return {
        "seconds": {"cold": cold[0], "warm": warm[0], "evicted": evicted[0]},
        "solves": {"cold": cold[1], "warm": warm[1], "evicted": evicted[1]},
    }


def _fresh_probe(kind, data_bytes):
    """Run a probe in a fresh interpreter so allocator state is fixed.

    Inherits the parent's environment and working directory, so a
    relative ``PYTHONPATH=src`` keeps resolving; the probe itself only
    imports ``repro`` and numpy.
    """
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), kind, str(data_bytes)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _speeds(probe):
    return {
        name: probe["payload_bytes"] / seconds / (1 << 30)
        for name, seconds in probe["seconds"].items()
    }


def _roofline_fields(probe, speed):
    """Roofline record: measured ceilings + the compiled engine's share.

    The compiled payload throughput times memory passes per data row is
    the XOR-stream bandwidth the engine achieved.
    ``roofline_achieved_fraction`` divides it by the ceiling at the
    executed tile, which no pass can beat, so it stays at most 1.0.
    ``roofline_stream_fraction`` divides it by the streaming rate instead;
    it exceeds 1.0 because the tiles run from cache.
    """
    roofline = probe["roofline"]
    stream = speed["compiled"] * probe["passes_per_data_row"]
    return {
        "roofline_memcpy_gib_s": round(roofline["memcpy_gib_s"], 3),
        "roofline_gib_s": round(roofline["xor_gib_s"], 3),
        "roofline_tile_gib_s": round(roofline["tile_xor_gib_s"], 3),
        "tile_bytes": roofline["tile_bytes"],
        "passes_per_data_row": round(probe["passes_per_data_row"], 4),
        "roofline_achieved_fraction": round(
            stream / roofline["tile_xor_gib_s"], 3
        ),
        "roofline_stream_fraction": round(stream / roofline["xor_gib_s"], 3),
    }


def _roofline_line(roofline):
    return (
        f"roofline_gib_s stream={roofline['roofline_gib_s']:.2f} "
        f"tile={roofline['roofline_tile_gib_s']:.2f} "
        f"(tile_bytes={roofline['tile_bytes']}) "
        f"achieved={roofline['roofline_achieved_fraction']:.2f} "
        f"of tile, {roofline['roofline_stream_fraction']:.2f} of stream"
    )


if __name__ == "__main__":
    _kind, _bytes = sys.argv[1], int(sys.argv[2])
    _probe = _encode_probe if _kind == "encode" else _decode_probe
    print(json.dumps(_probe(_bytes)))
    sys.exit(0)


from _common import emit, format_table, record_json, scaled_bytes  # noqa: E402

DATA_BYTES = scaled_bytes(32 << 20)


def _engine_rows(speed):
    return format_table(
        ["engine", "GiB/s", "vs interpreted"],
        [
            [name, f"{value:.3f}", f"{value / speed['interpreted']:.2f}"]
            for name, value in speed.items()
        ],
    )


def test_engine_encode_ablation():
    probe = _fresh_probe("encode", DATA_BYTES)
    speed = _speeds(probe)
    speedup = speed["compiled"] / speed["interpreted"]
    roofline = _roofline_fields(probe, speed)
    emit(
        "engine_encode_ablation",
        [
            f"code=tip n={N} data_mb={DATA_BYTES >> 20} "
            f"host_cpus={os.cpu_count()}",
            *_engine_rows(speed),
            f"passes/data row compiled={probe['passes_per_data_row']:.2f} "
            f"interpreted={probe['interpreted_passes_per_data_row']:.2f}",
            _roofline_line(roofline),
        ],
    )
    record_json(
        "engine_encode_ablation",
        {
            "code": "tip",
            "n": N,
            "data_bytes": DATA_BYTES,
            "host_cpus": os.cpu_count(),
            "xors_per_element": round(probe["xors_per_element"], 4),
            "interpreted_passes_per_data_row": round(
                probe["interpreted_passes_per_data_row"], 4
            ),
            "compiled_speedup": round(speedup, 3),
            **{
                f"{name}_gib_s": round(value, 4)
                for name, value in speed.items()
            },
            **roofline,
        },
    )
    # Run fusion opens each run with a three-address XOR instead of a
    # copy: the compiled plan sweeps memory fewer times per data row.
    assert (
        probe["passes_per_data_row"]
        < probe["interpreted_passes_per_data_row"]
    ), probe


def test_engine_decode_ablation():
    probe = _fresh_probe("decode", DATA_BYTES)
    speed = _speeds(probe)
    speedup = speed["compiled"] / speed["interpreted"]
    plan_s, solves = probe["plan"]["seconds"], probe["plan"]["solves"]
    plan_cache_speedup = plan_s["cold"] / max(plan_s["evicted"], 1e-9)
    roofline = _roofline_fields(probe, speed)
    emit(
        "engine_decode_ablation",
        [
            f"code=tip n={N} data_mb={DATA_BYTES >> 20} "
            f"patterns={DECODE_PATTERNS} host_cpus={os.cpu_count()}",
            *_engine_rows(speed),
            f"xors/elem dense={probe['xors_per_element']:.2f} "
            f"fused={probe['fused_xors_per_element']:.2f}",
            _roofline_line(roofline),
            f"plan_cold_ms={plan_s['cold'] * 1e3:.2f}",
            f"plan_warm_us={plan_s['warm'] * 1e6:.1f}",
            f"plan_evicted_us={plan_s['evicted'] * 1e6:.1f}",
            f"plan_cache_speedup={plan_cache_speedup:.0f}",
            f"solves cold={solves['cold']} warm={solves['warm']} "
            f"evicted={solves['evicted']}",
        ],
    )
    record_json(
        "engine_decode_ablation",
        {
            "code": "tip",
            "n": N,
            "data_bytes": DATA_BYTES,
            "host_cpus": os.cpu_count(),
            "xors_per_element": round(probe["xors_per_element"], 4),
            "fused_xors_per_element": round(
                probe["fused_xors_per_element"], 4
            ),
            "compiled_speedup": round(speedup, 3),
            **{
                f"{name}_gib_s": round(value, 4)
                for name, value in speed.items()
            },
            **roofline,
            "plan_cold_ms": round(plan_s["cold"] * 1e3, 3),
            "plan_warm_us": round(plan_s["warm"] * 1e6, 1),
            "plan_evicted_us": round(plan_s["evicted"] * 1e6, 1),
            "plan_cache_speedup": round(plan_cache_speedup, 1),
            "plan_evicted_solves": solves["evicted"],
        },
    )
    # The fused two-stage plan executes fewer XORs than the dense
    # schedule on every sampled pattern set...
    assert (
        probe["fused_xors_per_element"] < probe["xors_per_element"]
    ), probe
    # ...and re-acquiring a plan after decoder-LRU eviction skips the
    # algebra: the cold path solves once per pattern, the evicted none.
    assert solves["cold"] == DECODE_PATTERNS, solves
    assert solves["evicted"] == 0, solves


def test_engine_paths_byte_identical():
    """Both engines produce the same bytes on the bench geometry."""
    from repro.codec import StripeCodec
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, packet_size=PACKET)
    rng = np.random.default_rng(5)
    width = PACKET * 8
    data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
    reference = codec.encode_packets([data[i] for i in range(len(data))])
    compiled = codec.encode_into(data)
    assert all(
        np.array_equal(compiled[i], reference[i])
        for i in range(code.num_parity)
    )

    combo = (0, 1, 2)
    decoder = code.decoder_for(combo)
    known = rng.integers(
        0,
        256,
        size=(len(decoder.plan.known_positions), width),
        dtype=np.uint8,
    )
    single = codec.decode_into(combo, known)
    # The compiled engine executes the fused two-stage plan; it must be
    # byte-identical to the interpreted dense schedule it replaced.
    dense = decoder.plan.schedule.apply(
        [known[i] for i in range(known.shape[0])]
    )
    assert all(
        np.array_equal(single[i], dense[i]) for i in range(len(dense))
    )
