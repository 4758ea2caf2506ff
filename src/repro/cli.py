"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — registered code families.
* ``layout FAMILY N`` — render a code's element grid and key properties.
* ``verify FAMILY N`` — exhaustive fault-tolerance check + random decode
  round-trip.
* ``write-cost FAMILY N [--length L]`` — single/partial write complexity.
* ``simulate WORKLOAD N [--requests R]`` — trace-driven comparison of all
  evaluated codes (write cost + simulated response time).
* ``replay --family F --n N --trace T`` — replay a trace (CSV file or
  ``synthetic:<workload>``) against a *real* file-backed store through
  the byte-addressed block device, printing Table-3-style trace stats
  plus the measured data/parity chunk I/O split. With ``--fault-plan``
  the replay runs under injected faults (fail-stop, latent sectors,
  bit flips, transients) with online repair; ``--scrub-every`` /
  ``--repair-chunks`` throttle the background repair loop;
  ``--concurrency K`` splits the trace into K disjoint stripe
  partitions and replays them through the concurrent block service.
* ``serve --family F --n N [--concurrency 1 2 4 ...]`` — closed-loop
  latency-vs-offered-load sweep: for each worker count, replay the
  trace concurrently through :class:`repro.service.BlockService` and
  print throughput plus p50/p99/mean request latency (optionally with
  ``--fault-plan`` and throttled ``--repair-every`` ticks active).
* ``scrub --family F --n N`` — populate (or open with ``--dir``) a
  store, optionally under ``--fault-plan``, and run a full scrub pass,
  printing the classification of every error found.
* ``reliability N [--mttf H] [--rebuild H] [--latent-rate R]
  [--scrub-interval H]`` — MTTDL of 1/2/3-fault arrays at this size
  (the paper's 3DFT motivation), optionally with the sector-error
  model.
* ``fleet [--code C ...] [--placement P ...] [--model M ...]`` —
  event-driven fleet simulation: shard ``--stripes`` stripes of each
  code over a rack/machine/disk ``--topology`` under correlated
  failures and contended repair bandwidth, and print per-cell data
  loss, unavailability, and repair-traffic numbers averaged over
  ``--trials`` seeded trials (the cross-product of codes, placements,
  and failure models makes one comparison table). ``--scenario FILE``
  runs a single JSON-specified cell instead.
* ``volume create|status|replay|restripe`` — the elastic volume layer:
  ``create`` builds a multi-shard volume (``--shard family:n:stripes
  [:chunk_bytes]``, repeatable) with a shared on-disk intent journal;
  ``status`` prints its shape, migration cursor, and counters;
  ``replay`` drives a seeded random byte workload through the
  concurrent :class:`~repro.service.VolumeService`; ``restripe``
  migrates the live volume to a new shard set / code family (resuming
  an interrupted migration when no ``--shard`` is given), optionally
  under concurrent foreground load.

``--log-level LEVEL`` (global) enables the ``repro`` package's
structured logging (fail/rebuild/scrub-repair/cache events).
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile

import numpy as np

from repro.analysis import (
    partial_write_cost,
    single_write_cost,
    synthetic_write_cost,
)
from repro.codes import available_codes, make_code
from repro.codes.base import Cell
from repro.codes.registry import EVALUATED_FAMILIES
from repro.disksim import simulate_trace
from repro.reliability import ArrayReliability
from repro.traces import generate_trace, parse_csv_trace, workload_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TIP-code (DSN 2015) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable repro package logging at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered code families")

    layout = sub.add_parser("layout", help="render a code's element grid")
    layout.add_argument("family")
    layout.add_argument("n", type=int)

    verify = sub.add_parser("verify", help="check fault tolerance")
    verify.add_argument("family")
    verify.add_argument("n", type=int)

    cost = sub.add_parser("write-cost", help="write complexity analysis")
    cost.add_argument("family")
    cost.add_argument("n", type=int)
    cost.add_argument("--length", type=int, default=1,
                      help="consecutive elements written (default 1)")

    sim = sub.add_parser("simulate", help="trace-driven code comparison")
    sim.add_argument("workload", choices=workload_names())
    sim.add_argument("n", type=int)
    sim.add_argument("--requests", type=int, default=2000)

    replay = sub.add_parser(
        "replay", help="replay a trace against a real file-backed store"
    )
    replay.add_argument("--family", default="tip",
                        help="code family (default tip)")
    replay.add_argument("--n", type=int, default=8,
                        help="array size in disks (default 8)")
    replay.add_argument("--trace", required=True,
                        help="CSV trace path or synthetic:<workload>")
    replay.add_argument("--requests", type=int, default=1000,
                        help="request cap for synthetic traces (default 1000)")
    replay.add_argument("--stripes", type=int, default=64,
                        help="store stripes (default 64)")
    replay.add_argument("--chunk-bytes", type=int, default=4096,
                        help="chunk size in bytes (default 4096)")
    replay.add_argument("--dir", default=None,
                        help="store directory (default: a fresh tmpdir)")
    replay.add_argument("--fail", type=int, nargs="*", default=(),
                        help="disks to fail before replaying (degraded mode)")
    replay.add_argument("--cache-stripes", type=int, default=0,
                        help="write-back stripe cache capacity in stripes "
                             "(default 0 = uncached)")
    replay.add_argument("--fault-plan", default=None,
                        help="inject faults during replay, e.g. "
                             "'seed=7;fail_stop:disk=2,at_op=40;"
                             "latent:disk=1,rate=0.01;bit_flip:disk=3,at_op=25'")
    replay.add_argument("--scrub-every", type=int, default=0,
                        help="run one background repair tick every N "
                             "requests (0 = repair only on faults)")
    replay.add_argument("--repair-chunks", type=int, default=256,
                        help="chunk-I/O budget per background repair tick "
                             "(default 256)")
    replay.add_argument("--concurrency", type=int, default=1,
                        help="closed-loop workers replaying the trace "
                             "concurrently over disjoint stripe "
                             "partitions (default 1 = serial replay)")
    replay.add_argument("--batch-size", type=int, default=0,
                        help="open-loop batched replay: coalesce up to N "
                             "queued requests per dispatch and execute "
                             "them with scatter-gather span I/O "
                             "(default 0 = unbatched; excludes "
                             "--concurrency > 1)")

    serve = sub.add_parser(
        "serve",
        help="closed-loop latency-vs-load sweep over the block service",
    )
    serve.add_argument("--family", default="tip",
                       help="code family (default tip)")
    serve.add_argument("--n", type=int, default=8,
                       help="array size in disks (default 8)")
    serve.add_argument("--trace", default="synthetic:prxy_0",
                       help="CSV trace path or synthetic:<workload> "
                            "(default synthetic:prxy_0)")
    serve.add_argument("--requests", type=int, default=1000,
                       help="total requests per sweep point (default 1000)")
    serve.add_argument("--stripes", type=int, default=64,
                       help="store stripes (default 64)")
    serve.add_argument("--chunk-bytes", type=int, default=4096,
                       help="chunk size in bytes (default 4096)")
    serve.add_argument("--cache-stripes", type=int, default=0,
                       help="write-back stripe cache capacity (default 0)")
    serve.add_argument("--concurrency", type=int, nargs="+",
                       default=(1, 2, 4),
                       help="worker counts to sweep (default 1 2 4)")
    serve.add_argument("--fault-plan", default=None,
                       help="inject faults during the sweep (replay's "
                            "spec syntax); repair runs online")
    serve.add_argument("--repair-every", type=int, default=0,
                       help="one background repair tick per N completed "
                            "requests (0 = tick only on faults)")

    scrub = sub.add_parser(
        "scrub", help="scrub a store, classifying and repairing errors"
    )
    scrub.add_argument("--family", default="tip",
                       help="code family (default tip)")
    scrub.add_argument("--n", type=int, default=8,
                       help="array size in disks (default 8)")
    scrub.add_argument("--stripes", type=int, default=64,
                       help="store stripes (default 64)")
    scrub.add_argument("--chunk-bytes", type=int, default=4096,
                       help="chunk size in bytes (default 4096)")
    scrub.add_argument("--dir", default=None,
                       help="existing store directory (default: build a "
                            "fresh populated store in a tmpdir)")
    scrub.add_argument("--fault-plan", default=None,
                       help="inject faults while populating/scrubbing "
                            "(same spec syntax as replay)")
    scrub.add_argument("--batch", type=int, default=8,
                       help="stripes per scrub batch (default 8)")

    volume = sub.add_parser(
        "volume", help="multi-array volumes: create, inspect, migrate"
    )
    vsub = volume.add_subparsers(dest="volume_command", required=True)

    vcreate = vsub.add_parser(
        "create", help="create a volume over a new shard set"
    )
    vcreate.add_argument("--dir", required=True,
                         help="volume directory (created if missing)")
    vcreate.add_argument("--shard", action="append", required=True,
                         metavar="FAMILY:N:STRIPES[:CHUNK_BYTES]",
                         help="one shard's code and geometry (repeatable)")
    vcreate.add_argument("--extent-bytes", type=int, default=1 << 16,
                         help="distribution unit in bytes (default 65536)")

    vstatus = vsub.add_parser("status", help="print a volume's shape")
    vstatus.add_argument("--dir", required=True, help="volume directory")

    vreplay = vsub.add_parser(
        "replay", help="drive a seeded random workload through the volume"
    )
    vreplay.add_argument("--dir", required=True, help="volume directory")
    vreplay.add_argument("--requests", type=int, default=500,
                         help="requests to issue (default 500)")
    vreplay.add_argument("--workers", type=int, default=4,
                         help="service pool threads (default 4)")
    vreplay.add_argument("--write-fraction", type=float, default=0.5,
                         help="fraction of requests that write (default 0.5)")
    vreplay.add_argument("--max-bytes", type=int, default=16384,
                         help="largest request in bytes (default 16384)")
    vreplay.add_argument("--seed", type=int, default=42,
                         help="workload RNG seed (default 42)")

    vrestripe = vsub.add_parser(
        "restripe", help="migrate a live volume to a new shard set"
    )
    vrestripe.add_argument("--dir", required=True, help="volume directory")
    vrestripe.add_argument("--shard", action="append", default=None,
                           metavar="FAMILY:N:STRIPES[:CHUNK_BYTES]",
                           help="target shard (repeatable); omit to resume "
                                "an interrupted migration")
    vrestripe.add_argument("--extents-per-tick", type=int, default=4,
                           help="extents copied per throttle tick "
                                "(default 4)")
    vrestripe.add_argument("--requests", type=int, default=0,
                           help="concurrent foreground requests to drive "
                                "during the migration (default 0 = none)")
    vrestripe.add_argument("--workers", type=int, default=4,
                           help="service pool threads (default 4)")
    vrestripe.add_argument("--seed", type=int, default=42,
                           help="foreground workload RNG seed (default 42)")

    rel = sub.add_parser("reliability", help="MTTDL of 1/2/3-fault arrays")
    rel.add_argument("n", type=int)
    rel.add_argument("--mttf", type=float, default=1_000_000.0,
                     help="disk MTTF in hours")
    rel.add_argument("--rebuild", type=float, default=24.0,
                     help="rebuild time in hours")
    rel.add_argument("--latent-rate", type=float, default=0.0,
                     help="latent sector errors per disk-hour "
                          "(default 0 = sector model off)")
    rel.add_argument("--scrub-interval", type=float, default=0.0,
                     help="background scrub period in hours "
                          "(0 = never scrubbed)")
    rel.add_argument("--detection-fraction", type=float, default=0.5,
                     help="mean fraction of the scrub interval before "
                          "detection (default 0.5; use a measured "
                          "ScrubReport.detection_fraction)")

    fleet = sub.add_parser(
        "fleet", help="fleet-scale reliability simulation"
    )
    fleet.add_argument("--scenario", default=None,
                       help="JSON scenario file (runs this single cell; "
                            "other cell options are ignored)")
    fleet.add_argument("--code", nargs="+", default=["tip"],
                       help="code specs to compare: array families "
                            "(tip, star, cauchy-rs, ...) or locality "
                            "specs (xorbas, lrc:N:K:L); default tip")
    fleet.add_argument("--placement", nargs="+", default=["random"],
                       choices=("random", "copyset", "pss"),
                       help="placement strategies to compare "
                            "(default random)")
    fleet.add_argument("--model", nargs="+", default=["correlated"],
                       help="failure-model presets to compare "
                            "(independent, correlated; "
                            "default correlated)")
    fleet.add_argument("--topology", default="4x4x4",
                       help="cluster shape RACKSxMACHINESxDISKS "
                            "(default 4x4x4)")
    fleet.add_argument("--n", type=int, default=8,
                       help="array width for array-code families "
                            "(default 8)")
    fleet.add_argument("--stripes", type=int, default=1000,
                       help="stripes sharded over the fleet "
                            "(default 1000)")
    fleet.add_argument("--duration-years", type=float, default=10.0,
                       help="simulated horizon in years (default 10)")
    fleet.add_argument("--mttf", type=float, default=None,
                       help="override the preset disk MTTF in hours")
    fleet.add_argument("--trials", type=int, default=3,
                       help="independent seeded trials per cell "
                            "(default 3)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="root seed (default 0)")
    fleet.add_argument("--chunk-mib", type=float, default=256.0,
                       help="chunk size in MiB (default 256)")
    fleet.add_argument("--disk-mib-s", type=float, default=50.0,
                       help="replacement-disk bandwidth in MiB/s "
                            "(default 50)")
    fleet.add_argument("--cross-rack-mib-s", type=float, default=200.0,
                       help="aggregate cross-rack repair bandwidth in "
                            "MiB/s (default 200)")
    return parser


def _cmd_list() -> int:
    for name in available_codes():
        print(name)
    return 0


def _cmd_layout(family: str, n: int) -> int:
    code = make_code(family, n)
    symbol = {Cell.DATA: ".", Cell.PARITY: "P", Cell.EMPTY: "-"}
    print(f"{code.name}: {code.rows} rows x {code.cols} disks, "
          f"{code.num_data} data / {code.num_parity} parity, "
          f"efficiency {code.storage_efficiency:.1%}, "
          f"tolerates {code.faults} failures")
    print("    " + " ".join(f"{c:>2d}" for c in range(code.cols)))
    for r in range(code.rows):
        row = " ".join(f" {symbol[code.kind(r, c)]}" for c in range(code.cols))
        print(f"{r:>3d} {row}")
    return 0


def _cmd_verify(family: str, n: int) -> int:
    code = make_code(family, n)
    tolerant = code.is_mds()
    print(f"{code.name}: all {code.faults}-disk failures decodable: "
          f"{'yes' if tolerant else 'NO'}")
    print(f"storage optimal (MDS): "
          f"{'yes' if code.is_storage_optimal else 'no'}")
    stripe = code.random_stripe(packet_size=64, seed=1)
    failed = tuple(range(code.faults))
    damaged = stripe.copy()
    code.erase_columns(damaged, failed)
    code.decode(damaged, failed)
    roundtrip = bool(np.array_equal(damaged, stripe))
    print(f"decode round-trip on disks {failed}: "
          f"{'ok' if roundtrip else 'FAILED'}")
    return 0 if (tolerant and roundtrip) else 1


def _cmd_write_cost(family: str, n: int, length: int) -> int:
    code = make_code(family, n)
    if length <= 1:
        cost = single_write_cost(code)
        print(f"{code.name}: single write modifies {cost:.3f} elements "
              f"on average (optimum {code.faults + 1})")
    else:
        cost = partial_write_cost(code, length)
        print(f"{code.name}: writing {length} consecutive elements "
              f"modifies {cost:.3f} elements on average")
    return 0


def _cmd_simulate(workload: str, n: int, requests: int) -> int:
    trace = generate_trace(workload, requests=requests, seed=42)
    replay = trace.stretched(4.0)
    print(f"workload {workload}, n={n}, {requests} requests")
    print(f"{'code':14s} {'elems/write':>12s} {'mean resp ms':>14s}")
    for family in EVALUATED_FAMILIES:
        try:
            code = make_code(family, n)
        except ValueError as exc:
            print(f"{family:14s} unsupported at n={n}: {exc}")
            continue
        cost = synthetic_write_cost(code, trace)
        result = simulate_trace(code, replay, seed=1)
        print(f"{family:14s} {cost:12.2f} {result.mean_response_ms:14.2f}")
    return 0


def _print_scrub_report(report) -> None:
    for finding in report.findings:
        where = (
            f"element {finding.position}" if finding.position is not None
            else "unlocated"
        )
        outcome = "fixed" if finding.fixed else "NOT FIXED"
        detail = f" ({finding.detail})" if finding.detail else ""
        print(f"  stripe {finding.stripe:4d}: {finding.kind:10s} {where} "
              f"-> {outcome}{detail}")
    print(f"scrub: {report.summary()}")
    fraction = report.detection_fraction()
    if fraction is not None:
        print(f"scrub: mean detection at {fraction:.1%} of a scan pass "
              f"(feeds reliability --detection-fraction)")


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.raid import BlockDevice
    from repro.store import ArrayStore

    if args.trace.startswith("synthetic:"):
        workload = args.trace.split(":", 1)[1]
        if workload not in workload_names():
            raise ValueError(
                f"unknown workload {workload!r}; pick one of {workload_names()}"
            )
        trace = generate_trace(workload, requests=args.requests, seed=42)
    else:
        trace = parse_csv_trace(args.trace)
    code = make_code(args.family, args.n)
    stats = trace.stats()
    print(f"trace {trace.name}: {stats.requests} requests over "
          f"{stats.duration_s:.1f} s, {stats.iops:.1f} IOPS, "
          f"{stats.write_fraction:.1%} writes, "
          f"avg {stats.avg_request_kb:.2f} KB")
    if args.concurrency < 1:
        raise ValueError("--concurrency must be >= 1")
    if args.batch_size < 0:
        raise ValueError("--batch-size must be >= 0")
    if args.batch_size and args.concurrency > 1:
        raise ValueError("--batch-size and --concurrency are exclusive: "
                         "batched replay is open-loop single-submitter")
    plan = None
    repair = None
    scrub_report = None
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmpdir:
        store = ArrayStore(
            code,
            args.dir if args.dir else tmpdir,
            stripes=args.stripes,
            chunk_bytes=args.chunk_bytes,
            cache_stripes=args.cache_stripes,
        )
        with store:
            for disk in args.fail:
                store.fail_disk(disk)
            if args.fault_plan:
                from repro.faults import FaultPlan, RepairController

                plan = FaultPlan.parse(args.fault_plan)
                store.set_fault_plan(plan)
                repair = RepairController(
                    store, max_chunks_per_tick=args.repair_chunks
                )
            device = BlockDevice(store)
            print(f"replaying on {code.name} (n={code.n}, {store.stripes} "
                  f"stripes x {store.chunk_bytes} B chunks, "
                  f"{device.capacity_bytes // 1024} KiB capacity"
                  + (f", failed disks {tuple(args.fail)}" if args.fail else "")
                  + (f", cache {args.cache_stripes} stripes"
                     if args.cache_stripes else "")
                  + (", fault injection on" if plan else "")
                  + (f", {args.concurrency} workers"
                     if args.concurrency > 1 else "")
                  + (f", batch size {args.batch_size}"
                     if args.batch_size else "")
                  + ")")
            if args.batch_size:
                from repro.service import replay_batched

                result = replay_batched(
                    store,
                    trace,
                    batch_size=args.batch_size,
                    repair=repair,
                    repair_every=args.scrub_every,
                )
            elif args.concurrency > 1:
                from repro.service import replay_concurrent, split_disjoint

                result = replay_concurrent(
                    store,
                    split_disjoint(trace, args.concurrency, store),
                    repair=repair,
                    repair_every=args.scrub_every,
                )
            else:
                result = device.replay(
                    trace, repair=repair, scrub_every=args.scrub_every
                )
            if repair is not None:
                # Close the loop: a final full scrub pass proves the
                # array came out of the faulty replay consistent.
                repair.scrubber.reset()
                scrub_report = repair.scrubber.run()
    io = result.io
    print(f"requests: {result.reads} reads ({result.bytes_read} B), "
          f"{result.writes} writes ({result.bytes_written} B)")
    print(f"data chunks:   {io.data_chunks_read:8d} read "
          f"{io.data_chunks_written:8d} written")
    print(f"parity chunks: {io.parity_chunks_read:8d} read "
          f"{io.parity_chunks_written:8d} written")
    if args.batch_size:
        print(f"batched replay: {result.batches} batches of up to "
              f"{result.batch_size}, "
              f"{result.syscalls_per_request:.2f} syscalls/request, "
              f"p99 {result.p99_latency_ms:.3f} ms, "
              f"{result.throughput_iops:.0f} req/s "
              f"({result.elapsed_s:.2f} s wall)")
    elif args.concurrency > 1:
        print(f"latency over {result.workers} closed-loop workers: "
              f"p50 {result.p50_latency_ms:.3f} ms, "
              f"p99 {result.p99_latency_ms:.3f} ms, "
              f"{result.throughput_iops:.0f} req/s "
              f"({result.elapsed_s:.2f} s wall)")
    else:
        print(f"measured avg chunk I/Os: "
              f"{result.chunks_per_write:.2f} per write, "
              f"{result.chunks_per_read:.2f} per read")
    if result.cache is not None:
        cache = result.cache
        amortization = cache.parity_write_amortization_or_none
        print(f"cache: {cache.hit_rate:.1%} hit rate "
              f"({cache.hits}/{cache.lookups} chunk lookups), "
              f"{cache.flushes} flushes, {cache.evictions} evictions")
        print(f"cache raw vs coalesced chunk I/Os: "
              f"{cache.raw_io.total_chunks} -> {cache.io.total_chunks} "
              f"({cache.chunk_ios_saved} saved)")
        print(f"parity writes: {cache.raw_io.parity_chunks_written} uncached "
              f"-> {cache.io.parity_chunks_written} coalesced "
              + (f"(amortization {amortization:.2f}x)"
                 if amortization is not None
                 else "(amortization n/a: nothing flushed yet)"))
    if plan is not None:
        stats = plan.stats
        print(f"faults injected: {stats.fail_stops} fail-stops, "
              f"{stats.latent_minted} latent sectors, "
              f"{stats.flips_minted} bit flips, "
              f"{stats.transient_retries} transient retries")
        rs = result.repair
        print(f"repair: {rs.fail_stops_handled} fail-stops handled, "
              f"{rs.latent_handled} latent repairs, "
              f"{rs.stripes_rebuilt} stripes rebuilt "
              f"({rs.rebuilds_completed} rebuilds), "
              f"{result.retried_requests} requests retried, "
              f"{rs.rebuild_io.total_chunks} repair chunk I/Os")
        if scrub_report is not None:
            _print_scrub_report(scrub_report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import replay_concurrent, split_disjoint
    from repro.store import ArrayStore

    if args.trace.startswith("synthetic:"):
        workload = args.trace.split(":", 1)[1]
        if workload not in workload_names():
            raise ValueError(
                f"unknown workload {workload!r}; pick one of {workload_names()}"
            )
        trace = generate_trace(workload, requests=args.requests, seed=42)
    else:
        trace = parse_csv_trace(args.trace)
    code = make_code(args.family, args.n)
    levels = sorted(set(args.concurrency))
    if levels[0] < 1:
        raise ValueError("--concurrency levels must be >= 1")
    print(f"service sweep on {code.name} (n={code.n}, {args.stripes} "
          f"stripes x {args.chunk_bytes} B chunks, trace {trace.name}, "
          f"{len(trace)} requests"
          + (f", cache {args.cache_stripes} stripes"
             if args.cache_stripes else "")
          + (", fault injection on" if args.fault_plan else "")
          + (f", repair tick every {args.repair_every} requests"
             if args.repair_every else "")
          + ")")
    print(f"{'workers':>7s} {'req/s':>9s} {'p50 ms':>9s} {'p99 ms':>9s} "
          f"{'mean ms':>9s} {'retries':>7s} {'ticks':>6s}")
    for workers in levels:
        repair = None
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmpdir:
            with ArrayStore(
                code,
                tmpdir,
                stripes=args.stripes,
                chunk_bytes=args.chunk_bytes,
                cache_stripes=args.cache_stripes,
            ) as store:
                if args.fault_plan:
                    from repro.faults import FaultPlan, RepairController

                    store.set_fault_plan(FaultPlan.parse(args.fault_plan))
                    repair = RepairController(store)
                result = replay_concurrent(
                    store,
                    split_disjoint(trace, workers, store),
                    repair=repair,
                    repair_every=args.repair_every,
                )
        print(f"{result.workers:7d} {result.throughput_iops:9.0f} "
              f"{result.p50_latency_ms:9.3f} {result.p99_latency_ms:9.3f} "
              f"{result.mean_latency_ms:9.3f} {result.retried_requests:7d} "
              f"{result.repair_ticks:6d}")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, RepairController, Scrubber
    from repro.faults.inject import retry_faults
    from repro.store import ArrayStore

    code = make_code(args.family, args.n)
    plan = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
    with tempfile.TemporaryDirectory(prefix="repro-scrub-") as tmpdir:
        store = ArrayStore(
            code,
            args.dir if args.dir else tmpdir,
            stripes=args.stripes,
            chunk_bytes=args.chunk_bytes,
            fault_plan=plan,
        )
        with store:
            repair = RepairController(store)
            if args.dir is None:
                # Demo store: deterministic payload so faults injected
                # while writing are real, detectable damage.
                pattern = (
                    np.arange(store.capacity_bytes, dtype=np.int64) % 251
                ).astype(np.uint8).reshape(-1, store.chunk_bytes)
                for chunk in range(0, store.capacity_chunks, code.num_data):
                    retry_faults(
                        store.write_chunks, repair.handle_fault,
                        f"prefill of chunk {chunk}",
                        chunk, pattern[chunk : chunk + code.num_data],
                    )
                repair.drain()
            print(f"scrubbing {code.name} (n={code.n}, {store.stripes} "
                  f"stripes x {store.chunk_bytes} B chunks"
                  + (", fault injection on" if plan else "") + ")")
            scrubber = Scrubber(store, batch_stripes=args.batch)
            report = scrubber.run()
    _print_scrub_report(report)
    return 0 if report.unfixable == 0 else 1


def _parse_shard_spec(text: str):
    from repro.volume import ShardSpec

    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"shard spec {text!r} is not FAMILY:N:STRIPES[:CHUNK_BYTES]"
        )
    family = parts[0]
    try:
        numbers = [int(part) for part in parts[1:]]
    except ValueError:
        raise ValueError(
            f"shard spec {text!r} has a non-integer field"
        ) from None
    n, stripes = numbers[0], numbers[1]
    chunk_bytes = numbers[2] if len(numbers) == 3 else 4096
    make_code(family, n)  # validate family/n before building anything
    return ShardSpec(family, n, stripes=stripes, chunk_bytes=chunk_bytes)


def _print_volume_status(status) -> None:
    print(f"volume {status.directory}: "
          f"{status.volume_bytes // 1024} KiB over {len(status.shards)} "
          f"shard(s), {status.total_extents} x "
          f"{status.extent_bytes} B extents")
    for entry in status.shards:
        print(f"  shard {entry['uid']:3d}: {entry['family']} n={entry['n']} "
              f"{entry['stripes']} stripes x {entry['chunk_bytes']} B chunks")
    if status.restripe_active:
        print(f"  restripe in flight: extent {status.restripe_cursor}"
              f"/{status.total_extents} -> "
              + ", ".join(
                  f"{e['family']} n={e['n']}" for e in status.restripe_target
              ))
    if status.failed_disks:
        for uid, disks in sorted(status.failed_disks.items()):
            print(f"  shard {uid:3d}: FAILED disks {disks}")
    io = status.io
    print(f"  chunk I/O: {io.chunks_read} read, {io.chunks_written} written "
          f"({io.parity_chunks_written} parity)")


def _volume_workload(service, requests, write_fraction, max_bytes, seed):
    """Issue a seeded random byte workload through the service pool."""
    rng = np.random.default_rng(seed)
    capacity = service.capacity_bytes
    futures = []
    for _ in range(requests):
        length = int(rng.integers(1, min(max_bytes, capacity) + 1))
        offset = int(rng.integers(0, capacity - length + 1))
        if rng.random() < write_fraction:
            payload = rng.integers(0, 256, length, dtype=np.uint8)
            futures.append(service.submit_write(offset, payload))
        else:
            futures.append(service.submit_read(offset, length))
    for future in futures:
        future.result()


def _cmd_volume(args: argparse.Namespace) -> int:
    from repro.service import VolumeService
    from repro.volume import VolumeManager

    if args.volume_command == "create":
        specs = [_parse_shard_spec(text) for text in args.shard]
        with VolumeManager.create(
            args.dir, specs, extent_bytes=args.extent_bytes
        ) as vol:
            _print_volume_status(vol.status())
        return 0

    if args.volume_command == "status":
        with VolumeManager.open(args.dir) as vol:
            _print_volume_status(vol.status())
        return 0

    if args.volume_command == "replay":
        with VolumeManager.open(args.dir) as vol:
            service = VolumeService(vol, workers=args.workers)
            _volume_workload(
                service, args.requests, args.write_fraction,
                args.max_bytes, args.seed,
            )
            stats = service.stats
            print(f"{stats.requests} requests ({stats.reads} reads, "
                  f"{stats.writes} writes) over {args.workers} workers: "
                  f"p50 {stats.p50_latency_ms:.3f} ms, "
                  f"p99 {stats.p99_latency_ms:.3f} ms, "
                  f"mean {stats.mean_latency_ms:.3f} ms")
            service.close()
        return 0

    if args.volume_command == "restripe":
        specs = (
            [_parse_shard_spec(text) for text in args.shard]
            if args.shard else None
        )
        with VolumeManager.open(args.dir) as vol:
            if specs is None and not vol.restriping:
                raise ValueError(
                    "no --shard given and no interrupted migration to resume"
                )
            service = VolumeService(vol, workers=args.workers)
            service.start_restripe(
                specs, extents_per_tick=args.extents_per_tick
            )
            if args.requests:
                _volume_workload(service, args.requests, 0.5, 16384, args.seed)
            result = service.join_restripe()
            print(f"restriped {result.extents_copied} extents "
                  f"({result.bytes_copied // 1024} KiB) in "
                  f"{result.ticks} tick(s), "
                  f"{result.io.total_chunks} migration chunk I/Os")
            if args.requests:
                stats = service.stats
                print(f"foreground during migration: {stats.requests} "
                      f"requests, p50 {stats.p50_latency_ms:.3f} ms, "
                      f"p99 {stats.p99_latency_ms:.3f} ms")
            findings = vol.scrub()
            if findings:
                print(f"scrub found damage after restripe: {findings}")
                service.close()
                return 1
            print("scrub clean")
            _print_volume_status(vol.status())
            service.close()
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_reliability(args: argparse.Namespace) -> int:
    n, mttf, rebuild = args.n, args.mttf, args.rebuild
    print(f"{n}-disk array, disk MTTF {mttf:.0f} h, rebuild {rebuild:.0f} h"
          + (f", latent rate {args.latent_rate:g}/disk-h, scrub every "
             f"{args.scrub_interval:g} h" if args.latent_rate else ""))
    print(f"{'tolerance':>10s} {'MTTDL (years)':>16s} {'P(loss)/year':>14s}")
    for faults, label in ((1, "RAID-5"), (2, "RAID-6"), (3, "3DFT")):
        model = ArrayReliability(
            disks=n, faults_tolerated=faults,
            disk_mttf_hours=mttf, rebuild_hours=rebuild,
            latent_error_rate=args.latent_rate,
            scrub_interval_hours=args.scrub_interval,
            latent_detection_fraction=args.detection_fraction,
        )
        print(f"{label:>10s} {model.mttdl_years():16.3e} "
              f"{model.annual_loss_probability():14.3e}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScenario, load_scenario, run_fleet_trials

    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.scenario:
        cells = [load_scenario(args.scenario)]
    else:
        cells = [
            FleetScenario(
                topology=args.topology,
                code=code,
                n=args.n,
                placement=placement,
                failure_model=model,
                mttf_hours=args.mttf,
                stripes=args.stripes,
                duration_hours=args.duration_years * 24 * 365,
                chunk_mib=args.chunk_mib,
                disk_mib_s=args.disk_mib_s,
                cross_rack_mib_s=args.cross_rack_mib_s,
                seed=args.seed,
            )
            for code in args.code
            for placement in args.placement
            for model in args.model
        ]
    first = cells[0]
    print(f"fleet {first.topology} ({args.trials} trials/cell, "
          f"{first.stripes} stripes, "
          f"{first.duration_hours / (24 * 365):.1f} years, "
          f"seed {first.seed})")
    print(f"{'cell':32s} {'loss-trials':>11s} {'P(stripe loss)':>14s} "
          f"{'unavail':>10s} {'repair h':>9s} {'x-rack GiB':>11s}")
    for scenario in cells:
        summary = run_fleet_trials(scenario, trials=args.trials)
        print(f"{scenario.cell_label():32s} "
              f"{summary.loss_trial_fraction:11.2f} "
              f"{summary.mean_loss_probability:14.3e} "
              f"{summary.mean_unavailability:10.3e} "
              f"{summary.mean_repair_hours:9.2f} "
              f"{summary.mean_cross_rack_read_mib / 1024:11.1f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            format="%(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(args.log_level.upper())
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "layout":
            return _cmd_layout(args.family, args.n)
        if args.command == "verify":
            return _cmd_verify(args.family, args.n)
        if args.command == "write-cost":
            return _cmd_write_cost(args.family, args.n, args.length)
        if args.command == "simulate":
            return _cmd_simulate(args.workload, args.n, args.requests)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "scrub":
            return _cmd_scrub(args)
        if args.command == "volume":
            return _cmd_volume(args)
        if args.command == "reliability":
            return _cmd_reliability(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
