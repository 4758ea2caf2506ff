"""Stack benchmark: TIP-code workloads driven through the service front doors.

Run from the repository root::

    python3 benchmarks/stack/run.py --workload W --seed S [--seconds N]
        [--trace 0|1] [--out FILE] [--scale X]

Each workload runs in a fresh interpreter (``drive.py``) on arrays kept
under ``.bench_build/stack`` in the checkout, which are removed
afterwards. The benchmark checks every byte it reads, prints every
metric by name with its unit, and ends its output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Its metrics are the
end-to-end ones of an untraced run, or with ``--trace 1`` the per-layer
ones: those of a traced run, the tracing overhead against an untraced
run of the same seed, and the diagnostics of that untraced run. The
lines before it also print the untraced run's diagnostics. The
workloads, metric names and units, and the default run length
(``--seconds``) come from ``BENCHMARK.json``. ``--out`` appends one
JSON record per workload run (commit, host CPUs, seed, input digest,
validity, every printed metric) to FILE. Without ``--workload`` every
workload runs in turn. ``--scale`` shrinks arrays and run length
together, for quick checks.

Exits non-zero, printing no result, when a check fails or a workload
fails. A run whose open loop fell behind its schedule is marked invalid
in its record, which ``compare.py`` leaves out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = ROOT / ".bench_build" / "stack"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
#: Run only when named: oltp_volume's requests through a bare
#: BlockService on the same geometry, for the layer-attribution table.
DIAGNOSTIC_WORKLOADS = ("oltp_block",)
#: Wall-clock budget for one workload's subprocesses.
BUDGET_S = 170


def units(section: str) -> dict[str, str]:
    """``name -> unit`` of the metrics in one section of BENCHMARK.json:
    ``end_to_end`` (untraced run) or ``per_layer`` (traced run, plus the
    diagnostics taken from the untraced run)."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def warn(message: str) -> None:
    print(f"stack benchmark: {message}", file=sys.stderr)


class BenchmarkError(RuntimeError):
    """A run that must end without a result."""


def commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git
    (which could look outside the checkout); None when not a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(
    args: argparse.Namespace, workload: str, traced: bool, deadline: float
) -> dict:
    """One workload in a fresh interpreter; its parsed result."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    command = [
        sys.executable, str(HERE / "drive.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(int(traced)), "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: ran past the time budget") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise BenchmarkError(
            f"{workload}: output check failed ({result['mismatches']} "
            f"mismatching reads, scrub clean: {result['scrub_clean']})"
        )
    return result


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    """Run one workload as asked; returns its run record."""
    untraced = run_child(args, workload, False, deadline)
    lag = untraced["sched_lag_p99_ms"]
    if not untraced["valid"]:
        warn(f"{workload}: invalid run, the open loop fell behind its "
             f"schedule (lag p99 {lag:.3f} ms)")
    diagnostics = units("per_layer")
    metrics = {
        name: value for name, value in untraced["end_to_end"].items()
        if name in diagnostics
    }
    metrics["bench.sched_lag_p99_ms"] = lag or 0.0
    if args.trace:
        traced = run_child(args, workload, True, deadline)
        metrics.update(traced["per_layer"])
        metrics["bench.tracing_overhead"] = (
            traced["end_to_end"]["throughput_ops_s"]
            / untraced["end_to_end"]["throughput_ops_s"]
        )
        section, run = "per_layer", traced
    else:
        metrics.update(untraced["end_to_end"])
        section, run = "end_to_end", untraced
    wanted = units(section)
    missing = sorted(set(wanted) - set(metrics))
    if missing and args.scale >= 1:
        raise BenchmarkError(f"{workload}: no value for {', '.join(missing)}")
    every_unit = {**units("end_to_end"), **diagnostics}
    return {
        "commit": commit(),
        "host_cpus": os.cpu_count(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "input_digest": run["input_digest"],
        "correct": True,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "samples": run["samples"],
        "setup_s": run["setup_s"],
        "rebuild_s": run["rebuild_s"],
        "layer_self_ms": run.get("layer_self_ms"),
        "valid": untraced["valid"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in every_unit.items()
            if name in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS + DIAGNOSTIC_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        warn(f"no library sources under {ROOT / 'src'}")
        return 2
    records = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            record = run_workload(args, workload, time.monotonic() + BUDGET_S)
            for name, metric in record["metrics"].items():
                print(f"{workload:20} {name:34} {metric['value']:>16.6f} {metric['unit']}")
            if args.out is not None:
                with args.out.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            records.append(record)
    except BenchmarkError as exc:
        warn(str(exc))
        return 1
    result = units("per_layer" if args.trace else "end_to_end")
    metrics = {
        name if len(records) == 1 else f"{r['workload']}.{name}": metric
        for r in records for name, metric in r["metrics"].items()
        if name in result
    }
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
