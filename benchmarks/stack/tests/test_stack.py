"""Self-tests of the stack benchmark: gates, checks, statistics, spans.

Run with ``pytest benchmarks/stack/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import drive
import run
import trace as spans
import workloads as gen
from repro.store import ArrayStore

STACK = Path(__file__).resolve().parents[1]
ROOT = STACK.parents[1]
SCALE = 0.02


@pytest.mark.parametrize("workload", run.WORKLOADS + run.DIAGNOSTIC_WORKLOADS)
def test_workload_passes_its_gate(workload, tmp_path):
    result = drive.run_workload(workload, 5, 15, SCALE, False, tmp_path)
    assert result["correct"], result
    assert result["attempted"] > 0 and result["failed"] == 0
    assert result["end_to_end"]["throughput_ops_s"] > 0
    assert result["rebuild_s"]


def test_traced_run_attributes_and_restores(tmp_path):
    original = ArrayStore.__dict__["write_bytes"]
    result = drive.run_workload("oltp_volume", 5, 15, SCALE, True, tmp_path)
    assert ArrayStore.__dict__["write_bytes"] is original
    assert result["correct"]
    # run.py adds the rest from the untraced run beside the traced one.
    assert set(result["per_layer"]) | {
        "bench.tracing_overhead", "bench.sched_lag_p99_ms", "throughput_ops_s",
        "goodput_mib_s", "write_p50_ms", "read_p50_ms", "write_p99_ms",
        "read_p99_ms", "rebuild_s",
    } == set(run.units("per_layer"))
    # The volume journals every write, with one fsync per seal at least.
    assert result["per_layer"]["journal.fsyncs_per_write"] >= 1
    assert result["layer_self_ms"]["volume"] > 0
    assert 0 <= result["per_layer"]["bench.unattributed_share"] < 0.10


def test_corrupt_read_is_caught(monkeypatch, tmp_path):
    read_bytes = ArrayStore.read_bytes

    def corrupt(self, offset, length):
        data = read_bytes(self, offset, length)
        data[0] ^= 0xFF
        return data

    monkeypatch.setattr(ArrayStore, "read_bytes", corrupt)
    result = drive.run_workload("stream_full_stripe", 5, 15, SCALE, False, tmp_path)
    assert not result["correct"]
    assert result["mismatches"] > 0


def test_p99_withheld_below_1000_samples():
    assert drive.latency_metrics("read", [1.0] * 999) == {"read_p50_ms": 1.0}
    metrics = drive.latency_metrics("read", [float(i) for i in range(1, 1001)])
    assert metrics == {"read_p50_ms": 500.0, "read_p99_ms": 990.0}
    assert drive.latency_metrics("read", []) == {}


def test_rates_span_the_whole_phase():
    timed = drive.Timed(
        completed=300, done_bytes=150 * drive.MIB, phase=(10.0, 13.0),
        write_ms=[1.0, 3.0, 2.0], read_ms=[0.5],
    )
    assert drive.end_to_end_metrics([2.0, 1.0, 3.0], timed) == {
        "setup_s": 2.0, "throughput_ops_s": 100.0, "goodput_mib_s": 50.0,
        "write_p50_ms": 2.0, "read_p50_ms": 0.5,
    }


def test_self_time_arithmetic():
    # service [0, 10] holds store [1, 8] (two reads inside) and planner.
    thread = [
        ("service", 0.0, 10.0, -1),
        ("store", 1.0, 8.0, 0),
        ("os.read", 2.0, 3.0, 1),
        ("os.read", 4.0, 6.0, 1),
        ("planner", 8.5, 9.0, 0),
    ]
    other = [("service", 20.0, 24.0, -1)]
    self_s = spans.self_times([thread, other])
    assert self_s == pytest.approx(
        {"service": 2.5 + 4.0, "store": 4.0, "os.read": 3.0, "planner": 0.5}
    )
    assert sum(self_s.values()) == pytest.approx(14.0)
    assert spans.attributed_time([thread, other], 0.0, 30.0) == pytest.approx(14.0)
    assert spans.attributed_time([thread], 5.0, 30.0) == pytest.approx(5.0)
    assert spans.inclusive_times([thread])["store"] == pytest.approx(7.0)
    assert spans.call_counts([thread, other])["service"] == 2


def test_recorder_links_nested_calls_and_uninstalls():
    class Fake:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    originals = dict(Fake.__dict__)
    recorder = spans.SpanRecorder()
    recorder.install([
        spans.Entry("outer", Fake, ("outer",)),
        spans.Entry("inner", Fake, ("inner",)),
    ])
    try:
        assert Fake().outer() == 2
    finally:
        recorder.uninstall()
    assert Fake.__dict__["outer"] is originals["outer"]
    (thread,) = recorder.spans()
    assert [(layer, parent) for layer, _, _, parent in thread] == [
        ("outer", -1), ("inner", 0),
    ]


def test_streams_are_seeded_and_shaped():
    mix = gen.MIXES["financial_1"]
    region = 1 << 26
    a = gen.mixed_stream(mix, 20_000, region, 7, 1)
    assert a.digest() == gen.mixed_stream(mix, 20_000, region, 7, 1).digest()
    assert a.digest() != gen.mixed_stream(mix, 20_000, region, 8, 1).digest()
    assert a.digest() != gen.mixed_stream(mix, 20_000, region, 7, 2).digest()
    assert ((a.offset % gen.SECTOR == 0) & (a.offset + a.length <= region)).all()
    assert a.is_write.mean() == pytest.approx(mix.write_fraction, abs=0.02)
    assert a.length.mean() / 1024 == pytest.approx(mix.mean_kib, rel=0.1)


def test_span_stream_reads_the_span_behind_the_write():
    span, spans_ = 4096, 8
    stream = gen.span_stream(20, spans_, span, 3)
    assert stream.is_write.tolist() == [True, False] * 20
    writes, reads = stream.offset[0::2], stream.offset[1::2]
    assert np.array_equal(reads, (writes - span) % (spans_ * span))


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "higher") == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "regressed"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "regressed"
    assert compare.verdict(base, base[::-1], 0.1, "higher") == "within bound"
    assert compare.verdict(base, noisy, 0.1, "higher") == "unresolved"
    # Wide spread, but every B run beats every A run.
    assert compare.verdict(noisy, [v + 200 for v in noisy], 0.1, "higher") == "better"
    assert compare.win_fraction([1.0, 2.0], [2.0, 1.0], "higher") == 0.5


def test_compare_reads_run_records(tmp_path, capsys):
    def records(path, values, scale=1.0, valid=True):
        path.write_text("".join(
            json.dumps({
                "workload": "hot_batched", "trace": False, "seconds": 15,
                "scale": scale, "valid": valid,
                "metrics": {
                    "setup_s": {"value": v, "unit": "s"},
                    "throughput_ops_s": {"value": 1000 / v, "unit": "ops/s"},
                },
            }) + "\n"
            for v in values
        ))
        return path

    a = records(tmp_path / "a.jsonl", [1.0, 1.01, 0.99, 1.0])
    b = records(tmp_path / "b.jsonl", [1.3, 1.31, 1.29, 1.3])
    assert compare.main(["--a", str(a), "--b", str(b)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert "regressed" in next(row for row in rows if " setup_s " in row)
    # A diagnostic has no bound; it reads better or nothing.
    assert compare.main(["--a", str(b), "--b", str(a)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert next(row for row in rows if "throughput_ops_s" in row).endswith("better")
    assert compare.main(["--a", str(a), "--b", str(a)]) == 0
    # Runs of another scale are refused, not pooled.
    smoke = records(tmp_path / "smoke.jsonl", [1.0] * 4, scale=0.02)
    assert compare.main(["--a", str(a), str(smoke), "--b", str(a)]) == 2
    # Invalid runs are left out.
    late = records(tmp_path / "late.jsonl", [2.0] * 4, valid=False)
    assert compare.main(["--a", str(a), "--b", str(a), str(late)]) == 0


def test_run_prints_one_result_line(tmp_path):
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(STACK / "run.py"), "--workload", "degraded_rebuild",
         "--seed", "3", "--scale", str(SCALE), "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.units("end_to_end"))
    assert result["correct"] and result["metrics"]["setup_s"]["unit"] == "s"
    # The record and the printed lines also carry the untraced diagnostics.
    record = json.loads(out.read_text())
    assert record["seed"] == 3 and len(record["input_digest"]) == 64
    assert record["valid"] and record["metrics"]["throughput_ops_s"]["value"] > 0
    assert "throughput_ops_s" in proc.stdout


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        STACK, tmp_path / "benchmarks" / "stack",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload", "hot_batched",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
