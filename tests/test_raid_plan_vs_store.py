"""Plan-vs-measured cross-validation: the controller and the store agree.

The headline property of the unified RAID layer: for every code and
request class, the *planned* element I/O counts the DiskSim controller
prices (with the store-equivalent ``"delta"`` strategy) must equal the
*measured* chunk I/Os the real file-backed store performs — split by
data/parity and read/write, healthy and degraded. The store meters
actual transfers against backing files, so this is evidence the two
write-path models are one model, not two implementations that happen to
agree on TIP.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.disksim import RaidController
from repro.raid import BlockDevice, plan_io_counters
from repro.store import ArrayStore
from repro.traces import TraceRequest

CHUNK = 512

FAMILIES = [("tip", 8), ("star", 6), ("triple-star", 6), ("cauchy-rs", 6)]


def build(tmp_path, family, n, failed=()):
    code = make_code(family, n)
    store = ArrayStore(
        code, tmp_path / f"{family}{n}-{len(failed)}", stripes=4,
        chunk_bytes=CHUNK,
    )
    # Populate with data so deltas and parities are non-trivial.
    rng = np.random.default_rng(99)
    store.write_chunks(
        0,
        rng.integers(0, 256, size=(store.capacity_chunks, CHUNK),
                     dtype=np.uint8),
    )
    for disk in failed:
        store.fail_disk(disk)
    controller = RaidController(code, CHUNK, write_strategy="delta")
    return code, store, controller


def assert_plan_matches_measured(code, store, controller, request, failed):
    plan = controller.plan(request, failed=tuple(failed))
    planned = plan_io_counters(code, plan)
    device = BlockDevice(store)
    if request.is_write:
        device.write(request.offset, bytes(request.length))
    else:
        device.read(request.offset, request.length)
    measured = store.last_io
    context = (code.name, failed, request.offset, request.length,
               request.is_write)
    assert planned.data_chunks_read == measured.data_chunks_read, context
    assert planned.parity_chunks_read == measured.parity_chunks_read, context
    assert planned.data_chunks_written == measured.data_chunks_written, context
    assert (
        planned.parity_chunks_written == measured.parity_chunks_written
    ), context


def request_classes(code):
    """Representative byte requests: aligned, unaligned, sub-chunk,
    stripe-spanning, full-stripe."""
    per_stripe = code.num_data * CHUNK
    return [
        (0, CHUNK),                                  # aligned single chunk
        (CHUNK // 4, CHUNK // 8),                    # sub-chunk, unaligned
        (3 * CHUNK + 100, 2 * CHUNK),                # unaligned multi-chunk
        (per_stripe - CHUNK, 2 * CHUNK),             # spans two stripes
        (0, per_stripe),                             # aligned full stripe
        (per_stripe + 17, per_stripe),               # unaligned full span
    ]


class TestHealthyArray:
    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_writes_match(self, tmp_path, family, n):
        code, store, controller = build(tmp_path, family, n)
        for offset, length in request_classes(code):
            request = TraceRequest(0.0, offset, length, True)
            assert_plan_matches_measured(code, store, controller, request, ())

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_reads_match(self, tmp_path, family, n):
        code, store, controller = build(tmp_path, family, n)
        for offset, length in request_classes(code):
            request = TraceRequest(0.0, offset, length, False)
            assert_plan_matches_measured(code, store, controller, request, ())


class TestDegradedArray:
    @pytest.mark.parametrize("family,n", FAMILIES)
    @pytest.mark.parametrize("failed", [(0,), (0, 2), (0, 2, 4)])
    def test_degraded_reads_match(self, tmp_path, family, n, failed):
        code, store, controller = build(tmp_path, family, n, failed=failed)
        for offset, length in request_classes(code):
            request = TraceRequest(0.0, offset, length, False)
            assert_plan_matches_measured(
                code, store, controller, request, failed
            )

    @pytest.mark.parametrize("family,n", FAMILIES)
    @pytest.mark.parametrize("failed", [(1,), (1, 3, 5)])
    def test_degraded_writes_match(self, tmp_path, family, n, failed):
        code, store, controller = build(tmp_path, family, n, failed=failed)
        for offset, length in request_classes(code):
            request = TraceRequest(0.0, offset, length, True)
            assert_plan_matches_measured(
                code, store, controller, request, failed
            )


class TestPropertyStyle:
    """Randomized sweep: any offset/length/direction, plan == measured."""

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_random_requests(self, tmp_path, family, n):
        code, store, controller = build(tmp_path, family, n)
        capacity = store.capacity_bytes
        rng = np.random.default_rng(hash((family, n)) & 0xFFFF)
        for _ in range(40):
            offset = int(rng.integers(0, capacity - 1))
            length = int(rng.integers(1, min(capacity - offset, 6 * CHUNK) + 1))
            is_write = bool(rng.random() < 0.6)
            request = TraceRequest(0.0, offset, length, is_write)
            assert_plan_matches_measured(code, store, controller, request, ())

    def test_random_requests_degraded(self, tmp_path):
        code, store, controller = build(tmp_path, "tip", 8, failed=(0, 3))
        capacity = store.capacity_bytes
        rng = np.random.default_rng(7)
        for _ in range(40):
            offset = int(rng.integers(0, capacity - 1))
            length = int(rng.integers(1, min(capacity - offset, 6 * CHUNK) + 1))
            is_write = bool(rng.random() < 0.5)
            request = TraceRequest(0.0, offset, length, is_write)
            assert_plan_matches_measured(
                code, store, controller, request, (0, 3)
            )


class TestAggregateConsistency:
    def test_simulator_and_store_price_identical_plans(self, tmp_path):
        """The simulator's total element I/Os for a trace equal the
        store's measured chunk I/Os when both use the delta strategy."""
        from repro.disksim import ArraySimulator
        from repro.traces import Trace

        code, store, _ = build(tmp_path, "tip", 8)
        requests = [
            TraceRequest(i * 0.5, (i * 777) % (store.capacity_bytes - 4096),
                         1024 + 512 * (i % 5), i % 3 != 0)
            for i in range(30)
        ]
        trace = Trace("agg", requests)
        simulator = ArraySimulator(code, CHUNK, write_strategy="delta")
        sim_result = simulator.run(trace)
        before = store.io.snapshot()
        BlockDevice(store).replay(trace)
        measured = store.io.snapshot() - before
        assert sim_result.total_element_ios == measured.total_chunks


class TestCachedStrategy:
    """The "cached" strategy's exactness guarantee, cross-code.

    The shadow cache replays the real :class:`repro.raid.StripeCache`
    logic over a recording backend, so the planned element I/Os must
    equal the cached store's measured chunk I/Os for *every* request in
    a sequence (cache state is stateful — order matters), plus the
    final flush.
    """

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_cached_sequence_matches(self, tmp_path, family, n):
        code = make_code(family, n)
        store = ArrayStore(
            code, tmp_path / f"{family}{n}", stripes=4, chunk_bytes=CHUNK,
            cache_stripes=2,
        )
        rng = np.random.default_rng(hash(("cached", family, n)) & 0xFFFF)
        store.write_chunks(
            0,
            rng.integers(0, 256, size=(store.capacity_chunks, CHUNK),
                         dtype=np.uint8),
        )
        store.flush()
        controller = RaidController(
            code, CHUNK, write_strategy="cached", cache_stripes=2
        )
        capacity = store.capacity_bytes
        device = BlockDevice(store)
        for i in range(40):
            offset = int(rng.integers(0, capacity - 1))
            length = int(rng.integers(1, min(capacity - offset, 6 * CHUNK) + 1))
            is_write = bool(rng.random() < 0.7)
            planned = plan_io_counters(
                code,
                controller.plan(TraceRequest(float(i), offset, length,
                                             is_write)),
            )
            if is_write:
                device.write(offset, bytes(length))
            else:
                device.read(offset, length)
            measured = store.last_io
            context = (family, n, i, offset, length, is_write)
            assert planned.data_chunks_read == measured.data_chunks_read, (
                context
            )
            assert (
                planned.parity_chunks_read == measured.parity_chunks_read
            ), context
            assert (
                planned.data_chunks_written == measured.data_chunks_written
            ), context
            assert (
                planned.parity_chunks_written
                == measured.parity_chunks_written
            ), context
        planned_flush = plan_io_counters(code, controller.planner.plan_flush())
        before = store.io.snapshot()
        store.flush()
        measured_flush = store.io.snapshot() - before
        assert planned_flush.data_chunks_read == (
            measured_flush.data_chunks_read
        )
        assert planned_flush.parity_chunks_read == (
            measured_flush.parity_chunks_read
        )
        assert planned_flush.data_chunks_written == (
            measured_flush.data_chunks_written
        )
        assert planned_flush.parity_chunks_written == (
            measured_flush.parity_chunks_written
        )
        assert store.scrub() == []


def _batch_workload(store, seed, count=48):
    """Deterministic mixed read/write ops for :meth:`execute_batch`."""
    rng = np.random.default_rng(seed)
    capacity = store.capacity_bytes
    ops = []
    for _ in range(count):
        length = int(rng.integers(1, 3 * CHUNK))
        offset = int(rng.integers(0, capacity - length))
        if rng.random() < 0.7:
            payload = rng.integers(0, 256, size=length, dtype=np.uint8)
            ops.append((True, offset, payload.tobytes()))
        else:
            ops.append((False, offset, length))
    return ops


class TestBatchedExecutionEquivalence:
    """Satellite: batched execution == serial execution for every code
    family and every tolerated failure count.

    The batched span path (healthy arrays) and the serial fallback
    (degraded arrays) must both produce byte-identical contents,
    identical read results, and identical aggregate chunk
    ``IoCounters`` to executing the same operations one at a time —
    the paper's per-request accounting is batching-invariant.
    """

    @pytest.mark.parametrize("family,n", FAMILIES)
    @pytest.mark.parametrize("failed", [(), (0,), (0, 2), (0, 2, 4)])
    def test_batch_matches_serial(self, tmp_path, family, n, failed):
        code = make_code(family, n)
        seed = hash(("batch", family, n, failed)) & 0xFFFF
        images = []
        ios = []
        reads = []
        syscall_totals = []
        for mode in ("serial", "batched"):
            store = ArrayStore(
                code, tmp_path / f"{mode}", stripes=4, chunk_bytes=CHUNK,
            )
            with store:
                rng = np.random.default_rng(99)
                store.write_chunks(
                    0,
                    rng.integers(0, 256,
                                 size=(store.capacity_chunks, CHUNK),
                                 dtype=np.uint8),
                )
                for disk in failed:
                    store.fail_disk(disk)
                ops = _batch_workload(store, seed)
                before = store.io.snapshot()
                if mode == "serial":
                    results = [
                        store.write_bytes(op[1], op[2]) if op[0]
                        else store.read_bytes(op[1], op[2]).copy()
                        for op in ops
                    ]
                else:
                    results = []
                    for start in range(0, len(ops), 16):
                        results.extend(
                            store.execute_batch(ops[start:start + 16])
                        )
                ios.append(store.io.snapshot() - before)
                syscall_totals.append(store.syscalls.total)
                reads.append([
                    results[i] for i, op in enumerate(ops) if not op[0]
                ])
                store.flush()
                surviving = [
                    d for d in range(code.n) if d not in store.failed
                ]
            # Physical comparison: surviving backing files byte for
            # byte, so parity (not just logical data) must match.
            images.append(b"".join(
                (tmp_path / mode / f"disk{d:03d}.img").read_bytes()
                for d in surviving
            ))
        assert images[0] == images[1], (family, n, failed)
        assert ios[0] == ios[1], (family, n, failed)
        for serial_read, batch_read in zip(reads[0], reads[1]):
            assert np.array_equal(serial_read, batch_read)
        if not failed:
            # Healthy arrays take the span path: strictly fewer
            # syscalls than one-at-a-time execution.
            assert syscall_totals[1] < syscall_totals[0]

    def test_empty_batch_is_a_noop(self, tmp_path):
        code = make_code("tip", 8)
        store = ArrayStore(code, tmp_path / "e", stripes=4,
                           chunk_bytes=CHUNK)
        with store:
            assert store.execute_batch([]) == []
            assert store.io.snapshot().total_chunks == 0


class TestReconstructWrite:
    """Partial-stripe runs long enough to take reconstruct-write: the
    controller prices exactly what the store's RCW path moves, and the
    store holds the bytes a model image predicts."""

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_rcw_runs_match(self, tmp_path, family, n):
        code, store, controller = build(tmp_path, family, n)
        model = store.read_bytes(0, store.capacity_bytes).copy()
        device = BlockDevice(store)
        rng = np.random.default_rng(hash(("rcw", family, n)) & 0xFFFF)
        per_stripe = code.num_data * CHUNK
        lengths = sorted({2, 3, code.num_data // 2, code.num_data - 1})
        rcw_runs = 0
        for length in lengths:
            for offset in (
                per_stripe,                               # aligned head
                per_stripe + CHUNK // 2,                  # unaligned
                2 * per_stripe - length * CHUNK,          # ends the stripe
                3 * per_stripe - length * CHUNK // 2,     # spans two stripes
            ):
                nbytes = length * CHUNK
                request = TraceRequest(0.0, offset, nbytes, True)
                planned = plan_io_counters(code, controller.plan(request))
                for run in store.planner.mapping.byte_runs(offset, nbytes):
                    plan = store.planner.plan_write_run(
                        run.start, run.length,
                        partial=run.is_partial(CHUNK),
                    )
                    rcw_runs += plan.path == "rcw"
                payload = rng.integers(0, 256, nbytes, dtype=np.uint8)
                device.write(offset, payload.tobytes())
                model[offset : offset + nbytes] = payload
                measured = store.last_io
                assert (
                    planned.data_chunks_read, planned.parity_chunks_read,
                    planned.data_chunks_written, planned.parity_chunks_written,
                ) == (
                    measured.data_chunks_read, measured.parity_chunks_read,
                    measured.data_chunks_written, measured.parity_chunks_written,
                ), (family, n, offset, length)
        assert rcw_runs > 0, (family, n)
        assert np.array_equal(store.read_bytes(0, store.capacity_bytes), model)
        assert store.scrub() == []
