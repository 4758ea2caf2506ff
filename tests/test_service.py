"""Concurrent block-service tests: locks, serial equivalence, stress.

Three layers of evidence that PR 6's "many callers, one array" story
holds:

* **lock units** — the readers-writer array lock and the refcounted
  per-stripe lock manager behave as specified (mutual exclusion where
  required, parallelism where allowed, no leaked lock entries, no
  deadlock under reversed acquisition sets);
* **serial equivalence** — the acceptance criterion: concurrent replay
  of disjoint-stripe traces is byte-identical to serial replay with
  identical aggregate ``IoCounters``, uncached and cached;
* **barrier stress** — many workers, overlapping *and* disjoint stripe
  ranges, fault injection and online repair all active, and the final
  array is still byte-exact against a faultless serial reference with
  no lost parity deltas (scrub-clean).

Every thread join carries a timeout: a deadlock fails the test instead
of hanging the suite (CI adds pytest-timeout on top).
"""

import threading
import time

import numpy as np
import pytest

from repro.codes import make_code
from repro.faults import FaultPlan, RepairController, Scrubber
from repro.faults.inject import FailStopError
from repro.raid import BlockDevice
from repro.raid.blockdevice import _payload
from repro.service import (
    ArrayRWLock,
    BlockService,
    FifoSemaphore,
    StripeLockManager,
    percentile,
    replay_batched,
    replay_concurrent,
    split_disjoint,
)
from repro.store import ArrayStore
from repro.traces import Trace, TraceRequest, generate_trace

CHUNK = 512
STRIPES = 16
JOIN_S = 60.0


def make_store(tmp_path, subdir="svc", cache_stripes=0, stripes=STRIPES, n=8):
    path = tmp_path / subdir
    path.mkdir(exist_ok=True)
    return ArrayStore(
        make_code("tip", n), path, stripes=stripes, chunk_bytes=CHUNK,
        cache_stripes=cache_stripes,
    )


def join_all(threads):
    """Join with a timeout so a deadlock is a failure, not a hang."""
    for thread in threads:
        thread.join(timeout=JOIN_S)
        assert not thread.is_alive(), f"{thread.name} stuck: deadlock?"


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.50) == 3.0
        assert percentile(samples, 1.0) == 5.0
        assert percentile(samples, 0.0) == 1.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0], 1.5)


class TestFifoSemaphore:
    def test_wakeups_follow_arrival_order(self):
        """Strict FIFO: with the permit held, N queued waiters are
        granted in exactly the order they arrived."""
        sem = FifoSemaphore(1)
        sem.acquire()  # hold the only permit so every waiter queues
        order = []
        threads = []
        for index in range(8):
            def waiter(i=index):
                sem.acquire()
                order.append(i)
                sem.release()

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            # Don't start the next waiter until this one is queued —
            # that pins the arrival order we assert against.
            deadline = time.monotonic() + JOIN_S
            while sem.waiting < index + 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert sem.waiting == index + 1
            threads.append(thread)
        sem.release()
        join_all(threads)
        assert order == list(range(8))
        assert sem.waiting == 0

    def test_statistical_arrival_order_under_contention(self):
        """Statistical arrival-order: each acquire takes a monotonically
        increasing ticket immediately before queuing; with strict FIFO
        the grant sequence is (near-)sorted by ticket — the only
        inversions possible are the tiny race between taking the ticket
        and joining the queue. A barging ``threading.Semaphore`` shows
        a large inversion fraction here; we assert it stays marginal."""
        sem = FifoSemaphore(1)
        cycles = 60
        tickets = iter(range(10**9))
        ticket_lock = threading.Lock()
        grants = []

        def worker():
            for _ in range(cycles):
                with ticket_lock:
                    ticket = next(tickets)
                sem.acquire()
                grants.append(ticket)
                sem.release()

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        join_all(threads)
        assert len(grants) == 4 * cycles
        inversions = sum(
            1
            for i in range(len(grants))
            for j in range(i + 1, len(grants))
            if grants[i] > grants[j]
        )
        pairs = len(grants) * (len(grants) - 1) // 2
        # Strict FIFO measures ~0 here; the bound leaves room for the
        # ticket-to-queue race but rules out semaphore-style barging.
        assert inversions / pairs < 0.05, (inversions, pairs)

    def test_over_release_raises(self):
        sem = FifoSemaphore(2)
        with pytest.raises(ValueError, match="released too many"):
            sem.release()
        sem.acquire()
        sem.release()
        with pytest.raises(ValueError, match="released too many"):
            sem.release()

    def test_counters_account_every_acquire(self):
        sem = FifoSemaphore(3)
        for _ in range(5):
            with sem:
                pass
        assert sem.acquisitions == 5
        assert sem.wait_ms >= 0.0

    def test_rejects_nonpositive_permits(self):
        with pytest.raises(ValueError, match="value"):
            FifoSemaphore(0)


class TestArrayRWLock:
    def test_shared_is_concurrent(self):
        lock = ArrayRWLock()
        entered = threading.Event()
        released = threading.Event()

        def reader():
            with lock.shared():
                entered.set()
                released.wait(JOIN_S)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        assert entered.wait(JOIN_S)
        # A second reader gets in while the first still holds shared.
        with lock.shared():
            pass
        released.set()
        join_all([thread])

    def test_exclusive_blocks_shared(self):
        lock = ArrayRWLock()
        lock.acquire_exclusive()
        got_in = threading.Event()
        thread = threading.Thread(
            target=lambda: (lock.acquire_shared(), got_in.set(),
                            lock.release_shared()),
            daemon=True,
        )
        thread.start()
        assert not got_in.wait(0.1)
        lock.release_exclusive()
        assert got_in.wait(JOIN_S)
        join_all([thread])

    def test_writer_preference_blocks_new_readers(self):
        lock = ArrayRWLock()
        lock.acquire_shared()
        writer_done = threading.Event()
        writer = threading.Thread(
            target=lambda: (lock.acquire_exclusive(), writer_done.set(),
                            lock.release_exclusive()),
            daemon=True,
        )
        writer.start()
        # Wait for the writer to register as waiting, then a new reader
        # must queue behind it instead of overtaking.
        deadline = time.monotonic() + JOIN_S
        while not lock._writers_waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert lock._writers_waiting == 1
        late_reader_in = threading.Event()
        reader = threading.Thread(
            target=lambda: (lock.acquire_shared(), late_reader_in.set(),
                            lock.release_shared()),
            daemon=True,
        )
        reader.start()
        assert not late_reader_in.wait(0.1)
        lock.release_shared()  # writer runs first, then the late reader
        assert writer_done.wait(JOIN_S)
        assert late_reader_in.wait(JOIN_S)
        join_all([writer, reader])


class TestStripeLockManager:
    def test_locks_are_refcounted_away(self):
        manager = StripeLockManager()
        with manager.locked([3, 1, 3]):
            assert len(manager) == 2  # deduplicated: {1, 3}
        assert len(manager) == 0

    def test_overlapping_sets_are_mutually_exclusive(self):
        manager = StripeLockManager()
        shared = [0]
        iterations = 200

        def bump(stripes):
            for _ in range(iterations):
                with manager.locked(stripes):
                    value = shared[0]
                    if value % 7 == 0:
                        time.sleep(0)  # widen the lost-update window
                    shared[0] = value + 1

        threads = [
            threading.Thread(target=bump, args=(s,), daemon=True)
            for s in ([2, 5], [5, 9], [9, 2])
        ]
        for thread in threads:
            thread.start()
        join_all(threads)
        assert shared[0] == 3 * iterations

    def test_disjoint_sets_run_in_parallel(self):
        manager = StripeLockManager()
        holding = threading.Event()
        released = threading.Event()

        def holder():
            with manager.locked([1]):
                holding.set()
                released.wait(JOIN_S)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert holding.wait(JOIN_S)
        with manager.locked([2]):  # must not block on stripe 1's holder
            pass
        released.set()
        join_all([thread])

    def test_reversed_acquisition_order_does_not_deadlock(self):
        manager = StripeLockManager()

        def worker(stripes):
            for _ in range(300):
                with manager.locked(stripes):
                    pass

        threads = [
            threading.Thread(target=worker, args=(s,), daemon=True)
            for s in ([7, 3], [3, 7], [7, 3, 11], [11, 3])
        ]
        for thread in threads:
            thread.start()
        join_all(threads)
        assert len(manager) == 0


class TestSplitDisjoint:
    def test_partitions_touch_disjoint_stripes(self, tmp_path):
        store = make_store(tmp_path)
        device = BlockDevice(store)
        trace = generate_trace("prxy_0", requests=120, seed=4)
        parts = split_disjoint(trace, 4, store)
        assert sum(len(p) for p in parts) == len(trace)
        touched = []
        for part in parts:
            stripes = set()
            for request in part:
                for run in device.mapping.byte_runs(
                    request.offset, request.length
                ):
                    stripes.add(run.stripe)
            touched.append(stripes)
        for i in range(len(touched)):
            for j in range(i + 1, len(touched)):
                assert not (touched[i] & touched[j]), (i, j)

    def test_rejects_impossible_partitioning(self, tmp_path):
        store = make_store(tmp_path)
        trace = generate_trace("prxy_0", requests=8, seed=1)
        with pytest.raises(ValueError, match="cannot feed"):
            split_disjoint(trace, 9, store)
        with pytest.raises(ValueError, match="disjoint partitions"):
            split_disjoint(
                generate_trace("prxy_0", requests=64, seed=1),
                STRIPES + 1,
                store,
            )


def _serial_reference(tmp_path, traces, subdir, cache_stripes=0):
    """Replay ``traces`` back-to-back serially; return (image, io)."""
    store = make_store(tmp_path, subdir=subdir, cache_stripes=cache_stripes)
    with store:
        device = BlockDevice(store)
        before = store.io.snapshot()
        for trace in traces:
            device.replay(trace)
        io = store.io.snapshot() - before
        image = store.read_bytes(0, store.capacity_bytes).copy()
    return image, io


class TestSerialEquivalence:
    """The PR's acceptance criterion, uncached and cached."""

    @pytest.mark.parametrize("cache_stripes", [0, STRIPES])
    def test_concurrent_matches_serial(self, tmp_path, cache_stripes):
        trace = generate_trace("prxy_0", requests=200, seed=4)
        workers = 4
        store = make_store(
            tmp_path, subdir="conc", cache_stripes=cache_stripes
        )
        with store:
            parts = split_disjoint(trace, workers, store)
            result = replay_concurrent(store, parts)
            conc_image = store.read_bytes(0, store.capacity_bytes).copy()
        serial_image, serial_io = _serial_reference(
            tmp_path, parts, subdir="ser", cache_stripes=cache_stripes
        )
        assert np.array_equal(conc_image, serial_image)
        # Aggregate counters identical, field for field. (With a cache
        # this requires no evictions — capacity >= stripes touched —
        # because LRU victim choice depends on interleaving.)
        assert result.io == serial_io
        assert result.workers == workers
        assert result.requests == len(trace)
        assert len(result.latencies_ms) == len(trace)
        assert result.p99_latency_ms >= result.p50_latency_ms

    def test_single_worker_equals_plain_replay(self, tmp_path):
        trace = generate_trace("src2_0", requests=80, seed=9)
        store = make_store(tmp_path, subdir="one")
        with store:
            result = replay_concurrent(store, [trace])
            image = store.read_bytes(0, store.capacity_bytes).copy()
        serial_image, serial_io = _serial_reference(
            tmp_path, [trace], subdir="oneref"
        )
        assert np.array_equal(image, serial_image)
        assert result.io == serial_io


class _AlwaysRepairs:
    """Stub controller: claims to handle every fault (nothing changes)."""

    def handle_fault(self, exc):
        return True


class TestServiceFrontEnd:
    def test_submit_round_trip(self, tmp_path):
        store = make_store(tmp_path, subdir="fut")
        with store, BlockService(store, workers=2) as service:
            payload = bytes(range(256)) * 4
            service.submit_write(100, payload).result(timeout=JOIN_S)
            future = service.submit_read(100, len(payload))
            assert future.result(timeout=JOIN_S) == payload

    def test_close_flushes_the_cache(self, tmp_path):
        store = make_store(tmp_path, subdir="flush", cache_stripes=4)
        with store:
            service = BlockService(store)
            service.write(0, b"\xaa" * (2 * CHUNK))
            assert store.cache.dirty_stripes
            service.close()
            assert not store.cache.dirty_stripes

    def test_retry_cap_chains_the_final_fault(self, tmp_path, monkeypatch):
        store = make_store(tmp_path, subdir="cap")
        with store:
            service = BlockService(store, repair=_AlwaysRepairs())

            def always_faults(offset, data):
                raise FailStopError(0)

            monkeypatch.setattr(store, "write_bytes", always_faults)
            with pytest.raises(IOError, match="still faulting") as info:
                service.write(0, b"x" * 16)
            assert isinstance(info.value.__cause__, FailStopError)
            assert info.value.__cause__.disk == 0

    def test_qos_repair_ticks_interleave(self, tmp_path):
        store = make_store(tmp_path, subdir="qos")
        with store:
            plan = FaultPlan.parse("seed=3;latent:disk=1,rate=0.004")
            store.set_fault_plan(plan)
            repair = RepairController(store)
            trace = generate_trace("prxy_0", requests=120, seed=6)
            parts = split_disjoint(trace, 4, store)
            result = replay_concurrent(
                store, parts, repair=repair, repair_every=10
            )
            assert result.repair_ticks == len(trace) // 10
            scrubber = Scrubber(store)
            report = scrubber.run()
        assert report.unfixable == 0


def _disjoint_requests(stripes, per_stripe_bytes, seed, count=30):
    """Byte requests confined to a contiguous stripe range."""
    rng = np.random.default_rng(seed)
    lo = stripes[0] * per_stripe_bytes
    span = len(stripes) * per_stripe_bytes
    requests = []
    for _ in range(count):
        length = int(rng.integers(1, 3 * CHUNK))
        offset = lo + int(rng.integers(0, span - length))
        requests.append(
            TraceRequest(0.0, offset, length, bool(rng.random() < 0.8))
        )
    return requests


def _shared_requests(stripes, per_stripe_bytes):
    """Byte-disjoint, stripe-overlapping requests over a shared region.

    Replayed concurrently by several identical workers: payloads are
    offset-derived, so replicas write identical bytes (data idempotent,
    repeated parity deltas XOR to zero) — any interleaving must converge
    to the serial image.
    """
    lo = stripes[0] * per_stripe_bytes
    span = len(stripes) * per_stripe_bytes
    step = 3 * CHUNK // 2  # unaligned: sub-chunk heads and tails
    requests = []
    cursor = 0
    while cursor + 16 < span:
        length = min(step - 7, span - cursor)
        requests.append(TraceRequest(0.0, lo + cursor, length, True))
        cursor += step
    return requests


class TestBarrierStress:
    """Satellite: overlapping + disjoint ranges, faults + repair live."""

    OVERLAP_REPLICAS = 3

    def _run(self, store, disjoint_sets, shared, repair=None):
        service = BlockService(
            store, repair=repair, repair_every=20 if repair else 0
        )
        worker_lists = list(disjoint_sets)
        worker_lists += [shared] * self.OVERLAP_REPLICAS
        barrier = threading.Barrier(len(worker_lists))
        errors = []

        def worker(requests):
            try:
                barrier.wait(timeout=JOIN_S)
                for request in requests:
                    payload = _payload(request, request.length)
                    if request.is_write:
                        service.write(request.offset, payload)
                    else:
                        service.read(request.offset, request.length)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(
                target=worker, args=(requests,),
                name=f"stress-{index}", daemon=True,
            )
            for index, requests in enumerate(worker_lists)
        ]
        for thread in threads:
            thread.start()
        join_all(threads)
        service.close()
        if errors:
            raise errors[0]
        return service

    def test_stress_matches_serial_and_loses_no_parity(self, tmp_path):
        per_stripe = make_code("tip", 8).num_data * CHUNK
        # Stripes 0..11 split four ways (disjoint traffic); 12..15 are
        # the contended region three replicas hammer concurrently.
        disjoint_sets = [
            _disjoint_requests(range(3 * i, 3 * i + 3), per_stripe, seed=i)
            for i in range(4)
        ]
        shared = _shared_requests(range(12, 16), per_stripe)

        # Faultless serial reference: each request stream once, in order.
        ref = make_store(tmp_path, subdir="ref", cache_stripes=STRIPES)
        with ref:
            for requests in [*disjoint_sets, shared]:
                for request in requests:
                    payload = _payload(request, request.length)
                    if request.is_write:
                        ref.write_bytes(request.offset, payload)
                    else:
                        ref.read_bytes(request.offset, request.length)
            ref.flush()
            expected = ref.read_bytes(0, ref.capacity_bytes).copy()

        # Stressed run: same streams, concurrent, faults + repair live.
        store = make_store(tmp_path, subdir="hot", cache_stripes=STRIPES)
        with store:
            plan = FaultPlan.parse(
                "seed=11;fail_stop:disk=5,at_op=60;"
                "latent:disk=2,rate=0.01;transient:disk=3,rate=0.01"
            )
            store.set_fault_plan(plan)
            repair = RepairController(store)
            self._run(store, disjoint_sets, shared, repair=repair)
            # Verification phase: detach the rate-based plan so the scrub
            # audits the array instead of minting new latent errors.
            store.set_fault_plan(None)
            # No lost parity deltas: every surviving stripe's parity must
            # match its data — scrub finds nothing to fix.
            report = Scrubber(store).run()
            assert report.errors_found == 0, report.summary()
            got = store.read_bytes(0, store.capacity_bytes).copy()
            stats = repair.stats
        assert np.array_equal(got, expected)
        assert plan.stats.fail_stops + plan.stats.latent_minted > 0
        assert stats.fail_stops_handled >= 1

    def test_stress_without_faults_is_deterministic(self, tmp_path):
        per_stripe = make_code("tip", 8).num_data * CHUNK
        disjoint_sets = [
            _disjoint_requests(range(4 * i, 4 * i + 4), per_stripe,
                               seed=50 + i, count=25)
            for i in range(3)
        ]
        shared = _shared_requests(range(12, 16), per_stripe)
        images = []
        for tag in ("a", "b"):
            store = make_store(tmp_path, subdir=f"det{tag}",
                               cache_stripes=STRIPES)
            with store:
                self._run(store, disjoint_sets, shared)
                images.append(
                    store.read_bytes(0, store.capacity_bytes).copy()
                )
        assert np.array_equal(images[0], images[1])


def _batched_reference(tmp_path, trace, subdir, cache_stripes=0):
    """Serial device replay of ``trace``; return (image, io)."""
    store = make_store(tmp_path, subdir=subdir, cache_stripes=cache_stripes)
    with store:
        device = BlockDevice(store)
        before = store.io.snapshot()
        device.replay(trace)
        io = store.io.snapshot() - before
        image = store.read_bytes(0, store.capacity_bytes).copy()
    return image, io


class TestBatchedService:
    """The batched execution path: equivalence, meters, fallbacks."""

    def test_enqueue_requires_batched_mode(self, tmp_path):
        store = make_store(tmp_path, subdir="nob")
        with store, BlockService(store, workers=1) as service:
            with pytest.raises(ValueError, match="batch"):
                service.enqueue(True, 0, b"x" * 16)

    def test_rejects_bad_batch_geometry(self, tmp_path):
        store = make_store(tmp_path, subdir="badgeo")
        with store:
            with pytest.raises(ValueError, match="batch_size"):
                BlockService(store, batch_size=-1)
            with pytest.raises(ValueError, match="batch_window_s"):
                BlockService(store, batch_size=4, batch_window_s=-0.5)

    def test_batched_roundtrip(self, tmp_path):
        store = make_store(tmp_path, subdir="rt")
        payload = bytes(range(256)) * 3
        with store, BlockService(store, batch_size=8) as service:
            write = service.enqueue(True, CHUNK + 17, payload)
            assert write.result(timeout=JOIN_S) is None
            read = service.enqueue(False, CHUNK + 17, len(payload))
            assert bytes(read.result(timeout=JOIN_S)) == payload

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_replay_batched_matches_serial(self, tmp_path, batch_size):
        """Acceptance: any batch size produces the serial image and the
        serial aggregate chunk ``IoCounters`` — the paper's per-write
        1+3 accounting is batching-invariant."""
        trace = generate_trace("prxy_0", requests=200, seed=4)
        store = make_store(tmp_path, subdir=f"b{batch_size}")
        with store:
            result = replay_batched(store, trace, batch_size=batch_size)
            image = store.read_bytes(0, store.capacity_bytes).copy()
        serial_image, serial_io = _batched_reference(
            tmp_path, trace, subdir=f"ref{batch_size}"
        )
        assert np.array_equal(image, serial_image)
        assert result.io == serial_io
        assert result.requests == len(trace)
        assert result.batch_size == batch_size
        if batch_size > 1:
            assert result.batches < len(trace)
        assert result.syscalls is not None and result.syscalls.total > 0
        assert result.host_cpus >= 1
        for key in ("admission_acquisitions", "admission_wait_ms"):
            assert key in result.contention, key

    def test_replay_batched_cached_store_matches(self, tmp_path):
        """Cached stores route batches through ``cache.apply_batch``.

        With capacity for every touched stripe the ledger is
        eviction-free and batching must reproduce serial replay counter
        for counter. With a tiny cache, LRU victim choice depends on
        touch order — which the stripe-affinity dispatcher deliberately
        changes — so per the determinism contract only bytes must
        match, and stripe-dense batches may only shrink the chunk
        traffic the thrashing cache would otherwise spill."""
        trace = generate_trace("src2_0", requests=150, seed=8)
        store = make_store(tmp_path, subdir="bc", cache_stripes=STRIPES)
        with store:
            result = replay_batched(store, trace, batch_size=16)
            store.flush()
            image = store.read_bytes(0, store.capacity_bytes).copy()
        serial_image, serial_io = _batched_reference(
            tmp_path, trace, subdir="bcref", cache_stripes=STRIPES
        )
        assert np.array_equal(image, serial_image)
        assert result.io == serial_io

        small = make_store(tmp_path, subdir="bc4", cache_stripes=4)
        with small:
            small_result = replay_batched(small, trace, batch_size=16)
            small.flush()
            small_image = small.read_bytes(0, small.capacity_bytes).copy()
        small_serial_image, small_serial_io = _batched_reference(
            tmp_path, trace, subdir="bc4ref", cache_stripes=4
        )
        assert np.array_equal(small_image, small_serial_image)

        def total(io):
            return (
                io.data_chunks_read + io.parity_chunks_read
                + io.data_chunks_written + io.parity_chunks_written
            )

        assert total(small_result.io) <= total(small_serial_io), (
            small_result.io,
            small_serial_io,
        )

    def test_replay_batched_under_faults_falls_back(self, tmp_path):
        """A fault-injecting store dispatches per request (keeping the
        repair-retry discipline) and still converges byte-exact."""
        trace = generate_trace("prxy_0", requests=120, seed=6)
        store = make_store(tmp_path, subdir="bf")
        with store:
            plan = FaultPlan.parse("seed=3;latent:disk=1,rate=0.004")
            store.set_fault_plan(plan)
            repair = RepairController(store)
            replay_batched(
                store, trace, batch_size=16, repair=repair, repair_every=10
            )
            store.set_fault_plan(None)
            report = Scrubber(store).run()
            image = store.read_bytes(0, store.capacity_bytes).copy()
        assert report.unfixable == 0
        serial_image, _ = _batched_reference(tmp_path, trace, subdir="bfref")
        assert np.array_equal(image, serial_image)

    def test_execute_batch_cuts_syscalls_4x(self, tmp_path):
        """Acceptance: span-coalesced batch execution performs >= 4x
        fewer backing-file syscalls than per-request execution, while
        logical chunk counters stay identical (deterministic: driven
        through ``execute_batch`` directly, no dispatcher timing)."""
        rng = np.random.default_rng(21)
        ops = []
        for _ in range(64):
            length = int(rng.integers(1, 3 * CHUNK))
            capacity = STRIPES * 5 * CHUNK  # tip-8: 5 data columns
            offset = int(rng.integers(0, capacity - length))
            if rng.random() < 0.8:
                payload = rng.integers(0, 256, size=length, dtype=np.uint8)
                ops.append((True, offset, payload.tobytes()))
            else:
                ops.append((False, offset, length))

        serial = make_store(tmp_path, subdir="sys-serial")
        with serial:
            serial_results = [
                serial.write_bytes(op[1], op[2]) if op[0]
                else serial.read_bytes(op[1], op[2]).copy()
                for op in ops
            ]
            serial_io = serial.io.snapshot()
            serial_syscalls = serial.syscalls.total
            serial_image = serial.read_bytes(0, serial.capacity_bytes).copy()

        batched = make_store(tmp_path, subdir="sys-batch")
        with batched:
            batch_results = batched.execute_batch(ops)
            batch_io = batched.io.snapshot()
            batch_syscalls = batched.syscalls.total
            batch_image = (
                batched.read_bytes(0, batched.capacity_bytes).copy()
            )

        assert np.array_equal(serial_image, batch_image)
        assert serial_io == batch_io
        for index, op in enumerate(ops):
            if not op[0]:
                assert np.array_equal(
                    serial_results[index], batch_results[index]
                ), index
        assert batch_syscalls * 4 <= serial_syscalls, (
            batch_syscalls, serial_syscalls
        )
        assert batched.syscalls.vector_reads > 0
        assert batched.syscalls.vector_writes > 0


class TestReplayConcurrentHygiene:
    def test_worker_error_propagates(self, tmp_path):
        store = make_store(tmp_path, subdir="err")
        bad = Trace("bad", [
            TraceRequest(0.0, 0, 64, True) for _ in range(4)
        ])
        with store:
            original = store.write_bytes

            def explode(offset, data):
                raise RuntimeError("boom")

            store.write_bytes = explode
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    replay_concurrent(store, [bad, bad])
            finally:
                store.write_bytes = original
