"""Flat combining at both front doors.

:class:`CombiningContract` states the rules of the one combining queue
(:class:`repro.service.locks.CombiningQueue`) as tests against a front
door: at most one request inside at a time, FIFO order, a failing
request fails only its caller, bounded rounds, a ``BaseException``
strands no waiter, ``close`` drains the queue, and overlapping callers
match a serial model. A front door runs the suite by subclassing it and
filling in the hooks; ``tests/test_volume.py::TestVolumeService`` runs it
on ``VolumeService`` and :class:`TestBlockServiceCombining` below on
``BlockService``, together with the tests only ``enqueue`` needs.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.codes import make_code
from repro.raid import BlockDevice
from repro.service import BlockService, replay_batched
from repro.store import ArrayStore
from repro.traces import generate_trace


class _ThreadDeath(BaseException):
    """Not an ``Exception``: what a thread going down raises."""


def _wait_for(predicate, timeout=10.0):
    """Poll until ``predicate()`` holds; fails the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def _start_queued(service, threads):
    """Start ``threads`` one at a time, each once the previous one has
    reached the queue: the first becomes the combiner and the rest
    queue behind it in this order."""
    queue = service._combiner
    for queued, thread in enumerate(threads):
        thread.start()
        _wait_for(lambda: queue.combining and len(queue.waiting) == queued)


def _join(threads):
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


class CombiningContract:
    """The combining rules, as tests against one front door.

    Subclasses implement :meth:`_open`, :meth:`_capacity`,
    :meth:`_reopened_read` and :meth:`_scrub_clean`. The *backend* is
    the object whose ``read_bytes(offset, length)`` and
    ``write_bytes(offset, data)`` the service calls to run a request;
    the tests patch those on the instance to hold, fail or log
    requests. Offsets up to 6,208 bytes must be addressable.
    """

    def _open(self, tmp_path, workers=4):
        """Return ``(service, backend)`` over fresh storage."""
        raise NotImplementedError

    def _capacity(self, backend):
        """Addressable bytes of ``backend``."""
        raise NotImplementedError

    def _reopened_read(self, tmp_path, backend, offset, length):
        """``length`` bytes at ``offset``, read from storage reopened
        after the service closed."""
        raise NotImplementedError

    def _scrub_clean(self, backend):
        """True when every stripe's parity matches its data."""
        raise NotImplementedError

    def test_one_request_runs_in_the_volume_at_a_time(self, tmp_path):
        service, backend = self._open(tmp_path, workers=8)
        inflight, peak = [0], [0]
        gate = threading.Lock()

        def tracked(original):
            def call(*args):
                with gate:
                    inflight[0] += 1
                    peak[0] = max(peak[0], inflight[0])
                try:
                    return original(*args)
                finally:
                    with gate:
                        inflight[0] -= 1

            return call

        backend.read_bytes = tracked(backend.read_bytes)
        backend.write_bytes = tracked(backend.write_bytes)
        # Nothing below the service keeps these requests apart (on a
        # volume, extents alternate between the two shards).
        extents = self._capacity(backend) // 2048
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [
                service.submit_write((i % extents) * 2048, b"\x5c" * 300)
                if i % 2
                else service.submit_read((i % extents) * 2048, 300)
                for i in range(32)
            ]
            for future in futures:
                future.result()
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1
        service.close()

    def test_waiting_requests_run_in_fifo_order(self, tmp_path):
        service, backend = self._open(tmp_path)
        release = threading.Event()
        order = []
        original = backend.write_bytes

        def tracked(offset, data):
            if offset == 0:
                release.wait(10)  # hold the combiner while others queue
            order.append(offset)
            return original(offset, data)

        backend.write_bytes = tracked
        offsets = [0, 6144, 2048, 4096, 512]
        threads = [
            threading.Thread(target=service.write, args=(offset, b"\x07" * 64))
            for offset in offsets
        ]
        _start_queued(service, threads)
        release.set()
        _join(threads)
        assert order == offsets
        service.close()

    def test_a_failing_request_fails_only_its_caller(self, tmp_path):
        service, backend = self._open(tmp_path)
        release = threading.Event()
        original_write, original_read = backend.write_bytes, backend.read_bytes

        def held(offset, data):
            if offset == 0:
                release.wait(10)
            return original_write(offset, data)

        def failing(offset, length):
            if offset == 4096:
                raise ValueError("bad request")
            return original_read(offset, length)

        backend.write_bytes, backend.read_bytes = held, failing
        outcomes = {}

        def call(name, fn, *args):
            try:
                fn(*args)
                outcomes[name] = "ok"
            except Exception as exc:
                outcomes[name] = exc

        requests = [
            ("combiner", service.write, 0, b"\x01" * 64),
            ("bad", service.read, 4096, 64),
            ("after", service.write, 2048, b"\x02" * 64),
        ]
        threads = [
            threading.Thread(target=call, args=request) for request in requests
        ]
        _start_queued(service, threads)
        release.set()
        _join(threads)
        assert outcomes["combiner"] == "ok"
        assert isinstance(outcomes["bad"], ValueError)
        assert outcomes["after"] == "ok"
        assert service.read(2048, 64) == b"\x02" * 64
        service.close()

    def test_combiner_runs_at_most_the_requests_waiting(self, tmp_path):
        """With N callers a combiner runs at most N - 1 other requests
        after its own, then hands the role to the oldest waiter."""
        service, backend = self._open(tmp_path)
        release = threading.Event()
        ran_on = {}
        original = backend.write_bytes
        first, second = {}, {}

        def tracked(offset, data):
            if offset == 0:
                release.wait(10)
            if offset == first["D"]:
                # B's next request arrives before this round ends.
                _wait_for(lambda: len(service._combiner.waiting) == 1)
            ran_on[offset] = threading.current_thread().name
            return original(offset, data)

        backend.write_bytes = tracked
        first.update(A=0, B=2048, C=4096, D=6144)
        second.update(B=512)

        def caller(name):
            service.write(first[name], b"\x03" * 64)
            if name in second:
                service.write(second[name], b"\x04" * 64)

        threads = [
            threading.Thread(target=caller, args=(name,), name=name)
            for name in first
        ]
        _start_queued(service, threads)
        release.set()
        _join(threads)
        assert {ran_on[offset] for offset in first.values()} == {"A"}
        assert ran_on[second["B"]] == "B"
        service.close()

    @pytest.mark.parametrize("crashing", ["own", "waiter"])
    def test_base_exception_in_the_combiner_strands_no_waiter(
        self, tmp_path, crashing
    ):
        service, backend = self._open(tmp_path)
        release = threading.Event()
        original = backend.write_bytes
        crash_at = 0 if crashing == "own" else 2048
        crashes = [1]

        def tracked(offset, data):
            if offset == 0:
                release.wait(10)
            if offset == crash_at and crashes:
                crashes.pop()
                raise _ThreadDeath()
            return original(offset, data)

        backend.write_bytes = tracked
        raised = {}

        def caller(offset):
            try:
                service.write(offset, b"\x05" * 64)
                raised[offset] = None
            except BaseException as exc:  # noqa: BLE001 - recorded
                raised[offset] = exc

        offsets = [0, 2048, 4096, 6144]
        threads = [
            threading.Thread(target=caller, args=(offset,)) for offset in offsets
        ]
        _start_queued(service, threads)
        release.set()
        _join(threads)
        # The combiner's thread goes down, and so does the request it
        # was running; the rest were handed on and ran.
        assert isinstance(raised[0], _ThreadDeath)
        assert isinstance(raised[crash_at], _ThreadDeath)
        for offset in offsets[2:]:
            assert raised[offset] is None
            assert service.read(offset, 64) == b"\x05" * 64
        service.write(0, b"\x06" * 64)  # the role was released
        service.close()

    def test_close_drains_the_queue(self, tmp_path):
        service, backend = self._open(tmp_path)
        release = threading.Event()
        original = backend.write_bytes

        def held(offset, data):
            if offset == 0:
                release.wait(10)
            return original(offset, data)

        backend.write_bytes = held
        writers = [
            threading.Thread(target=service.write, args=(offset, b"\x08" * 64))
            for offset in (0, 2048, 4096)
        ]
        _start_queued(service, writers)
        closer = threading.Thread(target=service.close)
        closer.start()
        _wait_for(lambda: len(service._combiner.waiting) == 3)
        release.set()
        _join(writers + [closer])
        for offset in (0, 2048, 4096):
            data = self._reopened_read(tmp_path, backend, offset, 64)
            assert data == b"\x08" * 64

    def test_overlapping_callers_match_a_serial_model(self, tmp_path):
        """Six threads read and write overlapping ranges with the GIL
        handed over as often as it can be; replaying the requests in
        the order they ran gives every read's bytes and the final
        image, and the parity scrubs clean."""
        service, backend = self._open(tmp_path)
        capacity = self._capacity(backend)
        model = np.random.default_rng(3).integers(
            0, 256, capacity, dtype=np.uint8
        )
        backend.write_bytes(0, model)
        ran = []
        read, write = backend.read_bytes, backend.write_bytes

        def logged_read(offset, length):
            data = read(offset, length)
            ran.append((offset, length, data.copy(), False))
            return data

        def logged_write(offset, data):
            write(offset, data)
            ran.append((offset, data.size, data.copy(), True))

        backend.read_bytes, backend.write_bytes = logged_read, logged_write
        # Three 2 KiB extents (across both shards of a volume), so
        # ranges overlap often.
        span = 3 * 2048

        def client(seed):
            rng = np.random.default_rng(seed)
            for _ in range(30):
                offset = int(rng.integers(0, span - 1))
                length = int(rng.integers(1, min(900, span - offset) + 1))
                if rng.random() < 0.6:
                    payload = rng.integers(0, 256, length, dtype=np.uint8)
                    service.write(offset, payload)
                else:
                    service.read(offset, length)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            _join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(ran) == 6 * 30
        for offset, length, data, is_write in ran:
            if is_write:
                model[offset : offset + length] = data
            else:
                assert np.array_equal(data, model[offset : offset + length])
        assert np.array_equal(read(0, capacity), model)
        assert self._scrub_clean(backend)
        service.close()


CHUNK = 512
STRIPES = 16


def _store(tmp_path, subdir="store", cache_stripes=0):
    path = tmp_path / subdir
    path.mkdir()
    return ArrayStore(
        make_code("tip", 8), path, stripes=STRIPES, chunk_bytes=CHUNK,
        cache_stripes=cache_stripes,
    )


class TestBlockServiceCombining(CombiningContract):
    @pytest.fixture(autouse=True)
    def _close_stores(self):
        """Close the stores :meth:`_open` made; closing a service
        leaves its store open."""
        self.stores = []
        yield
        for store in self.stores:
            store.close()

    def _open(self, tmp_path, workers=4):
        store = _store(tmp_path)
        self.stores.append(store)
        return BlockService(store, workers=workers), store

    def _capacity(self, backend):
        return backend.capacity_bytes

    def _reopened_read(self, tmp_path, backend, offset, length):
        backend.close()
        with ArrayStore(
            make_code("tip", 8), tmp_path / "store", stripes=STRIPES,
            chunk_bytes=CHUNK,
        ) as reopened:
            return bytes(reopened.read_bytes(offset, length))

    def _scrub_clean(self, backend):
        return backend.scrub() == []

    def test_cached_batched_service_runs_on_the_callers_thread(
        self, tmp_path, monkeypatch
    ):
        """A stripe cache merges no I/O, so ``batch_size=16`` over one
        combines: ``enqueue``, ``read`` and ``write`` all run on the
        caller's thread, and the service starts no thread at all."""
        before = set(threading.enumerate())
        store = _store(tmp_path, cache_stripes=4)
        ran_on = []
        write_bytes, read_bytes = store.write_bytes, store.read_bytes

        def traced_write(offset, data):
            ran_on.append(threading.current_thread())
            return write_bytes(offset, data)

        def traced_read(offset, length):
            ran_on.append(threading.current_thread())
            return read_bytes(offset, length)

        monkeypatch.setattr(store, "write_bytes", traced_write)
        monkeypatch.setattr(store, "read_bytes", traced_read)
        with store, BlockService(store, batch_size=16) as service:
            assert service.enqueue(True, 0, b"b" * 10).result() is None
            assert bytes(service.enqueue(False, 0, 10).result()) == b"b" * 10
            service.write(CHUNK, b"a" * 100)
            assert service.read(CHUNK, 100) == b"a" * 100
            assert ran_on == [threading.current_thread()] * 4
            assert set(threading.enumerate()) == before
            assert service.batches == service.batched_requests == 4
        assert set(threading.enumerate()) == before

    def test_one_enqueue_submitter_matches_a_serial_replay(self, tmp_path):
        """Requests reach a cached store in arrival order, so its LRU
        sees a serial replay: chunk counters and cache stats match one
        field for field, with a cache small enough to evict."""
        trace = generate_trace("prxy_0", requests=300, seed=4)
        store = _store(tmp_path, "batched", cache_stripes=4)
        with store:
            result = replay_batched(store, trace, batch_size=16)
            image = store.read_bytes(0, store.capacity_bytes).copy()
        serial_store = _store(tmp_path, "serial", cache_stripes=4)
        with serial_store:
            serial = BlockDevice(serial_store).replay(trace)
            serial_image = serial_store.read_bytes(
                0, serial_store.capacity_bytes
            ).copy()
        assert serial.cache.evictions > 0
        assert result.batches == result.requests == len(trace)
        assert result.io == serial.io
        assert result.cache == serial.cache
        assert np.array_equal(image, serial_image)

    def test_an_enqueued_request_nobody_waits_for_runs_before_close(
        self, tmp_path
    ):
        """An ``enqueue`` queues behind a running combiner as ``write``
        does; its caller never looks at the future, and the request has
        run by the time ``close`` returns."""
        store = _store(tmp_path, cache_stripes=4)
        service = BlockService(store, batch_size=16)
        release = threading.Event()
        original = store.write_bytes

        def held(offset, data):
            if offset == 0:
                release.wait(10)
            return original(offset, data)

        store.write_bytes = held
        callers = [
            threading.Thread(target=service.write, args=(0, b"\x01" * 64)),
            threading.Thread(
                target=service.enqueue, args=(True, 2048, b"\x09" * 64)
            ),
        ]
        _start_queued(service, callers)
        closer = threading.Thread(target=service.close)
        closer.start()
        _wait_for(lambda: len(service._combiner.waiting) == 2)
        release.set()
        _join([closer])
        assert service.stats.writes == 2
        assert bytes(store.read_bytes(2048, 64)) == b"\x09" * 64
        _join(callers)
        store.close()

    def test_a_base_exception_in_a_dispatcher_batch_strands_no_request(
        self, tmp_path
    ):
        """Where a dispatcher composes batches (``batch_size`` above 1,
        no stripe cache), a ``BaseException`` fails the batch it
        interrupted, through its futures, and the dispatcher goes on
        serving the requests after it."""
        store = _store(tmp_path)
        service = BlockService(store, batch_size=4)
        crashes = [1]

        def crash_once(call):
            def wrapped(*args):
                if crashes:
                    crashes.pop()
                    raise _ThreadDeath()
                return call(*args)

            return wrapped

        # A batch of one writes through write_bytes, a larger one
        # through execute_batch; the first of either crashes.
        store.write_bytes = crash_once(store.write_bytes)
        store.execute_batch = crash_once(store.execute_batch)
        with pytest.raises(_ThreadDeath):
            service.enqueue(True, 0, b"\x01" * 64).result(timeout=10)
        assert service.enqueue(True, 0, b"\x02" * 64).result(timeout=10) is None
        assert service.read(0, 64) == b"\x02" * 64
        service.close()
        store.close()
