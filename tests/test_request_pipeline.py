"""The one request pipeline behind the block front doors.

Every fault-retrying caller — serial replay, the block service, its
closing flush, the CLI scrub prefill — goes through
:func:`repro.faults.inject.retry_faults`, and every request
:class:`~repro.service.BlockService` admits runs as a batch through
``_dispatch`` then ``_complete``, so one accounting rule holds in every
mode: only requests that returned are counted.
"""

import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.codes import make_code
from repro.faults.inject import (
    FailStopError,
    LatentSectorError,
    retry_faults,
)
from repro.service import BlockService, replay_batched, replay_concurrent
from repro.store import ArrayStore
from repro.traces import generate_trace

CHUNK = 512
JOIN_S = 60.0


def make_store(tmp_path, subdir="store", cache_stripes=0):
    path = tmp_path / subdir
    path.mkdir()
    return ArrayStore(
        make_code("tip", 8), path, stripes=8, chunk_bytes=CHUNK,
        cache_stripes=cache_stripes,
    )


class _AlwaysRepairs:
    """Stub controller: claims every fault handled (nothing changes)."""

    def handle_fault(self, exc):
        return True

    def drain(self):
        pass


class TestRetryFaults:
    def test_returns_the_attempts_result(self):
        assert retry_faults(divmod, None, "divmod", 7, 2) == (3, 1)

    def test_retries_after_a_handled_fault(self):
        faults = [LatentSectorError(1, 9), FailStopError(2)]
        handled = []

        def attempt(value):
            if faults:
                raise faults.pop(0)
            return value

        def handle(exc):
            handled.append(exc.disk)
            return True

        assert retry_faults(attempt, handle, "op", "done") == "done"
        assert handled == [1, 2]

    def test_unhandled_faults_propagate_unchanged(self):
        def attempt():
            raise FailStopError(3)

        with pytest.raises(FailStopError):
            retry_faults(attempt, None, "op")
        with pytest.raises(FailStopError):
            retry_faults(attempt, lambda exc: False, "op")

    def test_other_errors_are_not_retried(self):
        calls = []

        def attempt():
            calls.append(1)
            raise ValueError("bad request")

        with pytest.raises(ValueError):
            retry_faults(attempt, lambda exc: True, "op")
        assert len(calls) == 1

    def test_cap_raises_ioerror_chained_to_the_last_fault(self):
        calls = []

        def attempt():
            calls.append(1)
            raise FailStopError(len(calls))

        with pytest.raises(IOError, match="the op still faulting") as info:
            retry_faults(attempt, lambda exc: True, "the op")
        assert len(calls) == 6
        assert isinstance(info.value.__cause__, FailStopError)
        assert info.value.__cause__.disk == 6


def test_cli_scrub_prefill_raises_when_every_attempt_faults(monkeypatch):
    """Regression: the prefill tried each batch 4 times and then went on
    to scrub with the batch never written."""

    def always_faults(self, start, chunks):
        raise FailStopError(0)

    monkeypatch.setattr(ArrayStore, "write_chunks", always_faults)
    with pytest.raises(IOError, match="still faulting") as info:
        main([
            "scrub", "--family", "tip", "--n", "6", "--stripes", "4",
            "--chunk-bytes", "64",
        ])
    assert isinstance(info.value.__cause__, FailStopError)


class TestOnePipeline:
    @pytest.mark.parametrize("batch_size", [0, 1, 4])
    def test_failed_requests_are_not_counted(
        self, tmp_path, monkeypatch, batch_size
    ):
        """Regression: a failed inline ``enqueue`` and a failed member
        of a multi-request batch were counted as completed writes."""
        store = make_store(tmp_path)
        with store, BlockService(store, batch_size=batch_size) as service:
            service.write(0, b"x" * 64)
            assert service.stats.writes == 1

            def always_faults(offset, data):
                raise FailStopError(0)

            monkeypatch.setattr(store, "write_bytes", always_faults)
            with pytest.raises(FailStopError):
                service.write(0, b"y" * 64)
            if batch_size:
                future = service.enqueue(True, 0, b"z" * 64)
                with pytest.raises(FailStopError):
                    future.result(timeout=JOIN_S)
            assert service.stats.requests == 1
            assert service.stats.writes == 1
            assert len(service.stats.latencies_ms) == 1
            monkeypatch.undo()

    def test_failed_requests_do_not_advance_the_repair_tick(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path)
        with store:
            ticks = []

            class CountingRepair(_AlwaysRepairs):
                def handle_fault(self, exc):
                    return False

                def tick(self):
                    ticks.append(1)

            service = BlockService(
                store, repair=CountingRepair(), repair_every=2, batch_size=1
            )

            def always_faults(offset, data):
                raise FailStopError(0)

            monkeypatch.setattr(store, "write_bytes", always_faults)
            for _ in range(3):
                with pytest.raises(FailStopError):
                    service.write(0, b"y" * 64)
                with pytest.raises(FailStopError):
                    service.enqueue(True, 0, b"z" * 64).result()
            monkeypatch.undo()
            assert ticks == []
            service.write(0, b"x" * 64)
            service.write(64, b"x" * 64)
            assert ticks == [1]
            assert service.stats.repair_ticks == 1
            service.close()

    def test_batch_size_one_runs_on_the_callers_thread(
        self, tmp_path, monkeypatch
    ):
        """Sync calls and ``enqueue`` alike execute inline as batches of
        one: no thread started, one batch per request."""
        before = set(threading.enumerate())
        store = make_store(tmp_path)
        threads = []
        write_bytes, read_bytes = store.write_bytes, store.read_bytes

        def traced_write(offset, data):
            threads.append(threading.current_thread())
            return write_bytes(offset, data)

        def traced_read(offset, length):
            threads.append(threading.current_thread())
            return read_bytes(offset, length)

        monkeypatch.setattr(store, "write_bytes", traced_write)
        monkeypatch.setattr(store, "read_bytes", traced_read)
        with store, BlockService(store, batch_size=1) as service:
            service.write(CHUNK, b"a" * 100)
            assert service.read(CHUNK, 100) == b"a" * 100
            assert service.enqueue(True, 0, b"b" * 10).result() is None
            read = service.enqueue(False, 0, 10).result()
            assert bytes(read) == b"b" * 10
            assert threads == [threading.current_thread()] * 4
            assert set(threading.enumerate()) == before
            assert service.batches == service.batched_requests == 4

    def test_close_raises_when_the_flush_keeps_faulting(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path, cache_stripes=4)
        with store:
            service = BlockService(store, repair=_AlwaysRepairs())
            service.write(0, b"x" * 64)

            def always_faults():
                raise FailStopError(5)

            monkeypatch.setattr(store, "flush", always_faults)
            with pytest.raises(IOError, match="still faulting") as info:
                service.close()
            assert isinstance(info.value.__cause__, FailStopError)
            assert info.value.__cause__.disk == 5
            monkeypatch.undo()


class TestHeldBatches:
    """``batch_size`` above 1 on a store without a stripe cache: requests
    are held and run in batches carved from the held set."""

    def test_two_enqueuing_threads_finish_and_match_a_serial_model(
        self, tmp_path
    ):
        """With ``max_inflight=4`` the enqueue that finds four requests
        held runs a batch itself, so neither submitter waits on a slot
        that only held requests would free. Each thread owns half the
        array, so its reads and the final bytes follow its own order."""
        store = make_store(tmp_path)
        half = store.capacity_bytes // 2
        image = np.zeros(store.capacity_bytes, dtype=np.uint8)
        checks = [[], []]

        def submitter(part):
            rng = np.random.default_rng(part)
            for _ in range(80):
                length = int(rng.integers(1, 1200))
                offset = part * half + int(rng.integers(0, half - length))
                if rng.random() < 0.7:
                    payload = rng.integers(0, 256, length, dtype=np.uint8)
                    image[offset : offset + length] = payload
                    service.enqueue(True, offset, payload)
                else:
                    expected = image[offset : offset + length].copy()
                    checks[part].append(
                        (service.enqueue(False, offset, length), expected)
                    )

        with store, BlockService(
            store, batch_size=4, max_inflight=4
        ) as service:
            threads = [
                threading.Thread(target=submitter, args=(part,), daemon=True)
                for part in range(2)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=JOIN_S)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for future, expected in checks[0] + checks[1]:
                assert np.array_equal(future.result(timeout=JOIN_S), expected)
            assert 0 < service.batches < service.stats.requests == 160
            assert np.array_equal(
                store.read_bytes(0, store.capacity_bytes), image
            )

    def test_batch_composition_repeats_exactly(self, tmp_path):
        """Batches are carved from the request stream alone, with no
        timer, so two replays of one trace run the same batches and
        issue the same syscalls."""
        trace = generate_trace("prxy_0", requests=200, seed=4)
        results = []
        for run in range(2):
            store = make_store(tmp_path, f"run{run}")
            with store:
                results.append(
                    replay_batched(store, trace, batch_size=16, window=32)
                )
        assert results[0].batches == results[1].batches < len(trace)
        assert results[0].syscalls == results[1].syscalls


@pytest.mark.parametrize("batched", [False, True])
def test_replays_report_service_stats_and_context(tmp_path, batched):
    """Both replay drivers share one core: the result is the service's
    stats plus the replay window's context."""
    trace = generate_trace("prxy_0", requests=60, seed=3)
    store = make_store(tmp_path)
    with store:
        if batched:
            result = replay_batched(store, trace, batch_size=1)
        else:
            result = replay_concurrent(store, [trace])
    assert result.requests == result.reads + result.writes == len(trace)
    assert len(result.latencies_ms) == len(trace)
    assert result.batches == len(trace)
    assert result.batch_size == (1 if batched else 0)
    assert result.workers == 1
    assert result.elapsed_s > 0
    assert result.syscalls.total > 0
    assert result.io.total_chunks > 0
    assert result.throughput_iops > 0
