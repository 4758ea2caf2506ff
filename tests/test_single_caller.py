"""One request at a time below the front doors.

Everything under :mod:`repro.service` — the store, its cache and
journals, the repair controller, the volume — is single-caller and takes
no locks; the two services are the only concurrent entry points. These
tests hold the parts of that contract the services themselves own:

* no module outside the service package imports ``threading``;
* everything that touches the volume, a restripe's start included, runs
  in the combining queue, after the request already inside;
* once ``close()`` has begun, a new request raises ``RuntimeError`` on
  either service instead of hanging or reaching a closed volume, while
  requests handed to the pool before it still run;
* ``VolumeService.close()`` closes the volume even when the restripe
  driver died, and then raises the driver's error.

Calls that hang on a broken service run on a helper thread with a
timeout, so a regression fails instead of stalling the suite.
"""

import ast
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.codes import make_code
from repro.service import BlockService, VolumeService
from repro.store import ArrayStore
from repro.volume import Restriper, ShardSpec, VolumeManager

TIMEOUT_S = 10.0

SOURCE_SPECS = [
    ShardSpec("tip", 5, stripes=6, chunk_bytes=512),
    ShardSpec("tip", 7, stripes=4, chunk_bytes=512),
]
TARGET_SPECS = [ShardSpec("tip", 11, stripes=8, chunk_bytes=512)]


def _returns(call, *args):
    """Run ``call(*args)`` on a helper thread; returns what it returned
    or raised, or fails the test if it has not finished in time."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call(*args)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"{call.__name__} did not return"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def _wait_for(predicate):
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def test_only_the_service_package_imports_threading():
    package = Path(repro.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.add(path.relative_to(package).as_posix())
    assert importers, "the service package runs its queue on threads"
    assert {name for name in importers if not name.startswith("service/")} == set()


def _block_service(tmp_path, batch_size, cache_stripes=0):
    store = ArrayStore(
        make_code("tip", 5), tmp_path / "array", stripes=8,
        chunk_bytes=512, cache_stripes=cache_stripes,
    )
    return store, BlockService(store, batch_size=batch_size)


@pytest.mark.parametrize(
    "batch_size, cache_stripes",
    [(0, 0), (1, 0), (16, 0), (16, 4)],
    ids=["combined", "batch-1", "dispatcher", "cached-batch-16"],
)
class TestBlockServiceClose:
    def test_requests_after_close_raise(self, tmp_path, batch_size, cache_stripes):
        store, service = _block_service(tmp_path, batch_size, cache_stripes)
        service.write(0, b"\x11" * 100)
        service.close()
        calls = [
            (service.read, 0, 100),
            (service.write, 0, b"\x22" * 100),
            (service.submit_read, 0, 100),
            (service.submit_write, 0, b"\x22" * 100),
        ]
        if batch_size:
            calls += [
                (service.enqueue, False, 0, 100),
                (service.enqueue, True, 0, b"\x22" * 100),
            ]
        for call, *args in calls:
            with pytest.raises(RuntimeError, match="closed"):
                _returns(call, *args)
        assert bytes(store.read_bytes(0, 100)) == b"\x11" * 100
        store.close()

    def test_a_dispatcher_never_started_refuses_too(
        self, tmp_path, batch_size, cache_stripes
    ):
        store, service = _block_service(tmp_path, batch_size, cache_stripes)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            _returns(service.read, 0, 100)
        store.close()

    def test_pool_requests_submitted_before_close_still_run(
        self, tmp_path, batch_size, cache_stripes
    ):
        store, service = _block_service(tmp_path, batch_size, cache_stripes)
        futures = [
            service.submit_write(offset, bytes([offset // 64 + 1]) * 64)
            for offset in range(0, 640, 64)
        ]
        _returns(service.close)
        for future in futures:
            assert future.result(timeout=TIMEOUT_S) is None
        assert service.stats.writes == len(futures)
        for offset in range(0, 640, 64):
            assert bytes(store.read_bytes(offset, 64)) == bytes(
                [offset // 64 + 1]
            ) * 64
        store.close()


def _volume(tmp_path):
    volume = VolumeManager.create(
        tmp_path / "vol", SOURCE_SPECS, extent_bytes=2048
    )
    return volume, VolumeService(volume)


class TestVolumeServiceClose:
    def test_requests_after_close_raise(self, tmp_path):
        volume, service = _volume(tmp_path)
        service.write(0, b"\x33" * 100)
        service.close()
        for call, *args in [
            (service.read, 0, 100),
            (service.write, 0, b"\x44" * 100),
            (service.submit_read, 0, 100),
            (service.submit_write, 0, b"\x44" * 100),
            (service.start_restripe, TARGET_SPECS),
        ]:
            with pytest.raises(RuntimeError, match="closed"):
                _returns(call, *args)
        with VolumeManager.open(tmp_path / "vol") as reopened:
            assert bytes(reopened.read_bytes(0, 100)) == b"\x33" * 100
            assert not reopened.restriping

    def test_pool_requests_submitted_before_close_still_run(self, tmp_path):
        volume, service = _volume(tmp_path)
        futures = [
            service.submit_write(offset, bytes([offset // 512 + 1]) * 300)
            for offset in range(0, 4096, 512)
        ]
        _returns(service.close)
        for future in futures:
            assert future.result(timeout=TIMEOUT_S) is None
        assert service.stats.writes == len(futures)
        with VolumeManager.open(tmp_path / "vol") as reopened:
            for offset in range(0, 4096, 512):
                assert bytes(reopened.read_bytes(offset, 300)) == bytes(
                    [offset // 512 + 1]
                ) * 300

    def test_close_closes_the_volume_when_the_restripe_driver_died(
        self, tmp_path, monkeypatch
    ):
        class TickFailed(Exception):
            pass

        def failing_tick(self):
            raise TickFailed("tick failed")

        monkeypatch.setattr(Restriper, "tick", failing_tick)
        volume, service = _volume(tmp_path)
        service.start_restripe(TARGET_SPECS)
        with pytest.raises(TickFailed):
            _returns(service.close)
        assert volume._closed
        assert volume.journal._file.closed
        _returns(service.close)  # already closed: nothing left to raise


def test_start_restripe_waits_for_the_request_in_the_volume(tmp_path):
    """``begin_restripe`` mounts the target shards and rewrites
    ``volume.json``; it must run as a queued call, after the request
    already inside the volume returns, never beside it."""
    volume, service = _volume(tmp_path)
    entered, release = threading.Event(), threading.Event()
    order = []
    shard = volume.shards[0]
    write_bytes = shard.write_bytes

    def held_write(offset, data):
        entered.set()
        release.wait(TIMEOUT_S)
        write_bytes(offset, data)
        order.append("write returned")

    begin_restripe = volume.begin_restripe

    def traced_begin(target):
        order.append("begin_restripe")
        begin_restripe(target)

    shard.write_bytes = held_write
    volume.begin_restripe = traced_begin
    writer = threading.Thread(target=service.write, args=(0, b"\x55" * 64))
    starter = threading.Thread(target=service.start_restripe, args=(TARGET_SPECS,))
    try:
        writer.start()
        assert entered.wait(TIMEOUT_S)
        starter.start()
        _wait_for(lambda: order or service._combiner.waiting)
        assert order == []
    finally:
        release.set()
        writer.join(TIMEOUT_S)
        starter.join(TIMEOUT_S)
    assert not writer.is_alive() and not starter.is_alive()
    assert order == ["write returned", "begin_restripe"]
    del shard.write_bytes
    assert service.join_restripe().done
    assert bytes(service.read(0, 64)) == b"\x55" * 64
    service.close()
