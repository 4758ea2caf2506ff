"""Tests for the file-backed erasure-coded chunk store."""

import os

import numpy as np
import pytest

from repro.codes import make_code
from repro.store import ArrayStore, DiskFailedError

CHUNK = 512


@pytest.fixture()
def store(tmp_path):
    return ArrayStore(
        make_code("tip", 6), tmp_path, stripes=4, chunk_bytes=CHUNK
    )


def random_chunks(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, CHUNK), dtype=np.uint8)


class TestBasics:
    def test_files_created(self, store, tmp_path):
        files = sorted(tmp_path.glob("disk*.img"))
        assert len(files) == 6
        expected = 4 * store.code.rows * CHUNK
        assert all(f.stat().st_size == expected for f in files)

    def test_capacity(self, store):
        assert store.capacity_chunks == 4 * store.code.num_data

    def test_roundtrip(self, store):
        data = random_chunks(10, seed=1)
        store.write_chunks(3, data)
        assert np.array_equal(store.read_chunks(3, 10), data)

    def test_write_spanning_stripes(self, store):
        per = store.code.num_data
        data = random_chunks(per + 5, seed=2)
        store.write_chunks(per - 3, data)
        assert np.array_equal(store.read_chunks(per - 3, per + 5), data)

    def test_scrub_clean_after_writes(self, store):
        store.write_chunks(0, random_chunks(20, seed=3))
        assert store.scrub() == []

    def test_scrub_detects_corruption(self, store, tmp_path):
        store.write_chunks(0, random_chunks(8, seed=4))
        # Flip a byte directly in a backing file (silent corruption).
        path = tmp_path / "disk002.img"
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.scrub() == [0]

    def test_bounds_checked(self, store):
        with pytest.raises(ValueError):
            store.write_chunks(-1, random_chunks(1))
        with pytest.raises(ValueError):
            store.write_chunks(store.capacity_chunks, random_chunks(1))
        with pytest.raises(ValueError):
            store.read_chunks(0, 0)
        with pytest.raises(ValueError):
            store.read_chunks(store.capacity_chunks - 1, 2)

    def test_chunk_shape_checked(self, store):
        with pytest.raises(ValueError):
            store.write_chunks(0, np.zeros((2, CHUNK + 1), dtype=np.uint8))

    def test_persistence_across_instances(self, tmp_path):
        code = make_code("tip", 6)
        data = random_chunks(6, seed=5)
        first = ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK)
        first.write_chunks(0, data)
        second = ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK)
        assert np.array_equal(second.read_chunks(0, 6), data)


class TestHandles:
    def test_every_disk_opened_with_random_access_advice(
        self, store, monkeypatch
    ):
        """The store reads exact spans: each disk handle is opened with
        ``POSIX_FADV_RANDOM`` so readahead fetches nothing extra."""
        if not hasattr(os, "posix_fadvise"):
            pytest.skip("platform has no posix_fadvise")
        advised = []
        real = os.posix_fadvise

        def record(fd, offset, length, advice):
            advised.append((fd, offset, length, advice))
            real(fd, offset, length, advice)

        monkeypatch.setattr(os, "posix_fadvise", record)
        store.write_chunks(0, random_chunks(store.capacity_chunks, seed=9))
        assert store.read_chunks(0, 1).shape == (1, CHUNK)
        fds = {disk: handle.fileno() for disk, handle in store._handles.items()}
        assert sorted(fds) == list(range(store.code.cols))
        assert sorted(advised) == sorted(
            (fd, 0, 0, os.POSIX_FADV_RANDOM) for fd in fds.values()
        )
        store.close()


class TestFailures:
    def test_degraded_read(self, store):
        data = random_chunks(store.code.num_data, seed=6)
        store.write_chunks(0, data)
        store.fail_disk(0)
        store.fail_disk(3)
        store.fail_disk(5)
        assert np.array_equal(
            store.read_chunks(0, store.code.num_data), data
        )

    def test_degraded_write_then_rebuild(self, store):
        initial = random_chunks(store.code.num_data, seed=7)
        store.write_chunks(0, initial)
        store.fail_disk(2)
        update = random_chunks(4, seed=8)
        store.write_chunks(1, update)
        rebuilt = store.rebuild()
        assert rebuilt == store.stripes
        assert store.failed == set()
        expected = initial.copy()
        expected[1:5] = update
        assert np.array_equal(
            store.read_chunks(0, store.code.num_data), expected
        )
        assert store.scrub() == []

    def test_rebuild_restores_disk_files(self, store, tmp_path):
        data = random_chunks(8, seed=9)
        store.write_chunks(0, data)
        before = (tmp_path / "disk001.img").read_bytes()
        store.fail_disk(1)
        assert (tmp_path / "disk001.img").read_bytes() != before
        store.rebuild()
        assert (tmp_path / "disk001.img").read_bytes() == before

    def test_fault_budget_enforced(self, store):
        for disk in (0, 1, 2):
            store.fail_disk(disk)
        with pytest.raises(DiskFailedError):
            store.fail_disk(3)

    def test_fail_disk_bounds(self, store):
        with pytest.raises(ValueError):
            store.fail_disk(99)

    def test_scrub_refuses_degraded(self, store):
        store.fail_disk(0)
        with pytest.raises(DiskFailedError):
            store.scrub()

    def test_rebuild_noop_when_healthy(self, store):
        assert store.rebuild() == 0

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ArrayStore(make_code("tip", 6), tmp_path, stripes=0)


class TestGeometryGuard:
    """Reopening with the wrong geometry must refuse, never wipe."""

    def test_stripe_count_mismatch_raises(self, tmp_path):
        code = make_code("tip", 6)
        first = ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK)
        data = random_chunks(6, seed=20)
        first.write_chunks(0, data)
        with pytest.raises(ValueError, match="geometry"):
            ArrayStore(code, tmp_path, stripes=8, chunk_bytes=CHUNK)
        # The contents survived the refused reopen.
        assert np.array_equal(first.read_chunks(0, 6), data)

    def test_chunk_size_mismatch_raises(self, tmp_path):
        code = make_code("tip", 6)
        before = ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK)
        before.write_chunks(0, random_chunks(4, seed=21))
        raw = (tmp_path / "disk000.img").read_bytes()
        with pytest.raises(ValueError, match="refusing to wipe"):
            ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK * 2)
        assert (tmp_path / "disk000.img").read_bytes() == raw

    def test_matching_geometry_reopens(self, tmp_path):
        code = make_code("tip", 6)
        data = random_chunks(3, seed=22)
        ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK).write_chunks(
            1, data
        )
        again = ArrayStore(code, tmp_path, stripes=4, chunk_bytes=CHUNK)
        assert np.array_equal(again.read_chunks(1, 3), data)


class TestRebuildCrashSafety:
    """An exception mid-rebuild must leave the store marked degraded."""

    def _crash_after(self, store, writes_before_crash):
        """Patch _write_span to blow up partway through a rebuild's
        write-back. One stripe per batch, so with one failed disk each
        write-back span is one stripe's."""
        store.rebuild_batch = 1
        original = store._write_span
        calls = {"n": 0}

        def crashing(disk, offset, data):
            if calls["n"] >= writes_before_crash:
                raise IOError("injected crash: backing device vanished")
            calls["n"] += 1
            original(disk, offset, data)

        store._write_span = crashing
        return original

    def test_mid_rebuild_crash_keeps_failed_marked(self, store):
        data = random_chunks(store.capacity_chunks, seed=23)
        store.write_chunks(0, data)
        store.fail_disk(2)
        original = self._crash_after(store, writes_before_crash=1)
        with pytest.raises(IOError, match="injected crash"):
            store.rebuild()
        # Still degraded: the failure set was not cleared early.
        assert store.failed == {2}
        # Degraded reads still serve correct data for every chunk.
        assert np.array_equal(
            store.read_chunks(0, store.capacity_chunks), data
        )
        # A retry after the fault clears finishes the job.
        store._write_span = original
        assert store.rebuild() == store.stripes
        assert store.failed == set()
        assert store.scrub() == []
        assert np.array_equal(
            store.read_chunks(0, store.capacity_chunks), data
        )

    def test_crash_before_any_stripe(self, store):
        data = random_chunks(8, seed=24)
        store.write_chunks(0, data)
        store.fail_disk(0)
        self._crash_after(store, writes_before_crash=0)
        with pytest.raises(IOError):
            store.rebuild()
        assert store.failed == {0}
        assert np.array_equal(store.read_chunks(0, 8), data)

    def test_decode_error_keeps_failed_marked(self, store, monkeypatch):
        store.write_chunks(0, random_chunks(4, seed=25))
        store.fail_disk(1)
        decoder = store._current_decoder()
        monkeypatch.setattr(
            type(decoder),
            "decode_columns",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("bad decode")),
        )
        with pytest.raises(RuntimeError, match="bad decode"):
            store.rebuild()
        assert store.failed == {1}


class TestCloseFlushAudit:
    """close()/__exit__ must flush the write-back cache, and must close
    the backing handles even when that flush raises."""

    def make_cached(self, tmp_path):
        return ArrayStore(
            make_code("tip", 6), tmp_path, stripes=4, chunk_bytes=CHUNK,
            cache_stripes=4,
        )

    def test_close_flushes_dirty_cache(self, tmp_path):
        store = self.make_cached(tmp_path)
        data = random_chunks(6, seed=31)
        store.write_chunks(0, data)
        assert len(store.cache.dirty_stripes) > 0
        store.close()
        reopened = ArrayStore(
            make_code("tip", 6), tmp_path, stripes=4, chunk_bytes=CHUNK
        )
        assert np.array_equal(reopened.read_chunks(0, 6), data)
        assert reopened.scrub() == []

    def test_context_manager_flushes_on_exception_path(self, tmp_path):
        data = random_chunks(6, seed=32)
        with pytest.raises(RuntimeError, match="app error"):
            with self.make_cached(tmp_path) as store:
                store.write_chunks(0, data)
                assert len(store.cache.dirty_stripes) > 0
                raise RuntimeError("app error")
        reopened = ArrayStore(
            make_code("tip", 6), tmp_path, stripes=4, chunk_bytes=CHUNK
        )
        assert np.array_equal(reopened.read_chunks(0, 6), data)
        assert reopened.scrub() == []

    def test_close_closes_handles_even_when_flush_raises(
        self, tmp_path, monkeypatch
    ):
        store = self.make_cached(tmp_path)
        store.write_chunks(0, random_chunks(2, seed=33))
        store.read_chunks(0, 1)  # force handles open
        assert store._handles
        monkeypatch.setattr(
            type(store.cache),
            "flush",
            lambda self: (_ for _ in ()).throw(IOError("flush failed")),
        )
        with pytest.raises(IOError, match="flush failed"):
            store.close()
        assert not store._handles  # handles released despite the error

    def test_close_idempotent_and_uncached_noop(self, store):
        store.write_chunks(0, random_chunks(2, seed=34))
        assert store.flush() == 0  # write-through: nothing pending
        store.close()
        store.close()  # second close is a no-op
        # Lazy reopen after close still works.
        assert store.read_chunks(0, 1).shape == (1, CHUNK)
