"""The volume layer: mapping math, routing, persistence, the close
audit, and the flat-combining VolumeService front-end."""

import subprocess
import sys

import numpy as np
import pytest

from repro.service import VolumeService
from repro.store import ArrayStore, IoCounters
from repro.codes import make_code
from repro.volume import ShardSpec, VolumeManager, VolumeMapping
from tests.test_combining import CombiningContract


def test_import_order_does_not_matter():
    """``repro.volume`` imports the service locks and the service
    package imports the volume manager back; each side must load first
    in a fresh interpreter (the in-process suite can't see this)."""
    for first in ("repro.volume", "repro.service"):
        script = (
            f"import {first}\n"
            "from repro.service import VolumeService\n"
            "from repro.volume import VolumeManager\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=60
        )


class TestVolumeMapping:
    def test_round_robin_over_equal_shards(self):
        mapping = VolumeMapping([4096, 4096], extent_bytes=1024)
        assert mapping.total_extents == 8
        assert [mapping.locate(e) for e in range(4)] == [
            (0, 0), (1, 0), (0, 1024), (1, 1024),
        ]

    def test_heterogeneous_shards_keep_dealing_to_the_big_one(self):
        mapping = VolumeMapping([1024, 3072], extent_bytes=1024)
        owners = [mapping.locate(e)[0] for e in range(mapping.total_extents)]
        assert owners == [0, 1, 1, 1]

    def test_partial_extents_are_unused(self):
        mapping = VolumeMapping([2500], extent_bytes=1024)
        assert mapping.total_extents == 2
        assert mapping.volume_bytes == 2048

    def test_rejects_shard_below_one_extent(self):
        with pytest.raises(ValueError, match="less than one"):
            VolumeMapping([512, 4096], extent_bytes=1024)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            VolumeMapping([], extent_bytes=1024)
        with pytest.raises(ValueError):
            VolumeMapping([4096], extent_bytes=0)

    def test_byte_runs_split_at_extent_boundaries(self):
        mapping = VolumeMapping([4096, 4096], extent_bytes=1024)
        runs = mapping.byte_runs(1000, 100)  # spans extents 0 and 1
        assert [(r.extent, r.shard, r.nbytes) for r in runs] == [
            (0, 0, 24), (1, 1, 76),
        ]
        assert runs[0].shard_offset == 1000
        assert runs[1].shard_offset == 0

    def test_byte_runs_never_merge_adjacent_extents(self):
        # Extents 0 and 2 are both on shard 0 and byte-adjacent there;
        # the runs must still split (the extent is the routing atom).
        mapping = VolumeMapping([4096, 4096], extent_bytes=1024)
        runs = mapping.byte_runs(0, 4096)
        assert len(runs) == 4

    def test_runs_cover_exactly(self):
        mapping = VolumeMapping([8192, 4096, 4096], extent_bytes=512)
        runs = mapping.byte_runs(777, 9000)
        assert sum(r.nbytes for r in runs) == 9000
        assert runs[0].volume_offset == 777

    def test_out_of_range_rejected(self):
        mapping = VolumeMapping([4096], extent_bytes=1024)
        with pytest.raises(ValueError):
            mapping.byte_runs(0, mapping.volume_bytes + 1)
        with pytest.raises(ValueError):
            mapping.byte_runs(-1, 10)


def _specs():
    return [
        ShardSpec("tip", 5, stripes=6, chunk_bytes=512),
        ShardSpec("tip", 7, stripes=4, chunk_bytes=512),
    ]


def _create(tmp_path, name="vol", extent_bytes=2048, specs=None):
    return VolumeManager.create(
        tmp_path / name, specs or _specs(), extent_bytes=extent_bytes
    )


class TestVolumeManager:
    def test_create_open_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        with _create(tmp_path) as vol:
            data = rng.integers(0, 256, vol.volume_bytes, dtype=np.uint8)
            vol.write_bytes(0, data)
            assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), data)
        with VolumeManager.open(tmp_path / "vol") as vol:
            assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), data)

    def test_capacity_is_sum_of_whole_extents(self, tmp_path):
        with _create(tmp_path) as vol:
            expected = sum(
                (spec.capacity_bytes() // 2048) * 2048 for spec in _specs()
            )
            assert vol.volume_bytes == expected

    def test_single_shard_volume_equals_bare_store(self, tmp_path):
        """With one shard the extent layer is the identity map: the
        volume must produce byte-identical shard content and identical
        chunk I/O counters to driving the ArrayStore directly."""
        spec = ShardSpec("tip", 5, stripes=6, chunk_bytes=512)
        bare = ArrayStore(
            make_code("tip", 5), tmp_path / "bare",
            stripes=6, chunk_bytes=512,
        )
        vol = VolumeManager.create(
            tmp_path / "vol", [spec],
            extent_bytes=bare.capacity_bytes,  # one extent: pure identity
        )
        rng = np.random.default_rng(11)
        for _ in range(30):
            length = int(rng.integers(1, 2000))
            offset = int(rng.integers(0, vol.volume_bytes - length))
            payload = rng.integers(0, 256, length, dtype=np.uint8)
            bare.write_bytes(offset, payload)
            vol.write_bytes(offset, payload)
        assert np.array_equal(
            bare.read_bytes(0, vol.volume_bytes),
            vol.read_bytes(0, vol.volume_bytes),
        )
        assert vol.io == bare.io
        bare.close()
        vol.close()

    def test_multi_shard_matches_shadow_buffer(self, tmp_path):
        rng = np.random.default_rng(5)
        with _create(tmp_path) as vol:
            shadow = np.zeros(vol.volume_bytes, dtype=np.uint8)
            vol.write_bytes(0, shadow)  # defined baseline
            for _ in range(60):
                length = int(rng.integers(1, 5000))
                offset = int(rng.integers(0, vol.volume_bytes - length))
                payload = rng.integers(0, 256, length, dtype=np.uint8)
                vol.write_bytes(offset, payload)
                shadow[offset : offset + length] = payload
                if rng.random() < 0.3:
                    probe_len = int(rng.integers(1, 4000))
                    probe = int(
                        rng.integers(0, vol.volume_bytes - probe_len)
                    )
                    assert np.array_equal(
                        vol.read_bytes(probe, probe_len),
                        shadow[probe : probe + probe_len],
                    )
            assert np.array_equal(
                vol.read_bytes(0, vol.volume_bytes), shadow
            )
            assert vol.scrub() == {}

    def test_out_of_range_rejected(self, tmp_path):
        with _create(tmp_path) as vol:
            with pytest.raises(ValueError):
                vol.read_bytes(vol.volume_bytes, 1)
            with pytest.raises(ValueError):
                vol.write_bytes(0, b"")

    def test_create_refuses_existing_volume(self, tmp_path):
        _create(tmp_path).close()
        with pytest.raises(ValueError, match="already holds"):
            _create(tmp_path)

    def test_open_refuses_non_volume(self, tmp_path):
        with pytest.raises(ValueError, match="no volume"):
            VolumeManager.open(tmp_path)

    def test_status_reports_shape(self, tmp_path):
        with _create(tmp_path) as vol:
            status = vol.status()
            assert status.volume_bytes == vol.volume_bytes
            assert [s["family"] for s in status.shards] == ["tip", "tip"]
            assert not status.restripe_active
            assert status.failed_disks == {}

    def test_io_merges_shards(self, tmp_path):
        with _create(tmp_path) as vol:
            vol.write_bytes(0, b"\x77" * vol.volume_bytes)
            assert vol.io == IoCounters.merged(s.io for s in vol.shards)
            assert vol.io.chunks_written > 0


class TestCloseAudit:
    """S2: closing a volume flushes every shard's cache exactly once
    and asserts the shared journal retired every record."""

    def test_close_flushes_each_cached_shard_exactly_once(self, tmp_path):
        specs = [
            ShardSpec("tip", 5, stripes=6, chunk_bytes=512, cache_stripes=4),
            ShardSpec("tip", 7, stripes=4, chunk_bytes=512, cache_stripes=4),
        ]
        vol = _create(tmp_path, specs=specs)
        vol.write_bytes(0, b"\x3c" * vol.volume_bytes)
        flushes = {}
        for uid, store in enumerate(vol.shards):
            assert store.cache is not None
            original = store.cache.flush

            def counted(uid=uid, original=original):
                flushes[uid] = flushes.get(uid, 0) + 1
                return original()

            store.cache.flush = counted
        vol.close()
        assert flushes == {0: 1, 1: 1}
        # Reopen: the flush actually persisted everything.
        with VolumeManager.open(tmp_path / "vol") as reopened:
            assert bytes(reopened.read_bytes(0, 64)) == b"\x3c" * 64

    def test_close_is_idempotent(self, tmp_path):
        vol = _create(tmp_path)
        vol.close()
        vol.close()  # second close must be a no-op, not a double audit

    def test_orphaned_journal_records_fail_the_audit(self, tmp_path):
        vol = _create(tmp_path)
        # Seal an intent the write path never commits — the signature
        # of a write-path bug the audit exists to catch.
        from repro.store import JournalRecord

        vol.journal.log(
            JournalRecord(shard=0, disk=1, offset=0, payload=b"orphan")
        )
        vol.journal.seal(0)
        with pytest.raises(RuntimeError, match="orphaned journal"):
            vol.close()

    def test_clean_close_leaves_empty_journal_file(self, tmp_path):
        vol = _create(tmp_path)
        vol.write_bytes(0, b"\x99" * 4096)
        vol.close()
        assert (tmp_path / "vol" / "intent.journal").stat().st_size == 0


class TestVolumeService(CombiningContract):
    """``VolumeService``: the combining contract, plus what only a
    volume front end does."""

    def _open(self, tmp_path, workers=4):
        vol = _create(tmp_path)
        return VolumeService(vol, workers=workers), vol

    def _capacity(self, backend):
        return backend.volume_bytes

    def _reopened_read(self, tmp_path, backend, offset, length):
        with VolumeManager.open(tmp_path / "vol") as reopened:
            return bytes(reopened.read_bytes(offset, length))

    def _scrub_clean(self, backend):
        return backend.scrub() == {}

    def test_concurrent_disjoint_writers_match_shadow(self, tmp_path):
        vol = _create(tmp_path)
        service = VolumeService(vol, workers=4)
        shadow = np.zeros(vol.volume_bytes, dtype=np.uint8)
        vol.write_bytes(0, shadow)
        # Four disjoint regions, one writer thread each: the final
        # image is deterministic whatever the interleaving.
        quarter = vol.volume_bytes // 4
        rng = np.random.default_rng(13)
        payloads = {}
        for worker in range(4):
            base = worker * quarter
            # Non-overlapping slots: every future is independent, so
            # the final image is order-free.
            payloads[worker] = [
                (
                    base + slot * (quarter // 10),
                    rng.integers(0, 256, 700, dtype=np.uint8),
                )
                for slot in range(10)
            ]
        futures = []
        for worker, ops in payloads.items():
            for offset, payload in ops:
                futures.append(service.submit_write(offset, payload))
        for future in futures:
            future.result()
        for ops in payloads.values():
            for offset, payload in ops:
                shadow[offset : offset + payload.size] = payload
        assert np.array_equal(
            np.frombuffer(
                service.read(0, vol.volume_bytes), dtype=np.uint8
            ),
            shadow,
        )
        assert service.stats.writes == 40
        assert service.stats.reads == 1
        assert len(service.stats.latencies_ms) == 41
        service.close()

    def test_service_close_closes_volume(self, tmp_path):
        vol = _create(tmp_path)
        service = VolumeService(vol)
        service.write(0, b"\x44" * 128)
        service.close()
        with pytest.raises(ValueError):
            VolumeManager.create(tmp_path / "vol", _specs())  # still there
        with VolumeManager.open(tmp_path / "vol") as reopened:
            assert bytes(reopened.read_bytes(0, 128)) == b"\x44" * 128
