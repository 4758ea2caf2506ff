"""Online code migration: the restripe equivalence contract.

The acceptance property: a volume restriped *while serving writes* must
end byte-identical to a volume that ran the same workload with no
migration — for a geometry change (TIP p → TIP p') and a code-family
change (TIP → STAR) — and a migration killed at any journal boundary
must resume to the same bytes.
"""

import shutil

import numpy as np
import pytest

from repro.service import VolumeService
from repro.volume import Restriper, ShardSpec, VolumeManager

from tests.test_journal import Crash, CrashingJournal  # noqa: F401 (fixture)


def _source_specs():
    return [
        ShardSpec("tip", 5, stripes=6, chunk_bytes=512),
        ShardSpec("tip", 7, stripes=4, chunk_bytes=512),
    ]


GEOMETRY_TARGET = [
    ShardSpec("tip", 11, stripes=8, chunk_bytes=512),
]
FAMILY_TARGET = [
    ShardSpec("star", 7, stripes=12, chunk_bytes=512),
    ShardSpec("star", 5, stripes=12, chunk_bytes=512),
]


def _fresh_volume(tmp_path, name, seed=21, extent_bytes=2048):
    vol = VolumeManager.create(
        tmp_path / name, _source_specs(), extent_bytes=extent_bytes
    )
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, vol.volume_bytes, dtype=np.uint8)
    vol.write_bytes(0, data)
    return vol, data


def _workload(volume_bytes, workers=3, ops=12, seed=99):
    """Deterministic per-worker write lists over disjoint regions."""
    rng = np.random.default_rng(seed)
    region = volume_bytes // workers
    slot = region // ops
    plan = []
    for worker in range(workers):
        base = worker * region
        plan.append(
            [
                (
                    base + index * slot,
                    rng.integers(
                        0, 256, int(rng.integers(1, slot)), dtype=np.uint8
                    ),
                )
                for index in range(ops)
            ]
        )
    return plan


def _apply_shadow(shadow, plan):
    for ops in plan:
        for offset, payload in ops:
            shadow[offset : offset + payload.size] = payload


@pytest.mark.parametrize(
    "target", [GEOMETRY_TARGET, FAMILY_TARGET],
    ids=["tip-geometry-change", "tip-to-star-family-change"],
)
class TestOnlineEquivalence:
    def test_restripe_under_load_matches_quiet_volume(self, tmp_path, target):
        # Volume A: restripe while the workload runs concurrently.
        vol_a, data = _fresh_volume(tmp_path, "live")
        plan = _workload(vol_a.volume_bytes)
        service = VolumeService(vol_a, workers=len(plan))
        service.start_restripe(target, extents_per_tick=2)
        futures = [
            service.submit_write(offset, payload)
            for ops in plan
            for offset, payload in ops
        ]
        for future in futures:
            future.result()
        stats = service.join_restripe()
        assert stats.done
        assert stats.extents_copied == vol_a.total_extents

        # Volume B: identical workload, no migration.
        vol_b, data_b = _fresh_volume(tmp_path, "quiet")
        assert np.array_equal(data, data_b)
        for ops in plan:
            for offset, payload in ops:
                vol_b.write_bytes(offset, payload)

        got_a = vol_a.read_bytes(0, vol_a.volume_bytes)
        got_b = vol_b.read_bytes(0, vol_b.volume_bytes)
        assert np.array_equal(got_a, got_b)
        shadow = data.copy()
        _apply_shadow(shadow, plan)
        assert np.array_equal(got_a, shadow)
        assert vol_a.scrub() == {}
        assert [s["family"] for s in vol_a.status().shards] == [
            spec.family for spec in target
        ]
        service.close()
        vol_b.close()

    def test_reads_during_migration_see_every_write(self, tmp_path, target):
        vol, data = _fresh_volume(tmp_path, "readcheck")
        shadow = data.copy()
        restriper = Restriper(vol, target, extents_per_tick=3)
        rng = np.random.default_rng(4)
        while not restriper.done:
            restriper.tick()
            offset = int(rng.integers(0, vol.volume_bytes - 600))
            payload = rng.integers(0, 256, 600, dtype=np.uint8)
            vol.write_bytes(offset, payload)
            shadow[offset : offset + 600] = payload
            assert np.array_equal(
                vol.read_bytes(0, vol.volume_bytes), shadow
            )
        restriper.finish()
        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), shadow)
        vol.close()


class TestRestripeMechanics:
    def test_throttle_bounds_ticks(self, tmp_path):
        vol, data = _fresh_volume(tmp_path, "throttle")
        total = vol.total_extents
        restriper = Restriper(vol, GEOMETRY_TARGET, extents_per_tick=4)
        ticks = 0
        while not restriper.done:
            assert restriper.tick() <= 4
            ticks += 1
        assert ticks == -(-total // 4)  # ceil division
        restriper.finish()
        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), data)
        vol.close()

    def test_migration_io_is_the_same_under_foreground_load(self, tmp_path):
        """Through the service each tick runs alone in the volume, so
        ``RestripeStats.io`` counts the migration's copies only."""
        quiet, _ = _fresh_volume(tmp_path, "quiet")
        with VolumeService(quiet) as service:
            service.start_restripe(FAMILY_TARGET, extents_per_tick=1)
            alone = service.join_restripe().io

        busy, _ = _fresh_volume(tmp_path, "busy")
        plan = _workload(busy.volume_bytes, ops=30)
        with VolumeService(busy, workers=len(plan)) as service:
            service.start_restripe(
                FAMILY_TARGET, extents_per_tick=1, tick_delay=0.001
            )
            futures = [
                service.submit_write(offset, payload)
                for ops in plan
                for offset, payload in ops
            ]
            for future in futures:
                future.result()
            loaded = service.join_restripe().io
        assert alone.total_chunks > 0
        assert loaded == alone

    def test_finish_requires_complete_copy(self, tmp_path):
        vol, _ = _fresh_volume(tmp_path, "incomplete")
        restriper = Restriper(vol, GEOMETRY_TARGET, extents_per_tick=1)
        restriper.tick()
        with pytest.raises(RuntimeError, match="incomplete"):
            vol.finish_restripe()
        restriper.drain()
        vol.close()

    def test_finish_retires_old_shard_directories(self, tmp_path):
        vol, data = _fresh_volume(tmp_path, "retire")
        old_dirs = [store.directory for store in vol.shards]
        Restriper(vol, GEOMETRY_TARGET, extents_per_tick=8).run()
        assert not any(path.exists() for path in old_dirs)
        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), data)
        vol.close()

    def test_double_restripe_rejected(self, tmp_path):
        vol, _ = _fresh_volume(tmp_path, "double")
        restriper = Restriper(vol, GEOMETRY_TARGET)
        with pytest.raises(RuntimeError, match="already in flight"):
            vol.begin_restripe(GEOMETRY_TARGET)
        restriper.drain()
        vol.close()

    def test_target_must_hold_the_volume(self, tmp_path):
        vol, _ = _fresh_volume(tmp_path, "small")
        with pytest.raises(ValueError, match="less than the volume"):
            vol.begin_restripe(
                [ShardSpec("tip", 5, stripes=1, chunk_bytes=512)]
            )
        vol.close()

    def test_resume_requires_inflight_migration(self, tmp_path):
        vol, _ = _fresh_volume(tmp_path, "noresume")
        with pytest.raises(ValueError, match="no restripe in flight"):
            Restriper(vol)
        vol.close()

    def test_interrupted_migration_resumes_across_open(self, tmp_path):
        vol, data = _fresh_volume(tmp_path, "resume")
        restriper = Restriper(vol, FAMILY_TARGET, extents_per_tick=5)
        restriper.tick()
        restriper.tick()
        cursor = vol.restripe_cursor
        assert 0 < cursor < vol.total_extents
        vol.close()  # orderly shutdown mid-migration
        reopened = VolumeManager.open(tmp_path / "resume")
        assert reopened.restriping
        assert reopened.restripe_cursor == cursor
        resumed = Restriper(reopened)  # no target: resume from metadata
        resumed.run()
        assert np.array_equal(
            reopened.read_bytes(0, reopened.volume_bytes), data
        )
        assert [s["family"] for s in reopened.status().shards] == [
            "star", "star",
        ]
        reopened.close()


class TestRestripeCrashSweep:
    """Kill the process at every journal write/fsync boundary of a
    migration; reopening must resume to byte-identical contents."""

    def test_crash_at_every_boundary_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        target = [ShardSpec("star", 7, stripes=10, chunk_bytes=512)]
        # Template: a populated, cleanly closed volume.
        template, data = _fresh_volume(
            tmp_path, "template", extent_bytes=4096
        )
        template.close()

        monkeypatch.setattr(
            "repro.volume.manager.IntentJournal", CrashingJournal
        )

        def migrate(name):
            vol = VolumeManager.open(tmp_path / name)
            Restriper(vol, target, extents_per_tick=3).run()
            return vol

        # Count the crash-free run's journal boundaries.
        shutil.copytree(tmp_path / "template", tmp_path / "count")
        CrashingJournal.arm(None)
        start = CrashingJournal.ops
        vol = migrate("count")
        total = CrashingJournal.ops - start
        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), data)
        vol.close()
        assert total > 10

        for boundary in range(total):
            name = f"crash{boundary}"
            shutil.copytree(tmp_path / "template", tmp_path / name)
            CrashingJournal.arm(boundary)
            try:
                vol = migrate(name)
                # Budget outlasted this run's ops (fsync timing shifts
                # with recovery state): completed without crashing.
                CrashingJournal.arm(None)
                vol.close()
                continue
            except Crash:
                pass
            CrashingJournal.arm(None)
            # Process death: reopen, which replays the journal, then
            # resume the migration from the durable cursor.
            reopened = VolumeManager.open(tmp_path / name)
            if reopened.restriping:
                Restriper(reopened, extents_per_tick=3).run()
            got = reopened.read_bytes(0, reopened.volume_bytes)
            assert np.array_equal(got, data), (
                f"contents diverged after crash at boundary {boundary}"
            )
            assert reopened.scrub() == {}
            assert [s["family"] for s in reopened.status().shards] == [
                "star"
            ]
            reopened.close()

    def test_crash_mid_foreground_write_during_migration(
        self, tmp_path, monkeypatch
    ):
        """A foreground write killed at a journal boundary while a
        migration is in flight recovers to old-or-new bytes and the
        migration still completes."""
        vol, data = _fresh_volume(tmp_path, "mixed", extent_bytes=4096)
        vol.close()
        monkeypatch.setattr(
            "repro.volume.manager.IntentJournal", CrashingJournal
        )
        vol = VolumeManager.open(tmp_path / "mixed")
        restriper = Restriper(
            vol, [ShardSpec("star", 7, stripes=10, chunk_bytes=512)],
            extents_per_tick=2,
        )
        restriper.tick()
        payload = np.full(3000, 0xCD, dtype=np.uint8)
        offset = 1024
        CrashingJournal.arm(2)  # die inside the foreground write
        with pytest.raises(Crash):
            vol.write_bytes(offset, payload)
        CrashingJournal.arm(None)
        reopened = VolumeManager.open(tmp_path / "mixed")
        got = reopened.read_bytes(0, reopened.volume_bytes)
        old = data.copy()
        new = data.copy()
        new[offset : offset + payload.size] = payload
        # Per-extent-run atomicity: each touched extent is old or new.
        for extent_start in range(0, reopened.volume_bytes, 4096):
            span = slice(extent_start, extent_start + 4096)
            assert np.array_equal(got[span], old[span]) or np.array_equal(
                got[span], new[span]
            )
        Restriper(reopened, extents_per_tick=2).run()
        assert reopened.scrub() == {}
        reopened.close()
