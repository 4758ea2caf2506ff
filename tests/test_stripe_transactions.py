"""Stripe transactions: whole-stripe re-encodes journal their logical data.

The contracts pinned here:

* the three transactions that re-encode whole stripes — the wide
  whole-stripe write, the degraded stripe path and reconstruct-write —
  each log one data record holding the stripes' logical data, so an
  S-stripe wide write journals exactly its S * num_data data chunks
  plus two headers (the intent and its commit marker);
* a kill at any journal append/fsync boundary of such a transaction on
  a TIP n=8 volume leaves every stripe at its pre- or post-image after
  reopen, with a clean scrub;
* an in-process roll-forward of a data record re-encodes the parity and
  writes every surviving column, also when a disk failed mid-write;
* journal records compare by identity, so ``drop_pending`` removes
  byte-identical records one at a time;
* journal compaction makes its rename durable;
* a short ``preadv`` into the grid resumes mid-list, and without
  ``writev`` the journal still appends whole records.
"""

import os
import struct

import numpy as np
import pytest

from repro.codes import make_code
from repro.faults import FaultPlan
from repro.faults.inject import FailStopError
from repro.store import ArrayStore, IntentJournal, JournalRecord, MemoryJournal
from repro.volume import ShardSpec, VolumeManager

from tests.test_journal import Crash, CrashingJournal

CHUNK = 512
STRIPES = 8
TIP8 = make_code("tip", 8)
STRIPE_BYTES = TIP8.num_data * CHUNK
HEADER_BYTES = struct.calcsize("<2sBxIiQQIHHII")


def _store(directory, journal=None, chunk_bytes=CHUNK, **kwargs):
    return ArrayStore(
        TIP8, directory, stripes=STRIPES, chunk_bytes=chunk_bytes,
        journal=journal, **kwargs,
    )


def _run_paths(store, offset, length):
    """The plan path of every per-stripe run of a write."""
    failed = tuple(sorted(store.failed))
    return [
        store.planner.plan_write_run(
            run.start, run.length, failed,
            partial=run.is_partial(store.chunk_bytes),
        ).path
        for run in store.planner.mapping.byte_runs(offset, length)
    ]


class _Logging(CrashingJournal):
    """A crashing journal that also keeps every record it was given."""

    def __init__(self, *args, **kwargs):
        self.logged = []
        super().__init__(*args, **kwargs)

    def log(self, record):
        self.logged.append(record)
        super().log(record)


#: (name, failed disks, offset, length, expected run paths, stripes in
#: the data record). The wide write covers three whole stripes; the RCW
#: run covers 21 chunks of one stripe, unaligned at both ends; the
#: degraded write runs with disks 0, 3 and 6 failed.
SCENARIOS = [
    ("wide", (), STRIPE_BYTES, 3 * STRIPE_BYTES, ["stripe"] * 3, 3),
    ("rcw", (), 2 * STRIPE_BYTES + 2 * CHUNK + 100, 20 * CHUNK, ["rcw"], 1),
    ("degraded", (0, 3, 6), 5 * STRIPE_BYTES + 5 * CHUNK + 7, 6 * CHUNK,
     ["stripe"], 1),
]


class TestCrashSweep:
    """One TIP n=8 shard behind a volume, extents one stripe long, so
    volume and shard offsets coincide and a request reaches the shard as
    one write."""

    @pytest.mark.parametrize(
        "name,failed,offset,length,paths,record_stripes", SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_every_boundary_recovers_each_stripe_old_or_new(
        self, tmp_path, monkeypatch, name, failed, offset, length, paths,
        record_stripes,
    ):
        monkeypatch.setattr("repro.volume.manager.IntentJournal", _Logging)
        specs = [ShardSpec("tip", 8, stripes=STRIPES, chunk_bytes=CHUNK)]
        rng = np.random.default_rng(len(name))
        pre = rng.integers(0, 256, STRIPES * STRIPE_BYTES, dtype=np.uint8)
        payload = rng.integers(0, 256, length, dtype=np.uint8)
        post = pre.copy()
        post[offset : offset + length] = payload

        def build(tag):
            volume = VolumeManager.create(
                tmp_path / tag, specs, extent_bytes=STRIPE_BYTES
            )
            volume.write_bytes(0, pre)
            for disk in failed:
                volume.shards[0].fail_disk(disk)
            volume.journal.logged.clear()
            return volume

        CrashingJournal.arm(None)
        volume = build("count")
        assert _run_paths(volume.shards[0], offset, length) == paths
        start = CrashingJournal.ops
        volume.write_bytes(offset, payload)
        total = CrashingJournal.ops - start
        # One transaction of one data record: the stripes' logical data.
        [record] = volume.journal.logged
        assert record.stripe_data
        assert len(record.payload) == record_stripes * STRIPE_BYTES
        volume.close()
        assert total >= 3  # seal append + fsync, commit append

        for boundary in range(total):
            volume = build(f"k{boundary}")
            CrashingJournal.arm(boundary)
            with pytest.raises(Crash):
                volume.write_bytes(offset, payload)
            CrashingJournal.arm(None)
            # Process death: reopen, then re-fail the disks the crashed
            # process had lost.
            reopened = VolumeManager.open(tmp_path / f"k{boundary}")
            [store] = reopened.shards
            for disk in failed:
                store.fail_disk(disk)
            got = reopened.read_bytes(0, reopened.volume_bytes)
            for stripe in range(STRIPES):
                span = slice(stripe * STRIPE_BYTES, (stripe + 1) * STRIPE_BYTES)
                assert np.array_equal(got[span], pre[span]) or np.array_equal(
                    got[span], post[span]
                ), (name, boundary, stripe)
            store.rebuild()
            assert reopened.scrub() == {}, (name, boundary)
            reopened.close()


class TestInProcessRollForward:
    @pytest.mark.parametrize(
        "offset,length",
        [(STRIPE_BYTES, 2 * STRIPE_BYTES), (STRIPE_BYTES + 3 * CHUNK, 20 * CHUNK)],
        ids=["wide", "rcw"],
    )
    def test_data_record_rolls_forward_past_a_disk_failed_mid_write(
        self, tmp_path, offset, length
    ):
        store = _store(tmp_path)
        rng = np.random.default_rng(9)
        image = rng.integers(0, 256, store.capacity_bytes, dtype=np.uint8)
        store.write_bytes(0, image)
        payload = rng.integers(0, 256, length, dtype=np.uint8)
        # Disk 4 fail-stops at its first write: the columns written
        # before it hold the new stripes, the ones after it the old.
        reads_disk = any(
            col == 4
            for run in store.planner.mapping.byte_runs(offset, length)
            for _, col in store.planner.plan_write_run(
                run.start, run.length, partial=run.is_partial(CHUNK)
            ).reads
        )
        plan = FaultPlan(seed=0).fail_stop(disk=4, at_op=2 if reads_disk else 1)
        store.set_fault_plan(plan)
        with pytest.raises(FailStopError):
            store.write_bytes(offset, payload)
        [record] = store.journal.pending(store.shard_id)
        assert record.stripe_data
        first = offset // STRIPE_BYTES
        stripes = len(record.payload) // STRIPE_BYTES
        image[offset : offset + length] = payload
        logical = image[first * STRIPE_BYTES : (first + stripes) * STRIPE_BYTES]
        assert np.array_equal(np.frombuffer(record.payload, np.uint8), logical)

        store.fail_disk(4)
        before = store.io.snapshot()
        assert store.complete_interrupted_write() == TIP8.cols - 1
        # Replay meters every stored chunk of the surviving columns.
        per_stripe = [0, 0]  # data, parity
        for (_, col), role in TIP8.roles.items():
            if col != 4:
                per_stripe[role] += 1
        written = store.io - before
        assert written.data_chunks_written == stripes * per_stripe[0]
        assert written.parity_chunks_written == stripes * per_stripe[1]
        assert store.journal.pending(store.shard_id) == []
        assert store.complete_interrupted_write() == 0

        store.set_fault_plan(None)
        assert np.array_equal(store.read_bytes(0, store.capacity_bytes), image)
        store.rebuild()
        assert store.scrub() == []
        assert np.array_equal(store.read_bytes(0, store.capacity_bytes), image)
        store.close()


class TestJournalBytes:
    @pytest.mark.parametrize("stripes", [1, 3, 8])
    def test_wide_write_journals_data_chunks_and_two_headers(
        self, tmp_path, stripes
    ):
        journal = IntentJournal(tmp_path / "j")
        store = _store(tmp_path / "s", journal, chunk_bytes=4096)
        # An open transaction on another shard keeps the idle checkpoint
        # from truncating the file, so its growth is what the write
        # appended: the intent and its commit marker.
        journal.log(JournalRecord(shard=1, disk=0, offset=0, payload=b"pin"))
        journal.seal(1)
        before = journal.path.stat().st_size
        payload = np.full(stripes * TIP8.num_data * 4096, 7, dtype=np.uint8)
        store.write_bytes(0, payload)
        grown = journal.path.stat().st_size - before
        assert grown == stripes * TIP8.num_data * 4096 + 2 * HEADER_BYTES
        kinds = [kind for kind, _, record in journal.iter_records()]
        assert kinds[-2:] == [3, 2]  # one data intent, one commit marker
        journal.commit(1)
        store.close(), journal.close()


class TestRecordIdentity:
    @pytest.mark.parametrize("kind", ["memory", "intent"])
    @pytest.mark.parametrize(
        "payload", [b"same", np.arange(16, dtype=np.uint8)], ids=["bytes", "array"]
    )
    def test_drop_pending_removes_byte_identical_records_one_at_a_time(
        self, tmp_path, kind, payload
    ):
        journal = MemoryJournal() if kind == "memory" else IntentJournal(
            tmp_path / "j"
        )
        first = JournalRecord(shard=0, disk=1, offset=0, payload=payload)
        second = JournalRecord(shard=0, disk=1, offset=0, payload=payload)
        journal.log(first)
        journal.log(second)
        journal.drop_pending(0, second)
        [left] = journal.pending(0)
        assert left is first
        journal.drop_pending(0, second)  # already dropped: no effect
        assert journal.pending(0)[0] is first
        journal.drop_pending(0, first)
        assert journal.pending(0) == []
        journal.close()


class TestCompactionDurability:
    def test_compaction_syncs_the_journal_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        journal = IntentJournal(tmp_path / "j", checkpoint_records=2)
        journal.log(JournalRecord(shard=1, disk=0, offset=0, payload=b"open"))
        journal.seal(1)  # left open: only compaction can shrink the file
        monkeypatch.setattr(os, "fsync", recording_fsync)
        journal.log(JournalRecord(shard=0, disk=0, offset=0, payload=b"next"))
        journal.seal(0)
        assert journal.compactions == 1
        directory = os.stat(tmp_path)
        assert (directory.st_dev, directory.st_ino) in synced
        monkeypatch.undo()
        journal.commit(0)
        journal.commit(1)
        journal.close()


class TestPartialTransfers:
    def test_short_preadv_resumes_inside_the_grid_views(
        self, tmp_path, monkeypatch
    ):
        """``preadv`` may fill only part of its buffers; reconstruct-write
        must resume inside the list, across chunk boundaries."""
        store = _store(tmp_path)
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, store.capacity_bytes, dtype=np.uint8)
        store.write_bytes(0, image)
        offset, length = 2 * STRIPE_BYTES + 700, 20 * CHUNK
        assert _run_paths(store, offset, length) == ["rcw"]
        real = os.preadv
        calls = []

        def short(fd, buffers, position):
            calls.append(position)
            head = memoryview(buffers[0])[:100]
            return real(fd, [head], position)

        monkeypatch.setattr(os, "preadv", short)
        before = store.syscalls.vector_reads
        payload = rng.integers(0, 256, length, dtype=np.uint8)
        store.write_bytes(offset, payload)
        monkeypatch.undo()
        image[offset : offset + length] = payload
        assert store.syscalls.vector_reads - before == len(calls)
        assert len(calls) > TIP8.cols
        assert np.array_equal(store.read_bytes(0, store.capacity_bytes), image)
        assert store.scrub() == []
        store.close()

    def test_appends_without_writev_land_whole_records(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.store.journal._HAS_WRITEV", False)
        path = tmp_path / "j"
        journal = IntentJournal(path)
        data = np.arange(3 * 256, dtype=np.uint16).view(np.uint8)
        journal.log(
            JournalRecord(shard=0, disk=-1, offset=0, payload=data,
                          stripe_data=True)
        )
        journal.log(JournalRecord(shard=0, disk=2, offset=64, payload=b"span"))
        journal.seal(0)
        replayed = []
        with IntentJournal(path) as reopened:
            assert reopened.recover(replayed.append) == 2
        assert [record.stripe_data for record in replayed] == [True, False]
        assert bytes(replayed[0].payload) == data.tobytes()
        assert bytes(replayed[1].payload) == b"span"
        journal.close()
