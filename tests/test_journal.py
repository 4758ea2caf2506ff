"""The on-disk intent journal: format, recovery, and crash sweeps.

The crash-consistency contract under test: a mutating run seals its
intents (append + fsync) *before* the first data write and commits a
marker after the last one, so killing the process at **any**
write/fsync boundary leaves the journal in one of three states — no
intents (nothing to do), sealed intents without a marker (roll the
whole run forward), or a torn tail (discard: no data write ever
started). The sweep tests exercise every boundary by crashing the
journal's file ops one call later each iteration.
"""

import errno
import io
import struct

import numpy as np
import pytest

from repro.codes import make_code
from repro.store import (
    ArrayStore,
    IntentJournal,
    JournalRecord,
    MemoryJournal,
)


class Crash(RuntimeError):
    """The injected process death."""


class CrashingJournal(IntentJournal):
    """An IntentJournal that dies before its Nth file operation.

    ``budget`` counts *surviving* append/fsync calls; the call after
    the budget is exhausted raises :class:`Crash` without touching the
    file — exactly a kill between two file operations. ``budget=None``
    never crashes (used to count a workload's total boundaries and to
    reopen after a crash).
    """

    budget: int | None = None
    ops = 0

    @classmethod
    def arm(cls, budget):
        cls.budget = budget
        cls.ops = 0

    @classmethod
    def _gate(cls):
        CrashingJournal.ops += 1
        if CrashingJournal.budget is not None:
            if CrashingJournal.budget == 0:
                raise Crash("killed at journal boundary")
            CrashingJournal.budget -= 1

    def _append(self, data):
        self._gate()
        super()._append(data)

    def _sync(self):
        self._gate()
        super()._sync()


@pytest.fixture(autouse=True)
def _disarm():
    CrashingJournal.arm(None)
    yield
    CrashingJournal.arm(None)


def _record(shard=0, disk=1, offset=0, payload=b"abcd", meter=(1, 0)):
    return JournalRecord(
        shard=shard, disk=disk, offset=offset, payload=payload, meter=meter
    )


class TestMemoryJournal:
    def test_lifecycle(self):
        journal = MemoryJournal()
        rec = _record()
        journal.log(rec)
        journal.seal(0)
        assert journal.pending(0) == [rec]
        journal.commit(0)
        assert journal.pending(0) == []
        assert journal.durable is False

    def test_shards_are_independent(self):
        journal = MemoryJournal()
        journal.log(_record(shard=0, payload=b"x"))
        journal.log(_record(shard=1, payload=b"y"))
        journal.commit(0)
        assert journal.pending(0) == []
        assert [r.payload for r in journal.pending(1)] == [b"y"]

    def test_drop_pending_is_idempotent(self):
        journal = MemoryJournal()
        rec = _record()
        journal.log(rec)
        journal.drop_pending(0, rec)
        journal.drop_pending(0, rec)  # second drop must not raise
        assert journal.pending(0) == []

    def test_recover_is_a_noop(self):
        journal = MemoryJournal()
        journal.log(_record())
        assert journal.recover(lambda rec: None) == 0


class TestIntentJournalFormat:
    def test_committed_txn_does_not_recover(self, tmp_path):
        path = tmp_path / "j"
        with IntentJournal(path) as journal:
            journal.log(_record())
            journal.seal(0)
            journal.commit(0)
        with IntentJournal(path) as journal:
            assert journal.recover(lambda rec: None) == 0

    def test_uncommitted_txn_recovers_in_order(self, tmp_path):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record(offset=0, payload=b"aa"))
        journal.log(_record(offset=2, payload=b"bb"))
        journal.seal(0)
        # No commit: simulate death. Reopen from the same file.
        replayed = []
        with IntentJournal(path) as reopened:
            count = reopened.recover(lambda rec: replayed.append(rec))
        assert count == 2
        assert [r.payload for r in replayed] == [b"aa", b"bb"]

    def test_recover_writes_markers_making_second_recover_empty(
        self, tmp_path
    ):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record())
        journal.seal(0)
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda rec: None) == 1
        with IntentJournal(path) as again:
            assert again.recover(lambda rec: None) == 0

    def test_recover_filters_by_shard(self, tmp_path):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record(shard=3, payload=b"three"))
        journal.seal(3)
        journal.log(_record(shard=5, payload=b"five"))
        journal.seal(5)
        seen = []
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda r: seen.append(r), shard=5) == 1
            assert seen[0].payload == b"five"
            # Shard 3's transaction is still recoverable afterwards.
            assert reopened.recover(lambda r: seen.append(r), shard=3) == 1
        assert [r.payload for r in seen] == [b"five", b"three"]

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record(payload=b"committed"))
        journal.seal(0)
        journal.commit(0)
        journal.log(_record(payload=b"torn-victim"))
        journal.seal(0)
        journal.close()
        # Tear the last record: chop bytes off the file's tail.
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda rec: None) == 0

    def test_corrupt_mid_record_clips_like_a_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record(payload=b"x" * 64))
        journal.seal(0)
        journal.close()
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a payload byte: CRC must catch it
        path.write_bytes(bytes(raw))
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda rec: None) == 0

    def test_checkpoint_truncates_when_idle(self, tmp_path):
        path = tmp_path / "j"
        with IntentJournal(path, group_commit=100) as journal:
            journal.log(_record())
            journal.seal(0)
            assert path.stat().st_size > 0
            assert not journal.checkpoint()  # open txn: refused
            journal.commit(0)
            # Idle commit auto-checkpoints; the file must be empty.
            assert path.stat().st_size == 0

    def test_meter_survives_the_roundtrip(self, tmp_path):
        path = tmp_path / "j"
        journal = IntentJournal(path)
        journal.log(_record(meter=(3, 2)))
        journal.seal(0)
        records = [rec for kind, txn, rec in journal.iter_records()]
        journal.close()
        assert records[0].meter == (3, 2)

    def test_group_commit_defers_fsync(self, tmp_path):
        syncs = []

        class Counting(IntentJournal):
            def _sync(self):
                syncs.append(1)
                super()._sync()

        journal = Counting(tmp_path / "j", group_commit=4)
        baseline = len(syncs)
        journal.log(_record())
        journal.seal(0)  # 1 fsync (the barrier)
        journal.commit(0)
        # Idle-checkpoint syncs; defeat it by keeping a txn open.
        assert len(syncs) >= baseline + 1

    def test_rejects_bad_group_commit(self, tmp_path):
        with pytest.raises(ValueError, match="group_commit"):
            IntentJournal(tmp_path / "j", group_commit=0)


def _store(tmp_path, journal, name="store", **kwargs):
    return ArrayStore(
        make_code("tip", 5),
        tmp_path / name,
        stripes=4,
        chunk_bytes=256,
        journal=journal,
        **kwargs,
    )


class TestJournalCompaction:
    """Satellite: the journal stays bounded under sustained load even
    when it is never idle (an open transaction pins the quiescent
    checkpoint off), by compacting live records in place."""

    def test_sustained_writes_keep_the_file_bounded(self, tmp_path):
        rounds = 400
        payload = b"p" * 32

        # Control: compaction disabled, same workload — the file only
        # ever grows, giving the size yardstick for the real run.
        control_path = tmp_path / "control"
        with IntentJournal(control_path, checkpoint_records=0) as control:
            control.log(_record(shard=1, payload=b"pinned"))
            control.seal(1)  # open txn: quiescent checkpoint can't fire
            for _ in range(rounds):
                control.log(_record(shard=0, payload=payload))
                control.seal(0)
                control.commit(0)
            assert control.compactions == 0
            control_size = control_path.stat().st_size

        path = tmp_path / "bounded"
        journal = IntentJournal(path, checkpoint_records=32)
        journal.log(_record(shard=1, payload=b"pinned"))
        journal.seal(1)
        high_water = 0
        for _ in range(rounds):
            journal.log(_record(shard=0, payload=payload))
            journal.seal(0)
            journal.commit(0)
            high_water = max(high_water, path.stat().st_size)
        assert journal.compactions >= rounds // 32 - 1
        # Bounded: the high-water mark is a small multiple of the
        # threshold, nowhere near the append-only control file.
        assert high_water < control_size / 4, (high_water, control_size)
        journal.close()

        # Compaction preserved the live transaction under its original
        # id: the pinned intent still rolls forward, nothing else does.
        replayed = []
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda r: replayed.append(r),
                                    shard=1) == 1
            assert reopened.recover(lambda r: None, shard=0) == 0
        assert replayed[0].payload == b"pinned"

    def test_compaction_is_crash_transparent(self, tmp_path):
        """Sealed-but-uncommitted records survive a compaction and a
        later commit marker still matches the rewritten intents."""
        path = tmp_path / "j"
        journal = IntentJournal(path, checkpoint_records=8)
        journal.log(_record(shard=2, payload=b"live-a"))
        journal.log(_record(shard=2, payload=b"live-b"))
        journal.seal(2)
        for _ in range(16):  # push past the threshold: compaction runs
            journal.log(_record(shard=0, payload=b"noise"))
            journal.seal(0)
            journal.commit(0)
        assert journal.compactions >= 1
        # Committing *after* the rewrite must mark the rewritten txn.
        journal.commit(2)
        journal.close()
        with IntentJournal(path) as reopened:
            assert reopened.recover(lambda r: None) == 0

    def test_rejects_negative_threshold(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_records"):
            IntentJournal(tmp_path / "j", checkpoint_records=-1)


class TestStoreRecovery:
    """ArrayStore + IntentJournal: replay-on-open and the S6 bugfix."""

    def test_clean_write_leaves_empty_journal(self, tmp_path):
        journal = IntentJournal(tmp_path / "j")
        store = _store(tmp_path, journal)
        store.write_bytes(0, b"\x5a" * 600)
        assert journal.pending_records() == []
        store.close()
        journal.close()

    def test_crash_before_data_write_rolls_forward_on_open(self, tmp_path):
        journal = CrashingJournal(tmp_path / "j")
        store = _store(tmp_path, journal)
        store.write_bytes(0, b"\x11" * 512)  # baseline content
        payload = bytes(range(256)) * 2
        # Allow the intent append, kill at the seal fsync: intents are
        # on disk, no data write has started.
        CrashingJournal.arm(1)
        with pytest.raises(Crash):
            store.write_bytes(0, payload)
        CrashingJournal.arm(None)
        # "Process death": reopen the directory with a fresh journal.
        journal2 = IntentJournal(tmp_path / "j")
        store2 = _store(tmp_path, journal2, name="store")
        got = store2.read_bytes(0, 512).tobytes()
        # The torn write either fully recovered or never started.
        assert got in (payload, b"\x11" * 512)
        assert store2.scrub() == []
        store2.close()
        journal2.close()

    def test_s6_inprocess_then_reopen_replay_is_idempotent(self, tmp_path):
        """The same interrupted write observed by BOTH recovery paths —
        in-process ``complete_interrupted_write`` and on-disk replay at
        the next open — must land exactly once, byte-identically."""
        journal = CrashingJournal(tmp_path / "j")
        store = _store(tmp_path, journal)
        store.write_bytes(0, b"\x22" * 512)
        payload = b"\xab" * 512
        # Kill at the seal fsync: the intent records are appended (and,
        # on a real disk, likely persisted) but seal never returned, so
        # the thread-local pending list still holds every record.
        CrashingJournal.arm(1)
        with pytest.raises(Crash):
            store.write_bytes(0, payload)
        CrashingJournal.arm(None)
        # Path 1: the in-memory roll-forward a repair would run.
        replayed = store.complete_interrupted_write()
        assert replayed > 0
        assert store.read_bytes(0, 512).tobytes() == payload
        io_after_repair = store.io.snapshot()
        # Path 2: the commit marker never reached the file (seal died),
        # so a reopen replays the very same transaction from disk.
        journal2 = IntentJournal(tmp_path / "j")
        store2 = _store(tmp_path, journal2, name="store")
        assert store2.read_bytes(0, 512).tobytes() == payload
        assert store2.scrub() == []
        store2.close()
        journal2.close()
        # Idempotency of path 1 itself: nothing left to replay.
        assert store.complete_interrupted_write() == 0
        assert store.io == io_after_repair
        store.close()
        journal.close()

    def test_crash_sweep_every_boundary_recovers_byte_identical(
        self, tmp_path
    ):
        """Kill at every journal write/fsync boundary of a two-shard
        journaled write; reopening must recover each shard to a state
        byte-identical to either before or after the whole run, with
        clean parity."""
        before0, before1 = b"\x01" * 512, b"\x02" * 512
        after0, after1 = b"\xe0" * 512, b"\xe1" * 512

        def build(tag):
            journal = CrashingJournal(tmp_path / f"{tag}-j")
            s0 = _store(tmp_path, journal, name=f"{tag}-s0", shard_id=0)
            s1 = _store(tmp_path, journal, name=f"{tag}-s1", shard_id=1)
            s0.write_bytes(0, before0)
            s1.write_bytes(0, before1)
            return journal, s0, s1

        # Count the boundaries of the crash-free run.
        journal, s0, s1 = build("count")
        CrashingJournal.arm(None)
        start = CrashingJournal.ops
        s0.write_bytes(0, after0)
        s1.write_bytes(0, after1)
        total = CrashingJournal.ops - start
        s0.close(), s1.close(), journal.close()
        assert total >= 4  # at least seal append+fsync per shard

        for k in range(total):
            journal, s0, s1 = build(f"k{k}")
            CrashingJournal.arm(k)
            with pytest.raises(Crash):
                s0.write_bytes(0, after0)
                s1.write_bytes(0, after1)
            CrashingJournal.arm(None)
            # Process death: reopen both shards over a fresh journal.
            journal2 = IntentJournal(tmp_path / f"k{k}-j")
            r0 = _store(tmp_path, journal2, name=f"k{k}-s0", shard_id=0)
            r1 = _store(tmp_path, journal2, name=f"k{k}-s1", shard_id=1)
            got0 = r0.read_bytes(0, 512).tobytes()
            got1 = r1.read_bytes(0, 512).tobytes()
            assert got0 in (before0, after0), f"shard 0 torn at boundary {k}"
            assert got1 in (before1, after1), f"shard 1 torn at boundary {k}"
            assert r0.scrub() == [] and r1.scrub() == []
            # Boundary ordering: shard 1 can only be new if shard 0 is.
            if got1 == after1:
                assert got0 == after0
            r0.close(), r1.close(), journal2.close()


class TestSharedJournalAcrossStores:
    def test_two_stores_one_journal_recover_their_own_writes(self, tmp_path):
        journal = IntentJournal(tmp_path / "j")
        s0 = _store(tmp_path, journal, name="s0", shard_id=0)
        s1 = _store(tmp_path, journal, name="s1", shard_id=1)
        s0.write_bytes(0, b"\x0a" * 300)
        s1.write_bytes(0, b"\x0b" * 300)
        assert s0.read_bytes(0, 300).tobytes() == b"\x0a" * 300
        assert s1.read_bytes(0, 300).tobytes() == b"\x0b" * 300
        assert journal.pending_records() == []
        s0.close(), s1.close(), journal.close()

    def test_header_is_fixed_width(self):
        # The on-disk format is load-bearing: changing the header size
        # silently invalidates every existing journal.
        from repro.store.journal import _HEADER

        assert _HEADER.size == struct.calcsize("<2sBxIiQQIHHII")


class TestJournalledStoreEquivalence:
    def test_journal_changes_no_bytes_and_no_io_counts(self, tmp_path):
        """A journaled store must be byte- and counter-identical to an
        unjournaled one over the same workload (the journal meters
        nothing; it only adds durability)."""
        rng = np.random.default_rng(7)
        plain = ArrayStore(
            make_code("tip", 5), tmp_path / "plain",
            stripes=4, chunk_bytes=256,
        )
        journal = IntentJournal(tmp_path / "j")
        logged = _store(tmp_path, journal, name="logged")
        for _ in range(25):
            length = int(rng.integers(1, 1500))
            offset = int(rng.integers(0, plain.capacity_bytes - length))
            payload = rng.integers(0, 256, length, dtype=np.uint8)
            plain.write_bytes(offset, payload)
            logged.write_bytes(offset, payload)
        assert np.array_equal(
            plain.read_bytes(0, plain.capacity_bytes),
            logged.read_bytes(0, logged.capacity_bytes),
        )
        assert plain.io == logged.io
        plain.close(), logged.close(), journal.close()


class _ShortFile(io.FileIO):
    """A journal file whose writes land at most ``limit`` bytes each.

    With ``fail_after`` set, every write after that many calls raises
    ``ENOSPC``: a disk filling up partway through a record.
    """

    limit = 5
    fail_after: int | None = None
    calls = 0

    def write(self, data):
        self.calls += 1
        if self.fail_after is not None and self.calls > self.fail_after:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(memoryview(data)[: self.limit])


class TestShortAppends:
    """An unbuffered write may land only part of a record; the journal
    must append every byte or raise without leaving a torn record."""

    @staticmethod
    def _journal(path):
        journal = IntentJournal(path)
        journal._file.close()
        journal._file = _ShortFile(path, "ab")
        return journal

    def test_short_writes_still_append_whole_records(self, tmp_path):
        path = tmp_path / "j"
        journal = self._journal(path)
        journal.log(_record(payload=b"x" * 100))
        journal.log(_record(disk=2, payload=b"y" * 37))
        journal.seal(0)
        assert journal._file.calls > 2  # the records took many writes
        # Killed before the commit: both intents must parse back whole.
        replayed = []
        with IntentJournal(path) as reopened:
            assert reopened.recover(replayed.append) == 2
        assert [r.payload for r in replayed] == [b"x" * 100, b"y" * 37]
        journal.close()

    def test_failed_append_raises_and_leaves_no_torn_record(self, tmp_path):
        path = tmp_path / "j"
        journal = self._journal(path)
        journal.log(_record(payload=b"a" * 64))
        journal.seal(0)  # sealed, never committed: must survive
        journal._file.calls = 0
        journal._file.fail_after = 3
        journal.log(_record(shard=1, payload=b"b" * 64))
        with pytest.raises(OSError) as failure:
            journal.seal(1)
        assert failure.value.errno == errno.ENOSPC
        # Space is back: a later transaction must land behind the first
        # one, not behind an unparseable piece of the failed one.
        journal._file.fail_after = None
        journal.log(_record(shard=2, payload=b"c" * 64))
        journal.seal(2)
        replayed = []
        with IntentJournal(path) as reopened:
            reopened.recover(replayed.append)
        assert [r.payload for r in replayed] == [b"a" * 64, b"c" * 64]
        journal.close()
