"""Wide whole-stripe writes: one encode, one journal transaction and one
gather write per disk for a run of aligned whole stripes.

The contracts pinned here:

* backing files stay byte-identical to an oracle encoded stripe by
  stripe, for every registered family, healthy and degraded;
* chunk counters and fast/slow path counts equal what the planner
  prices for the request's per-stripe runs, while backing-file syscalls
  drop once two or more whole stripes are written together, and are
  the request's planned span count otherwise;
* the cached store's full-stripe bypass stays exactly predictable by the
  ``"cached"`` planner strategy;
* a multi-extent journaled volume write, merged into per-shard I/Os,
  recovers every stripe to its pre- or post-image from a crash at any
  journal boundary;
* merged shard I/Os during a migration follow the cursor routing rule.
"""

import os
import shutil

import numpy as np
import pytest

from repro.bitmatrix import kernel
from repro.codes import make_code
from repro.codes.base import Cell
from repro.codes.registry import CODE_FAMILIES, supports_size
from repro.disksim import RaidController
from repro.raid import BlockDevice, plan_io_counters
from repro.raid.mapping import WIDE_WRITE_STRIPES
from repro.store import ArrayStore, IoCounters
from repro.traces import TraceRequest
from repro.volume import Restriper, ShardSpec, VolumeManager

from tests.test_journal import Crash, CrashingJournal
from tests.test_xor_kernel import code_with_empty_cells

CHUNK = 64
STRIPES = 14


def _smallest_code(family):
    n = next(n for n in range(5, 16) if supports_size(family, n))
    return make_code(family, n)


FAMILY_CODES = [_smallest_code(family) for family in CODE_FAMILIES]


def _failure_sets(code):
    """Healthy, then 1..faults failed disks spread over the columns."""
    return [tuple(range(0, 2 * k, 2)) for k in range(code.faults + 1)]


def _oracle_disks(code, image, stripes, chunk):
    """Per-disk backing bytes of ``image``, encoded stripe by stripe."""
    stripe_bytes = code.num_data * chunk
    columns = [[] for _ in range(code.cols)]
    for stripe in range(stripes):
        data = image[stripe * stripe_bytes : (stripe + 1) * stripe_bytes]
        grid = code.make_stripe(data.reshape(code.num_data, chunk))
        for col in range(code.cols):
            columns[col].append(grid[:, col, :].tobytes())
    return [b"".join(parts) for parts in columns]


def _planned(store, offset, length):
    """Chunk counters and (fast, slow) run counts the planner prices."""
    failed = tuple(sorted(store.failed))
    counts = IoCounters()
    fast = slow = 0
    for run in store.planner.mapping.byte_runs(offset, length):
        plan = store.planner.plan_write_run(
            run.start, run.length, failed,
            partial=run.is_partial(store.chunk_bytes),
        )
        for positions, wrote in ((plan.reads, False), (plan.writes, True)):
            for pos in positions:
                if pos[1] in failed:
                    continue
                parity = store.code.kind(*pos) == Cell.PARITY
                if wrote and parity:
                    counts.parity_chunks_written += 1
                elif wrote:
                    counts.data_chunks_written += 1
                elif parity:
                    counts.parity_chunks_read += 1
                else:
                    counts.data_chunks_read += 1
        if plan.path == "delta":
            fast += 1
        else:
            slow += 1
    return counts, fast, slow


def _write_shapes(code):
    """(offset, length, whole stripes) for 1..11 whole stripes, with and
    without unaligned partial heads and tails."""
    stripe_bytes = code.num_data * CHUNK
    shapes = []
    for whole in range(1, 12):
        if whole % 2:
            head, tail = 0, 0
        else:
            head = min(2 * CHUNK + 7, stripe_bytes - 1)
            tail = CHUNK + 5
        offset = stripe_bytes - head if head else stripe_bytes
        shapes.append((offset, head + whole * stripe_bytes + tail, whole))
    return shapes


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "code", FAMILY_CODES, ids=[code.name for code in FAMILY_CODES]
    )
    def test_wide_writes_match_stripe_by_stripe_oracle(self, tmp_path, code):
        for failed in _failure_sets(code):
            tag = "-".join(map(str, failed)) or "healthy"
            store = ArrayStore(
                code, tmp_path / f"wide-{tag}", stripes=STRIPES,
                chunk_bytes=CHUNK,
            )
            # The same requests split into their per-stripe runs: the
            # syscall yardstick of one write per run.
            split = ArrayStore(
                code, tmp_path / f"split-{tag}", stripes=STRIPES,
                chunk_bytes=CHUNK,
            )
            rng = np.random.default_rng(len(failed))
            image = rng.integers(0, 256, store.capacity_bytes, dtype=np.uint8)
            for target in (store, split):
                target.write_bytes(0, image)
                for disk in failed:
                    target.fail_disk(disk)
            for offset, length, whole in _write_shapes(code):
                payload = rng.integers(0, 256, length, dtype=np.uint8)
                image[offset : offset + length] = payload
                expected, fast, slow = _planned(store, offset, length)
                spans = store.planner.plan_batch(
                    [(True, offset, length)], failed
                ).span_ios
                before = (
                    store.io.snapshot(), store.syscalls.total,
                    store.fast_path_writes, store.slow_path_writes,
                )
                store.write_bytes(offset, payload)
                context = (code.name, failed, offset, length)
                assert store.last_io == expected, context
                assert store.io - before[0] == expected, context
                assert store.fast_path_writes - before[2] == fast, context
                assert store.slow_path_writes - before[3] == slow, context
                wide_syscalls = store.syscalls.total - before[1]

                split_before = split.syscalls.total
                cursor = 0
                for run in split.planner.mapping.byte_runs(offset, length):
                    split.write_bytes(
                        offset + cursor, payload[cursor : cursor + run.nbytes]
                    )
                    cursor += run.nbytes
                split_syscalls = split.syscalls.total - split_before
                if whole >= 2:
                    assert wide_syscalls < split_syscalls, context
                else:
                    # The request's runs share one pass's per-disk spans.
                    assert wide_syscalls == spans, context
                    assert wide_syscalls <= split_syscalls, context

                oracle = _oracle_disks(code, image, STRIPES, CHUNK)
                for disk in range(code.cols):
                    stored = (store.directory / f"disk{disk:03d}.img").read_bytes()
                    if disk in failed:
                        assert stored == bytes(len(oracle[disk])), context
                    else:
                        assert stored == oracle[disk], (context, disk)
            store.close()
            split.close()

    def test_one_gather_write_per_disk_per_wide_run(self, tmp_path):
        code = make_code("tip", 8)
        stripes = 2 * WIDE_WRITE_STRIPES + 3
        store = ArrayStore(code, tmp_path / "s", stripes=stripes, chunk_bytes=CHUNK)
        before = store.syscalls.snapshot()
        store.write_bytes(0, np.zeros(store.capacity_bytes, dtype=np.uint8))
        used = store.syscalls - before
        wide_runs = -(-stripes // WIDE_WRITE_STRIPES)
        assert used.vector_writes == wide_runs * code.cols
        assert used.reads == used.writes == used.vector_reads == 0
        assert store.slow_path_writes == stripes
        store.close()

    def test_short_gather_writes_resume_mid_list(self, tmp_path, monkeypatch):
        """``pwritev`` may land part of its iovecs; the span writer must
        resume inside the list, across chunk boundaries."""
        code = make_code("tip", 5)
        store = ArrayStore(code, tmp_path / "s", stripes=STRIPES, chunk_bytes=CHUNK)
        real = os.pwritev
        calls = []

        def short(fd, buffers, offset):
            calls.append(offset)
            head = b"".join(bytes(buffer) for buffer in buffers)[:100]
            return real(fd, [head], offset)

        monkeypatch.setattr(os, "pwritev", short)
        image = np.random.default_rng(3).integers(
            0, 256, store.capacity_bytes, dtype=np.uint8
        )
        store.write_bytes(0, image)
        monkeypatch.undo()
        assert len(calls) > code.cols * 2
        assert store.syscalls.vector_writes == len(calls)
        oracle = _oracle_disks(code, image, STRIPES, CHUNK)
        for disk in range(code.cols):
            path = store.directory / f"disk{disk:03d}.img"
            assert path.read_bytes() == oracle[disk], disk
        store.close()

    def test_platforms_without_pwritev_write_joined_spans(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.store.array_store._HAS_PWRITEV", False)
        code = make_code("tip", 5)
        store = ArrayStore(code, tmp_path / "s", stripes=STRIPES, chunk_bytes=CHUNK)
        image = np.random.default_rng(4).integers(
            0, 256, store.capacity_bytes, dtype=np.uint8
        )
        store.write_bytes(0, image)
        wide_runs = -(-STRIPES // WIDE_WRITE_STRIPES)
        assert store.syscalls.vector_writes == 0
        assert store.syscalls.writes == wide_runs * code.cols
        oracle = _oracle_disks(code, image, STRIPES, CHUNK)
        for disk in range(code.cols):
            path = store.directory / f"disk{disk:03d}.img"
            assert path.read_bytes() == oracle[disk], disk
        store.close()

    def test_write_watchers_see_every_stripe(self, tmp_path):
        code = make_code("tip", 5)
        store = ArrayStore(code, tmp_path / "s", stripes=STRIPES, chunk_bytes=CHUNK)
        watcher = store.watch_writes()
        stripe_bytes = code.num_data * CHUNK
        store.write_bytes(stripe_bytes - 5, np.ones(11 * stripe_bytes, np.uint8))
        assert watcher == set(range(0, 12))
        store.unwatch_writes(watcher)
        store.close()

    def test_rejects_payloads_that_are_not_whole_stripes(self, tmp_path):
        code = make_code("tip", 5)
        store = ArrayStore(code, tmp_path / "s", stripes=STRIPES, chunk_bytes=CHUNK)
        stripe_bytes = code.num_data * CHUNK
        with pytest.raises(ValueError, match="whole stripes"):
            store.write_stripes(0, np.zeros(stripe_bytes + 1, np.uint8))
        with pytest.raises(ValueError, match="whole stripes"):
            store.write_stripes(
                0, np.zeros((WIDE_WRITE_STRIPES + 1) * stripe_bytes, np.uint8)
            )
        with pytest.raises(ValueError, match="inside the store"):
            store.write_stripes(STRIPES - 1, np.zeros(2 * stripe_bytes, np.uint8))
        store.close()


class TestUninitialisedBatch:
    """The wide write allocates its batch uninitialised: whatever the
    allocator hands back, the encode must leave every cell written and
    every EMPTY cell zero, on the kernel and on the numpy fallback."""

    @pytest.mark.parametrize("executor", ["kernel", "numpy"])
    @pytest.mark.parametrize(
        "code",
        FAMILY_CODES + [code_with_empty_cells()],
        ids=[code.name for code in FAMILY_CODES] + ["empty-demo"],
    )
    def test_poisoned_allocation_is_overwritten(
        self, tmp_path, monkeypatch, code, executor
    ):
        if executor == "numpy":
            monkeypatch.setattr(kernel, "XOR_PLAN", None)
        elif kernel.XOR_PLAN is None:
            pytest.skip("no C compiler: numpy fallback only")
        store = ArrayStore(code, tmp_path / "s", stripes=STRIPES, chunk_bytes=CHUNK)
        count = 3
        stripe_bytes = code.num_data * CHUNK
        data = np.random.default_rng(4).integers(
            0, 256, count * stripe_bytes, dtype=np.uint8
        )
        real_empty = np.empty

        def poisoned(shape, dtype=float, **kwargs):
            out = real_empty(shape, dtype=dtype, **kwargs)
            out.fill(0xA5)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        batch = store._encode_stripes(data)
        monkeypatch.setattr(np, "empty", real_empty)
        for index in range(count):
            packets = data[index * stripe_bytes : (index + 1) * stripe_bytes]
            expected = code.make_stripe(packets.reshape(code.num_data, CHUNK))
            assert np.array_equal(batch[:, index].transpose(1, 0, 2), expected)
        for row in range(code.rows):
            for col in range(code.cols):
                if code.kind(row, col) == Cell.EMPTY:
                    assert not batch[col, :, row].any()
        store.close()


class TestCachedBypass:
    """Multi-stripe bypasses stay exactly predictable by the shadow
    cache: the backend's wide write is logged as its element writes."""

    @pytest.mark.parametrize(
        "family,n", [("tip", 8), ("star", 6), ("cauchy-rs", 6)]
    )
    def test_cached_strategy_predicts_multi_stripe_bypasses(
        self, tmp_path, family, n
    ):
        code = make_code(family, n)
        store = ArrayStore(
            code, tmp_path / "cached", stripes=STRIPES, chunk_bytes=CHUNK,
            cache_stripes=2,
        )
        controller = RaidController(
            code, CHUNK, write_strategy="cached", cache_stripes=2
        )
        device = BlockDevice(store)
        stripe_bytes = code.num_data * CHUNK
        rng = np.random.default_rng([ord(c) for c in family] + [n])
        requests = [TraceRequest(0.0, 0, store.capacity_bytes, True)]
        for index in range(30):
            if index % 3 == 0:
                whole = int(rng.integers(2, 12))
                offset = int(rng.integers(0, stripe_bytes)) if index % 2 else 0
                offset += int(rng.integers(0, STRIPES - whole - 1)) * stripe_bytes
                length = whole * stripe_bytes + int(rng.integers(0, CHUNK))
            else:
                offset = int(rng.integers(0, store.capacity_bytes - 4 * CHUNK))
                length = int(rng.integers(1, 4 * CHUNK))
            requests.append(
                TraceRequest(float(index + 1), offset, length, bool(rng.random() < 0.8))
            )
        bypassed = 0
        for request in requests:
            planned = plan_io_counters(code, controller.plan(request))
            before = store.cache.stats.bypass_chunks
            if request.is_write:
                device.write(request.offset, bytes(request.length))
            else:
                device.read(request.offset, request.length)
            bypassed += store.cache.stats.bypass_chunks > before
            measured = store.last_io
            assert (
                planned.data_chunks_read, planned.parity_chunks_read,
                planned.data_chunks_written, planned.parity_chunks_written,
            ) == (
                measured.data_chunks_read, measured.parity_chunks_read,
                measured.data_chunks_written, measured.parity_chunks_written,
            ), request
        assert bypassed >= 5
        assert (
            controller.planner.shadow_cache.stats.io == store.cache.stats.io
        )
        planned_flush = plan_io_counters(code, controller.planner.plan_flush())
        before = store.io.snapshot()
        store.flush()
        assert planned_flush.total_chunks == (store.io - before).total_chunks
        assert store.scrub() == []
        store.close()


def _shard_images(volume):
    return [
        shard.read_bytes(0, shard.capacity_bytes) for shard in volume.shards
    ]


class TestVolumeCrashSweep:
    def test_multi_extent_write_recovers_each_stripe_old_or_new(
        self, tmp_path, monkeypatch
    ):
        """Extents (2 KiB) are half a shard stripe (TIP n=5, 8 x 512 B),
        so a shard I/O merged from several extents rewrites whole
        stripes; a kill at any journal boundary must leave every shard
        stripe at its pre-image or its post-image."""
        monkeypatch.setattr("repro.volume.manager.IntentJournal", CrashingJournal)
        specs = [ShardSpec("tip", 5, stripes=12, chunk_bytes=512)] * 2
        template = VolumeManager.create(tmp_path / "template", specs, extent_bytes=2048)
        rng = np.random.default_rng(5)
        template.write_bytes(
            0, rng.integers(0, 256, template.volume_bytes, dtype=np.uint8)
        )
        pre = _shard_images(template)
        template.close()
        offset = 3000
        payload = rng.integers(0, 256, 40_000, dtype=np.uint8)
        stripe_bytes = 8 * 512

        CrashingJournal.arm(None)
        shutil.copytree(tmp_path / "template", tmp_path / "count")
        vol = VolumeManager.open(tmp_path / "count")
        start = CrashingJournal.ops
        vol.write_bytes(offset, payload)
        total = CrashingJournal.ops - start
        post = _shard_images(vol)
        vol.close()
        assert total >= 8
        changed = [
            s for shard in range(2) for s in range(12)
            if not np.array_equal(
                pre[shard][s * stripe_bytes : (s + 1) * stripe_bytes],
                post[shard][s * stripe_bytes : (s + 1) * stripe_bytes],
            )
        ]
        assert len(changed) >= 8

        try:
            for boundary in range(total):
                name = f"crash{boundary}"
                shutil.copytree(tmp_path / "template", tmp_path / name)
                vol = VolumeManager.open(tmp_path / name)
                CrashingJournal.arm(boundary)
                with pytest.raises(Crash):
                    vol.write_bytes(offset, payload)
                CrashingJournal.arm(None)
                reopened = VolumeManager.open(tmp_path / name)
                got = _shard_images(reopened)
                for shard in range(2):
                    for s in range(12):
                        span = slice(s * stripe_bytes, (s + 1) * stripe_bytes)
                        assert np.array_equal(
                            got[shard][span], pre[shard][span]
                        ) or np.array_equal(got[shard][span], post[shard][span]), (
                            boundary, shard, s,
                        )
                assert reopened.scrub() == {}
                reopened.close()
        finally:
            CrashingJournal.arm(None)


class TestRestripeInFlight:
    def test_merged_shard_ios_follow_the_cursor_rule(self, tmp_path, monkeypatch):
        vol = VolumeManager.create(
            tmp_path / "vol",
            [ShardSpec("tip", 5, stripes=8, chunk_bytes=512)] * 2,
            extent_bytes=2048,
        )
        rng = np.random.default_rng(11)
        model = rng.integers(0, 256, vol.volume_bytes, dtype=np.uint8)
        vol.write_bytes(0, model)
        vol.begin_restripe(
            [ShardSpec("star", 5, stripes=20, chunk_bytes=512)] * 2
        )
        cursor = 9
        vol.copy_extents(0, cursor)
        old_shards = {id(shard.store) for shard in vol._shards}
        new_shards = {id(shard.store) for shard in vol._new_shards}

        issued = []
        original = ArrayStore.write_bytes

        def spy(self, offset, payload):
            issued.append((id(self), offset, payload.size))
            return original(self, offset, payload)

        monkeypatch.setattr(ArrayStore, "write_bytes", spy)
        extent = vol.extent_bytes
        offset = (cursor - 5) * extent + 100
        payload = rng.integers(0, 256, 10 * extent, dtype=np.uint8)
        vol.write_bytes(offset, payload)
        model[offset : offset + payload.size] = payload

        # Expected per-extent routes by the cursor rule, as shard byte
        # ranges; the merged I/Os must cover exactly these bytes.
        expected = set()
        for run in vol.mapping.byte_runs(offset, payload.size):
            if run.extent < cursor:
                index, base = vol._new_mapping.locate(run.extent)
                store = vol._new_shards[index].store
                begin = base + run.volume_offset - run.extent * extent
            else:
                store = vol._shards[run.shard].store
                begin = run.shard_offset
            expected.update((id(store), b) for b in range(begin, begin + run.nbytes))
        covered = set()
        for store_id, begin, size in issued:
            assert store_id in old_shards or store_id in new_shards
            covered.update((store_id, b) for b in range(begin, begin + size))
        assert covered == expected
        assert sum(size for _, _, size in issued) == payload.size
        extents = len(vol.mapping.byte_runs(offset, payload.size))
        assert len(issued) < extents  # merged, not one I/O per extent
        touched_old = {s for s, _, _ in issued if s in old_shards}
        touched_new = {s for s, _, _ in issued if s in new_shards}
        assert touched_old and touched_new  # the write spans the cursor

        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), model)
        Restriper(vol, extents_per_tick=4).run()
        assert np.array_equal(vol.read_bytes(0, vol.volume_bytes), model)
        assert vol.scrub() == {}
        vol.close()
