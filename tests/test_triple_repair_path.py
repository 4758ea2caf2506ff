"""The triple-failure repair path stays lean.

Rebuild reads each surviving disk once per batch and writes back only
the reconstructed columns, one write per failed disk: surviving disks
are never written, so a fault plan sees only reads on them and keeps
the corruption records it has there.
"""

import math

import numpy as np
import pytest

from repro.codes import make_code
from repro.faults import FaultPlan
from repro.store import ArrayStore

FAILED = (0, 3, 6)


def fill(store, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, store.capacity_bytes, dtype=np.uint8)
    store.write_bytes(0, data)
    return data


def fail(store, disks=FAILED):
    for disk in disks:
        store.fail_disk(disk)


class TestRebuildWriteBack:
    @pytest.mark.parametrize("stripes,batch", [(16, 4), (10, 3), (12, 32)])
    def test_exact_counts(self, tmp_path, stripes, batch):
        code = make_code("tip", 8)
        with ArrayStore(
            code, tmp_path, stripes=stripes, chunk_bytes=256,
            rebuild_batch=batch,
        ) as store:
            data = fill(store, seed=stripes)
            fail(store)
            before = store.syscalls.snapshot()
            assert store.rebuild() == stripes
            spent = store.syscalls - before
            batches = math.ceil(stripes / batch)
            assert spent.writes + spent.vector_writes == len(FAILED) * batches
            survivors = code.cols - len(FAILED)
            assert store.last_io.chunks_read == survivors * code.rows * stripes
            assert store.last_io.chunks_written == (
                len(FAILED) * code.rows * stripes
            )
            assert store.last_io.total_chunks == (
                len(code.nonempty_positions) * stripes
            )
            assert store.scrub() == []
            assert np.array_equal(
                store.read_bytes(0, store.capacity_bytes), data
            )

    def test_survivors_see_reads_only(self, tmp_path):
        code = make_code("tip", 8)
        plan = FaultPlan(seed=3)
        with ArrayStore(
            code, tmp_path, stripes=12, chunk_bytes=256, rebuild_batch=5,
            fault_plan=plan,
        ) as store:
            fill(store, seed=4)
            fail(store)
            before = {disk: plan.ops(disk) for disk in range(code.cols)}
            store.rebuild()
            batches = math.ceil(12 / 5)
            for disk in range(code.cols):
                # One span read per batch on a survivor, one write per
                # batch on a rebuilt disk, nothing else.
                assert plan.ops(disk) - before[disk] == batches, disk

    def test_rebuild_keeps_survivor_corruption_records(self, tmp_path):
        """Rewriting a survivor's unchanged (still flipped) bytes must
        not mark the fault plan's corruption there ``overwritten``."""
        plan = FaultPlan(seed=2).bit_flip(disk=2, lba=1, at_op=1)
        with ArrayStore(
            make_code("tip", 5), tmp_path, stripes=4, chunk_bytes=64,
            fault_plan=plan,
        ) as store:
            store.read_bytes(0, store.capacity_bytes)
            assert plan.active_corruptions() == {(2, 1)}
            store.fail_disk(0)
            ops = plan.stats.ops
            store.rebuild()
            assert plan.active_corruptions() == {(2, 1)}
            assert next(
                f for f in plan.injected if f.kind == "bit_flip"
            ).status == "active"
            # Four survivor span reads and one write-back span.
            assert plan.stats.ops - ops == 5

    def test_one_write_per_failed_disk_past_iov_max_chunks(self, tmp_path):
        """A batch holding more chunks per disk than one vectored call
        takes buffers (``IOV_MAX``) is still one contiguous buffer per
        disk: one write per failed disk, every byte landed."""
        code = make_code("tip", 8)
        stripes = 200  # 200 * 6 rows = 1200 chunks per failed disk
        with ArrayStore(
            code, tmp_path, stripes=stripes, chunk_bytes=64,
            rebuild_batch=stripes,
        ) as store:
            data = fill(store, seed=5)
            fail(store)
            before = store.syscalls.snapshot()
            store.rebuild()
            spent = store.syscalls - before
            assert spent.writes + spent.vector_writes == len(FAILED)
            assert spent.reads + spent.vector_reads == code.cols - len(FAILED)
            assert store.scrub() == []
            assert np.array_equal(
                store.read_bytes(0, store.capacity_bytes), data
            )
