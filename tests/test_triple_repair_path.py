"""The triple-failure repair path stays lean.

* A request-path decode (at most ``_TILE_MIN`` wide) never runs the
  host calibration of :mod:`repro.bitmatrix.tuning`, and the tile it
  gets is the one the calibrated formula gives at every width.
* Rebuild reads each surviving disk once per batch and writes back only
  the reconstructed columns, one write per failed disk: surviving
  disks are never written, so a fault plan sees only reads on them and
  keeps the corruption records it has there.
"""

import math

import numpy as np
import pytest

from repro.bitmatrix import tuning
from repro.bitmatrix.plan import (
    _DISPATCH_AMORTIZE,
    _TILE_MAX,
    _TILE_MIN,
    _WIDE_WORD_MIN,
    TILE_ALIGN,
)
from repro.bitmatrix.tuning import HostProfile, set_host_profile
from repro.codes import make_code
from repro.faults import FaultPlan, RepairController
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


@pytest.fixture()
def refuse_probe(monkeypatch):
    """Forget the cached host profile and make measuring a new one fail;
    the previous profile comes back afterwards."""
    saved = tuning._profile
    set_host_profile(None)

    def refuse(*_args, **_kwargs):
        raise AssertionError("host calibration ran")

    monkeypatch.setattr(tuning, "measure_xor_gib_s", refuse)
    monkeypatch.setattr(tuning, "measure_memcpy_gib_s", refuse)
    yield
    set_host_profile(saved)


def calibrated_tile(plan, width, profile):
    """The tile formula over a measured profile, with no short cut."""
    rows = plan.num_inputs + len(plan.outputs) + plan.num_workspace
    cache_tile = profile.effective_cache_bytes // max(rows, 1)
    floor = int(
        profile.dispatch_overhead_s
        * profile.xor_cached_gib_s
        * (1 << 30)
        * _DISPATCH_AMORTIZE
    )
    tile = min(max(cache_tile, floor, _TILE_MIN), _TILE_MAX)
    if width > 0:
        tile = min(tile, -(-width // TILE_ALIGN) * TILE_ALIGN)
    return max(tile - tile % TILE_ALIGN, TILE_ALIGN)


PROFILES = (
    HostProfile(10.0, 10.0, 20.0, 1e-7, 256 << 10),
    HostProfile(10.0, 10.0, 20.0, 1e-7, 8 << 20),
    HostProfile(5.0, 5.0, 40.0, 2e-6, 1 << 20),
)
WIDTHS = (
    1, 63, 64, 4096, 20480, _TILE_MIN - 1, _TILE_MIN, _TILE_MIN + 1,
    1 << 20, 64 << 20,
)


class TestNoProbeOnRequestPath:
    def test_default_tile_is_the_calibrated_formula(self, refuse_probe):
        plan = make_code("tip", 8).decoder_for(FAILED).compiled_plan()
        narrow = [w for w in WIDTHS if w <= _TILE_MIN]
        # No profile and a probe that fails: narrow widths still tile.
        unpinned = {w: plan.default_tile(w) for w in narrow}
        for profile in PROFILES:
            set_host_profile(profile)
            for width in WIDTHS:
                expected = calibrated_tile(plan, width, profile)
                assert plan.default_tile(width) == expected, (profile, width)
                if width in unpinned:
                    assert unpinned[width] == expected, width

    def test_degraded_read_and_drain_skip_the_probe(
        self, tmp_path, refuse_probe
    ):
        with ArrayStore(
            make_code("tip", 8), tmp_path, stripes=12, chunk_bytes=4096
        ) as store:
            data = fill(store, seed=1)
            fail(store)
            got = store.read_bytes(4096 * 7, 4096 * 30)
            assert np.array_equal(got, data[4096 * 7 : 4096 * 37])
            RepairController(store, max_chunks_per_tick=256).drain()
            assert not store.failed
            assert store.scrub() == []
            assert np.array_equal(
                store.read_bytes(0, store.capacity_bytes), data
            )


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("tile", [64, 4096, None])
def test_word_views_any_tile_match_interpreted(tile, offset):
    """Wide rows (a ragged tail, aligned or not) give the interpreted
    bytes whether they run as one tile or many."""
    decoder = make_code("tip", 8).decoder_for(FAILED)
    count = len(decoder.plan.known_positions)
    width = _WIDE_WORD_MIN + 4103  # one auto tile; a ragged 7-byte tail
    rng = np.random.default_rng(tile or 0)
    backing = rng.integers(0, 256, count * width + offset, dtype=np.uint8)
    known = [
        backing[offset + i * width : offset + (i + 1) * width]
        for i in range(count)
    ]
    reference = decoder.plan.schedule.apply(known)
    got = decoder.compiled_plan().execute(known, tile_bytes=tile)
    for i, row in enumerate(reference):
        assert np.array_equal(got[i], row), i


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
