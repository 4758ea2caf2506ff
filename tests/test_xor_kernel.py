"""The fused C XOR kernel against its oracles.

* kernel ≡ ``CompiledPlan.run_numpy`` ≡ ``XorSchedule.apply`` for the
  encode plan and every failure set up to ``faults`` of every registered
  family, on 3-D grids and 4-D disk-order batches, at widths that are
  not multiples of 8 or 64 and at widths past one kernel tile (the last
  tile ragged), for 1, 5 and ``WIDE_WRITE_STRIPES`` stripes;
* two threads can run one cached plan at once;
* EMPTY cells and failed columns of a loaded batch come back zero;
* a store's disks are byte-identical, and its counters equal, whether
  its encodes and decodes ran in the kernel or in numpy;
* the kernel loads wherever a C compiler is on PATH, and without a
  compiler, or when the compile fails, there is no kernel and no
  partial library is left behind.
"""

import itertools
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmatrix import kernel
from repro.bitmatrix.plan import cell_view
from repro.codes import make_code
from repro.codes.base import ArrayCode, Cell, encode_schedule_for
from repro.codes.registry import CODE_FAMILIES, supports_size
from repro.raid.mapping import WIDE_WRITE_STRIPES
from repro.store import ArrayStore

needs_kernel = pytest.mark.skipif(
    kernel.XOR_PLAN is None, reason="no C compiler: numpy fallback only"
)


def small_code(family):
    n = next(n for n in range(5, 16) if supports_size(family, n))
    return make_code(family, n)


CODES = {family: small_code(family) for family in sorted(CODE_FAMILIES)}


def failure_sets(code):
    for k in range(1, code.faults + 1):
        yield from itertools.combinations(range(code.cols), k)


def random_grid(code, layout, width, count, seed):
    shape = (
        (code.rows, code.cols, width * count) if layout == "grid"
        else (code.cols, count, code.rows, width)
    )
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def interpreted(schedule, grid, in_cells, out_cells):
    """``XorSchedule.apply`` over the grid's cells, each flattened to
    one packet; returns ``{cell: packet}`` for ``out_cells``."""
    view = cell_view(grid)
    packets = [np.ascontiguousarray(view[cell]).reshape(-1) for cell in in_cells]
    outputs = schedule.apply(packets)
    return {cell: outputs[i] for i, cell in enumerate(out_cells)}


def check_plan(plan, schedule, grid, schedule_cells):
    """Run ``plan`` by kernel and by numpy on copies of ``grid``; both
    must equal ``schedule`` interpreted (its outputs landing on
    ``schedule_cells``) on every output cell and leave every other cell
    untouched. Returns the grid the kernel ran on."""
    by_kernel, by_numpy = grid.copy(), grid.copy()
    plan.run(by_kernel)
    plan.run_numpy(by_numpy)
    assert np.array_equal(by_kernel, by_numpy)
    expected = interpreted(schedule, grid, plan.in_cells, schedule_cells)
    view = cell_view(by_kernel)
    for cell in plan.out_cells:
        assert np.array_equal(view[cell].reshape(-1), expected[cell]), cell
    untouched = cell_view(grid).copy()
    for cell in plan.out_cells:
        untouched[cell] = view[cell]
    assert np.array_equal(untouched, view)
    return by_kernel


def encode_case(code, grid):
    check_plan(
        code.encode_plan, encode_schedule_for(code), grid,
        list(code.parity_positions),
    )


def decode_case(code, failed, grid):
    decoder = code.decoder_for(failed)
    check_plan(
        decoder.compiled_plan(), decoder.plan.schedule, grid,
        list(decoder.plan.unknown_positions),
    )


#: Widths past one kernel tile, so a stripe runs in several column
#: tiles (reusing the kernel's workspace) and the last one is ragged.
WIDE_WIDTHS = (kernel.TILE_BYTES + 1, 2 * kernel.TILE_BYTES + 7)


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_encode_and_every_failure_set(self, family):
        code = CODES[family]
        for grid in (
            random_grid(code, "batch", 13, 5, seed=len(family)),
            random_grid(code, "grid", WIDE_WIDTHS[1], 1, seed=1),
            random_grid(code, "batch", WIDE_WIDTHS[0], 3, seed=2),
        ):
            encode_case(code, grid)
            for failed in failure_sets(code):
                decode_case(code, failed, grid)

    def test_decode_plans_carry_workspace_rows(self):
        assert all(
            code.decoder_for(tuple(range(code.faults))).compiled_plan()
            .num_workspace > 0
            for code in CODES.values()
        )

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(CODE_FAMILIES)),
        layout=st.sampled_from(("grid", "batch")),
        width=st.integers(1, 200) | st.sampled_from(WIDE_WIDTHS),
        count=st.sampled_from((1, 5, WIDE_WRITE_STRIPES)),
        pick=st.integers(0, 1 << 16),
        seed=st.integers(0, 1 << 16),
    )
    def test_any_layout_width_and_count(
        self, family, layout, width, count, pick, seed
    ):
        code = CODES[family]
        grid = random_grid(code, layout, width, count, seed)
        patterns = list(failure_sets(code))
        if pick % (len(patterns) + 1) == len(patterns):
            encode_case(code, grid)
        else:
            decode_case(code, patterns[pick % (len(patterns) + 1)], grid)

    def test_only_cols_subset_plans(self):
        code = CODES["tip"]
        grid = random_grid(code, "batch", 100, WIDE_WRITE_STRIPES, seed=7)
        decoder = code.decoder_for((0, 2, 4))
        for col in (0, 2, 4):
            plan = decoder.compiled_plan((col,))
            by_kernel, by_numpy = grid.copy(), grid.copy()
            plan.run(by_kernel)
            plan.run_numpy(by_numpy)
            assert np.array_equal(by_kernel, by_numpy)

    def test_strided_grid_runs_numpy(self):
        code = CODES["tip"]
        grid = random_grid(code, "grid", 64, 1, seed=3)
        strided = np.asfortranarray(grid)
        code.encode(strided)
        code.encode(grid)
        assert np.array_equal(strided, grid)


@needs_kernel
def test_two_threads_share_one_cached_plan():
    code = CODES["tip"]
    decoder = code.decoder_for((0, 1, 3))
    grids = [
        random_grid(code, "batch", 4096, WIDE_WRITE_STRIPES, seed=i)
        for i in range(4)
    ]
    expected = []
    for grid in grids:
        copy = grid.copy()
        decoder.compiled_plan().run_numpy(copy)
        expected.append(copy)
    errors = []

    def worker(index):
        try:
            for _ in range(40):
                grid = grids[index].copy()
                decoder.decode_columns(grid)
                if not np.array_equal(grid, expected[index]):
                    errors.append(index)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def code_with_empty_cells():
    """Four disks of two rows; cell (1, 2) is a structural zero."""
    return ArrayCode(
        "empty-demo", rows=2, cols=4,
        kinds={(0, 3): Cell.PARITY, (1, 3): Cell.PARITY, (1, 2): Cell.EMPTY},
        chains={(0, 3): ((0, 0), (0, 1), (0, 2)), (1, 3): ((1, 0), (1, 1))},
        faults=1,
    )


def test_empty_cells_and_failed_columns_come_back_zero(tmp_path, monkeypatch):
    """Batches are allocated uninitialised: whatever the allocator hands
    back, a failed column and an EMPTY cell must read as zero."""
    code = code_with_empty_cells()
    store = ArrayStore(code, tmp_path, stripes=9, chunk_bytes=24)
    data = np.random.default_rng(1).integers(
        0, 256, store.capacity_bytes, dtype=np.uint8
    )
    store.write_bytes(0, data)
    healthy = store.read_stripes(0, 9)
    real_empty = np.empty

    def dirty_empty(shape, dtype=float, **kwargs):
        out = real_empty(shape, dtype=dtype, **kwargs)
        out.fill(0xA5)
        return out

    store.fail_disk(1)
    monkeypatch.setattr(np, "empty", dirty_empty)
    batch = store.read_stripes(0, 9)
    monkeypatch.undo()
    assert not batch[1].any()
    assert not cell_view(batch)[1, 2].any()
    store._current_decoder().decode_columns(batch)
    assert np.array_equal(batch, healthy)
    assert not cell_view(batch)[1, 2].any()
    store.rebuild()
    assert store.scrub() == []
    assert np.array_equal(store.read_bytes(0, store.capacity_bytes), data)
    store.close()


def drive(directory):
    """Prefill, a degraded warm-up on disks 0, 3, 6 and a rebuild of a
    TIP n=8 store; returns its disk images and counters."""
    rng = np.random.default_rng(11)
    with ArrayStore(
        make_code("tip", 8), directory, stripes=40, chunk_bytes=512,
        rebuild_batch=7,
    ) as store:
        store.write_bytes(0, rng.integers(0, 256, store.capacity_bytes, np.uint8))
        for disk in (0, 3, 6):
            store.fail_disk(disk)
        for _ in range(60):
            offset = int(rng.integers(0, store.capacity_bytes - 20_000))
            length = int(rng.integers(1, 20_000))
            if rng.random() < 0.5:
                store.write_bytes(offset, rng.integers(0, 256, length, np.uint8))
            else:
                store.read_bytes(offset, length)
        store.rebuild()
        assert store.scrub() == []
        counters = (store.io.snapshot(), store.syscalls.total)
    images = [
        (directory / f"disk{disk:03d}.img").read_bytes() for disk in range(8)
    ]
    return images, counters


@needs_kernel
def test_kernel_and_fallback_leave_identical_disks(tmp_path, monkeypatch):
    with_kernel = drive(tmp_path / "kernel")
    monkeypatch.setattr(kernel, "XOR_PLAN", None)
    with_numpy = drive(tmp_path / "numpy")
    assert with_kernel[1] == with_numpy[1]
    for disk, (a, b) in enumerate(zip(with_kernel[0], with_numpy[0])):
        assert a == b, disk


def test_kernel_loads_where_a_compiler_is_on_path():
    """CI must not silently test only the numpy fallback."""
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        pytest.skip("no C compiler on PATH")
    assert kernel.XOR_PLAN is not None
    assert kernel.build() is not None


def test_no_compiler_means_no_kernel(monkeypatch):
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    assert kernel.build() is None
    assert kernel.load() is None


def test_failed_compile_means_no_kernel_and_no_partial_file(
    tmp_path, monkeypatch
):
    """A failing compile (of a copy of the source, so the package's own
    build cache is untouched) gives no kernel and leaves no
    ``*.so.tmp`` behind."""
    source = tmp_path / kernel.SOURCE.name
    source.write_bytes(kernel.SOURCE.read_bytes())
    monkeypatch.setattr(kernel, "SOURCE", source)
    monkeypatch.setattr(kernel, "_compiler", lambda: sys.executable)
    calls = []

    def failing_compile(command, **kwargs):
        calls.append(command)
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(kernel.subprocess, "run", failing_compile)
    assert kernel.build() is None
    assert kernel.load() is None
    assert len(calls) == 2
    assert list((tmp_path / "__pycache__").iterdir()) == []
