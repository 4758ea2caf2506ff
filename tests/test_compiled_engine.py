"""Tests for the compiled XOR execution engine.

Covers plan lowering (dead-code elimination, workspace liveness reuse,
zero rows), compiled-vs-interpreted byte equivalence for every
registered code on both executors of a plan (the kernel and
``run_numpy``), the schedule memo and the LRU decoder cache.
"""

import copy
import itertools
import pickle
import threading

import numpy as np
import pytest

from repro.bitmatrix import (
    CompiledPlan,
    XorSchedule,
    naive_schedule,
    smart_schedule,
)
from repro.bitmatrix import kernel
from repro.codec import encode_schedule_for, kernel_name
from repro.codes import make_code
from repro.codes.registry import CODE_FAMILIES, supports_size
from repro.store import ArrayStore
from tests.test_xor_kernel import (
    check_plan,
    decode_case,
    encode_case,
    needs_kernel,
    random_grid,
)


def small_code(family):
    """The smallest n >= 6 instance of a family (n >= 6 keeps the
    schedules non-trivial)."""
    n = next(n for n in range(6, 16) if supports_size(family, n))
    return make_code(family, n)


def row_cells(schedule):
    """Cells placing ``schedule`` on a one-row grid: input ``i`` in
    column ``i``, then output ``j`` in column ``num_inputs + j``."""
    inputs = schedule.num_inputs
    return (
        [(0, i) for i in range(inputs)],
        [(0, inputs + j) for j in range(schedule.num_outputs)],
    )


def sub_maximal_patterns(code):
    """Every failure pattern of 1 up to ``code.faults`` columns."""
    for k in range(1, code.faults + 1):
        yield from itertools.combinations(range(code.cols), k)


# ----------------------------------------------------------------------
# compiled vs interpreted equivalence, every registered code
# ----------------------------------------------------------------------
class TestCompiledEquivalence:
    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_encode_matches_interpreted(self, family):
        code = small_code(family)
        encode_case(code, random_grid(code, "grid", 96, 1, seed=1))

    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_all_failure_patterns_match_interpreted(self, family):
        """Every maximal failure pattern decodes byte-identically."""
        code = small_code(family)
        for combo in itertools.combinations(range(code.cols), code.faults):
            grid = random_grid(code, "grid", 48, 1, seed=sum(combo))
            decode_case(code, combo, grid)

    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_stripe_decode_roundtrip(self, family):
        """End-to-end: erase faults columns, decode in place, recover."""
        code = small_code(family)
        stripe = code.random_stripe(packet_size=24, seed=5)
        for combo in itertools.combinations(range(code.cols), code.faults):
            damaged = stripe.copy()
            code.erase_columns(damaged, combo)
            code.decode(damaged, combo)
            assert np.array_equal(damaged, stripe), combo


# ----------------------------------------------------------------------
# plan lowering: DCE, liveness, zero rows, sharing
# ----------------------------------------------------------------------
class TestPlanLowering:
    def test_subset_plan_drops_dead_ops(self):
        code = small_code("tip")
        decoder = code.decoder_for((0, 2, 4))
        full = decoder.compiled_plan()
        only = decoder.compiled_plan((2,))
        assert len(only.ops) < len(full.ops)
        assert len(only.outputs) < len(full.outputs)

    def test_subset_plan_matches_full_plan(self):
        code = small_code("tip")
        stripe = code.random_stripe(packet_size=16, seed=7)
        damaged = stripe.copy()
        code.erase_columns(damaged, (0, 2, 4))
        decoder = code.decoder_for((0, 2, 4))
        decoder.decode_columns(damaged, only_cols=(2,))
        assert np.array_equal(damaged[:, 2, :], stripe[:, 2, :])
        # Other failed columns stay erased.
        assert not damaged[:, 0, :].any()
        assert not damaged[:, 4, :].any()

    def test_workspace_slots_are_reused(self):
        """A chain of intermediate bases must share recycled slots."""
        # out0 = in0^in1 (base), out1 = out0^in2 (base), out2 = out1^in3;
        # only out2 needed: out0 and out1 are intermediates whose
        # lifetimes do not overlap beyond handoff.
        matrix = np.array(
            [[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8
        )
        schedule = smart_schedule(matrix)
        cells = row_cells(schedule)
        plan = schedule.compile([2], cells=cells)
        assert plan.num_workspace <= 2
        grid = np.zeros((1, 7, 1), dtype=np.uint8)
        grid[0, :4, 0] = (3, 5, 9, 17)
        out = check_plan(plan, schedule, grid, cells[1])
        assert out[0, 6, 0] == 3 ^ 5 ^ 9 ^ 17

    def test_zero_rows_are_zero_filled(self):
        schedule = naive_schedule(np.array([[0, 0], [1, 1]], np.uint8))
        cells = row_cells(schedule)
        grid = np.full((1, 4, 4), 0xAA, dtype=np.uint8)
        grid[0, 0], grid[0, 1] = 7, 9
        out = check_plan(schedule.compile(cells=cells), schedule, grid, cells[1])
        assert not out[0, 2].any()
        assert (out[0, 3] == (7 ^ 9)).all()

    def test_plan_xor_count_matches_schedule(self):
        code = small_code("star")
        schedule = encode_schedule_for(code)
        assert code.encode_plan.xor_count == schedule.xor_count

    def test_compile_rejects_bad_needed_output(self):
        schedule = naive_schedule(np.eye(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="needed output"):
            schedule.compile([3], cells=row_cells(schedule))

    def test_empty_schedule_plan(self):
        schedule = XorSchedule(num_inputs=0, num_outputs=0)
        plan = CompiledPlan(schedule, cells=((), ()))
        grid = np.full((1, 1, 8), 0x5A, dtype=np.uint8)
        assert np.array_equal(check_plan(plan, schedule, grid, []), grid)

    @pytest.mark.parametrize(
        "copier", [pickle.dumps, copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_plan_refuses_pickle_and_copy(self, copier):
        """The kernel reads a plan's program and tables by address, so
        a copy would run on the original's buffers."""
        plan = small_code("tip").decoder_for((0, 1)).compiled_plan()
        with pytest.raises(TypeError):
            copier(plan)

    @pytest.mark.parametrize(
        "executor", [pytest.param("kernel", marks=needs_kernel), "numpy"]
    )
    def test_concurrent_decode_uses_private_workspace(
        self, executor, monkeypatch
    ):
        """Threads sharing one cached plan must not share scratch rows.

        Plans are cached per (code, failure set) and the store reuses
        one decoder across stripes, so degraded writes to two different
        stripes (each under its own stripe lock) decode through the
        same CompiledPlan concurrently. A shared workspace lets one
        thread overwrite another's partial syndromes, producing a
        silently wrong — but parity-consistent — reconstruction. The
        kernel and ``run_numpy`` each allocate their workspace per
        call; both are run here.
        """
        if executor == "numpy":
            monkeypatch.setattr(kernel, "XOR_PLAN", None)
        code = make_code("tip", 8)
        decoder = code.decoder_for((5,))
        assert decoder.compiled_plan().num_workspace > 0
        rng = np.random.default_rng(7)

        def fresh_stripe():
            stripe = rng.integers(
                0, 256, (code.rows, code.cols, 4096), dtype=np.uint8
            )
            for r in range(code.rows):
                for c in range(code.cols):
                    if (r, c) not in code.element_index:
                        stripe[r, c] = 0
            code.encode(stripe)
            return stripe

        stripes = [fresh_stripe() for _ in range(8)]
        truth = [s.copy() for s in stripes]
        corrupted = []

        def worker(i):
            stripe = stripes[i]
            for _ in range(100):
                stripe[:, 5, :] = 0
                decoder.decode_columns(stripe)
                if not np.array_equal(stripe, truth[i]):
                    corrupted.append(i)
                    return

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not corrupted


# ----------------------------------------------------------------------
# caches: encode-schedule memo and decoder LRU
# ----------------------------------------------------------------------
class TestCaches:
    def test_encode_schedule_memoized_across_codecs(self):
        """Two instances of one code share one encode schedule."""
        first, second = small_code("tip"), small_code("tip")
        assert first is not second
        assert encode_schedule_for(first) is encode_schedule_for(second)

    def test_encode_schedule_memo_keyed_by_content(self):
        tip = small_code("tip")
        star = small_code("star")
        assert encode_schedule_for(tip) is not encode_schedule_for(star)

    def test_decoder_cache_lru_eviction(self):
        code = small_code("tip")
        code.decoder_cache_size = 2
        code._decoder_cache.clear()
        d01 = code.decoder_for((0, 1))
        code.decoder_for((1, 2))
        assert code.decoder_for((0, 1)) is d01  # hit refreshes recency
        code.decoder_for((2, 3))  # evicts (1, 2), not (0, 1)
        assert tuple(code._decoder_cache) == ((0, 1), (2, 3))
        assert code.decoder_for((0, 1)) is d01

    def test_decoder_cache_bounded_under_sweep(self):
        code = small_code("tip")
        code.decoder_cache_size = 4
        code._decoder_cache.clear()
        for combo in itertools.combinations(range(code.cols), code.faults):
            code.decoder_for(combo)
        assert len(code._decoder_cache) <= 4

    def test_decoder_cache_size_validated(self):
        from repro.codes.base import ArrayCode, Cell

        with pytest.raises(ValueError, match="decoder_cache_size"):
            ArrayCode(
                "bad",
                2,
                4,
                kinds={(0, 3): Cell.PARITY},
                chains={(0, 3): ((0, 0), (0, 1), (0, 2))},
                faults=1,
                decoder_cache_size=0,
            )


# ----------------------------------------------------------------------
# measurer argument validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def tip6(self):
        return make_code("tip", 6)

    def test_engine_name_validated(self, tip6):
        from repro.codec import measure_encode_throughput

        with pytest.raises(ValueError, match="engine"):
            measure_encode_throughput(tip6, data_bytes=1 << 12, engine="jit")


# ----------------------------------------------------------------------
# store integration: batched rebuild
# ----------------------------------------------------------------------
class TestStoreBatchedRebuild:
    CHUNK = 256

    def make_store(self, tmp_path, **kwargs):
        return ArrayStore(
            make_code("tip", 6),
            tmp_path,
            stripes=5,
            chunk_bytes=self.CHUNK,
            **kwargs,
        )

    def fill(self, store, seed=0):
        rng = np.random.default_rng(seed)
        payload = rng.integers(
            0, 256, size=(store.capacity_chunks, self.CHUNK), dtype=np.uint8
        )
        store.write_chunks(0, payload)
        return payload

    @pytest.mark.parametrize("batch", [1, 2, 5, 32])
    def test_rebuild_batch_sizes(self, tmp_path, batch):
        """Batch sizes that divide, exceed and straddle the stripe count."""
        store = self.make_store(tmp_path, rebuild_batch=batch)
        payload = self.fill(store, seed=batch)
        store.fail_disk(0)
        store.fail_disk(2)
        store.fail_disk(5)
        assert store.rebuild() == store.stripes
        assert store.failed == set()
        assert np.array_equal(
            store.read_chunks(0, store.capacity_chunks), payload
        )
        assert store.scrub() == []

    def test_rebuild_io_accounting_unchanged_by_batching(self, tmp_path):
        """Chunk I/O totals are a property of the geometry, not the batch."""
        totals = []
        for batch in (1, 3):
            directory = tmp_path / f"b{batch}"
            store = self.make_store(directory, rebuild_batch=batch)
            self.fill(store, seed=7)
            store.fail_disk(2)
            store.rebuild()
            totals.append(
                (store.last_io.chunks_read, store.last_io.chunks_written)
            )
        assert totals[0] == totals[1]

    def test_batch_loader_matches_single_stripe_loads(self, tmp_path):
        store = self.make_store(tmp_path)
        self.fill(store, seed=9)
        batch = store._load_stripe_batch(1, 3)
        assert batch.shape == (
            store.code.cols, 3, store.code.rows, self.CHUNK
        )
        for i in range(3):
            assert np.array_equal(batch[:, i], store._load_stripe(1 + i)[:, 0])

    def test_batch_params_validated(self, tmp_path):
        with pytest.raises(ValueError, match="rebuild_batch"):
            self.make_store(tmp_path / "b", rebuild_batch=0)


# ----------------------------------------------------------------------
# code-level plan caches: planning work survives decoder LRU eviction
# ----------------------------------------------------------------------
class TestPlanCachesSurviveEviction:
    def test_recovery_plan_reused_across_eviction(self):
        code = small_code("tip")
        code.decoder_cache_size = 1
        code._decoder_cache.clear()
        code._recovery_plan_cache.clear()
        plan01 = code.decoder_for((0, 1)).plan
        code.decoder_for((2, 3))  # evicts the (0, 1) Decoder
        assert (0, 1) not in code._decoder_cache
        fresh = code.decoder_for((0, 1))
        assert fresh.plan is plan01  # schedule solve was NOT repeated

    def test_compiled_plan_reused_across_eviction(self):
        code = small_code("tip")
        code.decoder_cache_size = 1
        code._decoder_cache.clear()
        code._compiled_plan_cache.clear()
        compiled01 = code.decoder_for((0, 1)).compiled_plan()
        code.decoder_for((2, 3)).compiled_plan()  # evicts the Decoder
        again = code.decoder_for((0, 1)).compiled_plan()
        assert again is compiled01  # lowering was NOT repeated

    def test_plan_caches_bounded(self):
        code = small_code("tip")
        code.decoder_cache_size = 2
        code._decoder_cache.clear()
        code._recovery_plan_cache.clear()
        code._compiled_plan_cache.clear()
        for combo in itertools.combinations(range(code.cols), 2):
            code.decoder_for(combo).compiled_plan()
        assert len(code._recovery_plan_cache) <= 4 * code.decoder_cache_size
        assert len(code._compiled_plan_cache) <= 4 * code.decoder_cache_size

    def test_decode_correct_after_plan_reuse(self):
        code = small_code("tip")
        code.decoder_cache_size = 1
        code._decoder_cache.clear()
        rng = np.random.default_rng(31)
        batch = rng.integers(
            0, 256, size=(code.cols, 2, code.rows, 4096), dtype=np.uint8
        )
        code.encode(batch)
        for failed in ((0, 1), (2, 3), (0, 1)):  # last one reuses plans
            damaged = batch.copy()
            damaged[list(failed)] = 0
            code.decoder_for(failed).decode_columns(damaged)
            assert np.array_equal(damaged, batch), failed


# ----------------------------------------------------------------------
# fused two-stage decode plans: property sweep over every family,
# every <=faults failure pattern, adversarial widths
# ----------------------------------------------------------------------

#: Widths chosen to break the executors' fast paths: single byte, below
#: a machine word, a prime that is neither 8- nor 64-divisible, and one
#: byte either side of the kernel's column tile.
ADVERSARIAL_WIDTHS = (1, 7, 101, kernel.TILE_BYTES - 1, kernel.TILE_BYTES + 1)

#: Several whole kernel tiles, plus a ragged 7-byte tail that the
#: compiler-vectorised XOR loops must finish one byte at a time.
WIDE_WIDTH = 2 * kernel.TILE_BYTES + 7


class TestFusedDecodeSweep:
    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_every_pattern_every_width_matches_interpreted(self, family):
        """The fused two-stage compiled plan, on the kernel and on
        ``run_numpy``, is byte-identical to the dense
        ``XorSchedule.apply`` oracle for every registered family, every
        failure pattern up to ``faults`` columns, at widths that break
        tile and word alignment."""
        code = small_code(family)
        for combo in sub_maximal_patterns(code):
            for width in ADVERSARIAL_WIDTHS:
                seed = width + 31 * sum(combo)
                grid = random_grid(code, "grid", width, 1, seed)
                decode_case(code, combo, grid)

    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_wide_word_path_matches_interpreted(self, family):
        """At widths of several kernel tiles (with a ragged tail) a
        maximal-failure decode plan, on the kernel and on
        ``run_numpy``, still matches the oracle bit for bit."""
        code = small_code(family)
        combo = next(
            itertools.combinations(range(code.cols), code.faults)
        )
        grid = random_grid(code, "grid", WIDE_WIDTH, 1, seed=43)
        decode_case(code, combo, grid)

    def test_fused_plan_executes_fewer_xors_than_dense(self):
        """The two-stage factorization is the point: for tip the fused
        plan must execute strictly fewer XORs than the dense schedule,
        while ``xor_count`` keeps reporting the paper's dense metric."""
        code = make_code("tip", 12)
        decoder = code.decoder_for((1, 2, 8))
        assert decoder.fused_xor_count < decoder.xor_count
        assert decoder.xor_count == decoder.plan.schedule.xor_count


# ----------------------------------------------------------------------
# run fusion: op accounting and the memory-pass model
# ----------------------------------------------------------------------
class TestRunFusion:
    def encode_plan(self):
        return small_code("tip").encode_plan

    def test_runs_account_for_every_op(self):
        """Each lowered op is exactly one run head or one run source."""
        plan = self.encode_plan()
        accounted = sum(
            (head is not None) + len(sources)
            for _dest, head, sources in plan.runs
        )
        assert accounted == len(plan.ops)

    def test_fusion_saves_memory_passes(self):
        """A fused k-source accumulate reads k sources + writes once;
        the unfused op list would pay ~2 passes per op."""
        plan = self.encode_plan()
        assert plan.memory_passes < 2 * len(plan.ops)
        assert plan.memory_passes >= len(plan.ops)  # every source is read

    def test_decode_runs_fuse_across_stages(self):
        """The fused two-stage plan still lowers into multi-source runs
        (syndromes feed back-substitution without a barrier)."""
        code = small_code("tip")
        plan = code.decoder_for((0, 1, 2)).compiled_plan()
        assert any(len(sources) > 1 for _d, _h, sources in plan.runs)


# ----------------------------------------------------------------------
# engine strings pin kernels (what the throughput measurers time)
# ----------------------------------------------------------------------
class TestKernelPinning:
    def test_engine_strings_pin_kernels(self, monkeypatch):
        assert kernel_name("interpreted") == "XorSchedule.apply"
        assert kernel_name("numpy") == "CompiledPlan.run_numpy"
        if kernel.XOR_PLAN is not None:
            assert kernel_name("compiled") == "xor_kernel.xor_plan"
        monkeypatch.setattr(kernel, "XOR_PLAN", None)
        assert kernel_name("compiled") == "CompiledPlan.run_numpy"

    def test_kernel_name_validates_like_the_measurers(self):
        with pytest.raises(ValueError, match="engine"):
            kernel_name("jit")

    def test_measured_decode_matches_decode_columns_plan(self):
        """The compiled decode measurement times the very plan objects
        ``Decoder.decode_columns`` runs (the fused two-stage ones, via
        the code-level compiled-plan cache)."""
        from repro.codec import measure_decode_throughput

        code = small_code("tip")
        code._compiled_plan_cache.clear()
        result = measure_decode_throughput(
            code, data_bytes=1 << 12, packet_size=64, patterns=2
        )
        assert result.gib_per_second > 0
        assert code._compiled_plan_cache  # warmed by the measurement
        for (combo, _key), plan in list(code._compiled_plan_cache.items()):
            assert plan is code.decoder_for(combo).compiled_plan()

    def test_xors_metric_identical_across_engines(self):
        """``xors_per_element`` reports the paper's dense-schedule count
        no matter which kernel executed."""
        from repro.codec import measure_decode_throughput

        code = small_code("tip")
        kwargs = dict(data_bytes=1 << 12, packet_size=64, patterns=2)
        interpreted = measure_decode_throughput(
            code, engine="interpreted", **kwargs
        )
        compiled = measure_decode_throughput(code, engine="compiled", **kwargs)
        assert interpreted.xors_per_element == compiled.xors_per_element
