"""Tests for the compiled XOR execution engine.

Covers plan lowering (dead-code elimination, workspace liveness reuse),
compiled-vs-interpreted byte equivalence for every registered code,
cache-blocked tiling, the schedule memo and the LRU decoder cache.
"""

import itertools

import numpy as np
import pytest

from repro.bitmatrix import (
    CompiledPlan,
    HostProfile,
    XorSchedule,
    naive_schedule,
    round_tile_bytes,
    set_host_profile,
    smart_schedule,
)
from repro.bitmatrix.plan import BUF_WS, TILE_ALIGN, _TILE_MAX, _WIDE_WORD_MIN
from repro.codec import (
    StripeCodec,
    encode_schedule_for,
    kernel_name,
)
from repro.codes import make_code
from repro.codes.registry import CODE_FAMILIES, supports_size
from repro.store import ArrayStore


def small_code(family):
    """The smallest n >= 6 instance of a family (n >= 6 keeps the
    schedules non-trivial)."""
    n = next(n for n in range(6, 16) if supports_size(family, n))
    return make_code(family, n)


def random_matrix(rows, width, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(rows, width), dtype=np.uint8)


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
        codec = StripeCodec(code, packet_size=32)
        data = random_matrix(code.num_data, 96, seed=1)
        reference = codec.encode_packets([data[i] for i in range(len(data))])
        compiled = codec.encode_into(data)
        for i in range(code.num_parity):
            assert np.array_equal(compiled[i], reference[i]), i

    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_all_failure_patterns_match_interpreted(self, family):
        """Every maximal failure pattern decodes byte-identically."""
        code = small_code(family)
        codec = StripeCodec(code, packet_size=16)
        for combo in itertools.combinations(range(code.cols), code.faults):
            decoder = code.decoder_for(combo)
            known = random_matrix(
                len(decoder.plan.known_positions), 48, seed=sum(combo)
            )
            reference = decoder.plan.schedule.apply(
                [known[i] for i in range(len(known))]
            )
            compiled = codec.decode_into(combo, known)
            for i in range(len(reference)):
                assert np.array_equal(compiled[i], reference[i]), (combo, i)

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
# plan lowering: DCE, liveness, zero rows, tiling
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
        plan = schedule.compile([2])
        assert plan.num_workspace <= 2
        ins = [np.array([a], dtype=np.uint8) for a in (3, 5, 9, 17)]
        out = plan.execute(ins)
        assert out[0, 0] == 3 ^ 5 ^ 9 ^ 17

    def test_zero_rows_are_zero_filled(self):
        schedule = naive_schedule(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        plan = schedule.compile()
        ins = [
            np.full(4, 7, dtype=np.uint8),
            np.full(4, 9, dtype=np.uint8),
        ]
        out = np.full((2, 4), 0xAA, dtype=np.uint8)
        plan.execute_into(ins, out)
        assert not out[0].any()
        assert (out[1] == (7 ^ 9)).all()

    def test_plan_xor_count_matches_schedule(self):
        code = small_code("star")
        schedule = encode_schedule_for(code)
        assert schedule.compile().xor_count == schedule.xor_count

    @pytest.mark.parametrize("tile", [1, 5, 64, 4096, None])
    def test_chunked_equals_unchunked(self, tile):
        """Any tile size produces the same bytes as one full-width pass."""
        code = small_code("triple-star")
        codec = StripeCodec(code, packet_size=32)
        width = 101  # deliberately not a multiple of any tile
        data = random_matrix(code.num_data, width, seed=9)
        unchunked = codec.encode_plan.execute(data, tile_bytes=width)
        chunked = codec.encode_plan.execute(data, tile_bytes=tile)
        assert np.array_equal(chunked, unchunked)

    def test_compile_rejects_bad_needed_output(self):
        schedule = naive_schedule(np.eye(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="needed output"):
            schedule.compile([3])

    def test_empty_schedule_plan(self):
        plan = CompiledPlan(XorSchedule(num_inputs=0, num_outputs=0))
        plan.execute_into([], [])  # no-op, no error

    def test_concurrent_decode_uses_private_workspace(self):
        """Threads sharing one cached plan must not share scratch rows.

        Plans are cached per (code, failure set) and the store reuses
        one decoder across stripes, so degraded writes to two different
        stripes (each under its own stripe lock) decode through the
        same CompiledPlan concurrently. A shared workspace arena lets
        one thread overwrite another's partial syndromes, producing a
        silently wrong — but parity-consistent — reconstruction.
        """
        import threading

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
        code = small_code("tip")
        first = StripeCodec(code, packet_size=64)
        second = StripeCodec(code, packet_size=128)
        assert first._encode_schedule is second._encode_schedule

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
# packet validation (compiled out= path preconditions)
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def tip6(self):
        return make_code("tip", 6)

    def test_non_contiguous_packet_rejected(self, tip6):
        codec = StripeCodec(tip6, packet_size=8)
        packets = [
            np.zeros(8, dtype=np.uint8) for _ in range(tip6.num_data)
        ]
        packets[2] = np.zeros(16, dtype=np.uint8)[::2]  # strided view
        with pytest.raises(ValueError, match="packet 2 is not C-contiguous"):
            codec.encode_packets(packets)

    def test_non_contiguous_matrix_rejected(self, tip6):
        codec = StripeCodec(tip6, packet_size=8)
        transposed = np.zeros((64, tip6.num_data), dtype=np.uint8).T
        with pytest.raises(ValueError, match="not C-contiguous"):
            codec.encode_into(transposed)

    def test_wrong_matrix_shape_rejected(self, tip6):
        codec = StripeCodec(tip6, packet_size=8)
        with pytest.raises(ValueError, match="shape"):
            codec.encode_into(np.zeros((3, 64), dtype=np.uint8))

    def test_wrong_out_width_rejected(self, tip6):
        codec = StripeCodec(tip6, packet_size=8)
        data = np.zeros((tip6.num_data, 64), dtype=np.uint8)
        out = np.zeros((tip6.num_parity, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="width"):
            codec.encode_into(data, out)

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
        wide = store._load_stripe_batch(1, 3)
        rows, cols = store.code.rows, store.code.cols
        by_stripe = wide.reshape(rows, cols, 3, self.CHUNK)
        for i in range(3):
            assert np.array_equal(
                by_stripe[:, :, i, :], store._load_stripe(1 + i)
            )

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
        codec = StripeCodec(code)
        width = 4096 * 2
        data = random_matrix(code.num_data, width, seed=31)
        parity = codec.encode_into(data)
        for failed in ((0, 1), (2, 3), (0, 1)):  # last one reuses plans
            decoder = code.decoder_for(failed)
            known = np.ascontiguousarray([
                (data[code.data_positions.index(pos)]
                 if pos in code.data_positions
                 else parity[code.parity_positions.index(pos)])
                for pos in decoder.plan.known_positions
            ])
            restored = codec.decode_into(failed, known)
            for row, pos in enumerate(decoder.plan.unknown_positions):
                if pos in code.data_positions:
                    want = data[code.data_positions.index(pos)]
                else:
                    want = parity[code.parity_positions.index(pos)]
                assert np.array_equal(restored[row], want), (failed, pos)


# ----------------------------------------------------------------------
# fused two-stage decode plans: property sweep over every family,
# every <=faults failure pattern, adversarial widths
# ----------------------------------------------------------------------

#: Widths chosen to break the executor's fast paths: single byte, below
#: a u64 word, a prime that is neither 8- nor 64-divisible, exactly one
#: explicit 256-byte tile, and one byte past the tile boundary.
ADVERSARIAL_WIDTHS = (1, 7, 101, 256, 257)

#: Wide enough to engage the uint64 fast path, plus a ragged 7-byte
#: tail that must fall back to the uint8 pass.
WIDE_WIDTH = _WIDE_WORD_MIN + 7


class TestFusedDecodeSweep:
    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_every_pattern_every_width_matches_interpreted(self, family):
        """The fused two-stage compiled plan is byte-identical to the
        dense ``XorSchedule.apply`` oracle for every registered family,
        every failure pattern up to ``faults`` columns, at widths that
        break tile and word alignment."""
        code = small_code(family)
        for combo in sub_maximal_patterns(code):
            decoder = code.decoder_for(combo)
            plan = decoder.compiled_plan()
            num_known = len(decoder.plan.known_positions)
            for width in ADVERSARIAL_WIDTHS:
                known = random_matrix(
                    num_known, width, seed=width + 31 * sum(combo)
                )
                reference = decoder.plan.schedule.apply(
                    [known[i] for i in range(num_known)]
                )
                out = np.full(
                    (len(decoder.plan.unknown_positions), width),
                    0xCC,
                    dtype=np.uint8,
                )
                plan.execute_into(known, out, tile_bytes=256)
                for i, row in enumerate(reference):
                    assert np.array_equal(out[i], row), (combo, width, i)

    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    def test_wide_word_path_matches_interpreted(self, family):
        """At widths past the uint64 threshold (with a ragged tail) the
        wide-word kernels still match the oracle bit for bit."""
        code = small_code(family)
        combo = next(
            itertools.combinations(range(code.cols), code.faults)
        )
        decoder = code.decoder_for(combo)
        num_known = len(decoder.plan.known_positions)
        known = random_matrix(num_known, WIDE_WIDTH, seed=43)
        reference = decoder.plan.schedule.apply(
            [known[i] for i in range(num_known)]
        )
        compiled = decoder.compiled_plan().execute(known)
        for i, row in enumerate(reference):
            assert np.array_equal(compiled[i], row), i

    def test_misaligned_rows_fall_back_byte_identically(self):
        """Rows whose base address is not 8-byte aligned take the uint8
        fallback and still produce the same bytes as aligned buffers."""
        code = small_code("tip")
        combo = (0, 1, 2)
        decoder = code.decoder_for(combo)
        plan = decoder.compiled_plan()
        num_known = len(decoder.plan.known_positions)
        width = WIDE_WIDTH - 7  # keep the wide path eligible by width
        aligned = random_matrix(num_known, width, seed=47)
        # Carve contiguous rows at odd offsets out of one flat buffer.
        backing = np.empty(num_known * width + 1, dtype=np.uint8)
        rows = [
            backing[1 + i * width : 1 + (i + 1) * width]
            for i in range(num_known)
        ]
        for i in range(num_known):
            rows[i][...] = aligned[i]
        assert any(row.ctypes.data % 8 for row in rows)
        expected = plan.execute(aligned)
        got = plan.execute(rows)
        assert np.array_equal(got, expected)

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
        return StripeCodec(small_code("tip"), packet_size=32).encode_plan

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
# tile geometry: the 64-byte alignment rule
# ----------------------------------------------------------------------
class TestTileRules:
    def test_round_tile_bytes_rounds_up_to_64(self):
        assert round_tile_bytes(1) == TILE_ALIGN
        assert round_tile_bytes(TILE_ALIGN) == TILE_ALIGN
        assert round_tile_bytes(TILE_ALIGN + 1) == 2 * TILE_ALIGN
        assert round_tile_bytes(4096) == 4096

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_round_tile_bytes_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="tile_bytes"):
            round_tile_bytes(bad)

    def test_default_tile_is_64_byte_aligned(self):
        plan = StripeCodec(small_code("tip"), packet_size=32).encode_plan
        for width in (1, 63, 64, 4097, 1 << 20, 64 << 20):
            tile = plan.default_tile(width)
            assert tile % TILE_ALIGN == 0, width
            assert TILE_ALIGN <= tile <= _TILE_MAX, width

    def test_default_tile_never_exceeds_rounded_width(self):
        plan = StripeCodec(small_code("tip"), packet_size=32).encode_plan
        for width in (1, 100, 5000):
            rounded = -(-width // TILE_ALIGN) * TILE_ALIGN
            assert plan.default_tile(width) <= rounded

    def test_default_tile_tracks_host_cache(self):
        """A bigger measured cache yields a bigger (still aligned) tile."""
        plan = StripeCodec(small_code("tip"), packet_size=32).encode_plan
        width = 64 << 20

        def with_cache(nbytes):
            set_host_profile(
                HostProfile(
                    memcpy_gib_s=10.0,
                    xor_gib_s=10.0,
                    xor_cached_gib_s=20.0,
                    dispatch_overhead_s=1e-7,
                    effective_cache_bytes=nbytes,
                )
            )
            try:
                return plan.default_tile(width)
            finally:
                set_host_profile(None)

        small, big = with_cache(256 << 10), with_cache(8 << 20)
        assert small <= big
        assert small % TILE_ALIGN == 0 and big % TILE_ALIGN == 0
        assert big <= _TILE_MAX

    def test_explicit_tile_is_rounded_not_rejected(self):
        """An explicit odd tile executes on its 64-byte rounding and
        matches the untiled result."""
        plan = StripeCodec(small_code("tip"), packet_size=32).encode_plan
        data = random_matrix(plan.num_inputs, 1000, seed=59)
        untiled = plan.execute(data, tile_bytes=1024)
        for odd in (1, 100, 257):
            assert np.array_equal(
                plan.execute(data, tile_bytes=odd), untiled
            ), odd


# ----------------------------------------------------------------------
# engine strings pin kernels (what the throughput measurers time)
# ----------------------------------------------------------------------
class TestKernelPinning:
    def test_engine_strings_pin_kernels(self):
        assert kernel_name("interpreted") == "XorSchedule.apply"
        assert kernel_name("compiled") == "CompiledPlan.execute_into"

    def test_kernel_name_validates_like_the_measurers(self):
        with pytest.raises(ValueError, match="engine"):
            kernel_name("jit")

    def test_measured_decode_matches_decode_into_plan(self):
        """The compiled decode measurement times the very plan objects
        ``StripeCodec.decode_into`` executes (the fused two-stage ones,
        via the code-level compiled-plan cache)."""
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
