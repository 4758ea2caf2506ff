"""Tests for the ArrayStore delta write fast path and I/O accounting.

The store must *demonstrate* the paper's update-complexity claim, not
just compute it: a single-chunk write on TIP touches exactly 1 data +
3 parity chunks (read and written), STAR touches more, and the delta
path is byte-identical to the full-stripe path on every workload.
"""

import numpy as np
import pytest

from repro.analysis.write_path import full_stripe_cost, rmw_cost
from repro.codes import make_code
from repro.store import WRITE_MODES, ArrayStore, IoCounters

CHUNK = 256


def random_chunks(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, CHUNK), dtype=np.uint8)


def make_store(tmp_path, family="tip", n=6, **kwargs):
    return ArrayStore(
        make_code(family, n),
        tmp_path,
        stripes=3,
        chunk_bytes=CHUNK,
        **kwargs,
    )


class TestIoAccounting:
    def test_tip_single_chunk_write_is_optimal(self, tmp_path):
        """The paper's headline: 1 data + exactly 3 parity chunks."""
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(store.capacity_chunks, seed=1))
        store.write_chunks(7, random_chunks(1, seed=2))
        io = store.last_io
        assert io.data_chunks_read == 1
        assert io.parity_chunks_read == 3
        assert io.data_chunks_written == 1
        assert io.parity_chunks_written == 3
        assert store.scrub() == []

    def test_every_tip_chunk_position_is_optimal(self, tmp_path):
        store = make_store(tmp_path)
        for logical in range(store.code.num_data):
            store.write_chunks(logical, random_chunks(1, seed=logical))
            assert store.last_io.parity_chunks_written == 3, logical
            assert store.last_io.data_chunks_written == 1, logical

    def test_star_touches_more_parity_chunks(self, tmp_path):
        """STAR's adjuster chains make some single writes cost > 3."""
        store = make_store(tmp_path, family="star")
        code = store.code
        worst = max(
            range(code.num_data),
            key=lambda i: len(code.parity_dependents[code.data_positions[i]]),
        )
        expected = len(code.parity_dependents[code.data_positions[worst]])
        assert expected > 3
        store.write_chunks(worst, random_chunks(1, seed=3))
        assert store.last_io.parity_chunks_written == expected
        assert store.scrub() == []

    def test_cumulative_and_last_op_counters(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(1, seed=4))
        first = store.last_io
        before = store.io.snapshot()
        store.write_chunks(1, random_chunks(1, seed=5))
        # last_io is rebound per operation: the old reference is stable.
        assert first.chunks_written == 4
        assert (store.io - before).chunks_written == 4
        assert store.io.chunks_written == before.chunks_written + 4

    def test_read_accounting_healthy(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(5, seed=6))
        store.read_chunks(0, 5)
        assert store.last_io.data_chunks_read == 5
        assert store.last_io.parity_chunks_read == 0
        assert store.last_io.chunks_written == 0

    def test_counters_arithmetic(self):
        a = IoCounters(3, 1, 2, 1)
        b = IoCounters(1, 1, 1, 1)
        diff = a - b
        assert diff == IoCounters(2, 0, 1, 0)
        assert diff.total_chunks == 3
        snap = a.snapshot()
        a.reset()
        assert snap.chunks_read == 4 and a.total_chunks == 0


class TestPathSelection:
    def test_small_write_takes_fast_path(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(1, seed=7))
        assert store.fast_path_writes == 1
        assert store.slow_path_writes == 0

    def test_full_stripe_write_takes_slow_path(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(
            0, random_chunks(store.code.num_data, seed=8)
        )
        assert store.fast_path_writes == 0
        assert store.slow_path_writes == 1

    def test_auto_threshold_matches_cost_model(self, tmp_path):
        """Auto takes the cheapest of delta RMW, reconstruct-write and
        the whole-stripe path by chunk I/Os; ties keep the whole-stripe
        path, then delta."""
        store = make_store(tmp_path)
        code = store.code
        stored = len(code.nonempty_positions)
        for run in range(1, code.num_data + 1):
            positions = [code.data_positions[i] for i in range(run)]
            delta = rmw_cost(code, positions).total_ios
            # RCW reads every data chunk the run leaves and writes what
            # delta writes; a whole aligned stripe reads nothing.
            rcw = code.num_data - run + delta // 2
            whole = run == code.num_data
            stripe = stored if whole else full_stripe_cost(code).total_ios
            expected = min(
                (stripe, "stripe"), (delta, "delta"), (rcw, "rcw"),
                key=lambda cost_path: cost_path[0],
            )
            fast_before = store.fast_path_writes
            slow_before = store.slow_path_writes
            store.write_chunks(0, random_chunks(run, seed=run))
            took_fast = store.fast_path_writes == fast_before + 1
            took_slow = store.slow_path_writes == slow_before + 1
            assert took_fast == (expected[1] == "delta"), run
            assert took_slow == (expected[1] != "delta"), run
            assert store.last_io.total_chunks == expected[0], run
        assert store.scrub() == []

    def test_forced_modes(self, tmp_path):
        delta = make_store(tmp_path / "d", write_mode="delta")
        stripe = make_store(tmp_path / "s", write_mode="stripe")
        data = random_chunks(1, seed=9)
        delta.write_chunks(0, data)
        stripe.write_chunks(0, data)
        assert delta.fast_path_writes == 1 and delta.slow_path_writes == 0
        assert stripe.fast_path_writes == 0 and stripe.slow_path_writes == 1

    def test_degraded_write_falls_back(self, tmp_path):
        store = make_store(tmp_path, write_mode="delta")
        store.write_chunks(0, random_chunks(store.capacity_chunks, seed=10))
        store.fail_disk(1)
        store.write_chunks(2, random_chunks(1, seed=11))
        assert store.slow_path_writes >= 1
        store.rebuild()
        assert store.scrub() == []

    def test_invalid_write_mode(self, tmp_path):
        with pytest.raises(ValueError, match="write_mode"):
            make_store(tmp_path, write_mode="yolo")
        assert set(WRITE_MODES) == {"auto", "delta", "stripe"}


class TestDeltaEquivalence:
    @pytest.mark.parametrize("family", ["tip", "star", "triple-star"])
    def test_delta_and_stripe_paths_agree(self, tmp_path, family):
        """Same writes through both paths -> byte-identical disk files."""
        stores = {
            mode: make_store(tmp_path / mode, family=family, write_mode=mode)
            for mode in ("delta", "stripe")
        }
        rng = np.random.default_rng(12)
        capacity = next(iter(stores.values())).capacity_chunks
        for step in range(25):
            start = int(rng.integers(0, capacity))
            count = int(rng.integers(1, min(8, capacity - start) + 1))
            data = rng.integers(0, 256, size=(count, CHUNK), dtype=np.uint8)
            for store in stores.values():
                store.write_chunks(start, data)
        for disk in range(stores["delta"].code.cols):
            a = (tmp_path / "delta" / f"disk{disk:03d}.img").read_bytes()
            b = (tmp_path / "stripe" / f"disk{disk:03d}.img").read_bytes()
            assert a == b, disk
        for store in stores.values():
            assert store.scrub() == []

    def test_overwrite_with_same_data_keeps_parity(self, tmp_path):
        store = make_store(tmp_path)
        data = random_chunks(1, seed=13)
        store.write_chunks(4, data)
        store.write_chunks(4, data)  # zero delta
        assert store.scrub() == []
        assert np.array_equal(store.read_chunks(4, 1), data)


class TestStoreInternals:
    def test_decoder_reused_across_operations(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(4, seed=14))
        store.fail_disk(0)
        first = store._current_decoder()
        store.read_chunks(0, 4)
        assert store._current_decoder() is first
        store.rebuild()
        store.fail_disk(0)
        assert store._current_decoder() is first

    def test_handles_persist_and_close(self, tmp_path):
        store = make_store(tmp_path)
        store.write_chunks(0, random_chunks(2, seed=15))
        handle = store._handles[0]
        store.write_chunks(0, random_chunks(2, seed=16))
        assert store._handles[0] is handle
        store.close()
        assert handle.closed
        # reuse after close reopens lazily
        assert np.array_equal(
            store.read_chunks(0, 2), random_chunks(2, seed=16)
        )

    def test_context_manager_closes(self, tmp_path):
        with make_store(tmp_path) as store:
            store.write_chunks(0, random_chunks(1, seed=17))
            handle = store._handles[0]
        assert handle.closed
