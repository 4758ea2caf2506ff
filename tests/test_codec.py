"""Tests for the bulk packet codec (Figs. 14a/15a machinery)."""

import numpy as np
import pytest

from repro.codec import (
    encode_schedule_for,
    measure_decode_throughput,
    measure_encode_throughput,
)
from repro.codes import make_code


@pytest.fixture(scope="module")
def tip6():
    return make_code("tip", 6)


class TestInterpretedSchedules:
    """The reference schedules the interpreted engine runs."""

    def test_encode_matches_reference_encoder(self, tip6):
        rng = np.random.default_rng(0)
        data = [
            rng.integers(0, 256, size=32, dtype=np.uint8)
            for _ in range(tip6.num_data)
        ]
        parities = encode_schedule_for(tip6).apply(data)
        stripe = tip6.make_stripe(np.stack(data))
        for pos, packet in zip(tip6.parity_positions, parities):
            assert np.array_equal(stripe[pos[0], pos[1]], packet), pos

    def test_encode_wrong_packet_count(self, tip6):
        with pytest.raises(ValueError, match="input packets"):
            encode_schedule_for(tip6).apply([np.zeros(8, dtype=np.uint8)])

    def test_decode_packets_recover_failed_columns(self, tip6):
        stripe = tip6.random_stripe(packet_size=16, seed=2)
        decoder = tip6.decoder_for((0, 2, 4))
        known = [stripe[r, c] for r, c in decoder.plan.known_positions]
        recovered = decoder.plan.schedule.apply(known)
        for pos, packet in zip(decoder.plan.unknown_positions, recovered):
            assert np.array_equal(stripe[pos[0], pos[1]], packet)

    def test_decode_rejects_wrong_survivor_count(self, tip6):
        schedule = tip6.decoder_for((0, 1, 2)).plan.schedule
        with pytest.raises(ValueError, match="input packets"):
            schedule.apply([np.zeros(8, dtype=np.uint8)])

    def test_scheduled_encode_xors_not_above_naive(self, tip6):
        naive = sum(len(m) - 1 for m in tip6.expanded_chains.values())
        assert encode_schedule_for(tip6).xor_count <= naive


class TestThroughput:
    def test_encode_throughput_result(self, tip6):
        result = measure_encode_throughput(tip6, data_bytes=1 << 20)
        assert result.gib_per_second > 0
        assert result.total_bytes >= 1 << 20
        assert result.xors_per_element > 0

    def test_decode_throughput_result(self, tip6):
        result = measure_decode_throughput(
            tip6, data_bytes=1 << 20, patterns=4
        )
        assert result.gib_per_second > 0
        assert result.xors_per_element > 0

    def test_packet_size_validation(self, tip6):
        for measure in (measure_encode_throughput, measure_decode_throughput):
            for packet_size in (0, -1):
                with pytest.raises(ValueError, match="packet_size"):
                    measure(tip6, data_bytes=1 << 12, packet_size=packet_size)

    def test_throughput_math(self):
        from repro.codec.engine import ThroughputResult

        result = ThroughputResult("x", total_bytes=1 << 30, seconds=2.0,
                                  xors_per_element=3.0)
        assert result.gib_per_second == pytest.approx(0.5)
