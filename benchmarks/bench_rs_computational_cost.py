"""Sec. II claim: word-based Reed-Solomon's Galois-field arithmetic is
far more expensive than XOR coding.

The paper excludes classic RS from its XOR comparisons because "the
computational cost over Galois Field is extremely high, which limits the
performance on disk arrays". This benchmark quantifies that on identical
payloads: bytes/second encoding with GF(2^8) multiply-accumulate (RS)
vs. pure XOR schedules (TIP), at the same (n, k).

The guard is an exact count that states the cause: per data byte, RS
encode runs one GF(2^8) multiply-accumulate per nonzero parity
coefficient (three: its Vandermonde parity rows are dense), while TIP's
compiled encode schedule runs fewer than three plain XORs and no
multiply at all. The GiB/s are recorded, never asserted.
"""

import time

import numpy as np
from _common import emit, format_table

from repro.codec import measure_encode_throughput
from repro.codes import make_code
from repro.codes.reed_solomon import ReedSolomonCode

N = 12
PACKET = 4096
DATA_BYTES = 8 << 20


def rs_encode_throughput() -> float:
    rs = ReedSolomonCode(n=N, m=3)
    rng = np.random.default_rng(0)
    width = DATA_BYTES // rs.k
    data = rng.integers(0, 256, size=(rs.k, width), dtype=np.uint8)
    start = time.perf_counter()
    rs.encode(data)
    elapsed = time.perf_counter() - start
    return rs.k * width / (1 << 30) / elapsed


def test_rs_vs_xor_computational_cost(benchmark):
    tip_code = make_code("tip", N)
    rs = ReedSolomonCode(n=N, m=3)

    def compute():
        tip = measure_encode_throughput(
            tip_code, data_bytes=DATA_BYTES, packet_size=PACKET
        )
        return tip.gib_per_second, rs_encode_throughput()

    tip_speed, rs_speed = benchmark.pedantic(compute, rounds=2, iterations=1)
    # Per data byte: ``ReedSolomonCode.encode`` runs one ``mul_region``
    # and one XOR per nonzero parity coefficient; TIP's compiled encode
    # runs its plan's XORs (one per packet XOR, over packet-sized rows).
    rs_macs = np.count_nonzero(rs.generator[rs.k :]) / rs.k
    tip_xors = tip_code.encode_plan.xor_count / tip_code.num_data
    rows = [
        ["tip (XOR)", f"{tip_speed:.3f}", "0", f"{tip_xors:.3f}"],
        ["reed-solomon GF(2^8)", f"{rs_speed:.3f}", f"{rs_macs:.3f}",
         f"{rs_macs:.3f}"],
        ["XOR advantage", f"{tip_speed / rs_speed:.1f}x", "", ""],
    ]
    emit(
        "rs_computational_cost",
        format_table(
            ["codec", "GiB/s", "GF mults/data byte", "XORs/data byte"], rows
        ),
    )
    # The paper's qualitative claim, as the count that causes it: RS
    # multiplies every data byte into each of its 3 parities, and TIP
    # needs fewer plain XORs per data byte than RS's accumulates alone.
    assert rs_macs == rs.m
    assert tip_xors < rs_macs


def test_rs_decode_matches_encode_cost(benchmark):
    """RS repair pays the same GF multiply cost as encode (no free lunch
    on the decode side either)."""
    rs = ReedSolomonCode(n=N, m=3)
    rng = np.random.default_rng(1)
    width = (2 << 20) // rs.k
    shards = rs.encode(
        rng.integers(0, 256, size=(rs.k, width), dtype=np.uint8)
    )
    damaged = shards.copy()
    for row in (0, 4, 11):
        damaged[row] = 0

    def decode():
        return rs.decode(damaged, [0, 4, 11])

    repaired = benchmark.pedantic(decode, rounds=2, iterations=1)
    assert np.array_equal(repaired, shards)
