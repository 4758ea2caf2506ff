"""Packet-level encode/decode throughput measurement (Figs. 14a, 15a).

The paper measures GB/s encoding and decoding 256 MB of random memory
with 4 KB packets on one core. :mod:`repro.codec.engine` reproduces that
methodology on numpy buffers: the XOR schedules derived from each code's
chains/parity-check matrix are executed on large packets, so throughput is
dominated by the same per-element XOR counts that Figs. 14b/15b report.
The default engine executes schedules as compiled zero-allocation plans
(:mod:`repro.bitmatrix.plan`) on one core, as the paper does.
"""

from repro.codec.engine import (
    StripeCodec,
    ThroughputResult,
    encode_schedule_for,
    kernel_name,
    measure_encode_throughput,
    measure_decode_throughput,
)

__all__ = [
    "StripeCodec",
    "ThroughputResult",
    "encode_schedule_for",
    "kernel_name",
    "measure_encode_throughput",
    "measure_decode_throughput",
]
