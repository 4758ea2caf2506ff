"""Small shared utilities: primality, prime selection, argument checking.

The prime helpers are used across the code constructions, which are all
parameterized by a prime ``p`` (TIP, STAR, Triple-Star, HDD1, EVENODD, RDP
are array codes over Z_p diagonals). The byte helpers validate and
normalise requests at every byte-addressed front door (store, device,
service, volume).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "IOV_MAX",
    "as_bytes_array",
    "check_byte_range",
    "is_prime",
    "next_prime",
    "primes_up_to",
    "smallest_prime_for",
    "check_positive",
    "mod",
]


def is_prime(value: int) -> bool:
    """Return True if ``value`` is a prime number.

    Deterministic trial division; the primes used by array codes are tiny
    (p < 200 in every practical stripe), so this is never a bottleneck.
    """
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def next_prime(value: int) -> int:
    """Return the smallest prime >= ``value``."""
    if value <= 2:
        return 2
    candidate = value | 1  # first odd >= value
    while not is_prime(candidate):
        candidate += 2
    return candidate


def primes_up_to(limit: int) -> list[int]:
    """Return all primes <= ``limit`` (inclusive), smallest first."""
    return [value for value in range(2, limit + 1) if is_prime(value)]


def smallest_prime_for(disks: int, native_sizes: Iterable[int]) -> int:
    """Find the smallest prime ``p`` whose native array sizes cover ``disks``.

    ``native_sizes`` maps a candidate prime to the sizes the code natively
    supports; it is evaluated lazily as a callable-free protocol: the caller
    passes an iterable of offsets, i.e. a code natively supporting
    ``p + k`` disks for each ``k`` in ``native_sizes``. The returned prime
    is the smallest one with ``p + max(offsets) >= disks``: shortening can
    then remove data columns to reach ``disks`` exactly.
    """
    offsets = list(native_sizes)
    if not offsets:
        raise ValueError("native_sizes must be non-empty")
    best = max(offsets)
    candidate = 2
    while candidate + best < disks:
        candidate = next_prime(candidate + 1)
    return candidate


def check_positive(name: str, value: int) -> int:
    """Validate that ``value`` is a positive int; return it for chaining."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def mod(value: int, modulus: int) -> int:
    """Mathematical mod (always in ``0..modulus-1``), mirroring the paper's
    angle-bracket notation ``<i>_p``."""
    return value % modulus


#: Buffers one vectored I/O call (``preadv``/``pwritev``/``writev``)
#: takes at most (``IOV_MAX`` on Linux and the BSDs); a longer list goes
#: out as consecutive calls.
IOV_MAX = 1024


def as_bytes_array(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """A write payload as a flat contiguous ``uint8`` array.

    Arrays are viewed in place where possible; other buffers are frozen
    into ``bytes`` first, so a caller mutating its ``bytearray`` after
    the call cannot change what gets written.
    """
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def check_byte_range(offset: int, length: int, capacity: int, what: str) -> None:
    """Reject a byte range that is empty or leaves ``[0, capacity)``;
    ``what`` names the address space (``"device"``, ``"volume"``, ...)."""
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    if length <= 0:
        raise ValueError(f"non-positive length {length}")
    if offset + length > capacity:
        raise ValueError(
            f"range [{offset}, {offset + length}) exceeds {what} "
            f"capacity {capacity}"
        )
