"""Address math shared by the simulator, the store, and the block device.

The mapping is the one the paper's evaluation assumes throughout: a
stripe's data elements are the unit of striping (one chunk each), logical
chunks fill stripes in row-major data order, and element ``(row, col)``
of stripe ``s`` lives on disk ``col`` at chunk LBA ``s * rows + row``.
Everything that addresses the array — the DiskSim controller, the
file-backed :class:`repro.store.ArrayStore`, the byte-addressed
:class:`repro.raid.blockdevice.BlockDevice`, and the Fig. 12 trace-cost
analysis — goes through this module, so there is exactly one place the
geometry can be right (or wrong).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.base import ArrayCode, Position

__all__ = ["ArrayMapping", "ChunkRun", "DiskAddress", "WIDE_WRITE_STRIPES"]

#: Most whole stripes one wide write lays into a single grid (one
#: encode, one journal transaction, one ``pwritev`` per disk). Small on
#: purpose: at TIP n=8 with 4 KiB chunks 8 stripes make a 1.5 MiB grid,
#: and freeing multi-MiB temporaries raises glibc's dynamic mmap
#: threshold, which keeps later large allocations on the heap and
#: inflates peak RSS.
WIDE_WRITE_STRIPES = 8


@dataclass(frozen=True)
class DiskAddress:
    """Physical location of one element: a disk and a chunk LBA on it."""

    disk: int
    lba_chunk: int

    def byte_offset(self, chunk_bytes: int) -> int:
        """Byte offset of this element within its disk's address space."""
        return self.lba_chunk * chunk_bytes


@dataclass(frozen=True)
class ChunkRun:
    """One request's intersection with a single stripe.

    ``start`` and ``length`` index *logical data elements within the
    stripe* (the units the write-cost analysis counts); ``skip`` and
    ``nbytes`` carry the byte geometry a byte-addressed front-end needs:
    the run covers chunks ``[start, start + length)`` of the stripe but
    the request's payload begins ``skip`` bytes into the first covered
    chunk and spans ``nbytes`` bytes in total.
    """

    stripe: int
    start: int
    length: int
    skip: int = 0
    nbytes: int = 0

    def is_partial(self, chunk_bytes: int) -> bool:
        """True when the run covers its first or last chunk only partly."""
        return self.skip != 0 or self.nbytes != self.length * chunk_bytes


class ArrayMapping:
    """Logical-chunk / grid-position / per-disk-LBA address arithmetic.

    Args:
        code: the array code striping the array (defines the grid and
            which cells are data).
        chunk_bytes: stripe-unit size in bytes.
    """

    def __init__(self, code: ArrayCode, chunk_bytes: int) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.code = code
        self.chunk_bytes = chunk_bytes

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def capacity_chunks(self, stripes: int) -> int:
        """Logical data chunks held by ``stripes`` stripes."""
        return stripes * self.code.num_data

    def capacity_bytes(self, stripes: int) -> int:
        """Logical bytes held by ``stripes`` stripes."""
        return self.capacity_chunks(stripes) * self.chunk_bytes

    def disk_bytes(self, stripes: int) -> int:
        """Backing bytes each disk needs for ``stripes`` stripes."""
        return stripes * self.code.rows * self.chunk_bytes

    # ------------------------------------------------------------------
    # chunk <-> grid <-> disk
    # ------------------------------------------------------------------
    def chunk_to_stripe(self, logical_chunk: int) -> tuple[int, int]:
        """Split a logical chunk index into ``(stripe, within_stripe)``."""
        if logical_chunk < 0:
            raise ValueError(f"negative logical chunk {logical_chunk}")
        return divmod(logical_chunk, self.code.num_data)

    def data_position(self, within: int) -> Position:
        """Grid position of the ``within``-th data element of any stripe."""
        return self.code.data_positions[within]

    def chunk_position(self, logical_chunk: int) -> tuple[int, Position]:
        """Map a logical chunk to ``(stripe, (row, col))``."""
        stripe, within = self.chunk_to_stripe(logical_chunk)
        return stripe, self.code.data_positions[within]

    def element_address(self, stripe: int, pos: Position) -> DiskAddress:
        """Physical disk + chunk LBA of element ``pos`` of ``stripe``."""
        row, col = pos
        return DiskAddress(disk=col, lba_chunk=stripe * self.code.rows + row)

    # ------------------------------------------------------------------
    # byte / chunk range splitting
    # ------------------------------------------------------------------
    def byte_runs(self, offset: int, length: int) -> list[ChunkRun]:
        """Split a byte request into per-stripe chunk runs.

        Each returned :class:`ChunkRun` covers consecutive data elements
        of one stripe and records where the request's bytes fall within
        them, so unaligned offsets and sub-chunk lengths survive the
        split exactly.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if length <= 0:
            return []
        chunk_bytes = self.chunk_bytes
        per_stripe = self.code.num_data
        end = offset + length
        first_chunk = offset // chunk_bytes
        last_chunk = (end - 1) // chunk_bytes
        runs: list[ChunkRun] = []
        chunk = first_chunk
        while chunk <= last_chunk:
            stripe, start = divmod(chunk, per_stripe)
            run = min(per_stripe - start, last_chunk - chunk + 1)
            run_begin = max(offset, chunk * chunk_bytes)
            run_end = min(end, (chunk + run) * chunk_bytes)
            runs.append(
                ChunkRun(
                    stripe=stripe,
                    start=start,
                    length=run,
                    skip=run_begin - chunk * chunk_bytes,
                    nbytes=run_end - run_begin,
                )
            )
            chunk += run
        return runs

    def whole_stripes(self, run: ChunkRun, remaining: int) -> int:
        """Whole stripes a wide write starting at ``run`` covers.

        ``remaining`` is the request's byte count from ``run`` onwards.
        Returns 0 unless ``run`` overwrites its stripe whole and aligned;
        otherwise the stripes from ``run.stripe`` on that the request
        overwrites whole, at most :data:`WIDE_WRITE_STRIPES`. Only a
        request's first and last runs can be partial, so those stripes
        are exactly the following runs.
        """
        if run.length != self.code.num_data or run.is_partial(self.chunk_bytes):
            return 0
        stripe_bytes = self.code.num_data * self.chunk_bytes
        return min(WIDE_WRITE_STRIPES, remaining // stripe_bytes)

    def chunk_runs(self, start_chunk: int, count: int) -> list[ChunkRun]:
        """Split an aligned chunk range into per-stripe runs."""
        if start_chunk < 0:
            raise ValueError(f"negative start chunk {start_chunk}")
        return self.byte_runs(
            start_chunk * self.chunk_bytes, count * self.chunk_bytes
        )
