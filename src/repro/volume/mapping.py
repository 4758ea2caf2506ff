"""Two-level address math: volume byte → extent → shard → shard byte.

The per-array :class:`~repro.raid.mapping.ArrayMapping` answers "which
disk LBA holds this chunk of *one* array". A volume is many arrays
(shards), possibly of different code families and geometries, presenting
one byte address space; :class:`VolumeMapping` owns the upper level of
that translation and nothing else — it never touches a store, so the
planner can price a volume request shard by shard with pure arithmetic,
exactly as :class:`~repro.raid.planner.RequestPlanner` prices per-array
requests.

The unit of distribution is the **extent**: a fixed ``extent_bytes``
slice of the volume's byte space. Extents are dealt round-robin across
the shards (shards with more capacity simply keep receiving extents
after smaller shards are full), so sequential volume traffic fans out
over all shards while each extent stays contiguous inside its shard —
the property that makes the online restriper's cursor routing rule
("extent < cursor lives in the new layout") well-defined: extent
indices depend only on ``extent_bytes``, never on the shard set, so the
old and new layouts of a migration agree on what extent ``e`` *is* and
disagree only on where it lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._util import check_byte_range

__all__ = ["VolumeMapping", "VolumeRun"]


@dataclass(frozen=True)
class VolumeRun:
    """One request's intersection with a single extent.

    ``shard_offset`` is the byte offset inside the owning shard's
    logical space — what the shard's own ``read_bytes``/``write_bytes``
    (and its planner) consume directly.
    """

    extent: int
    shard: int
    shard_offset: int
    volume_offset: int
    nbytes: int


class VolumeMapping:
    """Round-robin extent striping over heterogeneous shard capacities.

    Args:
        shard_capacities: logical capacity in bytes of each shard.
        extent_bytes: distribution unit; every shard must hold at least
            one whole extent (capacity below one extent is a
            configuration error, capacity beyond the last whole extent
            is unused).
    """

    def __init__(
        self, shard_capacities: Sequence[int], extent_bytes: int
    ) -> None:
        if extent_bytes <= 0:
            raise ValueError("extent_bytes must be positive")
        if not shard_capacities:
            raise ValueError("a volume needs at least one shard")
        counts = [capacity // extent_bytes for capacity in shard_capacities]
        for shard, count in enumerate(counts):
            if count < 1:
                raise ValueError(
                    f"shard {shard} holds {shard_capacities[shard]} bytes, "
                    f"less than one {extent_bytes}-byte extent"
                )
        self.extent_bytes = extent_bytes
        self.shard_extents = tuple(counts)
        self.total_extents = sum(counts)
        #: extent → owning shard / extent index within that shard.
        shard_of: list[int] = []
        index_of: list[int] = []
        cursor = [0] * len(counts)
        while len(shard_of) < self.total_extents:
            for shard, count in enumerate(counts):
                if cursor[shard] < count:
                    shard_of.append(shard)
                    index_of.append(cursor[shard])
                    cursor[shard] += 1
        self._shard_of = tuple(shard_of)
        self._index_of = tuple(index_of)

    # ------------------------------------------------------------------
    @property
    def volume_bytes(self) -> int:
        """Addressable bytes of the volume (whole extents only)."""
        return self.total_extents * self.extent_bytes

    @property
    def shards(self) -> int:
        """Number of shards the mapping stripes over."""
        return len(self.shard_extents)

    def locate(self, extent: int) -> tuple[int, int]:
        """Map a volume extent to ``(shard, shard_byte_offset)``."""
        if not 0 <= extent < self.total_extents:
            raise ValueError(
                f"extent {extent} out of range [0, {self.total_extents})"
            )
        shard = self._shard_of[extent]
        return shard, self._index_of[extent] * self.extent_bytes

    def extent_range(self, offset: int, length: int) -> range:
        """The extent indices a byte range touches (validated)."""
        check_byte_range(offset, length, self.volume_bytes, "volume")
        return range(
            offset // self.extent_bytes,
            (offset + length - 1) // self.extent_bytes + 1,
        )

    def byte_runs(self, offset: int, length: int) -> list[VolumeRun]:
        """Split a volume byte range into per-extent shard runs.

        Runs never merge across extents here, even when two extents
        land adjacently on one shard: the restriper routes extent by
        extent, so the extent is the atom of routing the same
        way the stripe is the array's. The manager merges runs into
        shard I/Os only after routing them.
        """
        runs: list[VolumeRun] = []
        for extent in self.extent_range(offset, length):
            begin = max(offset, extent * self.extent_bytes)
            end = min(offset + length, (extent + 1) * self.extent_bytes)
            shard, base = self.locate(extent)
            runs.append(
                VolumeRun(
                    extent=extent,
                    shard=shard,
                    shard_offset=base + (begin - extent * self.extent_bytes),
                    volume_offset=begin,
                    nbytes=end - begin,
                )
            )
        return runs
