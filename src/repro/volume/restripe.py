"""Online code migration: restripe a live volume onto a new shard set.

The migration problem is the volume-level twin of degraded rebuild: a
background walker must touch every extent exactly once while foreground
traffic keeps flowing, so the :class:`Restriper` borrows
:class:`~repro.faults.repair.RepairController`'s shape — a throttled
``tick()`` that advances a resumable cursor, with ``run()``/``drain()``
driving ticks to completion. What it adds is the *routing* half:

* extents below the cursor live in the new layout, extents at or above
  it in the old one (the cursor routing rule — see
  :mod:`repro.volume.mapping` for why extent identity is layout-free);
* each tick copies one batch of extents and returns, so foreground
  requests run between ticks: through
  :class:`~repro.service.VolumeService` a request waits for at most one
  tick, not one migration;
* the cursor is made durable (metadata fsync) strictly *before*
  routing flips, so a crash mid-batch re-copies the batch into shards
  no foreground write has touched — idempotent by construction, with
  each copy-write journaled by the receiving shard like any write.

Because both the shard set and each shard's code family are free to
change, a restripe is also the code-migration path: TIP(p) → TIP(p')
regrows geometry, TIP → STAR/RS re-encodes every byte under the new
family's parity discipline, all without unmounting the volume.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.store import IoCounters
from repro.volume.manager import ShardSpec, VolumeManager

__all__ = ["Restriper", "RestripeStats"]

logger = logging.getLogger(__name__)


@dataclass
class RestripeStats:
    """Progress accounting for one migration."""

    total_extents: int = 0
    extents_copied: int = 0
    bytes_copied: int = 0
    ticks: int = 0
    #: Chunk I/O attributable to migration copies (volume-wide delta
    #: measured across each tick, so it includes the parity writes the
    #: new shards perform on behalf of the copies).
    io: IoCounters = field(default_factory=IoCounters)

    @property
    def done(self) -> bool:
        """True once every extent has been copied to the new layout."""
        return self.extents_copied >= self.total_extents


class Restriper:
    """Drives one volume migration in throttled, crash-resumable ticks.

    Args:
        volume: the live volume to migrate.
        target: the new shard set; must hold at least ``volume_bytes``
            at the volume's extent size. ``None`` resumes a migration
            already recorded in the volume's metadata (after a crash or
            a handoff between processes).
        extents_per_tick: copy batch size — the throttle. Small batches
            minimize the foreground stall per tick; large batches
            finish sooner.
        tick_delay: seconds to sleep between ticks in :meth:`run`
            (and in :meth:`~repro.service.VolumeService.start_restripe`'s
            driver), leaving the volume to foreground requests.

    Like the volume, single-caller: its constructor (which may call
    :meth:`VolumeManager.begin_restripe`), :meth:`tick` and
    :meth:`finish` must not overlap any other call on the volume.
    """

    def __init__(
        self,
        volume: VolumeManager,
        target: Sequence[ShardSpec] | None = None,
        extents_per_tick: int = 4,
        tick_delay: float = 0.0,
    ) -> None:
        if extents_per_tick < 1:
            raise ValueError("extents_per_tick must be >= 1")
        if tick_delay < 0:
            raise ValueError("tick_delay must be >= 0")
        self.volume = volume
        self.extents_per_tick = extents_per_tick
        self.tick_delay = tick_delay
        if target is not None:
            volume.begin_restripe(target)
        elif not volume.restriping:
            raise ValueError(
                "no target given and the volume has no restripe in flight"
            )
        self.stats = RestripeStats(
            total_extents=volume.total_extents,
            extents_copied=volume.restripe_cursor,
        )

    @property
    def done(self) -> bool:
        """True once every extent routes to the new layout."""
        return self.stats.done

    def tick(self) -> int:
        """Copy the next batch of extents; returns extents copied.

        Foreground requests may run between ticks, never during one. A
        return of 0 means the cursor already reached the end (call
        :meth:`finish` to swap layouts).
        """
        if self.done:
            return 0
        before = self.volume.io
        copied = self.volume.copy_extents(
            self.volume.restripe_cursor, self.extents_per_tick
        )
        self.stats.extents_copied += copied
        self.stats.bytes_copied += copied * self.volume.extent_bytes
        self.stats.ticks += 1
        self.stats.io = self.stats.io + (self.volume.io - before)
        return copied

    def finish(self) -> RestripeStats:
        """Swap the new layout in and retire the old shards."""
        self.volume.finish_restripe()
        logger.info(
            "restripe finished: %d extents (%d bytes) in %d tick(s)",
            self.stats.extents_copied, self.stats.bytes_copied,
            self.stats.ticks,
        )
        return self.stats

    def run(self) -> RestripeStats:
        """Tick to completion (sleeping ``tick_delay`` between ticks),
        then swap layouts, on the calling thread. To migrate under
        foreground load, use
        :meth:`~repro.service.VolumeService.start_restripe`, which
        queues each tick between requests."""
        while not self.done:
            self.tick()
            if self.tick_delay and not self.done:
                time.sleep(self.tick_delay)
        return self.finish()

    # RepairController parity: drain is run without the politeness delay.
    def drain(self) -> RestripeStats:
        """Tick to completion with no inter-tick delay and swap layouts."""
        delay, self.tick_delay = self.tick_delay, 0.0
        try:
            return self.run()
        finally:
            self.tick_delay = delay
