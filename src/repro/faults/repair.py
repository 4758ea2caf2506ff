"""Throttled online repair: rebuild + scrub interleaved with foreground I/O.

:class:`RepairController` is the piece that turns the store's repair
primitives into an *online* discipline. It owns two responsibilities:

* **fault dispatch** (:meth:`RepairController.handle_fault`): when a
  foreground request surfaces an injected fault, decide what makes the
  request retryable — a fail-stopped disk is replaced
  (:meth:`FaultPlan.replace_disk`), failed into the store (wiping the
  file, as a drive swap does) and queued for rebuild, any interrupted
  write is rolled forward from the store's journal
  (:meth:`ArrayStore.complete_interrupted_write`), and a latent sector
  error gets its stripe repaired on the spot by the scrubber;
* **background progress** (:meth:`RepairController.tick`): a bounded
  slice of repair work — at most ``max_chunks_per_tick`` chunk I/Os —
  driven between foreground requests by
  :meth:`repro.raid.BlockDevice.replay`. Rebuild has priority while the
  array is degraded; otherwise the tick advances the scrubber's
  resumable cursor. The throttle is the knob behind the
  foreground-impact-vs-repair-bandwidth tradeoff ``bench_scrub``
  measures.

Incremental rebuild is made safe against interleaved writes with the
store's write watchers: stripes written by foreground traffic while the
rebuild cursor is in flight are collected and re-rebuilt before the
failure set is cleared, so a stripe rebuilt early and overwritten later
can never leave a stale reconstructed column behind.

The controller is single-caller, like the store: fault dispatch runs
inside the request that hit the fault and ticks run between requests,
never beside another call. Behind :class:`~repro.service.BlockService`
both run below its combining queue; direct multi-threaded use is
unsupported.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.faults.inject import (
    FailStopError,
    FaultError,
    LatentSectorError,
    TransientIOError,
)
from repro.faults.scrub import Scrubber
from repro.store.metering import IoCounters

__all__ = ["RepairController", "RepairStats"]

logger = logging.getLogger(__name__)


@dataclass
class RepairStats:
    """What the repair loop did, and what it cost."""

    ticks: int = 0
    stripes_rebuilt: int = 0
    rebuilds_completed: int = 0
    fail_stops_handled: int = 0
    latent_handled: int = 0
    transient_handled: int = 0
    journal_replays: int = 0
    rebuild_io: IoCounters = field(default_factory=IoCounters)


class RepairController:
    """Drives degraded rebuild and scrubbing in throttled ticks.

    Args:
        store: the :class:`~repro.store.ArrayStore` under repair (its
            ``fault_plan`` — if any — provides the ``during="rebuild"``
            phase context and disk replacement).
        scrubber: the scrubber to advance during idle ticks and to use
            for targeted latent-stripe repair; a default one (sharing
            the store) is built when omitted.
        max_chunks_per_tick: chunk-I/O budget per :meth:`tick`;
            converted to whole stripes (at least one) via the code's
            stripe footprint. Smaller values yield to foreground traffic
            more often; larger values finish repair sooner.

    Single-caller, like its store: direct multi-threaded use is
    unsupported (see the module docstring).
    """

    def __init__(
        self,
        store,
        scrubber: Scrubber | None = None,
        max_chunks_per_tick: int = 256,
    ) -> None:
        if max_chunks_per_tick < 1:
            raise ValueError("max_chunks_per_tick must be >= 1")
        self.store = store
        self.scrubber = scrubber if scrubber is not None else Scrubber(store)
        self.max_chunks_per_tick = max_chunks_per_tick
        self.stats = RepairStats()
        #: Next stripe the incremental rebuild will reconstruct; exposed
        #: (and restorable) so a repair loop can resume across restarts.
        self.rebuild_cursor = 0
        self._watch: set[int] | None = None

    # ------------------------------------------------------------------
    @property
    def stripes_per_tick(self) -> int:
        """The tick's chunk budget expressed in whole stripes (>= 1).

        A stripe's footprint is its real rebuild I/O: the surviving
        cells are read once and the failed cells written once, so the
        budget is what a rebuild tick spends.
        """
        footprint = max(1, len(self.store.code.nonempty_positions))
        return max(1, self.max_chunks_per_tick // footprint)

    @property
    def rebuilding(self) -> bool:
        """True while a rebuild is in flight (the array is degraded)."""
        return bool(self.store.failed)

    def _phase(self, name: str):
        plan = self.store.fault_plan
        return plan.phase(name) if plan is not None else nullcontext()

    # ------------------------------------------------------------------
    # fault dispatch
    # ------------------------------------------------------------------
    def handle_fault(self, exc: FaultError) -> bool:
        """React to an injected fault; True when the caller may retry.

        Unrecoverable situations (a fail-stop beyond the code's fault
        budget) propagate as the store's own errors — the caller sees
        real data loss, not a silent swallow.
        """
        if isinstance(exc, FailStopError):
            return self._handle_fail_stop(exc)
        if isinstance(exc, LatentSectorError):
            self.stats.latent_handled += 1
            self._repair_lba_stripe(exc.lba)
            self.store.complete_interrupted_write()
            return True
        if isinstance(exc, TransientIOError):
            # The backend already burned its internal retries; one
            # more attempt at request granularity is the last resort.
            self.stats.transient_handled += 1
            return True
        return False

    def _handle_fail_stop(self, exc: FailStopError) -> bool:
        store = self.store
        plan = store.fault_plan
        self.stats.fail_stops_handled += 1
        if plan is not None:
            plan.replace_disk(exc.disk)
        if exc.disk not in store.failed:
            store.fail_disk(exc.disk)  # may raise: budget exceeded = loss
        # A write interrupted between its data and parity phases left a
        # write hole; roll the journal forward (skipping the dead disk)
        # before anything reads the stripe.
        self.stats.journal_replays += store.complete_interrupted_write()
        # (Re)start the incremental rebuild from the top: a second
        # failure changes the decoder and voids partial progress.
        self.rebuild_cursor = 0
        if self._watch is None:
            self._watch = store.watch_writes()
        else:
            self._watch.clear()
        logger.info(
            "repair: disk %d fail-stop handled; rebuild (re)started",
            exc.disk,
        )
        return True

    def _repair_lba_stripe(self, lba: int) -> None:
        """Targeted scrub of the stripe owning chunk ``lba``."""
        stripe = lba // self.store.code.rows
        if 0 <= stripe < self.store.stripes:
            self.scrubber.scrub_stripe(stripe)

    # ------------------------------------------------------------------
    # background progress
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """One bounded slice of repair work; returns stripes processed.

        Rebuild first while degraded, scrub otherwise. Faults injected
        *into the repair work itself* (latent errors discovered
        mid-rebuild, a second disk dying) are dispatched through
        :meth:`handle_fault` and the slice is abandoned — the next tick
        resumes where appropriate.
        """
        self.stats.ticks += 1
        try:
            if self.rebuilding:
                return self._rebuild_tick()
            return self.scrubber.step(max_stripes=self.stripes_per_tick)
        except FaultError as exc:
            if not self.handle_fault(exc):
                raise
            return 0

    def _rebuild_tick(self) -> int:
        store = self.store
        if self._watch is None:
            self._watch = store.watch_writes()
        before = store.io.snapshot()
        try:
            count = min(
                self.stripes_per_tick, store.stripes - self.rebuild_cursor
            )
            if count > 0:
                with self._phase("rebuild"):
                    store.rebuild_stripes(self.rebuild_cursor, count)
                self.rebuild_cursor += count
                self.stats.stripes_rebuilt += count
                return count
            # Cursor at the end: re-rebuild stripes foreground writes
            # dirtied while the cursor was in flight, then finalize.
            # Each stripe leaves the watch set only once its rebuild
            # succeeded — a fault raised mid-loop (e.g. a latent error
            # minted by the rebuild reads themselves) must not lose the
            # remaining dirty stripes, or finalization would clear the
            # failure set with stale reconstructed columns behind.
            dirty = sorted(self._watch)
            if dirty:
                budget = self.stripes_per_tick
                done = 0
                with self._phase("rebuild"):
                    for stripe in dirty[:budget]:
                        store.rebuild_stripes(stripe, 1)
                        self.stats.stripes_rebuilt += 1
                        self._watch.discard(stripe)
                        done += 1
                # Anything beyond the budget (or re-dirtied meanwhile)
                # waits for the next tick.
                if self._watch:
                    return done
            store.unwatch_writes(self._watch)
            self._watch = None
            store.finish_rebuild()
            self.stats.rebuilds_completed += 1
            logger.info(
                "repair: rebuild complete after %d stripes",
                self.stats.stripes_rebuilt,
            )
            return len(dirty)
        finally:
            self.stats.rebuild_io = (
                self.stats.rebuild_io + (store.io - before)
            )

    def drain(self) -> None:
        """Run ticks until the array is healthy again (rebuild done).

        The scrub cursor is *not* driven to completion here — scrubbing
        is a continuous background activity; call
        ``controller.scrubber.run()`` for a full pass.
        """
        while self.rebuilding:
            self.tick()
