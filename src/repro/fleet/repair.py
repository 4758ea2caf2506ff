"""Finite-bandwidth repair: concurrent rebuilds contend and stretch.

A failed disk's contents are rebuilt onto a replacement by reading
surviving chunks (how many is the code model's business, see
:mod:`repro.fleet.codemodel`) and writing the reconstruction. Two
resources bound that work:

* the replacement disk absorbs writes at ``disk_mib_s`` at most;
* repair *read* traffic crossing rack boundaries shares one aggregate
  ``cross_rack_mib_s`` pipe (the oversubscribed spine every real
  cluster has).

Active jobs share the cross-rack pipe equally (processor sharing), so
each job's instantaneous rate is ``min(disk_mib_s,
cross_rack_mib_s / active_jobs)``. One failure rebuilds at full disk
speed; a rack's worth of simultaneous rebuilds crawls — which is
exactly the mechanism that stretches degraded windows and turns
correlated failures into data loss even for 3DFT codes.

Because rates change whenever a job starts or finishes, completion
times are *re-paced*: the scheduler advances every job's remaining
bytes to "now", recomputes rates, and hands the simulator a fresh
completion time per job. Each re-pace bumps the job's version so
completion events scheduled under an old rate are recognized as stale
and dropped — the standard event-driven processor-sharing discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RepairBandwidth", "RepairJob", "RepairScheduler"]

#: MiB per hour per MiB/s — all scheduler math runs in hours.
_MIB_S_TO_MIB_H = 3600.0


@dataclass(frozen=True)
class RepairBandwidth:
    """Bandwidth limits of the repair path.

    Args:
        disk_mib_s: write bandwidth of one replacement disk (MiB/s).
        cross_rack_mib_s: aggregate cross-rack repair bandwidth shared
            by all concurrent rebuilds (MiB/s).
    """

    disk_mib_s: float = 50.0
    cross_rack_mib_s: float = 200.0

    def __post_init__(self) -> None:
        if self.disk_mib_s <= 0 or self.cross_rack_mib_s <= 0:
            raise ValueError("bandwidth limits must be positive")


@dataclass
class RepairJob:
    """One in-flight disk rebuild."""

    disk: int
    total_mib: float
    remaining_mib: float
    version: int = 0
    rate_mib_h: float = 0.0
    last_advance: float = field(default=0.0)


class RepairScheduler:
    """Processor-sharing scheduler over the repair bandwidth.

    The simulator calls :meth:`start` when a disk fails and
    :meth:`complete` when a ``DISK_REPAIRED`` event pops; both return
    the full list of (disk, finish time, version) tuples to (re)schedule
    so contention-induced stretching is always reflected in the queue.
    """

    def __init__(self, bandwidth: RepairBandwidth) -> None:
        self.bandwidth = bandwidth
        self.jobs: dict[int, RepairJob] = {}
        self._version = 0
        #: Totals for the repair-traffic metrics.
        self.repaired_mib = 0.0
        self.busy_hours = 0.0  # integrated job-hours of active repair

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Drain each job's remaining bytes up to ``now`` at its rate."""
        for job in self.jobs.values():
            elapsed = now - job.last_advance
            if elapsed > 0:
                job.remaining_mib = max(
                    0.0, job.remaining_mib - elapsed * job.rate_mib_h
                )
                self.busy_hours += elapsed
                job.last_advance = now

    def _repace(self, now: float) -> list[tuple[int, float, int]]:
        """Recompute shared rates; return fresh completion schedules."""
        active = len(self.jobs)
        if not active:
            return []
        shared = self.bandwidth.cross_rack_mib_s / active
        rate = min(self.bandwidth.disk_mib_s, shared) * _MIB_S_TO_MIB_H
        schedule = []
        for job in self.jobs.values():
            self._version += 1
            job.version = self._version
            job.rate_mib_h = rate
            finish = now + job.remaining_mib / rate
            schedule.append((job.disk, finish, job.version))
        return schedule

    # ------------------------------------------------------------------
    # simulator interface
    # ------------------------------------------------------------------
    def start(
        self, now: float, disk: int, total_mib: float
    ) -> list[tuple[int, float, int]]:
        """Begin rebuilding ``disk``; returns completions to schedule.

        Every already-running job is re-paced (its share just shrank),
        so the returned list covers *all* active jobs.
        """
        if disk in self.jobs:
            raise ValueError(f"disk {disk} is already being repaired")
        if total_mib <= 0:
            raise ValueError("total_mib must be positive")
        self._advance(now)
        self.jobs[disk] = RepairJob(
            disk=disk, total_mib=total_mib, remaining_mib=total_mib,
            last_advance=now,
        )
        return self._repace(now)

    def complete(
        self, now: float, disk: int, version: int
    ) -> tuple[bool, list[tuple[int, float, int]]]:
        """Handle a ``DISK_REPAIRED`` event.

        Returns ``(done, reschedules)``: ``done`` is False for stale
        events (the job was re-paced after this completion was
        scheduled — every re-pace issues a newer version, so a matching
        version proves the rate never changed and the job is exactly
        drained at its scheduled instant).
        """
        job = self.jobs.get(disk)
        if job is None or job.version != version:
            return False, []
        self._advance(now)
        self.repaired_mib += job.total_mib
        del self.jobs[disk]
        return True, self._repace(now)

    def active(self) -> int:
        """Number of in-flight rebuilds."""
        return len(self.jobs)
