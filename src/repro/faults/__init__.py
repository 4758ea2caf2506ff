"""Fault injection and online scrub/repair.

Real arrays rarely die from three clean whole-disk failures: they die
from *mixed* failure modes — a disk failure plus latent sector errors
discovered mid-rebuild, or silent corruption that no one reads until the
redundancy that could have fixed it is gone (the failure model motivating
SD codes, Blaum & Plank). This subpackage makes that failure model
runnable against the real file-backed store:

* :mod:`repro.faults.inject` — a deterministic, seedable
  :class:`FaultPlan` plus the :class:`FaultyDiskBackend` that wraps the
  store's per-disk span I/O and injects fail-stop disk loss, latent
  sector (chunk) read errors, silent bit-flip corruption, and transient
  I/O errors, with per-disk rates and trigger conditions;
* :mod:`repro.faults.scrub` — an incremental :class:`Scrubber` that
  walks stripes in bounded batches, classifies errors from parity
  syndromes (clean / erasure / located silent corruption / unfixable)
  and repairs in place with data-before-parity ordering;
* :mod:`repro.faults.repair` — a throttled :class:`RepairController`
  that drives degraded-array rebuild and background scrubbing
  between foreground requests in
  :meth:`repro.raid.BlockDevice.replay`.
"""

from repro.faults.inject import (
    FaultError,
    FaultPlan,
    FaultStats,
    FaultyDiskBackend,
    FailStopError,
    InjectedFault,
    LatentSectorError,
    TransientIOError,
)
from repro.faults.repair import RepairController, RepairStats
from repro.faults.scrub import (
    ScrubFinding,
    ScrubReport,
    Scrubber,
    classify_stripe,
)

__all__ = [
    "FaultError",
    "FaultPlan",
    "FaultStats",
    "FaultyDiskBackend",
    "FailStopError",
    "InjectedFault",
    "LatentSectorError",
    "TransientIOError",
    "RepairController",
    "RepairStats",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
    "classify_stripe",
]
