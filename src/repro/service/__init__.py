"""Service layer: many callers, one array or one volume.

Everything below this package — :class:`~repro.store.ArrayStore`, the
write-back :class:`~repro.raid.StripeCache`, the intent journals, the
:class:`~repro.faults.repair.RepairController`, the
:class:`~repro.volume.VolumeManager` — is single-caller and takes no
locks. The two front doors here are the only concurrent entry points,
and each runs one request at a time below it:

* :mod:`repro.service.locks` — the concurrency primitives: the flat
  combining queue both front doors run their requests from (one FIFO
  queue, one request below it at a time, run back to back by whichever
  caller holds the combiner role) and the FIFO admission semaphore.
  The array readers-writer lock and the ordered per-stripe locks stay
  there too, although no module of the package takes them any more;
* :mod:`repro.service.scheduler` — :class:`BlockService`, the front door
  of one array: flat combining on the callers' threads, requests held
  and run in stripe-affine batches only where batches merge span I/O
  (``batch_size`` above 1 on a store without a stripe cache; still on
  the callers' threads), ``max_inflight`` admission, and the QoS
  arbiter that interleaves throttled repair ticks with foreground
  traffic;
* :mod:`repro.service.loadgen` — the closed-loop load generator:
  barrier-synchronized workers replaying traces concurrently, per-
  request latency sampling (p50/p99 vs offered load), and the
  :func:`split_disjoint` partitioner behind the serial-equivalence
  contract (disjoint concurrent replay ≡ serial replay, byte for byte
  and counter for counter);
* :mod:`repro.service.volume` — :class:`VolumeService`, the same
  combining front door over a multi-array
  :class:`~repro.volume.VolumeManager`, plus a background thread that
  restripes the volume online, under load.
"""

from repro.service.loadgen import (
    ConcurrentReplayResult,
    replay_batched,
    replay_concurrent,
    split_disjoint,
)
from repro.service.locks import ArrayRWLock, FifoSemaphore, StripeLockManager
from repro.service.scheduler import BlockService, ServiceStats, percentile
from repro.service.volume import VolumeService

__all__ = [
    "ArrayRWLock",
    "BlockService",
    "ConcurrentReplayResult",
    "FifoSemaphore",
    "ServiceStats",
    "StripeLockManager",
    "VolumeService",
    "percentile",
    "replay_batched",
    "replay_concurrent",
    "split_disjoint",
]
