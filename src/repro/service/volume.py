"""The volume front-end: many callers, many arrays, one byte space.

:class:`VolumeService` is to a :class:`~repro.volume.VolumeManager` what
:class:`~repro.service.BlockService` is to one
:class:`~repro.store.ArrayStore` — the admission and threading layer.
The volume already owns correctness (extent routing, journal ordering,
the volume → shard → stripe lock ladder); the service adds *fairness*:

* **per-shard admission.** One global semaphore would let a burst
  aimed at one hot shard starve every other shard's queue. Instead each
  shard gets its own inflight bound; a request takes one permit per
  distinct shard it touches, in ascending shard order (the same
  total-order trick the stripe locks use, so two requests can never
  hold-and-wait in a cycle). Disjoint-shard traffic never queues behind
  a hot shard. Admission is keyed by the *source-layout* shard — during
  a migration the copies land wherever the cursor says, but the
  throttle's job is bounding concurrency, not routing, and the source
  layout is the one foreground traffic is shaped by.
* **a background migration driver.** :meth:`start_restripe` runs a
  :class:`~repro.volume.Restriper` on its own thread while request
  threads keep flowing — the configuration every restripe latency
  benchmark measures.

Stats reuse :class:`~repro.service.ServiceStats` (admission-to-
completion latency per request, p50/p99 via the shared nearest-rank
:func:`~repro.service.percentile`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro._util import as_bytes_array
from repro.service.scheduler import ServiceStats
from repro.volume.manager import ShardSpec, VolumeManager
from repro.volume.restripe import Restriper, RestripeStats

__all__ = ["VolumeService"]


class VolumeService:
    """Thread-pool request front-end over an elastic volume.

    Args:
        volume: the (thread-safe) :class:`~repro.volume.VolumeManager`
            to serve. Closing the service closes the volume.
        workers: threads in the request pool behind :meth:`submit_read`
            / :meth:`submit_write`; synchronous :meth:`read` /
            :meth:`write` run on the caller's thread under the same
            admission.
        per_shard_inflight: concurrent requests admitted per shard
            (each request holds one permit for every shard it spans).
    """

    def __init__(
        self,
        volume: VolumeManager,
        *,
        workers: int = 4,
        per_shard_inflight: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if per_shard_inflight < 1:
            raise ValueError("per_shard_inflight must be >= 1")
        self.volume = volume
        self.workers = workers
        self.per_shard_inflight = per_shard_inflight
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._admission: dict[int, threading.BoundedSemaphore] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._restriper: Restriper | None = None
        self._restripe_thread: threading.Thread | None = None
        self._restripe_error: BaseException | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Addressable bytes of the underlying volume."""
        return self.volume.capacity_bytes

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-volume",
            )
        return self._pool

    def close(self) -> None:
        """Drain requests and any migration, then close the volume."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.join_restripe()
        self.volume.close()

    def __enter__(self) -> "VolumeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _permit(self, shard: int) -> threading.BoundedSemaphore:
        with self._admission_lock:
            gate = self._admission.get(shard)
            if gate is None:
                gate = threading.BoundedSemaphore(self.per_shard_inflight)
                self._admission[shard] = gate
            return gate

    def _admitted(self, is_write: bool, offset: int, length: int, payload):
        """One request: per-shard admission, timed volume I/O, stats."""
        shards = sorted(
            {
                run.shard
                for run in self.volume.mapping.byte_runs(offset, length)
            }
        )
        gates = [self._permit(shard) for shard in shards]
        started = time.perf_counter()
        for gate in gates:
            gate.acquire()
        try:
            if is_write:
                result = None
                self.volume.write_bytes(offset, payload)
            else:
                result = self.volume.read_bytes(offset, length)
        finally:
            for gate in reversed(gates):
                gate.release()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        with self._stats_lock:
            self.stats.record(is_write, length, elapsed_ms)
        return result

    # ------------------------------------------------------------------
    # public I/O
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at volume ``offset``."""
        return self._admitted(False, offset, length, None).tobytes()

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        """Write ``data`` at volume ``offset``."""
        buf = as_bytes_array(data)
        self._admitted(True, offset, buf.size, buf)

    def submit_read(self, offset: int, length: int) -> "Future[bytes]":
        """Queue a read on the service pool; returns its future."""
        return self._executor().submit(self.read, offset, length)

    def submit_write(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> "Future[None]":
        """Queue a write on the service pool; returns its future."""
        return self._executor().submit(self.write, offset, data)

    # ------------------------------------------------------------------
    # migration driver
    # ------------------------------------------------------------------
    def start_restripe(
        self,
        target: Sequence[ShardSpec] | None = None,
        extents_per_tick: int = 4,
        tick_delay: float = 0.0,
    ) -> Restriper:
        """Start (or resume, with ``target=None``) a migration on a
        background thread; foreground requests keep flowing."""
        if self._restripe_thread is not None:
            raise RuntimeError("a restripe driver is already running")
        restriper = Restriper(
            self.volume,
            target,
            extents_per_tick=extents_per_tick,
            tick_delay=tick_delay,
        )
        self._restriper = restriper
        self._restripe_error = None

        def _drive() -> None:
            try:
                restriper.run()
            except BaseException as exc:  # noqa: BLE001 - rethrown in join
                self._restripe_error = exc

        self._restripe_thread = threading.Thread(
            target=_drive, name="repro-restripe", daemon=True
        )
        self._restripe_thread.start()
        return restriper

    def join_restripe(self) -> RestripeStats | None:
        """Wait for the background migration (if any); returns its
        stats, re-raising any error it died with."""
        thread, self._restripe_thread = self._restripe_thread, None
        if thread is None:
            return None
        thread.join()
        error, self._restripe_error = self._restripe_error, None
        if error is not None:
            raise error
        restriper, self._restriper = self._restriper, None
        return restriper.stats if restriper else None

    @property
    def restriping(self) -> bool:
        """True while the background migration driver is running."""
        thread = self._restripe_thread
        return thread is not None and thread.is_alive()
