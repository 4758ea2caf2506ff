"""The volume front-end: many callers, many arrays, one byte space.

:class:`VolumeService` is to a :class:`~repro.volume.VolumeManager` what
:class:`~repro.service.BlockService` is to one
:class:`~repro.store.ArrayStore` — the admission and threading layer.
The volume owns correctness (extent routing, journal ordering) for one
caller at a time and takes no locks; the service decides *who runs
when*, so that one request at a time is all the volume ever sees:

* **flat combining.** Every request — a read, a write, a restripe tick —
  joins one FIFO :class:`~repro.service.locks.CombiningQueue`, the
  queue :class:`~repro.service.BlockService` runs from too. A caller
  that finds no *combiner* (the thread currently running queued
  requests) becomes it and runs the queue in arrival order on its own
  thread; every other caller sleeps until its request has run. At most
  one request executes in the volume, no wake-up sits between two
  requests, rounds are bounded, and a request's ``Exception`` is raised
  in its own caller only (the queue's docstring states the rules).
* **a background migration driver.** :meth:`start_restripe` builds a
  :class:`~repro.volume.Restriper` as one queued request (its
  constructor mounts the target shards and rewrites ``volume.json``)
  and runs it on its own thread, which submits every tick and the final
  layout swap through the same queue while request threads keep
  flowing. A tick runs alone in the volume, so
  :attr:`RestripeStats.io <repro.volume.RestripeStats.io>` counts the
  migration's own I/O only, and a foreground request waits for at most
  the tick ahead of it: ``extents_per_tick`` bounds that stall.

With one request at a time every journal commit is quiescent, and the
shared :class:`~repro.store.IntentJournal` checkpoints at its
group-commit boundaries.

Stats reuse :class:`~repro.service.ServiceStats` (queue-to-completion
latency per request, recorded inside the queued call, p50/p99 via the
shared nearest-rank :func:`~repro.service.percentile`). Once
:meth:`VolumeService.close` has begun, every new request raises
``RuntimeError``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro._util import as_bytes_array
from repro.service.locks import CombiningQueue, QueuedCall
from repro.service.scheduler import ServiceStats
from repro.volume.manager import ShardSpec, VolumeManager
from repro.volume.restripe import Restriper, RestripeStats

__all__ = ["VolumeService"]


class VolumeService:
    """Flat-combining request front-end over an elastic volume.

    Args:
        volume: the :class:`~repro.volume.VolumeManager` to serve.
            Closing the service closes the volume.
        workers: threads in the request pool behind :meth:`submit_read`
            / :meth:`submit_write`. Synchronous :meth:`read` /
            :meth:`write` queue from the caller's thread, and run there
            or on whichever caller is combining.
    """

    def __init__(self, volume: VolumeManager, *, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.volume = volume
        self.workers = workers
        self.stats = ServiceStats()
        #: Runs every request and restripe step, one at a time.
        self._combiner = CombiningQueue()
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
        """Drain requests and any migration, then close the volume.

        New requests raise ``RuntimeError`` from here on. The volume's
        close is queued behind every request already waiting, so those
        run first, and it runs even when the migration driver died; the
        driver's error is raised afterwards.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        try:
            self.join_restripe()
        finally:
            self._execute(self.volume.close)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the volume service is closed")

    def __enter__(self) -> "VolumeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # flat combining
    # ------------------------------------------------------------------
    def _permit(self, request: QueuedCall) -> threading.Lock:
        """Queue ``request``; returns the gate its caller acquires to
        wait for its turn.

        The gate opens once the request has run, or with
        ``request.leads`` set when the caller is to combine: at once if
        no combiner is active, else when the last one hands over.
        """
        return self._combiner.permit(request)

    def _execute(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` as one queued request; returns its result or
        raises what it raised."""
        request = QueuedCall(call)
        self._permit(request).acquire()
        if request.leads:
            self._combiner.combine(request)
        return request.outcome()

    def _timed(
        self, is_write: bool, length: int, method: Callable[..., Any], *args
    ) -> Any:
        """One foreground request: queued, run, and recorded in stats
        from admission to completion, inside the queued call."""
        started = time.perf_counter()

        def call():
            result = method(*args)
            self.stats.record(
                is_write, length, (time.perf_counter() - started) * 1e3
            )
            return result

        return self._execute(call)

    def _read(self, offset: int, length: int) -> bytes:
        return self._timed(
            False, length, self.volume.read_bytes, offset, length
        ).tobytes()

    def _write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        buf = as_bytes_array(data)
        self._timed(True, buf.size, self.volume.write_bytes, offset, buf)

    # ------------------------------------------------------------------
    # public I/O
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at volume ``offset``."""
        self._check_open()
        return self._read(offset, length)

    def write(self, offset: int, data: bytes | bytearray | np.ndarray) -> None:
        """Write ``data`` at volume ``offset``."""
        self._check_open()
        self._write(offset, data)

    def submit_read(self, offset: int, length: int) -> "Future[bytes]":
        """Queue a read on the service pool; returns its future. A
        request queued before :meth:`close` still runs."""
        self._check_open()
        return self._executor().submit(self._read, offset, length)

    def submit_write(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> "Future[None]":
        """Queue a write on the service pool; returns its future. A
        request queued before :meth:`close` still runs."""
        self._check_open()
        return self._executor().submit(self._write, offset, data)

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
        background thread; foreground requests keep flowing. Building
        the :class:`~repro.volume.Restriper`, each tick and the final
        swap each run as one queued request."""
        self._check_open()
        if self._restripe_thread is not None:
            raise RuntimeError("a restripe driver is already running")
        restriper = self._execute(partial(
            Restriper,
            self.volume,
            target,
            extents_per_tick=extents_per_tick,
            tick_delay=tick_delay,
        ))
        self._restriper = restriper
        self._restripe_error = None

        def _drive() -> None:
            try:
                while not restriper.done:
                    self._execute(restriper.tick)
                    if tick_delay and not restriper.done:
                        time.sleep(tick_delay)
                self._execute(restriper.finish)
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
