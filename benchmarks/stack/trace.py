"""Outside-in span recorder: per-layer self time without touching ``src/``.

Under ``--trace`` the benchmark replaces the public entry points of each
request-path layer with timing wrappers at class (or module) level, runs
the timed phase, and puts the originals back. Every wrapped call is a
span: its layer, start, end and the span that was open on the same
thread when it began (its parent). A layer's *self time* is the duration
of its spans minus the time their child spans cover, so the layers of
one request add up to the request itself and nothing is counted twice.

Spans live in compact per-thread arrays and are rolled up after the
phase, when the clock has stopped.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence

#: A finished span as the roll-up functions take it:
#: ``(layer, start_s, end_s, parent_index)``, parent -1 for a root.
Span = tuple[str, float, float, int]


class Entry(NamedTuple):
    """Calls to wrap: ``owner.<name>`` for each name, as spans of ``layer``.

    ``owner`` is a class (the wrapper sits on the class, so every
    instance is traced) or the ``os`` module. With ``acquire`` the call
    returns a lock context manager or a semaphore and only entering or
    acquiring it is timed; the held section belongs to the caller.
    ``nbytes`` measures, from the call's arguments, the bytes it moves.
    """

    layer: str
    owner: object
    names: tuple[str, ...]
    acquire: bool = False
    nbytes: Callable[[tuple], int] | None = None


def entry_points() -> list[Entry]:
    """The public entry points of every request-path layer.

    Two private names have no public equivalent: ``BlockService.
    _dispatch`` is the per-batch unit the batching dispatcher thread
    runs, and ``VolumeService._permit`` hands out the per-shard
    admission semaphore.
    """
    from repro.codes.base import ArrayCode, Decoder
    from repro.faults.repair import RepairController
    from repro.raid.cache import StripeCache
    from repro.raid.planner import RequestPlanner
    from repro.service import BlockService, VolumeService
    from repro.service.locks import ArrayRWLock, FifoSemaphore, StripeLockManager
    from repro.store import ArrayStore, IntentJournal
    from repro.volume import VolumeManager

    def grid_bytes(args: tuple) -> int:
        return args[1].nbytes

    return [
        Entry("service", BlockService, ("read", "write", "enqueue", "_dispatch")),
        Entry("service", VolumeService, ("read", "write")),
        Entry("service.admission", FifoSemaphore, ("acquire",)),
        Entry("service.admission", VolumeService, ("_permit",), acquire=True),
        Entry("service.lock", ArrayRWLock, ("acquire_shared", "acquire_exclusive")),
        Entry("service.lock", StripeLockManager, ("locked",), acquire=True),
        Entry("volume", VolumeManager, ("read_bytes", "write_bytes")),
        Entry("store", ArrayStore, (
            "read_bytes", "write_bytes", "execute_batch", "read_element",
            "write_element", "fail_disk", "rebuild_stripes",
        )),
        Entry("journal", IntentJournal, ("log",),
              nbytes=lambda args: len(args[1].payload)),
        Entry("journal", IntentJournal, ("seal", "commit")),
        Entry("planner", RequestPlanner, (
            "plan_write_run", "plan_read_run", "plan_batch",
        )),
        Entry("cache", StripeCache, ("read", "write", "apply_batch", "flush", "drop")),
        Entry("codes.encode", ArrayCode, ("encode",), nbytes=grid_bytes),
        Entry("codes.decode", Decoder, ("decode_columns",), nbytes=grid_bytes),
        Entry("repair", RepairController, ("tick", "drain", "handle_fault")),
        Entry("os.read", os, ("pread", "preadv")),
        Entry("os.write", os, ("pwrite", "pwritev")),
        Entry("os.fsync", os, ("fsync",)),
    ]


class _Track:
    """One thread's spans, in start order, plus its open-span stack."""

    __slots__ = ("layer", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []

    def spans(self, layers: Sequence[str]) -> list[Span]:
        return [
            (layers[layer], start, end, parent)
            for layer, start, end, parent in zip(
                self.layer, self.start, self.end, self.parent
            )
        ]


class SpanRecorder:
    """Installs timing wrappers and collects their spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tracks: dict[int, _Track] = {}
        self._tracks_lock = threading.Lock()
        self._layers: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        #: Bytes moved per layer, for the wrappers given a byte measure.
        self.nbytes: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _track(self) -> _Track:
        track = getattr(self._local, "track", None)
        if track is None:
            track = self._local.track = _Track()
            with self._tracks_lock:
                self._tracks[threading.get_ident()] = track
        return track

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layers:
            self._layers.append(layer)
        return self._layers.index(layer)

    def _open(self, layer_id: int) -> tuple[_Track, int]:
        track = self._track()
        index = len(track.start)
        track.layer.append(layer_id)
        track.parent.append(track.stack[-1] if track.stack else -1)
        track.end.append(0.0)
        track.stack.append(index)
        track.start.append(time.perf_counter())
        return track, index

    @staticmethod
    def _close(track: _Track, index: int) -> None:
        track.end[index] = time.perf_counter()
        track.stack.pop()

    def wrap(
        self, layer: str, fn: Callable, measure: Callable | None = None
    ) -> Callable:
        """``fn`` timed as a span of ``layer``; ``measure(args)`` adds
        the bytes each call moves to :attr:`nbytes`."""
        layer_id = self._layer_id(layer)
        open_, close, nbytes = self._open, self._close, self.nbytes

        def traced(*args, **kwargs):
            if measure is not None:
                nbytes[layer] += measure(args)
            track, index = open_(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(track, index)

        return traced

    def wrap_acquire(self, layer: str, fn: Callable) -> Callable:
        """Time only the *entering* of the context manager ``fn`` returns
        (lock acquisition), or every ``acquire`` of the semaphore it
        returns; the held section belongs to the caller's layer."""
        timed = self.wrap(layer, lambda target: target())

        class _TimedEnter:
            __slots__ = ("_inner",)

            def __init__(self, inner) -> None:
                self._inner = inner

            def __enter__(self):
                return timed(self._inner.__enter__)

            def __exit__(self, *exc_info):
                return self._inner.__exit__(*exc_info)

            def acquire(self, *args):
                return timed(lambda: self._inner.acquire(*args))

            def release(self):
                return self._inner.release()

        def traced(*args, **kwargs):
            return _TimedEnter(fn(*args, **kwargs))

        return traced

    def install(self, entries: Iterable[Entry]) -> None:
        """Replace every entry point with its traced wrapper."""
        for entry in entries:
            for name in entry.names:
                # The class's own attribute: KeyError if it is only
                # inherited, so a renamed entry point fails loudly
                # instead of going untraced.
                original = (
                    entry.owner.__dict__[name] if isinstance(entry.owner, type)
                    else getattr(entry.owner, name)
                )
                wrapper = (
                    self.wrap_acquire(entry.layer, original) if entry.acquire
                    else self.wrap(entry.layer, original, entry.nbytes)
                )
                setattr(entry.owner, name, wrapper)
                self._installed.append((entry.owner, name, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def spans(self, thread_ids: Iterable[int] | None = None) -> list[list[Span]]:
        """Finished spans, one list per thread (all threads by default)."""
        with self._tracks_lock:
            tracks = dict(self._tracks)
        wanted = tracks if thread_ids is None else {
            ident: tracks[ident] for ident in thread_ids if ident in tracks
        }
        return [track.spans(self._layers) for track in wanted.values()]


def self_times(threads: Iterable[Sequence[Span]]) -> dict[str, float]:
    """Seconds of self time per layer over every thread's spans.

    Spans of one thread nest strictly, so the part of a span its
    children cover is the sum of their durations.
    """
    totals: dict[str, float] = defaultdict(float)
    for spans in threads:
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (layer, start, end, _), child in zip(spans, covered):
            totals[layer] += end - start - child
    return dict(totals)


def inclusive_times(threads: Iterable[Sequence[Span]]) -> dict[str, float]:
    """Seconds per layer counting each layer's outermost spans whole."""
    totals: dict[str, float] = defaultdict(float)
    for spans in threads:
        for layer, start, end, parent in spans:
            if parent < 0 or spans[parent][0] != layer:
                totals[layer] += end - start
    return dict(totals)


def call_counts(threads: Iterable[Sequence[Span]]) -> dict[str, int]:
    """Spans per layer."""
    counts: dict[str, int] = defaultdict(int)
    for spans in threads:
        for layer, *_ in spans:
            counts[layer] += 1
    return dict(counts)


def attributed_time(
    threads: Iterable[Sequence[Span]], since: float, until: float
) -> float:
    """Seconds inside any span between ``since`` and ``until``: the sum
    of the root spans' durations there, which equals the sum of every
    span's self time."""
    return sum(
        min(end, until) - max(start, since)
        for spans in threads
        for _, start, end, parent in spans
        if parent < 0 and start < until and end > since
    )
