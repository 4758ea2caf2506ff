"""Stateful property test: the ArrayStore against an in-memory model.

Hypothesis drives random sequences of chunk and unaligned byte writes
and reads (crossing stripes), batches, disk failures and rebuilds; the
store must always agree with a plain numpy reference array, regardless
of interleaving — including reads and writes issued while the array is
degraded.

Every request and batch runs as passes of the store's one plan
executor, so each is also held to its plan: its ``IoCounters`` move by
exactly the planned chunk counts, and its backing-file syscalls by
exactly the passes' planned span count.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.codes import make_code
from repro.store import ArrayStore

CHUNK = 64
STRIPES = 3

#: One request of a batch, ``(is_write, offset, length)``: the offset
#: wraps into the store and the length is clamped to its end.
REQUEST = st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 700))


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="store-machine-")
        self.code = make_code("tip", 6)
        self.store = ArrayStore(
            self.code, self.directory, stripes=STRIPES, chunk_bytes=CHUNK
        )
        self.model = np.zeros(
            (self.store.capacity_chunks, CHUNK), dtype=np.uint8
        )
        self.counter = 0
        #: The last operation's plan and the counters it moved.
        self.metered = None

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def _clamp(self, offset, length):
        capacity = self.store.capacity_bytes
        offset %= capacity
        return offset, min(length, capacity - offset)

    def _payload(self, length):
        self.counter += 1
        return np.random.default_rng(self.counter).integers(
            0, 256, length, dtype=np.uint8
        )

    def _run(self, ops, execute):
        """Run ``execute()`` for the requests ``ops`` and keep its plan
        and counter deltas for :meth:`counters_match_the_plan`."""
        store = self.store
        plan = store.planner.plan_batch(
            [(w, off, p.size if w else p) for w, off, p in ops],
            tuple(sorted(store.failed)),
        )
        io, calls = store.io.snapshot(), store.syscalls.snapshot()
        result = execute()
        self.metered = (plan, store.io - io, (store.syscalls - calls).total)
        return result

    @rule(
        start=st.integers(0, 35),
        count=st.integers(1, 12),
    )
    def write(self, start, count):
        capacity = self.store.capacity_chunks
        start = min(start, capacity - 1)
        count = min(count, capacity - start)
        self.counter += 1
        data = np.full((count, CHUNK), self.counter % 256, dtype=np.uint8)
        data[:, 0] = np.arange(count, dtype=np.uint8)
        self._run(
            [(True, start * CHUNK, data.reshape(-1))],
            lambda: self.store.write_chunks(start, data),
        )
        self.model[start: start + count] = data

    @rule(start=st.integers(0, 35), count=st.integers(1, 12))
    def read(self, start, count):
        capacity = self.store.capacity_chunks
        start = min(start, capacity - 1)
        count = min(count, capacity - start)
        got = self._run(
            [(False, start * CHUNK, count * CHUNK)],
            lambda: self.store.read_chunks(start, count),
        )
        assert np.array_equal(got, self.model[start: start + count])

    @rule(offset=st.integers(0, 10**6), length=st.integers(1, 1200))
    def write_bytes(self, offset, length):
        offset, length = self._clamp(offset, length)
        payload = self._payload(length)
        self._run(
            [(True, offset, payload)],
            lambda: self.store.write_bytes(offset, payload),
        )
        self.model.reshape(-1)[offset: offset + length] = payload

    @rule(offset=st.integers(0, 10**6), length=st.integers(1, 1200))
    def read_bytes(self, offset, length):
        offset, length = self._clamp(offset, length)
        got = self._run(
            [(False, offset, length)],
            lambda: self.store.read_bytes(offset, length),
        )
        assert np.array_equal(
            got, self.model.reshape(-1)[offset: offset + length]
        )

    @rule(requests=st.lists(REQUEST, min_size=2, max_size=4))
    def batch(self, requests):
        ops = []
        for is_write, offset, length in requests:
            offset, length = self._clamp(offset, length)
            ops.append(
                (is_write, offset, self._payload(length) if is_write else length)
            )
        results = self._run(ops, lambda: self.store.execute_batch(ops))
        flat = self.model.reshape(-1)
        for (is_write, offset, payload), result in zip(ops, results):
            if is_write:
                assert result is None
                flat[offset: offset + payload.size] = payload
            else:
                assert np.array_equal(result, flat[offset: offset + payload])

    @precondition(lambda self: len(self.store.failed) < 3)
    @rule(disk=st.integers(0, 5))
    def fail_disk(self, disk):
        if disk in self.store.failed:
            return
        self.store.fail_disk(disk)

    @precondition(lambda self: self.store.failed)
    @rule()
    def rebuild(self):
        self.store.rebuild()
        assert self.store.failed == set()
        assert self.store.scrub() == []

    @invariant()
    def counters_match_the_plan(self):
        if self.metered is None:
            return
        plan, io, syscalls = self.metered
        self.metered = None
        counts = plan.counts
        assert (
            io.data_chunks_read, io.parity_chunks_read,
            io.data_chunks_written, io.parity_chunks_written,
        ) == (
            counts.data_chunks_read, counts.parity_chunks_read,
            counts.data_chunks_written, counts.parity_chunks_written,
        )
        assert syscalls == plan.span_ios

    @invariant()
    def data_always_readable(self):
        sample = self.store.read_chunks(0, 4)
        assert np.array_equal(sample, self.model[:4])


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=12, stateful_step_count=18, deadline=None
)
