"""Stateful property test: the block service front door against a flat model.

Hypothesis drives one :class:`~repro.service.BlockService` — per-request
(batch size 0), inline batches of one (1) or dispatcher-composed batches
(4), over a TIP n=8 store with or without a write-back stripe cache —
through random sequences of synchronous reads and writes, bursts of
``enqueue``d requests awaited together, disk failures within the fault
budget, repair drains and cache flushes. The model is a plain byte
array: every read must return the model's bytes as they stood when the
read was *submitted* (the dispatcher may reorder a burst, but never two
requests sharing a stripe), and at teardown the closed, drained and
flushed array must scrub clean and read back as the model.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.codes import make_code
from repro.faults import RepairController, Scrubber
from repro.faults.inject import FailStopError
from repro.service import BlockService
from repro.store import ArrayStore

CHUNK = 64
STRIPES = 4
CODE = make_code("tip", 8)
CAPACITY = STRIPES * CODE.num_data * CHUNK
STRIPE_BYTES = CODE.num_data * CHUNK
JOIN_S = 60.0

offsets = st.one_of(
    st.integers(0, CAPACITY - 1),
    st.sampled_from(range(0, CAPACITY, STRIPE_BYTES)),
)
lengths = st.one_of(st.integers(1, 3 * CHUNK), st.integers(1, 2 * STRIPE_BYTES))
ops = st.tuples(st.booleans(), offsets, lengths)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="service-machine-")
        self.model = np.zeros(CAPACITY, dtype=np.uint8)
        self.store = self.repair = self.service = None
        self.writes = 0

    @initialize(batch_size=st.sampled_from([0, 1, 4]), cached=st.booleans())
    def open_service(self, batch_size, cached):
        self.store = ArrayStore(
            CODE, self.directory, stripes=STRIPES, chunk_bytes=CHUNK,
            cache_stripes=2 if cached else 0,
        )
        self.repair = RepairController(self.store)
        self.service = BlockService(
            self.store, repair=self.repair, batch_size=batch_size
        )

    def _payload(self, offset, length):
        """Distinct bytes per write, so a lost or misplaced one shows."""
        self.writes += 1
        length = min(length, CAPACITY - offset)
        return ((np.arange(length) + 7 * self.writes) % 251).astype(np.uint8)

    @rule(offset=offsets, length=lengths)
    def write(self, offset, length):
        payload = self._payload(offset, length)
        self.service.write(offset, payload)
        self.model[offset : offset + payload.size] = payload

    @rule(offset=offsets, length=lengths)
    def read(self, offset, length):
        length = min(length, CAPACITY - offset)
        got = self.service.read(offset, length)
        assert got == self.model[offset : offset + length].tobytes()

    @precondition(lambda self: self.service.batch_size > 0)
    @rule(burst=st.lists(ops, min_size=1, max_size=12))
    def enqueue_burst(self, burst):
        pending = []
        for is_write, offset, length in burst:
            if is_write:
                payload = self._payload(offset, length)
                future = self.service.enqueue(True, offset, payload)
                self.model[offset : offset + payload.size] = payload
                pending.append((future, None))
            else:
                length = min(length, CAPACITY - offset)
                future = self.service.enqueue(False, offset, length)
                expected = self.model[offset : offset + length].copy()
                pending.append((future, expected))
        for future, expected in pending:
            result = future.result(timeout=JOIN_S)
            if expected is None:
                assert result is None
            else:
                assert np.array_equal(result, expected)

    @precondition(lambda self: len(self.store.failed) < CODE.faults)
    @rule(disk=st.integers(0, CODE.cols - 1))
    def fail_disk(self, disk):
        """Fail a disk the way a fail-stop surfacing from a request
        does: through the repair controller, which restarts its
        rebuild. Nothing is in flight between rules."""
        if disk not in self.store.failed:
            assert self.repair.handle_fault(FailStopError(disk))

    @rule()
    def drain(self):
        self.service.drain_repair()
        assert not self.store.failed

    @rule()
    def flush(self):
        self.store.flush()

    def teardown(self):
        try:
            if self.service is not None:
                self.service.close()
                self.repair.drain()
                self.store.flush()
                report = Scrubber(self.store).run()
                assert report.errors_found == 0, report.summary()
                got = self.store.read_bytes(0, CAPACITY)
                assert np.array_equal(got, self.model)
        finally:
            if self.store is not None:
                self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
