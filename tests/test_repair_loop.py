"""End-to-end fault drill: replay under injected faults, repair online,
verify byte-exact recovery and cross-validate against ground truth.

The acceptance scenario of the faults subsystem: a seeded
:class:`FaultPlan` with two fail-stops, rate-based latent sector errors,
and a silent bit flip fires during :meth:`BlockDevice.replay` with an
attached :class:`RepairController`; afterwards every injected fault must
be accounted for (none left active), the classification must match the
injected ground truth, and the full device contents must be byte-exact
against an independently maintained reference model — for TIP and for a
baseline code family.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.faults import FaultPlan, RepairController, Scrubber
from repro.raid.blockdevice import BlockDevice, _payload
from repro.store import ArrayStore
from repro.traces.model import Trace, TraceRequest

CHUNK = 256
STRIPES = 8


def build_device(tmp_path, family, plan):
    store = ArrayStore(
        make_code(family, 6), tmp_path, stripes=STRIPES, chunk_bytes=CHUNK,
        fault_plan=plan,
    )
    return store, BlockDevice(store)


def drill_trace(capacity, seed=7, requests=160):
    """A deterministic mixed trace confined to the device capacity.

    The final quarter is read-only: the drill's bit flip is scheduled to
    mint in that window, so the scrubber — not a foreground
    read-modify-write — is what meets the corruption (a flip consumed by
    a parity RMW before detection is laundered into the stripe, the
    documented parity-pollution hazard).
    """
    rng = np.random.default_rng(seed)
    reqs = []
    write_window = int(requests * 0.75)
    for i in range(requests):
        offset = int(rng.integers(0, capacity // 512)) * 512
        length = min(int(rng.integers(1, 5)) * 512, capacity - offset)
        is_write = i < write_window and bool(rng.random() < 0.7)
        reqs.append(TraceRequest(float(i), offset, length, is_write))
    return Trace("drill", reqs)


def reference_model(device, trace):
    """Replay the trace against a plain byte array (the ground truth)."""
    model = np.zeros(device.capacity_bytes, dtype=np.uint8)
    for request in trace:
        offset, length = device._map_request(request)
        if request.is_write:
            model[offset : offset + length] = _payload(request, length)
    return model


#: Per-family bit-flip schedule: the flip must mint on a disk the trace's
#: read-only tail still touches, *after* both rebuilds have completed —
#: the ``at_op`` values were calibrated against the deterministic
#: per-disk span-I/O counts of this exact trace + fault schedule. With
#: rebuild writing back only the rebuilt disks, that window is ops
#: 335..358 of TIP's disk 3 and ops 281..339 of STAR's disk 0.
FLIP_SCHEDULE = {"tip": (3, 345), "star": (0, 320)}

#: Per-family op of disk 4's fail-stop, calibrated the same way. STAR
#: n=6 writes its 2- to 5-chunk runs by reconstruct-write, which writes
#: parity without reading it, so its parity disks see about 160 span
#: I/Os over the trace instead of about 380; fail-stops from op 70 to
#: 145 all keep the flip window above.
FAIL_STOP_AT = {"tip": 250, "star": 100}


@pytest.mark.parametrize("family", ["tip", "star"])
def test_full_drill_recovers_byte_exact(family, tmp_path):
    flip_disk, flip_at = FLIP_SCHEDULE[family]
    plan = (
        FaultPlan(seed=11)
        .fail_stop(disk=2, at_op=60)
        .fail_stop(disk=4, at_op=FAIL_STOP_AT[family])
        .latent(disk=1, rate=0.004)
        .bit_flip(disk=flip_disk, at_op=flip_at)
    )
    store, device = build_device(tmp_path, family, plan)
    repair = RepairController(store, max_chunks_per_tick=64)
    trace = drill_trace(device.capacity_bytes)
    model = reference_model(device, trace)

    result = device.replay(trace, repair=repair, scrub_every=5)

    # Every scheduled fault actually fired.
    assert plan.stats.fail_stops == 2
    assert plan.stats.flips_minted == 1
    assert plan.stats.latent_minted >= 1
    assert repair.stats.fail_stops_handled == 2
    # Overlapping failures may merge into one combined rebuild pass.
    assert repair.stats.rebuilds_completed >= 1
    assert result.repair is repair.stats
    assert not store.failed  # replay drains the rebuild before returning

    # A final full scrub pass leaves nothing to find or fix.
    repair.scrubber.reset()
    report = repair.scrubber.run()
    assert report.unfixable == 0

    # Ground truth: no injected fault is still active in the array.
    assert plan.active_latent() == set()
    assert plan.active_corruptions() == set()
    assert all(f.status != "active" for f in plan.injected)

    # Cross-validate classification against the injected record: the
    # flip either died with a replaced disk / an overwrite, or the
    # scrubber located it on exactly the right disk.
    flip = next(f for f in plan.injected if f.kind == "bit_flip")
    if flip.status == "repaired":
        located = [
            f
            for f in repair.scrubber.report.findings
            if f.kind == "corruption" and f.fixed
        ]
        assert any(
            f.disk == flip.disk
            and f.stripe == flip.lba // store.code.rows
            for f in located
        )

    # Byte-exact read-back with the injector detached: repair must have
    # restored the *contents*, not merely silenced the errors.
    store.set_fault_plan(None)
    assert store.scrub() == []
    got = np.asarray(store.read_bytes(0, device.capacity_bytes)).reshape(-1)
    assert np.array_equal(got, model)


def test_second_failure_during_rebuild_restarts_cursor(tmp_path):
    plan = (
        FaultPlan(seed=3)
        .fail_stop(disk=0, at_op=40)
        .fail_stop(disk=5, at_op=140)
    )
    store, device = build_device(tmp_path, "tip", plan)
    repair = RepairController(store, max_chunks_per_tick=40)
    trace = drill_trace(device.capacity_bytes, seed=5, requests=120)
    model = reference_model(device, trace)
    device.replay(trace, repair=repair, scrub_every=3)
    assert repair.stats.fail_stops_handled == 2
    assert not store.failed
    store.set_fault_plan(None)
    assert store.scrub() == []
    got = np.asarray(store.read_bytes(0, device.capacity_bytes)).reshape(-1)
    assert np.array_equal(got, model)


def test_latent_error_mid_rebuild_does_not_lose_dirty_stripes(tmp_path):
    """Regression: a latent error minted by the rebuild's own reads used
    to abandon the not-yet-re-rebuilt dirty stripes, so finalization
    cleared the failure set over stale reconstructed columns."""
    plan = (
        FaultPlan(seed=7)
        .fail_stop(disk=2, at_op=80)
        .latent(disk=1, rate=0.005)
        .bit_flip(disk=3, at_op=25)
    )
    store, device = build_device(tmp_path, "tip", plan)
    repair = RepairController(store)
    from repro.traces import generate_trace

    trace = generate_trace("src2_0", requests=200, seed=42)
    device.replay(trace, repair=repair, scrub_every=20)
    repair.scrubber.reset()
    report = repair.scrubber.run()
    assert report.unfixable == 0
    assert plan.active_latent() == set()
    store.set_fault_plan(None)
    assert store.scrub() == []


def test_transient_faults_only_cost_retries(tmp_path):
    plan = FaultPlan(seed=2, max_retries=1).transient(disk=1, rate=0.05)
    store, device = build_device(tmp_path, "tip", plan)
    repair = RepairController(store)
    trace = drill_trace(device.capacity_bytes, seed=9, requests=80)
    model = reference_model(device, trace)
    result = device.replay(trace, repair=repair)
    assert repair.stats.fail_stops_handled == 0
    assert repair.stats.stripes_rebuilt == 0
    if repair.stats.transient_handled:
        assert result.retried_requests >= repair.stats.transient_handled
    store.set_fault_plan(None)
    got = np.asarray(store.read_bytes(0, device.capacity_bytes)).reshape(-1)
    assert np.array_equal(got, model)


@pytest.mark.parametrize("fail_disk", [0, 3])
def test_journal_rolls_forward_interrupted_write(fail_disk, tmp_path):
    """Sweep a fail-stop across every span I/O of a small write and check
    the journal always closes the write hole: whatever the interruption
    point (read phase, between data and parity, mid parity fan-out), the
    recovered array is consistent and carries the new payload."""
    from repro.faults import FailStopError

    rng = np.random.default_rng(0)
    interrupted_at_least_once = False
    for at_op in range(1, 14):
        store = ArrayStore(
            make_code("tip", 6),
            tmp_path / f"d{fail_disk}_{at_op}",
            stripes=4,
            chunk_bytes=CHUNK,
        )
        cap = store.capacity_chunks * CHUNK
        base = rng.integers(0, 256, cap, dtype=np.uint8)
        store.write_bytes(0, base)
        model = np.array(base)

        plan = FaultPlan(seed=0).fail_stop(disk=fail_disk, at_op=at_op)
        store.set_fault_plan(plan)
        payload = rng.integers(0, 256, 2 * CHUNK, dtype=np.uint8)
        offset = 5 * CHUNK
        try:
            store.write_bytes(offset, payload)
        except FailStopError as exc:
            interrupted_at_least_once = True
            repair = RepairController(store)
            assert repair.handle_fault(exc)
            store.write_bytes(offset, payload)  # the foreground retry
            repair.drain()
        model[offset : offset + payload.size] = payload
        assert not store.failed
        store.set_fault_plan(None)
        assert store.scrub() == [], (fail_disk, at_op)
        got = np.asarray(store.read_bytes(0, cap)).reshape(-1)
        assert np.array_equal(got, model), (fail_disk, at_op)
        store.close()
    assert interrupted_at_least_once


def test_repair_stats_account_rebuild_io(tmp_path):
    plan = FaultPlan(seed=1).fail_stop(disk=3, at_op=30)
    store, device = build_device(tmp_path, "tip", plan)
    repair = RepairController(store, max_chunks_per_tick=32)
    trace = drill_trace(device.capacity_bytes, seed=1, requests=60)
    device.replay(trace, repair=repair, scrub_every=4)
    assert repair.stats.rebuilds_completed >= 1
    assert repair.stats.stripes_rebuilt >= STRIPES
    assert repair.stats.rebuild_io.total_chunks > 0


def test_scrubber_shared_with_controller(tmp_path):
    store = ArrayStore(
        make_code("tip", 6), tmp_path, stripes=4, chunk_bytes=CHUNK,
    )
    scrubber = Scrubber(store, batch_stripes=2)
    repair = RepairController(store, scrubber=scrubber)
    assert repair.scrubber is scrubber
    assert repair.stripes_per_tick >= 1
