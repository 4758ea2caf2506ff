"""The store's equivalence suites again, with the C kernel switched off.

Every encode and decode then runs ``CompiledPlan.run_numpy``, the path a
host without a C compiler takes. The suites are collected here a second
time under an autouse fixture that replaces the loaded kernel with
``None``, as a failed build would leave it.
"""

import pytest

from repro.bitmatrix import kernel
from tests.test_raid_plan_vs_store import (
    TestAggregateConsistency,
    TestBatchedExecutionEquivalence,
    TestCachedStrategy,
    TestDegradedArray,
    TestHealthyArray,
    TestPropertyStyle,
    TestReconstructWrite,
)
from tests.test_stripe_transactions import (
    TestCompactionDurability,
    TestCrashSweep,
    TestInProcessRollForward,
    TestJournalBytes,
    TestPartialTransfers,
    TestRecordIdentity,
)
from tests.test_triple_repair_path import TestRebuildWriteBack
from tests.test_wide_write import (
    TestCachedBypass,
    TestOracleEquivalence,
    TestRestripeInFlight,
    TestVolumeCrashSweep,
)

# Re-exported so the suites are collected here as well.
__all__ = [
    "TestAggregateConsistency",
    "TestBatchedExecutionEquivalence",
    "TestCachedBypass",
    "TestCachedStrategy",
    "TestCompactionDurability",
    "TestCrashSweep",
    "TestDegradedArray",
    "TestHealthyArray",
    "TestInProcessRollForward",
    "TestJournalBytes",
    "TestOracleEquivalence",
    "TestPartialTransfers",
    "TestPropertyStyle",
    "TestRebuildWriteBack",
    "TestReconstructWrite",
    "TestRecordIdentity",
    "TestRestripeInFlight",
    "TestVolumeCrashSweep",
]


@pytest.fixture(autouse=True)
def numpy_fallback(monkeypatch):
    """Unload the kernel for the test: plans run their numpy executor."""
    monkeypatch.setattr(kernel, "XOR_PLAN", None)


def test_the_fixture_unloads_the_kernel():
    assert kernel.XOR_PLAN is None
