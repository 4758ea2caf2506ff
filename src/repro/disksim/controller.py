"""RAID controller: trace requests to per-disk element I/O plans.

A thin front-end over the shared planning layer of :mod:`repro.raid` —
the address mapping (:class:`repro.raid.ArrayMapping`) and the write-path
model (:class:`repro.raid.RequestPlanner`) are the *same objects* the
file-backed :class:`repro.store.ArrayStore` executes, so the plans this
controller prices in the simulator and the chunk I/Os the store meters
against real files agree element for element (see
``tests/test_raid_plan_vs_store.py``).

Strategies: ``"rmw"`` (read-modify-write, the paper's response-time
model and the default), ``"rcw"`` (reconstruct-write), ``"auto"``
(cheaper of the two per run) — plus the executable strategies
(``"delta"``, ``"delta-always"``, ``"stripe"``) matching the store's
``write_mode``\\ s for plan-vs-measured cross-validation, and
``"cached"``, which mirrors a write-back-cached store
(:mod:`repro.raid.cache`) request for request via a shadow cache. Degraded-mode
reads expand to the survivors of the recovery schedule; writes to failed
disks are dropped, as in a real array.
"""

from __future__ import annotations

from repro.codes.base import ArrayCode
from repro.raid.planner import ElementIO, RequestPlan, RequestPlanner
from repro.traces.model import TraceRequest

__all__ = ["ElementIO", "RequestPlan", "RaidController"]


class RaidController:
    """Maps logical byte requests onto element I/Os for one array code.

    Args:
        code: the erasure code striping this array.
        chunk_bytes: stripe-unit size (8 KB in the paper's configuration).
        write_strategy: any of :data:`repro.raid.WRITE_STRATEGIES`
            (default ``"rmw"``, the paper's model).
        cache_stripes: write-back cache capacity modelled by the
            ``"cached"`` strategy (ignored by every other strategy).
    """

    def __init__(
        self,
        code: ArrayCode,
        chunk_bytes: int = 8 * 1024,
        write_strategy: str = "rmw",
        cache_stripes: int = 8,
    ) -> None:
        self.planner = RequestPlanner(
            code, chunk_bytes, write_strategy=write_strategy,
            cache_stripes=cache_stripes,
        )
        self.code = code
        self.chunk_bytes = chunk_bytes
        self.write_strategy = write_strategy

    def plan(
        self, request: TraceRequest, failed: tuple[int, ...] = ()
    ) -> RequestPlan:
        """Build the element I/O plan for one trace request.

        Args:
            request: the logical request.
            failed: currently failed disks; their I/Os are redirected
                (reads become survivor reads per the recovery schedule,
                writes to failed disks are dropped).
        """
        return self.planner.plan(request, failed)
