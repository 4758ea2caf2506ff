"""Deterministic fault injection at the disk-span I/O boundary.

The unit of injection is one *span I/O*: every read or write the store
issues against a backing file passes through
:class:`FaultyDiskBackend`, which consults a :class:`FaultPlan` before
touching the bytes. Four failure modes are modeled, matching the mixed
failure model of the SD-codes line of work (whole-disk loss combined
with sector-level defects):

* **fail-stop** — the disk stops answering: every subsequent I/O raises
  :class:`FailStopError` until :meth:`FaultPlan.replace_disk` models a
  drive swap;
* **latent sector error** — a specific chunk becomes unreadable
  (:class:`LatentSectorError` on any read covering it); a write to the
  chunk remaps the sector and clears the error, exactly like a real
  drive's reallocation;
* **silent bit-flip corruption** — the *stored* bytes of a chunk are
  flipped without any error: reads succeed and return wrong data until a
  scrub locates the damage through the parity syndromes;
* **transient I/O error** — the operation fails but an immediate retry
  succeeds; the backend retries internally up to
  :attr:`FaultPlan.max_retries` times before surfacing
  :class:`TransientIOError`.

Every rule is deterministic: triggers are either positional (the disk's
``at_op``-th span I/O), rate-based (a per-chunk Bernoulli draw from the
plan's seeded RNG), or contextual (``during="rebuild"`` fires only
inside :meth:`FaultPlan.phase`), so a seeded plan replayed against the
same request sequence injects byte-identical faults. The plan records
every injected fault in :attr:`FaultPlan.injected` as ground truth for
cross-validating what the scrubber later detects.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterator

__all__ = [
    "FaultError",
    "FailStopError",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "FaultyDiskBackend",
    "InjectedFault",
    "LatentSectorError",
    "TransientIOError",
    "retry_faults",
]

logger = logging.getLogger(__name__)

#: Valid ``FaultRule.kind`` values.
FAULT_KINDS = ("fail_stop", "latent", "bit_flip", "transient")


class FaultError(IOError):
    """Base class of all injected I/O failures."""

    def __init__(self, disk: int, message: str) -> None:
        super().__init__(message)
        self.disk = disk


class FailStopError(FaultError):
    """The disk has fail-stopped: no I/O succeeds until it is replaced."""

    def __init__(self, disk: int) -> None:
        super().__init__(disk, f"disk {disk} fail-stopped")


class LatentSectorError(FaultError):
    """A read covered an unreadable chunk (``lba`` is a chunk LBA)."""

    def __init__(self, disk: int, lba: int) -> None:
        super().__init__(
            disk, f"latent sector error on disk {disk} chunk {lba}"
        )
        self.lba = lba


class TransientIOError(FaultError):
    """An I/O failed transiently and exhausted the internal retries."""

    def __init__(self, disk: int) -> None:
        super().__init__(disk, f"transient I/O error on disk {disk}")


#: Attempts :func:`retry_faults` makes before giving up: every retry
#: follows a state-changing repair (disk replaced, stripe fixed), so the
#: cap only guards against a pathological fault plan.
MAX_ATTEMPTS = 6


def retry_faults(
    attempt: Callable[..., object],
    handle_fault: Callable[[FaultError], bool] | None,
    what: object,
    *args: object,
) -> object:
    """Return ``attempt(*args)``, repairing and retrying injected faults.

    Each :class:`FaultError` goes to ``handle_fault``; when it returns
    True the fault was dealt with (disk replaced, stripe repaired,
    journal rolled forward) and the attempt runs again. Without a
    handler, or when it declines, the fault propagates unchanged. After
    :data:`MAX_ATTEMPTS` faulting attempts an ``IOError`` naming
    ``str(what)`` is raised, chained to the last fault: the cap firing
    is a symptom, the root cause is whatever kept faulting after repair.
    """
    last_fault = None
    for _ in range(MAX_ATTEMPTS):
        try:
            return attempt(*args)
        except FaultError as exc:
            if handle_fault is None or not handle_fault(exc):
                raise
            last_fault = exc
    raise IOError(
        f"{what} still faulting after {MAX_ATTEMPTS} repair-and-retry "
        "attempts"
    ) from last_fault


@dataclass
class FaultRule:
    """One injection rule.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        disk: the disk the rule applies to.
        rate: per-chunk (latent/bit_flip) or per-op (transient)
            Bernoulli probability; 0 makes the rule trigger-based.
        at_op: fire on the disk's ``at_op``-th span I/O (1-based).
            Trigger-based rules with no ``at_op`` fire on the first
            qualifying access.
        lba: restrict to one chunk LBA or an inclusive ``(lo, hi)``
            range; for trigger-based latent/bit_flip rules this is also
            where the fault is minted.
        during: only fire inside a matching :meth:`FaultPlan.phase`
            (e.g. ``"rebuild"``); ``None`` fires in any context.
        count: maximum number of faults this rule mints (``None`` =
            unlimited for rate rules; trigger-based rules always fire
            once).
    """

    kind: str
    disk: int
    rate: float = 0.0
    at_op: int | None = None
    lba: int | tuple[int, int] | None = None
    during: str | None = None
    count: int | None = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.disk < 0:
            raise ValueError("disk must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.at_op is not None and self.at_op < 1:
            raise ValueError("at_op is 1-based; must be >= 1")
        if self.rate == 0.0 and self.at_op is None:
            # Trigger-based rule with no explicit position: fire on the
            # first qualifying access.
            self.at_op = 1
        if self.kind == "transient" and self.rate == 0.0:
            raise ValueError("transient rules need a rate > 0")

    def lba_range(self) -> tuple[int, int] | None:
        """The rule's inclusive chunk-LBA window, or None for any."""
        if self.lba is None:
            return None
        if isinstance(self.lba, tuple):
            return self.lba
        return (self.lba, self.lba)

    def matches_context(self, context: str | None) -> bool:
        """True when the rule may fire in the plan's current phase."""
        return self.during is None or self.during == context

    def exhausted(self) -> bool:
        """True when the rule has minted its full quota of faults."""
        if self.rate == 0.0:
            return self.fired >= 1
        return self.count is not None and self.fired >= self.count


@dataclass
class InjectedFault:
    """Ground-truth record of one injected fault.

    ``status`` tracks the fault's afterlife: ``active`` (still latent in
    the array), ``repaired`` (the chunk was rewritten — by the scrubber
    or by a foreground write that read-modified it), ``overwritten``
    (a write replaced the corrupted contents before any detection), or
    ``lost`` (the whole disk was replaced, taking the fault with it).
    """

    kind: str
    disk: int
    lba: int | None
    op: int
    status: str = "active"


@dataclass
class FaultStats:
    """Counters of what the plan actually did."""

    ops: int = 0
    fail_stops: int = 0
    latent_minted: int = 0
    latent_raised: int = 0
    flips_minted: int = 0
    transient_raised: int = 0
    transient_retries: int = 0


class FaultPlan:
    """A seeded, deterministic schedule of disk faults.

    Build with the fluent helpers and hand to ``ArrayStore(fault_plan=)``
    (or :meth:`parse` a compact spec string, for the CLI)::

        plan = (FaultPlan(seed=7)
                .fail_stop(disk=2, at_op=40)
                .latent(disk=1, rate=0.002)
                .bit_flip(disk=3, at_op=25)
                .transient(disk=0, rate=0.01))

    The plan is pure decision state: it never touches bytes itself.
    :class:`FaultyDiskBackend` asks it what to do on every span I/O and
    performs the mechanics (raising errors, corrupting stored chunks).
    """

    def __init__(
        self,
        seed: int = 0,
        max_retries: int = 3,
        rules: list[FaultRule] | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.seed = seed
        self.max_retries = max_retries
        self.rules: list[FaultRule] = list(rules or ())
        self.rng = Random(seed)
        self.context: str | None = None
        self.stats = FaultStats()
        self.injected: list[InjectedFault] = []
        self._ops: dict[int, int] = {}
        self._fail_stopped: set[int] = set()
        #: Active latent sector errors / silent corruptions, keyed by
        #: (disk, chunk lba) -> their ground-truth record.
        self._latent: dict[tuple[int, int], InjectedFault] = {}
        self._corrupt: dict[tuple[int, int], InjectedFault] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def fail_stop(
        self, disk: int, at_op: int | None = None, during: str | None = None
    ) -> "FaultPlan":
        """Schedule a whole-disk fail-stop."""
        return self._add(
            FaultRule("fail_stop", disk, at_op=at_op, during=during)
        )

    def latent(
        self,
        disk: int,
        rate: float = 0.0,
        at_op: int | None = None,
        lba: int | tuple[int, int] | None = None,
        during: str | None = None,
        count: int | None = None,
    ) -> "FaultPlan":
        """Schedule latent sector (unreadable chunk) errors."""
        return self._add(
            FaultRule("latent", disk, rate, at_op, lba, during, count)
        )

    def bit_flip(
        self,
        disk: int,
        rate: float = 0.0,
        at_op: int | None = None,
        lba: int | tuple[int, int] | None = None,
        during: str | None = None,
        count: int | None = None,
    ) -> "FaultPlan":
        """Schedule silent bit-flip corruption of stored chunks."""
        return self._add(
            FaultRule("bit_flip", disk, rate, at_op, lba, during, count)
        )

    def transient(
        self, disk: int, rate: float, during: str | None = None
    ) -> "FaultPlan":
        """Schedule transient (retryable) I/O errors at ``rate``."""
        return self._add(
            FaultRule("transient", disk, rate=rate, during=during)
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact spec string.

        Format: ``;``-separated clauses. ``seed=N`` and ``max_retries=N``
        configure the plan; every other clause is
        ``kind:key=value,key=value`` with keys ``disk``, ``rate``,
        ``at_op``, ``lba`` (``N`` or ``LO-HI``), ``during``, ``count``.
        Example::

            seed=7;fail_stop:disk=2,at_op=40;latent:disk=1,rate=0.002
        """
        plan = cls()
        rules: list[FaultRule] = []
        seed = 0
        max_retries = 3
        for clause in filter(None, (c.strip() for c in spec.split(";"))):
            if ":" not in clause:
                key, _, value = clause.partition("=")
                if key == "seed":
                    seed = int(value)
                elif key == "max_retries":
                    max_retries = int(value)
                else:
                    raise ValueError(
                        f"unknown fault-plan option {clause!r} (expected "
                        f"seed=N, max_retries=N, or kind:key=value,...)"
                    )
                continue
            kind, _, body = clause.partition(":")
            kwargs: dict = {}
            for pair in filter(None, (p.strip() for p in body.split(","))):
                key, _, value = pair.partition("=")
                if key in ("disk", "at_op", "count"):
                    kwargs[key] = int(value)
                elif key == "rate":
                    kwargs[key] = float(value)
                elif key == "lba":
                    lo, dash, hi = value.partition("-")
                    kwargs[key] = (int(lo), int(hi)) if dash else int(lo)
                elif key == "during":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault-rule key {key!r}")
            if "disk" not in kwargs:
                raise ValueError(f"fault rule {clause!r} needs disk=N")
            rules.append(FaultRule(kind, **kwargs))
        plan = cls(seed=seed, max_retries=max_retries, rules=rules)
        return plan

    # ------------------------------------------------------------------
    # phases (the ``during=`` trigger context)
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope in which ``during=name`` rules may fire."""
        previous = self.context
        self.context = name
        try:
            yield
        finally:
            self.context = previous

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def ops(self, disk: int) -> int:
        """Span I/Os the plan has seen for ``disk``."""
        return self._ops.get(disk, 0)

    def is_fail_stopped(self, disk: int) -> bool:
        """True while ``disk`` is fail-stopped (and not yet replaced)."""
        return disk in self._fail_stopped

    def active_latent(self) -> set[tuple[int, int]]:
        """Currently unreadable ``(disk, chunk lba)`` pairs."""
        return set(self._latent)

    def active_corruptions(self) -> set[tuple[int, int]]:
        """Currently corrupted ``(disk, chunk lba)`` pairs."""
        return set(self._corrupt)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def replace_disk(self, disk: int) -> None:
        """Model a drive swap: clear fail-stop and the disk's defects.

        Latent errors and corruption on the replaced drive leave with
        it; their ground-truth records become ``lost`` (the scrubber is
        not expected to find them — rebuild regenerates the contents).
        """
        self._fail_stopped.discard(disk)
        for rule in self.rules:
            if rule.kind == "fail_stop" and rule.disk == disk:
                rule.fired = 1
        for fault in self.injected:
            if (
                fault.kind == "fail_stop"
                and fault.disk == disk
                and fault.status == "active"
            ):
                fault.status = "repaired"
        for key in [k for k in self._latent if k[0] == disk]:
            self._latent.pop(key).status = "lost"
        for key in [k for k in self._corrupt if k[0] == disk]:
            self._corrupt.pop(key).status = "lost"
        logger.info("fault-plan: disk %d replaced", disk)

    # ------------------------------------------------------------------
    # per-I/O evaluation (called by FaultyDiskBackend)
    # ------------------------------------------------------------------
    def _record(
        self, kind: str, disk: int, lba: int | None
    ) -> InjectedFault:
        fault = InjectedFault(kind, disk, lba, self._ops.get(disk, 0))
        self.injected.append(fault)
        return fault

    def note_access(
        self, disk: int, lbas: range, write: bool
    ) -> list[int]:
        """Advance the disk's op counter and mint any due faults.

        Returns the chunk LBAs the backend must corrupt (bit flips
        minted by this access); latent errors and fail-stops are minted
        into plan state and surfaced by the subsequent checks.
        """
        op = self._ops.get(disk, 0) + 1
        self._ops[disk] = op
        self.stats.ops += 1
        due_flips: list[int] = []
        for rule in self.rules:
            if (
                rule.disk != disk
                or rule.exhausted()
                or not rule.matches_context(self.context)
                or rule.kind == "transient"
            ):
                continue
            window = rule.lba_range()
            candidates = (
                [lba for lba in lbas if window[0] <= lba <= window[1]]
                if window is not None
                else list(lbas)
            )
            if rule.kind == "fail_stop":
                if rule.at_op is not None and op >= rule.at_op:
                    rule.fired += 1
                    self._fail_stopped.add(disk)
                    self.stats.fail_stops += 1
                    self._record("fail_stop", disk, None)
                    logger.info(
                        "fault-plan: disk %d fail-stopped at op %d", disk, op
                    )
                continue
            minted: list[int] = []
            if rule.rate > 0.0:
                for lba in candidates:
                    if rule.exhausted():
                        break
                    if self.rng.random() < rule.rate:
                        rule.fired += 1
                        minted.append(lba)
            elif op >= rule.at_op:
                # Trigger-based: mint at the explicit LBA when given
                # (even if this access does not cover it), else at the
                # first covered chunk.
                rule.fired += 1
                if window is not None and window[0] == window[1]:
                    minted.append(window[0])
                elif candidates:
                    minted.append(candidates[0])
                elif lbas:
                    minted.append(lbas[0])
            for lba in minted:
                key = (disk, lba)
                if rule.kind == "latent":
                    if key not in self._latent:
                        self._latent[key] = self._record(
                            "latent", disk, lba
                        )
                        self.stats.latent_minted += 1
                        if logger.isEnabledFor(logging.DEBUG):
                            logger.debug(
                                "fault-plan: latent error minted at "
                                "disk %d chunk %d (op %d)", disk, lba, op,
                            )
                else:  # bit_flip
                    if key not in self._corrupt:
                        self._corrupt[key] = self._record(
                            "bit_flip", disk, lba
                        )
                        self.stats.flips_minted += 1
                        due_flips.append(lba)
                        if logger.isEnabledFor(logging.DEBUG):
                            logger.debug(
                                "fault-plan: bit flip minted at "
                                "disk %d chunk %d (op %d)", disk, lba, op,
                            )
        return due_flips

    def draw_transient(self, disk: int) -> bool:
        """One Bernoulli draw: does this attempt fail transiently?"""
        for rule in self.rules:
            if (
                rule.kind == "transient"
                and rule.disk == disk
                and rule.matches_context(self.context)
                and self.rng.random() < rule.rate
            ):
                return True
        return False

    def latent_hit(self, disk: int, lbas: range) -> int | None:
        """First covered chunk with an active latent error, if any."""
        for lba in lbas:
            if (disk, lba) in self._latent:
                return lba
        return None

    def note_write(self, disk: int, lbas: range) -> None:
        """A write covered these chunks: remap latent sectors and mark
        still-active corruption as overwritten."""
        for lba in lbas:
            record = self._latent.pop((disk, lba), None)
            if record is not None:
                record.status = "repaired"
            record = self._corrupt.pop((disk, lba), None)
            if record is not None:
                record.status = "overwritten"


class FaultyDiskBackend:
    """Injects a :class:`FaultPlan` into raw per-disk span I/O.

    Args:
        raw_read: ``(disk, offset, length) -> bytes`` low-level reader.
        raw_write: ``(disk, offset, data) -> None`` low-level writer.
        plan: the fault schedule.
        chunk_bytes: chunk size (LBA granularity of the plan's rules).

    Transient errors are retried internally up to
    ``plan.max_retries`` times — the store never sees them unless the
    retry budget is exhausted. Bit flips are applied to the *stored*
    bytes (via the raw interface, unmetered), so the corruption is
    durable until something rewrites the chunk.
    """

    def __init__(
        self,
        raw_read: Callable[[int, int, int], bytes],
        raw_write: Callable[[int, int, bytes], None],
        plan: FaultPlan,
        chunk_bytes: int,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self._raw_read = raw_read
        self._raw_write = raw_write
        self.plan = plan
        self.chunk_bytes = chunk_bytes

    def _lbas(self, offset: int, length: int) -> range:
        first = offset // self.chunk_bytes
        last = (offset + length - 1) // self.chunk_bytes
        return range(first, last + 1)

    def _corrupt_chunk(self, disk: int, lba: int) -> None:
        """Flip a deterministic bit of the stored chunk (raw, unmetered)."""
        offset = lba * self.chunk_bytes
        stored = bytearray(self._raw_read(disk, offset, self.chunk_bytes))
        bit = self.plan.rng.randrange(len(stored) * 8)
        stored[bit // 8] ^= 1 << (bit % 8)
        self._raw_write(disk, offset, bytes(stored))

    def _gate(self, disk: int, lbas: range, write: bool) -> None:
        """Common fault evaluation for one span I/O."""
        plan = self.plan
        flips = plan.note_access(disk, lbas, write)
        if plan.is_fail_stopped(disk):
            raise FailStopError(disk)
        for lba in flips:
            self._corrupt_chunk(disk, lba)
        retries = 0
        while plan.draw_transient(disk):
            retries += 1
            plan.stats.transient_retries += 1
            if retries > plan.max_retries:
                plan.stats.transient_raised += 1
                raise TransientIOError(disk)

    def read(self, disk: int, offset: int, length: int) -> bytes:
        """Read a span, surfacing any due faults first."""
        lbas = self._lbas(offset, length)
        self._gate(disk, lbas, write=False)
        hit = self.plan.latent_hit(disk, lbas)
        if hit is not None:
            self.plan.stats.latent_raised += 1
            raise LatentSectorError(disk, hit)
        return self._raw_read(disk, offset, length)

    def write(self, disk: int, offset: int, data) -> None:
        """Write a span; a successful write remaps covered bad sectors.

        ``data`` is one contiguous buffer (bytes or an array).
        """
        lbas = self._lbas(offset, memoryview(data).nbytes)
        self._gate(disk, lbas, write=True)
        self._raw_write(disk, offset, data)
        self.plan.note_write(disk, lbas)
