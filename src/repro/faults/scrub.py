"""Incremental online scrubbing: detect, classify, and repair in place.

The scrubber walks the store's stripes in bounded batches. Each batch is
read as one disk-order batch (:meth:`ArrayStore.read_stripes` — one span
read per surviving disk) and checked with vectorized parity syndromes
over every stripe at once; only stripes with a violated chain (or a
latent-read error) pay the per-stripe repair path. Classification is
pure parity-check algebra (:func:`classify_stripe`):

* **clean** — every chain XORs to zero and every structural-zero (EMPTY)
  cell is zero;
* **corruption, located** — a single corrupted element ``j`` violates
  exactly the chains containing ``j`` (the support of column ``j`` of the
  parity-check matrix) and every violated chain carries the *same*
  syndrome packet ``e`` (the error value). When that support match is
  unique, XOR-ing ``e`` back into the stored element repairs it — the
  three independent parities of TIP make single-element location exact;
* **ambiguous** — violated chains match no single element's support, or
  match several, or carry differing syndromes: more than one error (or an
  error the geometry cannot localize). The scrubber reports it unfixable
  rather than guess.

Latent (unreadable) chunks are *erasures*: the per-stripe repair reads
tolerantly, zeroes what it cannot read, decodes the affected columns in
memory, and — only once the completed stripe's syndromes are clean —
commits the reconstructed elements, data strictly before parity (the
cache's crash-safe flush discipline). Every commit is an absolute value,
so a crash between writes leaves a stripe a later scrub pass repairs
identically. Co-resident silent corruption is fixed *first* (decoding
from a corrupted known would launder the corruption into the decoded
output), then the stripe is re-read and re-verified; the loop is bounded
by ``max_attempts``.

Fail-stop and exhausted-transient faults are not handled here — they
propagate to the caller (the :class:`repro.faults.repair.
RepairController` owns disk-level failure handling).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.plan import cell_view
from repro.codes.base import ArrayCode, Cell
from repro.faults.inject import LatentSectorError
from repro.store.metering import IoCounters

__all__ = ["ScrubFinding", "ScrubReport", "Scrubber", "classify_stripe"]

logger = logging.getLogger(__name__)

#: ``classify_stripe`` states.
CLEAN, CORRUPTION, AMBIGUOUS = "clean", "corruption", "ambiguous"


def _support_index(
    code: ArrayCode,
) -> dict[frozenset[int], list[tuple[int, int]]]:
    """Map each distinct parity-check column support (the set of chains
    an element participates in) to the elements carrying it, memoized on
    the code instance."""
    cached = getattr(code, "_scrub_support", None)
    if cached is None:
        h_matrix = code.parity_check_matrix()
        cached = {}
        for pos, col in code.element_index.items():
            support = frozenset(np.flatnonzero(h_matrix[:, col]).tolist())
            cached.setdefault(support, []).append(pos)
        code._scrub_support = cached
    return cached


def classify_stripe(
    code: ArrayCode, stripe: np.ndarray
) -> tuple[str, tuple[int, int] | None, np.ndarray | None]:
    """Classify a fully-readable stripe from its parity syndromes.

    Returns ``(state, position, error)``:

    * ``("clean", None, None)`` — all chains zero, all EMPTY cells zero;
    * ``("corruption", (row, col), e)`` — a single element is corrupt;
      XOR-ing packet ``e`` into it restores the stripe. A nonzero EMPTY
      cell is reported the same way (``e`` is its stored value);
    * ``("ambiguous", None, None)`` — the violation pattern matches no
      unique single element: multiple errors or unlocalizable damage.
    """
    stripe = cell_view(stripe)
    for row in range(code.rows):
        for col in range(code.cols):
            if code.kind(row, col) == Cell.EMPTY and stripe[row, col].any():
                return (CORRUPTION, (row, col), stripe[row, col].copy())
    syndromes: list[np.ndarray] = []
    for parity, members in code.chains.items():
        acc = stripe[parity[0], parity[1]].copy()
        for row, col in members:
            np.bitwise_xor(acc, stripe[row, col], out=acc)
        syndromes.append(acc)
    violated = [i for i, s in enumerate(syndromes) if s.any()]
    if not violated:
        return (CLEAN, None, None)
    error = syndromes[violated[0]]
    if any(
        not np.array_equal(syndromes[i], error) for i in violated[1:]
    ):
        return (AMBIGUOUS, None, None)
    matches = _support_index(code).get(frozenset(violated), [])
    if len(matches) != 1:
        return (AMBIGUOUS, None, None)
    return (CORRUPTION, matches[0], error.copy())


@dataclass
class ScrubFinding:
    """One error the scrubber encountered.

    ``kind`` is ``"corruption"`` (silent bit flips, located and patched),
    ``"erasure"`` (an unreadable chunk, reconstructed and rewritten), or
    ``"unfixable"``. ``fraction`` is how far through the array the scan
    was at detection (feeds the reliability model's detection latency).
    """

    stripe: int
    kind: str
    position: tuple[int, int] | None
    fixed: bool
    fraction: float
    detail: str = ""

    @property
    def disk(self) -> int | None:
        """The column (disk) the finding localizes to, if located."""
        return None if self.position is None else self.position[1]


@dataclass
class ScrubReport:
    """Accumulated outcome of scrub passes."""

    stripes_scanned: int = 0
    errors_found: int = 0
    errors_fixed: int = 0
    unfixable: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)
    io: IoCounters = field(default_factory=IoCounters)

    def add(self, finding: ScrubFinding) -> None:
        """Fold one finding into the tallies."""
        self.findings.append(finding)
        self.errors_found += 1
        if finding.fixed:
            self.errors_fixed += 1
        if finding.kind == "unfixable":
            self.unfixable += 1

    def detection_fraction(self) -> float | None:
        """Mean scan fraction at which errors were detected (``None``
        when the pass found nothing) — the measured detection latency
        that parameterizes the sector-aware reliability model."""
        if not self.findings:
            return None
        return sum(f.fraction for f in self.findings) / len(self.findings)

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"scanned {self.stripes_scanned} stripes: "
            f"{self.errors_found} errors, {self.errors_fixed} fixed, "
            f"{self.unfixable} unfixable "
            f"({self.io.chunks_read} chunks read, "
            f"{self.io.chunks_written} written)"
        )


class Scrubber:
    """Incremental stripe scrubber over an :class:`ArrayStore`.

    Args:
        store: the store to scrub (may be degraded and may have a fault
            plan attached — latent read errors are handled as erasures).
        batch_stripes: stripes per :meth:`step` batch (one wide span read
            per disk, one vectorized syndrome pass).
        max_attempts: per-stripe bound on the repair/re-verify loop.

    The cursor is resumable: :meth:`step` scans the next batch and
    returns the stripes scanned (0 when a pass is complete);
    :meth:`run` finishes the current pass. ``report`` accumulates across
    steps until :meth:`reset`.
    """

    def __init__(
        self,
        store,
        batch_stripes: int = 8,
        max_attempts: int = 6,
    ) -> None:
        if batch_stripes < 1:
            raise ValueError("batch_stripes must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.batch_stripes = batch_stripes
        self.max_attempts = max_attempts
        self.cursor = 0
        self.report = ScrubReport()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind the cursor and start a fresh report."""
        self.cursor = 0
        self.report = ScrubReport()

    @property
    def done(self) -> bool:
        """True when the current pass has scanned every stripe."""
        return self.cursor >= self.store.stripes

    def run(self) -> ScrubReport:
        """Scan to the end of the array; returns the (shared) report."""
        while self.step():
            pass
        return self.report

    def step(self, max_stripes: int | None = None) -> int:
        """Scrub the next batch; returns stripes scanned (0 = pass done)."""
        store = self.store
        if self.cursor >= store.stripes:
            return 0
        count = min(self.batch_stripes, store.stripes - self.cursor)
        if max_stripes is not None:
            count = min(count, max_stripes)
        if count <= 0:
            return 0
        start = self.cursor
        before = store.io.snapshot()
        store.flush()
        try:
            for stripe in self._prescan(start, count):
                self.scrub_stripe(stripe)
        finally:
            self.cursor = start + count
            self.report.stripes_scanned += count
            self.report.io = self.report.io + (store.io - before)
        return count

    # ------------------------------------------------------------------
    def _prescan(self, start: int, count: int) -> list[int]:
        """Stripes in ``[start, start+count)`` needing per-stripe repair.

        The healthy fast path: one wide read, vectorized syndromes, and
        only violated stripes go on. Any latent read error during the
        wide span reads demotes the whole batch to the per-stripe path
        (which localizes the bad chunk element by element); degraded
        columns violate their chains everywhere, so a degraded scrub
        visits every stripe — by design, since every stripe genuinely
        has erasures.
        """
        store = self.store
        code = store.code
        try:
            batch = store.read_stripes(start, count)
        except LatentSectorError as exc:
            logger.debug(
                "scrub: batch [%d, %d) demoted to per-stripe reads (%s)",
                start, start + count, exc,
            )
            return list(range(start, start + count))
        # Each cell is a (count, chunk) view: one row per stripe.
        cells = cell_view(batch)
        dirty = np.zeros(count, dtype=bool)
        for parity, members in code.chains.items():
            acc = cells[parity].copy()
            for member in members:
                np.bitwise_xor(acc, cells[member], out=acc)
            dirty |= acc.any(axis=1)
        for row in range(code.rows):
            for col in range(code.cols):
                if code.kind(row, col) == Cell.EMPTY:
                    dirty |= cells[row, col].any(axis=1)
        return [start + i for i in np.flatnonzero(dirty)]

    def _read_stripe_tolerant(
        self, stripe: int
    ) -> tuple[np.ndarray, set[tuple[int, int]]]:
        """Read a stripe element by element, zeroing what cannot be read.

        Returns ``(grid, unreadable positions)``. Latent sector errors
        are collected (precise, chunk-granular localization); failed
        columns are left zeroed and *not* listed — the caller treats
        them as whole-column erasures. Fail-stop / exhausted-transient
        errors propagate.
        """
        store = self.store
        code = store.code
        grid = np.zeros(
            (code.rows, code.cols, store.chunk_bytes), dtype=np.uint8
        )
        unreadable: set[tuple[int, int]] = set()
        for col in range(code.cols):
            if col in store.failed:
                continue
            for row in range(code.rows):
                try:
                    grid[row, col] = store.read_element(stripe, (row, col))
                except LatentSectorError:
                    unreadable.add((row, col))
        return grid, unreadable

    def _remap_unreadable(
        self,
        stripe: int,
        grid: np.ndarray,
        unreadable: set[tuple[int, int]],
    ) -> None:
        """Best-effort sector remap of an *unfixable* stripe's unreadable
        chunks: rewrite each with the best reconstruction available (the
        decoded value when the erasure budget allowed a decode, zeros
        otherwise) so the array stays readable. The stripe stays counted
        unfixable — this trades possible silent wrongness for
        availability, exactly what a drive's forced reallocation does;
        without it a foreground read of the bad chunk would retry the
        same latent error forever.
        """
        if not unreadable:
            return
        code = self.store.code
        pending = sorted(
            unreadable,
            key=lambda pos: (code.kind(*pos) == Cell.PARITY, pos),
        )
        for pos in pending:
            self.store.write_element(stripe, pos, grid[pos[0], pos[1]])
        logger.warning(
            "scrub: stripe %d is unfixable; remapped %d unreadable "
            "chunks with best-effort contents to keep it readable",
            stripe, len(pending),
        )

    def scrub_stripe(self, stripe: int) -> None:
        """Repair one stripe: classify, fix, re-read, re-verify.

        Ordering rationale: silent corruption is patched *before* any
        erasure commit (a decode that consumed a corrupted known would
        otherwise launder the corruption into the reconstructed
        elements), and erasure commits land data before parity. After
        every mutation the stripe is re-read and re-classified; the loop
        exits only on a clean verify or after ``max_attempts``.

        A stripe that proves unfixable still has its unreadable chunks
        remapped (:meth:`_remap_unreadable`) so the array remains
        serviceable; the unfixable finding records the damage.
        """
        store = self.store
        code = store.code
        fraction = (stripe + 1) / store.stripes
        grid = None
        unreadable: set[tuple[int, int]] = set()
        for _ in range(self.max_attempts):
            grid, unreadable = self._read_stripe_tolerant(stripe)
            erased_cols = tuple(
                sorted({col for _, col in unreadable} | store.failed)
            )
            if len(erased_cols) > code.faults:
                self.report.add(ScrubFinding(
                    stripe, "unfixable", None, False, fraction,
                    f"erasures span {len(erased_cols)} columns "
                    f"{list(erased_cols)}, beyond the fault budget "
                    f"({code.faults})",
                ))
                self._remap_unreadable(stripe, grid, unreadable)
                return
            if erased_cols:
                code.decoder_for(erased_cols).decode_columns(grid)
            state, position, error = classify_stripe(code, grid)
            if state == CORRUPTION:
                if position[1] in erased_cols:
                    # The "located" element was itself reconstructed:
                    # the inconsistency really lives in the knowns that
                    # fed the decode and cannot be pinned down.
                    self.report.add(ScrubFinding(
                        stripe, "unfixable", position, False, fraction,
                        "located element lies in an erased column",
                    ))
                    self._remap_unreadable(stripe, grid, unreadable)
                    return
                patched = np.bitwise_xor(grid[position[0], position[1]],
                                         error)
                store.write_element(stripe, position, patched)
                self.report.add(ScrubFinding(
                    stripe, "corruption", position, True, fraction,
                ))
                logger.info(
                    "scrub: stripe %d corruption at %s patched",
                    stripe, position,
                )
                continue  # re-read and re-verify
            if state == AMBIGUOUS:
                self.report.add(ScrubFinding(
                    stripe, "unfixable", None, False, fraction,
                    "syndrome pattern matches no unique element",
                ))
                self._remap_unreadable(stripe, grid, unreadable)
                return
            # Clean syndromes: commit reconstructed erasures (failed
            # columns stay un-written — rebuilding them is the repair
            # loop's job, and the store drops those writes anyway).
            pending = sorted(
                unreadable,
                key=lambda pos: (code.kind(*pos) == Cell.PARITY, pos),
            )
            if not pending:
                return
            for pos in pending:
                store.write_element(stripe, pos, grid[pos[0], pos[1]])
                self.report.add(ScrubFinding(
                    stripe, "erasure", pos, True, fraction,
                ))
            logger.info(
                "scrub: stripe %d reconstructed %d unreadable chunks",
                stripe, len(pending),
            )
            # One more round trip proves the rewrites took (and that the
            # remapped sectors now read back clean).
        else:
            self.report.add(ScrubFinding(
                stripe, "unfixable", None, False, fraction,
                f"not clean after {self.max_attempts} repair attempts",
            ))
            if grid is not None:
                self._remap_unreadable(stripe, grid, unreadable)
