"""The array-code framework: element grids, parity chains, bit matrices.

Every XOR code compared in the TIP paper fits one model:

* a stripe is a ``rows x cols`` grid of *elements* (Sec. III terminology);
  a column is a disk; an element is :attr:`Cell.DATA`, :attr:`Cell.PARITY`
  or :attr:`Cell.EMPTY` (a structural zero);
* each parity element is the XOR of a set of member elements — its *parity
  chain*. Members may themselves be parities (STAR's S1/S2 diagonals,
  Triple-Star's horizontal parities inside diagonal chains), which is
  exactly what creates the update-complexity problem the paper attacks.

From that description this module derives, with no per-code decoder logic:

* the generator bit matrix (Fig. 7) and parity-check bit matrix (Fig. 8);
* a generic encoder following the chains' topological order;
* a generic decoder that solves the erased-column linear system by
  inverting the relevant parity-check submatrix (Fig. 9), optimized with
  bit-matrix scheduling (Sec. IV-C1) and optional iterative reconstruction
  (Sec. IV-C2);
* update-penalty closures for the write-complexity analysis of Sec. VI-B;
* exhaustive MDS verification.

Specialized decoders (e.g. TIP's algebraic cross-pattern decoder) live in
their code's module and are checked against this generic path in tests.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from repro.bitmatrix import (
    CompiledPlan,
    XorSchedule,
    bm_inv,
    bm_mul,
    bm_rank,
    fuse_stages,
    smart_schedule,
)

__all__ = [
    "Cell",
    "Position",
    "ArrayCode",
    "Decoder",
    "shorten",
    "DEFAULT_DECODER_CACHE_SIZE",
]

#: Default cap on per-code cached decoders. Each decoder holds a solved
#: recovery system plus its compiled plans; exhaustive MDS sweeps over a
#: large code visit C(n, faults) failure sets, so an unbounded cache would
#: retain every one of them for the code's lifetime.
DEFAULT_DECODER_CACHE_SIZE = 64

Position = tuple[int, int]
"""Grid coordinate ``(row, col)`` of an element."""


class Cell(IntEnum):
    """Role of a grid element."""

    DATA = 0
    PARITY = 1
    EMPTY = 2


class ArrayCode:
    """An XOR array code defined by a grid of cells and parity chains.

    Args:
        name: human-readable identifier (used by the registry/benchmarks).
        rows: elements per disk (the word size ``w`` of Sec. IV-A).
        cols: number of disks ``n``.
        kinds: mapping of position to :class:`Cell` for PARITY and EMPTY
            cells; unlisted positions are DATA.
        chains: mapping of each parity position to the tuple of member
            positions whose XOR equals the parity.
        faults: number of arbitrary whole-disk failures the code claims to
            tolerate (3 for the codes in this paper, 2 for the RAID-6
            substrates).
        decoder_cache_size: LRU cap on cached per-failure-set decoders
            (least recently used decoders are evicted beyond this).

    Subclasses populate ``kinds``/``chains`` from the published encoding
    equations and pass them here; this class owns all generic machinery.
    """

    def __init__(
        self,
        name: str,
        rows: int,
        cols: int,
        kinds: dict[Position, Cell],
        chains: dict[Position, tuple[Position, ...]],
        faults: int = 3,
        decoder_cache_size: int = DEFAULT_DECODER_CACHE_SIZE,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if faults <= 0 or faults >= cols:
            raise ValueError(f"faults must be in 1..cols-1, got {faults}")
        if decoder_cache_size <= 0:
            raise ValueError("decoder_cache_size must be positive")
        self.name = name
        self.rows = rows
        self.cols = cols
        self.faults = faults
        self._grid = np.full((rows, cols), Cell.DATA, dtype=np.int8)
        for (row, col), kind in kinds.items():
            self._check_pos(row, col)
            self._grid[row, col] = kind
        # ``kind`` runs once per metered chunk on the request path: hand
        # out precomputed members instead of constructing an Enum each call.
        self._kinds: tuple[tuple[Cell, ...], ...] = tuple(
            tuple(Cell(int(value)) for value in row) for row in self._grid
        )
        self.chains: dict[Position, tuple[Position, ...]] = {}
        for parity, members in chains.items():
            self.chains[parity] = tuple(members)
        self._validate()
        self.decoder_cache_size = decoder_cache_size
        self._decoder_cache: OrderedDict[tuple[int, ...], Decoder] = (
            OrderedDict()
        )
        # Plan caches that outlive decoder eviction: solving the recovery
        # system (bit-matrix inversion + scheduling) and lowering it to a
        # CompiledPlan are the expensive parts of building a Decoder, and
        # both are pure functions of (failure set[, column subset]). When
        # the decoder LRU evicts and later re-creates a Decoder, these
        # hand back the solved/compiled artifacts instead of re-paying
        # the algebra. Caps scale with the decoder cache so exhaustive
        # MDS sweeps stay bounded.
        self._recovery_plan_cache: OrderedDict[tuple[int, ...], _RecoveryPlan]
        self._recovery_plan_cache = OrderedDict()
        self._compiled_plan_cache: OrderedDict[tuple, CompiledPlan]
        self._compiled_plan_cache = OrderedDict()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _check_pos(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"position ({row},{col}) outside {self.rows}x{self.cols} grid"
            )

    def _validate(self) -> None:
        parity_cells = {
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if self._grid[r, c] == Cell.PARITY
        }
        if set(self.chains) != parity_cells:
            missing = parity_cells - set(self.chains)
            extra = set(self.chains) - parity_cells
            raise ValueError(
                f"chain/parity mismatch: missing chains {sorted(missing)}, "
                f"chains on non-parity cells {sorted(extra)}"
            )
        for parity, members in self.chains.items():
            if len(set(members)) != len(members):
                raise ValueError(f"duplicate members in chain of {parity}")
            for row, col in members:
                self._check_pos(row, col)
                if self._grid[row, col] == Cell.EMPTY:
                    raise ValueError(
                        f"chain of {parity} references EMPTY cell ({row},{col})"
                    )
                if (row, col) == parity:
                    raise ValueError(f"chain of {parity} references itself")
        # The parity dependency graph must be acyclic so encoding is
        # well-defined; encoding_order raises on cycles.
        self.encoding_order  # noqa: B018 - evaluated for its validation

    def kind(self, row: int, col: int) -> Cell:
        """Return the role of the element at ``(row, col)``."""
        self._check_pos(row, col)
        return self._kinds[row][col]

    @property
    def n(self) -> int:
        """Number of disks."""
        return self.cols

    @property
    def k(self) -> int:
        """Equivalent number of data disks: ``num_data / rows``."""
        return self.num_data // self.rows

    @cached_property
    def data_positions(self) -> tuple[Position, ...]:
        """Data cells in logical (row-major) order.

        This order defines logical block addressing: consecutive logical
        chunks occupy consecutive data cells of a row, then wrap to the
        next row — standard striping, and the meaning of "consecutive"
        in the paper's partial-stripe-write experiments.
        """
        return tuple(
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if self._grid[r, c] == Cell.DATA
        )

    @cached_property
    def parity_positions(self) -> tuple[Position, ...]:
        """Parity cells in row-major order."""
        return tuple(
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if self._grid[r, c] == Cell.PARITY
        )

    @property
    def num_data(self) -> int:
        """Number of data elements per stripe."""
        return len(self.data_positions)

    @property
    def num_parity(self) -> int:
        """Number of parity elements per stripe."""
        return len(self.parity_positions)

    @cached_property
    def nonempty_positions(self) -> tuple[Position, ...]:
        """All stored (non-EMPTY) cells, in per-disk (column-major) order —
        the codeword order of Figs. 7-8."""
        return tuple(
            (r, c)
            for c in range(self.cols)
            for r in range(self.rows)
            if self._grid[r, c] != Cell.EMPTY
        )

    @cached_property
    def roles(self) -> dict[Position, int]:
        """Metering role of every stored cell: 0 for data, 1 for parity.

        EMPTY cells are absent: they carry no information and are never
        metered. Chunk counters index their (data, parity) split by this
        table instead of calling :meth:`kind` once per chunk.
        """
        return {
            pos: int(self._grid[pos] == Cell.PARITY)
            for pos in self.nonempty_positions
        }

    @cached_property
    def storage_efficiency(self) -> float:
        """Fraction of stored elements that hold data (1 - overhead)."""
        return self.num_data / len(self.nonempty_positions)

    @property
    def is_storage_optimal(self) -> bool:
        """True iff the parity volume is the MDS minimum: ``faults`` disks'
        worth. Together with :meth:`is_mds` (decodability of every
        ``faults``-column erasure) this is the full MDS property; non-MDS
        codes like WEAVER pass the decodability check but fail this one.
        """
        return self.num_data == (self.cols - self.faults) * self.rows - sum(
            1
            for r in range(self.rows)
            for c in range(self.cols)
            if self._grid[r, c] == Cell.EMPTY
        )

    @cached_property
    def encoding_order(self) -> tuple[Position, ...]:
        """Parity positions in dependency (topological) order.

        A parity whose chain contains another parity must be computed
        after it. Raises ValueError if the chains are cyclic.
        """
        order: list[Position] = []
        state: dict[Position, int] = {}  # 0 visiting, 1 done

        def visit(parity: Position, stack: tuple[Position, ...]) -> None:
            status = state.get(parity)
            if status == 1:
                return
            if status == 0:
                raise ValueError(f"cyclic parity chains through {parity}")
            state[parity] = 0
            for member in self.chains[parity]:
                if self._grid[member] == Cell.PARITY:
                    visit(member, stack + (parity,))
            state[parity] = 1
            order.append(parity)

        for parity in self.chains:
            visit(parity, ())
        return tuple(order)

    @cached_property
    def expanded_chains(self) -> dict[Position, frozenset[Position]]:
        """Each parity as a pure-data XOR set (transitively expanded).

        Expansion uses symmetric difference: a data element reached an even
        number of times cancels, exactly as the XORs would.
        """
        expanded: dict[Position, frozenset[Position]] = {}
        for parity in self.encoding_order:
            terms: set[Position] = set()
            for member in self.chains[parity]:
                if self._grid[member] == Cell.PARITY:
                    terms ^= expanded[member]
                else:
                    terms ^= {member}
            expanded[parity] = frozenset(terms)
        return expanded

    # ------------------------------------------------------------------
    # bit matrices (Sec. IV)
    # ------------------------------------------------------------------
    @cached_property
    def element_index(self) -> dict[Position, int]:
        """Codeword index of every stored cell (per-disk order)."""
        return {pos: i for i, pos in enumerate(self.nonempty_positions)}

    @cached_property
    def data_index(self) -> dict[Position, int]:
        """Logical index of every data cell."""
        return {pos: i for i, pos in enumerate(self.data_positions)}

    def generator_matrix(self) -> np.ndarray:
        """The ``(stored elements) x (data elements)`` generator bit matrix.

        Row ``e`` gives the data elements whose XOR produces codeword
        element ``e`` (Fig. 7): a unit row for data cells, the expanded
        chain for parity cells.
        """
        total = len(self.nonempty_positions)
        out = np.zeros((total, self.num_data), dtype=np.uint8)
        expanded = self.expanded_chains
        for pos, row in self.element_index.items():
            if self._grid[pos] == Cell.DATA:
                out[row, self.data_index[pos]] = 1
            else:
                for member in expanded[pos]:
                    out[row, self.data_index[member]] = 1
        return out

    def parity_check_matrix(self) -> np.ndarray:
        """The ``(parity chains) x (stored elements)`` parity-check matrix.

        Each row has ones on a parity element and its (direct) chain
        members; every codeword satisfies ``H @ codeword = 0`` (Fig. 8).
        """
        chains = list(self.chains.items())
        out = np.zeros((len(chains), len(self.nonempty_positions)), dtype=np.uint8)
        index = self.element_index
        for row, (parity, members) in enumerate(chains):
            out[row, index[parity]] = 1
            for member in members:
                out[row, index[member]] ^= 1
        return out

    # ------------------------------------------------------------------
    # stripes of packets
    # ------------------------------------------------------------------
    def make_stripe(
        self, data_packets: list[np.ndarray] | np.ndarray, packet_size: int | None = None
    ) -> np.ndarray:
        """Assemble and encode a stripe from logical data packets.

        Args:
            data_packets: ``num_data`` equal-length uint8 packets in
                logical order (or a ``(num_data, packet_size)`` array).
            packet_size: required only when ``data_packets`` is empty.

        Returns:
            A ``(rows, cols, packet_size)`` uint8 stripe with parities
            computed.
        """
        packets = np.asarray(data_packets, dtype=np.uint8)
        if packets.ndim != 2 or packets.shape[0] != self.num_data:
            raise ValueError(
                f"need {self.num_data} data packets, got shape {packets.shape}"
            )
        size = packets.shape[1] if packet_size is None else packet_size
        stripe = np.zeros((self.rows, self.cols, size), dtype=np.uint8)
        for pos, packet in zip(self.data_positions, packets):
            stripe[pos[0], pos[1]] = packet
        self.encode(stripe)
        return stripe

    def random_stripe(
        self, packet_size: int = 16, seed: int | None = None
    ) -> np.ndarray:
        """Encode a stripe of random data (deterministic given ``seed``)."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(self.num_data, packet_size), dtype=np.uint8)
        return self.make_stripe(data)

    def encode(self, stripe: np.ndarray) -> np.ndarray:
        """Fill all parity elements of ``stripe`` in place (Eqs. 1-3 etc.).

        Parities are evaluated in chain-dependency order so chained codes
        (STAR, Triple-Star) encode correctly.
        """
        self._check_stripe(stripe)
        for parity in self.encoding_order:
            acc = stripe[parity[0], parity[1]]
            acc[:] = 0
            for row, col in self.chains[parity]:
                np.bitwise_xor(acc, stripe[row, col], out=acc)
        return stripe

    def extract_data(self, stripe: np.ndarray) -> np.ndarray:
        """Return the ``(num_data, packet_size)`` logical data packets."""
        self._check_stripe(stripe)
        return np.stack([stripe[r, c] for r, c in self.data_positions])

    def verify_stripe(self, stripe: np.ndarray) -> bool:
        """True iff every parity chain XORs to zero and EMPTY cells are 0."""
        self._check_stripe(stripe)
        for row in range(self.rows):
            for col in range(self.cols):
                if self._grid[row, col] == Cell.EMPTY and stripe[row, col].any():
                    return False
        for parity, members in self.chains.items():
            acc = stripe[parity[0], parity[1]].copy()
            for row, col in members:
                np.bitwise_xor(acc, stripe[row, col], out=acc)
            if acc.any():
                return False
        return True

    def erase_columns(self, stripe: np.ndarray, failed: tuple[int, ...]) -> np.ndarray:
        """Zero the failed columns in place (simulating disk loss)."""
        self._check_stripe(stripe)
        for col in failed:
            if not 0 <= col < self.cols:
                raise ValueError(f"column {col} out of range")
            stripe[:, col, :] = 0
        return stripe

    def _check_stripe(self, stripe: np.ndarray) -> None:
        if (
            not isinstance(stripe, np.ndarray)
            or stripe.ndim != 3
            or stripe.shape[:2] != (self.rows, self.cols)
            or stripe.dtype != np.uint8
        ):
            raise ValueError(
                f"stripe must be uint8 of shape ({self.rows},{self.cols},S)"
            )

    # ------------------------------------------------------------------
    # decoding (Sec. IV-B / IV-C)
    # ------------------------------------------------------------------
    def decoder_for(self, failed: tuple[int, ...] | list[int]) -> "Decoder":
        """Build (or fetch from the LRU cache) the decoder for failed disks.

        The cache holds at most :attr:`decoder_cache_size` decoders per
        code, evicting the least recently used — exhaustive sweeps over
        every failure combination of a large code stay bounded while the
        handful of patterns a store or benchmark replays stay hot.
        """
        key = tuple(sorted(set(failed)))
        if not key:
            raise ValueError("need at least one failed column")
        if len(key) > self.faults:
            raise ValueError(
                f"{self.name} tolerates {self.faults} failures, got {len(key)}"
            )
        cache = self._decoder_cache
        decoder = cache.get(key)
        if decoder is None:
            decoder = Decoder(self, key)
            cache[key] = decoder
            while len(cache) > self.decoder_cache_size:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return decoder

    def decode(
        self,
        stripe: np.ndarray,
        failed: tuple[int, ...] | list[int],
        iterative: bool = False,
    ) -> np.ndarray:
        """Reconstruct the failed columns of ``stripe`` in place.

        Args:
            stripe: stripe with the failed columns' contents arbitrary.
            failed: indices of the failed disks (at most ``faults``).
            iterative: use iterative reconstruction (Sec. IV-C2): recover
                one disk from the full system, then the remaining disks
                with the cheaper smaller-erasure schedule.
        """
        self._check_stripe(stripe)
        key = tuple(sorted(set(failed)))
        if iterative and len(key) > 1:
            first = key[0]
            self.decoder_for(key).decode_columns(stripe, only_cols=(first,))
            remaining = key[1:]
            self.decoder_for(remaining).decode_columns(stripe)
        else:
            self.decoder_for(key).decode_columns(stripe)
        return stripe

    def is_mds(self) -> bool:
        """Exhaustively verify ``faults``-disk decodability.

        Checks that for every combination of ``faults`` columns the erased
        unknowns are uniquely determined by the parity-check system (the
        criterion of Fig. 9: every coefficient matrix invertible).
        """
        h_matrix = self.parity_check_matrix()
        index = self.element_index
        for combo in itertools.combinations(range(self.cols), self.faults):
            unknown_cols = [
                index[(r, c)]
                for c in combo
                for r in range(self.rows)
                if self._grid[r, c] != Cell.EMPTY
            ]
            sub = h_matrix[:, unknown_cols]
            if bm_rank(sub) != len(unknown_cols):
                return False
        return True

    # ------------------------------------------------------------------
    # update-penalty analysis (substrate for Sec. VI-B)
    # ------------------------------------------------------------------
    @cached_property
    def _membership(self) -> dict[Position, tuple[Position, ...]]:
        """For each cell, the parities whose *direct* chain contains it."""
        out: dict[Position, list[Position]] = {}
        for parity, members in self.chains.items():
            for member in members:
                out.setdefault(member, []).append(parity)
        return {pos: tuple(parents) for pos, parents in out.items()}

    @cached_property
    def parity_dependents(self) -> dict[Position, tuple[Position, ...]]:
        """For each data cell, the parity cells whose *value* depends on it.

        Read straight off the generator matrix (Fig. 7): parity ``p``
        depends on data cell ``d`` iff the generator row of ``p`` has a one
        in column ``d``. This is the exact set a delta write must XOR
        through — change ``d`` by ``Δ`` and precisely these parities change
        (each by ``Δ`` as well, since the code is XOR-based).

        Subtly different from :meth:`update_penalty`: the penalty closure
        follows *direct chain membership* transitively, so a data element
        that reaches a chained parity an even number of times is still
        counted there, while it cancels out of the generator row (the
        parity's value does not actually change). Delta writes must use
        this map; the penalty closure is the paper's rewrite-cost metric.
        For independent-parity codes like TIP the two coincide.
        """
        dependents: dict[Position, list[Position]] = {
            pos: [] for pos in self.data_positions
        }
        generator = self.generator_matrix()
        index = self.element_index
        data_positions = self.data_positions
        for parity in self.parity_positions:
            row = generator[index[parity]]
            for data_idx in np.flatnonzero(row):
                dependents[data_positions[data_idx]].append(parity)
        return {pos: tuple(parities) for pos, parities in dependents.items()}

    def update_penalty(self, pos: Position) -> frozenset[Position]:
        """Parity elements that must be rewritten when ``pos`` changes.

        Follows chain membership transitively: if a horizontal parity
        participates in diagonal chains (Triple-Star) or a data element
        feeds an adjuster/S-diagonal (STAR, shortened TIP), the dependent
        parities are included — this closure is precisely the paper's
        notion of update cost.
        """
        if self._grid[pos] == Cell.EMPTY:
            raise ValueError(f"cell {pos} is EMPTY")
        affected: set[Position] = set()
        frontier = [pos]
        membership = self._membership
        while frontier:
            cell = frontier.pop()
            for parity in membership.get(cell, ()):
                if parity not in affected:
                    affected.add(parity)
                    frontier.append(parity)
        return frozenset(affected)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name}: n={self.cols} w={self.rows} "
            f"data={self.num_data} parity={self.num_parity} faults={self.faults}>"
        )


@dataclass
class _RecoveryPlan:
    """Solved linear system for one erasure pattern.

    ``schedule`` executes the dense recovery matrix directly — the
    interpreted reference (and the paper's decode XOR-count metric).
    ``fused_schedule`` computes the same bytes as a two-stage
    factorization, ``unknowns = inv(square) @ (H_known[pivots] @
    knowns)``: a sparse syndrome stage fused (:func:`fuse_stages`) with
    the dense back-substitution over those syndromes. The factored form
    typically needs ~2x fewer XORs than scheduling the dense product,
    because the density that ``bm_mul`` bakes into the recovery matrix
    never materializes; its outputs ``0..len(unknown_positions)-1``
    coincide with ``schedule``'s, so compiled consumers index
    ``unknown_positions`` identically.
    """

    unknown_positions: list[Position]
    known_positions: list[Position]
    matrix: np.ndarray  # unknowns = matrix @ knowns over GF(2)
    schedule: XorSchedule
    fused_schedule: XorSchedule


def _lru_get_or_set(cache, key, factory, cap):
    """Fetch ``key`` from an ``OrderedDict`` LRU, building via
    ``factory()`` and evicting the least recently used past ``cap``."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        return value
    value = factory()
    cache[key] = value
    while len(cache) > cap:
        cache.popitem(last=False)
    return value


class Decoder:
    """Parity-check-matrix decoder for one set of failed columns (Fig. 9).

    Construction solves the bit-level system once; :meth:`decode_columns`
    then replays the resulting XOR schedule on packets, so repeated stripes
    with the same failure pattern pay no algebra.
    """

    def __init__(self, code: ArrayCode, failed: tuple[int, ...]) -> None:
        self.code = code
        self.failed = failed
        # 4x the decoder cap so solved systems outlive decoder eviction
        # (the point of the cache) while staying bounded for MDS sweeps.
        self.plan = _lru_get_or_set(
            code._recovery_plan_cache,
            failed,
            self._solve,
            4 * code.decoder_cache_size,
        )

    def _solve(self) -> _RecoveryPlan:
        code = self.code
        failed_set = set(self.failed)
        unknown_positions = [
            pos for pos in code.nonempty_positions if pos[1] in failed_set
        ]
        known_positions = [
            pos for pos in code.nonempty_positions if pos[1] not in failed_set
        ]
        h_matrix = code.parity_check_matrix()
        index = code.element_index
        unknown_cols = [index[pos] for pos in unknown_positions]
        known_cols = [index[pos] for pos in known_positions]
        h_unknown = h_matrix[:, unknown_cols]
        h_known = h_matrix[:, known_cols]
        pivot_rows = self._independent_rows(h_unknown, len(unknown_positions))
        if pivot_rows is None:
            raise ValueError(
                f"{code.name}: failure of columns {self.failed} is not decodable"
            )
        square = h_unknown[pivot_rows, :]
        # unknowns = inv(square) @ (h_known[pivot_rows] @ knowns): the
        # syndromes of Fig. 9 followed by the coefficient-matrix inverse.
        syndrome_matrix = np.ascontiguousarray(h_known[pivot_rows, :])
        inverse = bm_inv(square)
        recovery = bm_mul(inverse, syndrome_matrix)
        schedule = smart_schedule(recovery)
        # Two-stage factorization for the compiled engine: schedule each
        # factor separately (the syndrome stage is sparse — parity-check
        # rows, not their dense product) and fuse. Syndromes that are
        # identically zero (their check touches no surviving element)
        # produce no ops, so drop their back-substitution columns.
        back_sub = inverse.copy()
        zero_syndromes = ~syndrome_matrix.any(axis=1)
        if zero_syndromes.any():
            back_sub[:, zero_syndromes] = 0
        fused = fuse_stages(
            smart_schedule(syndrome_matrix), smart_schedule(back_sub)
        )
        return _RecoveryPlan(
            unknown_positions, known_positions, recovery, schedule, fused
        )

    @staticmethod
    def _independent_rows(matrix: np.ndarray, needed: int) -> list[int] | None:
        """Return indices of ``needed`` rows forming a full-rank square, or
        None if the matrix's rank is insufficient."""
        work = matrix.astype(np.uint8).copy()
        rows, cols = work.shape
        if needed > rows or needed != cols:
            return None
        chosen: list[int] = []
        available = list(range(rows))
        for col in range(cols):
            pivot = next((r for r in available if work[r, col]), None)
            if pivot is None:
                return None
            chosen.append(pivot)
            available.remove(pivot)
            for r in available:
                if work[r, col]:
                    work[r] ^= work[pivot]
        return chosen

    @property
    def xor_count(self) -> int:
        """Packet XORs of the dense recovery schedule (the paper's decode
        cost metric; the interpreted engine executes exactly this)."""
        return self.plan.schedule.xor_count

    @property
    def fused_xor_count(self) -> int:
        """Packet XORs of the fused two-stage schedule the compiled
        engine executes (before per-subset DCE)."""
        return self.plan.fused_schedule.xor_count

    @property
    def num_recovered(self) -> int:
        """Elements reconstructed per stripe."""
        return len(self.plan.unknown_positions)

    def compiled_plan(
        self, only_cols: tuple[int, ...] | None = None
    ) -> CompiledPlan:
        """The compiled recovery plan, cached per recovered-column subset.

        Compiles the *fused two-stage* schedule (syndromes + back-
        substitution in one blocked sweep) — byte-identical to the dense
        ``plan.schedule`` but typically ~2x fewer XORs. The fused
        schedule's trailing syndrome outputs are never requested, so DCE
        lowers them into recycled workspace rows; the plan's ``outputs``
        stay indices into ``plan.unknown_positions``. With ``only_cols``,
        compilation further eliminates the steps feeding other columns'
        elements. Compilation happens once per ``(code, failure set,
        subset)`` — repeated degraded reads and rebuilds replay the same
        plan. The cache lives on the code, not the decoder, so it
        survives decoder-LRU eviction: a re-created decoder for a
        recently seen failure set skips schedule lowering entirely.
        """
        key = tuple(sorted(set(only_cols))) if only_cols is not None else None

        def lower() -> CompiledPlan:
            num_unknowns = len(self.plan.unknown_positions)
            if key is None:
                needed = range(num_unknowns)
            else:
                needed = [
                    i
                    for i, pos in enumerate(self.plan.unknown_positions)
                    if pos[1] in key
                ]
            return self.plan.fused_schedule.compile(needed)

        return _lru_get_or_set(
            self.code._compiled_plan_cache,
            (self.failed, key),
            lower,
            4 * self.code.decoder_cache_size,
        )

    def recovered_positions(
        self, only_cols: tuple[int, ...] | None = None
    ) -> list[Position]:
        """Positions :meth:`decode_columns` writes for this subset."""
        plan = self.compiled_plan(only_cols)
        return [self.plan.unknown_positions[i] for i in plan.outputs]

    def decode_columns(
        self,
        stripe: np.ndarray,
        only_cols: tuple[int, ...] | None = None,
        tile_bytes: int | None = None,
    ) -> None:
        """Reconstruct erased elements of ``stripe`` in place.

        Runs the compiled recovery plan directly into the stripe's erased
        element buffers — no intermediate packet allocation. Byte-
        identical to replaying ``plan.schedule.apply`` and copying the
        results back.

        Args:
            stripe: the damaged stripe.
            only_cols: if given, write back only these columns' elements
                (used by iterative reconstruction to recover one disk from
                the full-system solution).
            tile_bytes: cache-tile override for the compiled plan.
        """
        compiled = self.compiled_plan(only_cols)
        positions = [
            self.plan.unknown_positions[i] for i in compiled.outputs
        ]
        if not positions:
            return
        knowns = [stripe[r, c] for r, c in self.plan.known_positions]
        outs = [stripe[r, c] for r, c in positions]
        compiled.execute_into(knowns, outs, tile_bytes=tile_bytes)


def shorten(
    code: ArrayCode,
    remove_cols: tuple[int, ...] | list[int],
    name: str | None = None,
) -> ArrayCode:
    """Codeword shortening (Sec. VII): drop all-data columns.

    The removed columns' elements are fixed at zero and deleted from every
    chain; remaining columns are renumbered left to right. Valid only when
    each removed column contains no parity elements — TIP needs the
    adjuster construction instead (see :func:`repro.codes.tip.make_tip`).

    Returns a standalone :class:`ArrayCode` over the surviving columns.
    """
    removed = sorted(set(remove_cols))
    for col in removed:
        if not 0 <= col < code.cols:
            raise ValueError(f"column {col} out of range")
        for row in range(code.rows):
            if code.kind(row, col) == Cell.PARITY:
                raise ValueError(
                    f"column {col} holds parity at row {row}; plain shortening "
                    f"only removes all-data columns"
                )
    if code.cols - len(removed) <= code.faults:
        raise ValueError("cannot shorten below faults + 1 columns")
    col_map = {}
    new_col = 0
    for col in range(code.cols):
        if col not in removed:
            col_map[col] = new_col
            new_col += 1

    def translate(pos: Position) -> Position | None:
        row, col = pos
        if col in col_map:
            return (row, col_map[col])
        return None

    kinds: dict[Position, Cell] = {}
    for row in range(code.rows):
        for col in range(code.cols):
            kind = code.kind(row, col)
            if col in col_map and kind != Cell.DATA:
                kinds[(row, col_map[col])] = kind
    chains: dict[Position, tuple[Position, ...]] = {}
    for parity, members in code.chains.items():
        new_parity = translate(parity)
        assert new_parity is not None  # removed columns are all-data
        new_members = tuple(
            translated
            for member in members
            if (translated := translate(member)) is not None
        )
        chains[new_parity] = new_members
    return ArrayCode(
        name=name or f"{code.name}-shortened{code.cols - len(removed)}",
        rows=code.rows,
        cols=code.cols - len(removed),
        kinds=kinds,
        chains=chains,
        faults=code.faults,
    )
