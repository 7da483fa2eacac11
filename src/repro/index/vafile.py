"""A vector-approximation file (VA-file) for high dimensions (§2.1, §6).

"It is the author's opinion that much more work is needed in
high-dimensional indexing, or similar techniques, in order to deal
effectively with the hard issues of efficiently evaluating multimedia
queries."

The VA-file (Weber–Schek–Blott, 1998 — contemporaneous with the paper)
is the classic such technique: instead of a tree, keep a *compressed
approximation* of every vector (a few bits per dimension) and scan the
approximations.  Each approximation yields lower/upper bounds on the
true distance, so most full vectors are never touched:

1. scan phase — the grid is fixed, so a cell's squared contribution
   to a bound depends only on ``(dimension, cell)``: per-query
   ``[d, 2^bits]`` tables of those squared gaps (a few KB) are folded
   column by column in numpy's own row-sum order, so each bound is bit
   for bit ``sqrt`` of the row sum — integer lookups instead of float
   arithmetic per stored coordinate.  Up to :data:`_PAIR_BITS` bits, each
   add of two raw dimensions is one lookup in a pair table through a
   cached pair-code column, so the fold reads one code per two
   dimensions.  Batch ``knn`` prunes with a partitioned selection of
   the k-th upper bound; the stream needs the lower tables only;
2. refine phase — visit candidates in canonical ``(lower, str(id))``
   order, computing true distances in vectorized blocks, stopping when
   the next lower bound exceeds the k-th true distance.  The stream
   sorts that order lazily, a slice of the smallest lower bounds at a
   time, since sorted access only ever needs its front; a pull of n
   neighbours refines the same whole blocks as n pulls of one and
   emits all n at once.

Bounds are bounds of the *computed* distance: every comparison of a
bound with a distance carries :data:`EPS` slack, erring toward refining.

Unlike partitioning indexes the scan cost never *explodes* with
dimension — it degrades gracefully toward the linear scan — which is
exactly the regime E13 shows the R-tree losing.

Storage is columnar: :meth:`VAFile.bulk_load` adopts one ``[n, d]``
float matrix (a numpy memmap stays out of core) plus one ``[n, d]``
uint code matrix; per-item :meth:`VAFile.insert` remains as the
incremental path and consolidates lazily.  :meth:`VAFile.knn_stream`
exposes the same scan/refine machinery as a lazy nearest-first stream:
the scan phase runs on the first pop, then candidates are ordered and
refined in small blocks only as far as emission requires, and
``next_batch(n)`` emits n neighbours from one refinement pass.
:meth:`VAFile.vectors_of` serves bulk random access as one row gather.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_, UnknownObjectError
from repro.index.base import (
    KnnStream,
    Neighbor,
    VectorIndex,
    canonical_tie_array,
    euclidean_distances,
)

#: Slack added to bound comparisons so float rounding in the vectorized
#: bound kernel can never prune a true neighbour (errs toward refining).
EPS = 1e-12

#: Rows per vectorized chunk in the scan phase (and in ``bulk_load``'s
#: coding pass): bounds temp memory, and keeps a chunk's buffers
#: cache-resident.
SCAN_CHUNK = 8192

#: Widest grid whose dimensions are paired in the scan: a pair table
#: has ``4**bits`` entries (128 KB at 7 bits); at 8 bits its 512 KB
#: fall out of cache and one-dimension leaves are faster.
_PAIR_BITS = 7

#: Candidates refined per vectorized block in the refine phase.
REFINE_BLOCK = 64

#: Rows the stream orders at first; the slice doubles on every refill.
ORDER_SLICE = 1024

#: Refine block for the incremental stream (smaller: streams usually
#: stop after a handful of pops).
STREAM_BLOCK = 32


def _sum_order(dims):
    """The order in which numpy's row sum adds ``dims``, as a binary
    tree: a leaf is a dimension, a node a ``(left, right)`` add.

    numpy sums a contiguous row of ``d`` float64s pairwise: below 8
    terms left to right; up to 128 in eight strided accumulators
    ``r[j] += a[i + j]`` combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    the tail then added left to right; past 128 it splits at half the
    length, rounded down to a multiple of 8, and recurses."""
    n = len(dims)
    if n < 8:
        tree = dims[0]
        for dim in dims[1:]:
            tree = (tree, dim)
        return tree
    if n <= 128:
        stop = n - n % 8
        r = list(dims[:8])
        for start in range(8, stop, 8):
            r = [(r[j], dims[start + j]) for j in range(8)]
        tree = (((r[0], r[1]), (r[2], r[3])), ((r[4], r[5]), (r[6], r[7])))
        for dim in dims[stop:]:
            tree = (tree, dim)
        return tree
    half = n // 2
    half -= half % 8
    return (_sum_order(dims[:half]), _sum_order(dims[half:]))


def _fold_plan(dimension: int, pair: bool):
    """Compile :func:`_sum_order` into leaves and a register program.

    ``leaves`` lists the dimensions each leaf reads: ``(i, j)`` for an
    add of two raw dimensions when ``pair`` is set, else ``(i,)``.
    ``program`` evaluates the tree on a register stack: ``(leaf, r)``
    gathers a leaf into register ``r``, ``(None, r)`` adds register
    ``r + 1`` into ``r``.  Register 0 ends up holding the sum."""
    leaves: List[Tuple[int, ...]] = []
    program: List[Tuple[Optional[int], int]] = []

    def walk(node, register: int) -> None:
        if isinstance(node, int) or (
            pair and isinstance(node[0], int) and isinstance(node[1], int)
        ):
            leaves.append((node,) if isinstance(node, int) else node)
            program.append((len(leaves) - 1, register))
            return
        walk(node[0], register)
        walk(node[1], register + 1)
        program.append((None, register))

    walk(_sum_order(list(range(dimension))), 0)
    return leaves, program


class _VAFileStream(KnnStream):
    """Lazy scan-then-refine stream over a VA-file, emitting in bulk.

    The approximation scan (all n lower bounds) runs on the first pop.
    Candidates are then ordered lazily: only the :data:`ORDER_SLICE`
    rows with the smallest lower bounds are sorted on ``(lower,
    str(id))`` (the slice doubles on every refill and takes every row
    tied at its threshold, so the slices concatenate to the one
    canonical order), and refined in blocks of :data:`STREAM_BLOCK`.

    Refined-but-unemitted rows wait in the canonical ``(distance,
    str(id))`` order.  Between whole blocks, the next unrefined lower
    bound certifies every waiting row whose distance plus :data:`EPS`
    lies below it.  A pull of ``n`` refines whole blocks, in order, until
    ``n`` rows are certified, then emits them.  The test is monotone in
    the blocks refined — the ``n``-th waiting distance only falls as
    blocks are added, the bound only rises — so a pull of ``n`` refines
    exactly the blocks ``n`` pulls of one refine, and emits the same
    neighbours: one refinement loop serves both, and a pull of one from
    rows already certified refines nothing and tests nothing.
    """

    def __init__(self, vafile: "VAFile", query: np.ndarray) -> None:
        super().__init__()
        self._va = vafile
        self._query = query
        self._lower: Optional[np.ndarray] = None  # lower bound per row
        #: rows with ``lower <= _floor`` are ordered already; inf = all
        self._floor = -np.inf
        self._slice = ORDER_SLICE
        self._order = np.empty(0, dtype=int)  # current slice, by (lower, tie)
        self._lowers = np.empty(0)  # lower bound per order slot
        self._position = 0
        self._in_block = 0  # rows refined so far in the current STREAM_BLOCK
        #: refined rows and their distances in canonical ``(distance,
        #: tie, row)`` order; those from ``_head`` on are unemitted
        self._rows: List[int] = []
        self._distances: List[float] = []
        self._head = 0
        #: rows before ``_certified`` can be emitted: no unrefined row
        #: can come before them
        self._certified = 0

    def _start(self) -> None:
        self._lower, _ = self._va._table_bounds(
            self._va._codes(), self._query, upper=False
        )
        self._va.stats.record_nodes(len(self._lower))

    def _refill(self) -> None:
        """Order the next slice: the rows whose lower bound lies in
        ``(floor, threshold]``, the threshold being the ``_slice``-th
        smallest lower bound still unordered (ties at it all included).
        Before the first slice every row is unordered, so the bounds are
        partitioned as they are, without a mask."""
        lower = self._lower
        pending = None if self._floor == -np.inf else lower > self._floor
        unordered = lower if pending is None else lower[pending]
        if len(unordered) > self._slice:
            self._floor = np.partition(unordered, self._slice - 1)[self._slice - 1]
            chosen = lower <= self._floor
            if pending is not None:
                chosen &= pending
        else:
            self._floor = np.inf
            chosen = pending
        rows = np.arange(len(lower)) if chosen is None else np.flatnonzero(chosen)
        lowers = lower[rows]
        order = np.lexsort((self._va._tie_array()[rows], lowers))
        self._order = rows[order]
        self._lowers = lowers[order]
        self._position = 0
        self._slice *= 2

    def _refine(self, n: int) -> None:
        """Refine whole blocks until ``n`` waiting rows are certified, or
        every row is refined."""
        if self._lower is None:
            self._start()
        while self._certified - self._head < n:
            exhausted = self._position >= len(self._order)
            if exhausted and self._floor == np.inf:
                self._certified = len(self._rows)
                return
            if not self._in_block:
                # The next unrefined lower bound — at the end of a slice,
                # the floor every unordered row lies above — certifies
                # each waiting distance it exceeds by more than EPS.
                # Tested between whole blocks only, and a block cut short
                # by a slice boundary resumes after the refill: blocks
                # are blocks of the total order.
                bound = self._floor if exhausted else self._lowers[self._position]
                self._certified = bisect.bisect_left(
                    self._distances,
                    True,
                    lo=self._head,
                    key=lambda distance: not bound > distance + EPS,
                )
                if self._certified - self._head >= n:
                    return
            if exhausted:
                self._refill()
                continue
            # No test passes while fewer than n rows wait: refine up to
            # the first block end where n could, in one distance call.
            take = max(
                STREAM_BLOCK - self._in_block, n - (len(self._rows) - self._head)
            )
            take += -(self._in_block + take) % STREAM_BLOCK
            rows = self._order[self._position : self._position + take]
            self._position += len(rows)
            self._in_block = (self._in_block + len(rows)) % STREAM_BLOCK
            distances = euclidean_distances(self._va._matrix()[rows], self._query)
            self._va.stats.record_distances(len(rows))
            rows = np.concatenate(
                (np.array(self._rows[self._head :], dtype=int), rows)
            )
            distances = np.concatenate((self._distances[self._head :], distances))
            order = np.lexsort((rows, self._va._tie_array()[rows], distances))
            self._rows = rows[order].tolist()
            self._distances = distances[order].tolist()
            self._head = self._certified = 0

    def _advance_many(self, n: int) -> List[Neighbor]:
        self._refine(n)
        head = self._head
        self._head = min(head + n, self._certified)
        ids = self._va._ids
        return [
            (ids[row], distance)
            for row, distance in zip(
                self._rows[head : self._head], self._distances[head : self._head]
            )
        ]

    def _advance(self) -> Optional[Neighbor]:
        if self._head == self._certified:
            self._refine(1)
            if self._head == self._certified:
                return None
        self._head += 1
        return (
            self._va._ids[self._rows[self._head - 1]],
            self._distances[self._head - 1],
        )


class VAFile(VectorIndex):
    """Vector-approximation file over [0, 1]^d with ``bits`` per dimension."""

    def __init__(self, dimension: int, bits: int = 4) -> None:
        super().__init__(dimension)
        if not 1 <= bits <= 16:
            raise IndexError_(f"bits per dimension must lie in [1, 16], got {bits}")
        self.bits = bits
        self.cells = 2**bits
        self._code_dtype = np.uint8 if bits <= 8 else np.uint16
        self._ids: List[object] = []
        self._base_matrix: Optional[np.ndarray] = None  # bulk-loaded block
        self._base_codes: Optional[np.ndarray] = None
        self._tail_vectors: List[np.ndarray] = []  # per-item inserts
        self._tail_codes: List[np.ndarray] = []
        self._positions: Dict[object, int] = {}
        self._matrix_cache: Optional[np.ndarray] = None
        self._codes_cache: Optional[np.ndarray] = None
        self._columns_cache: Optional[List[np.ndarray]] = None
        self._tie_cache: Optional[np.ndarray] = None
        self._leaves, self._program = _fold_plan(dimension, bits <= _PAIR_BITS)
        self._registers = max(register for _, register in self._program)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls, object_ids, vectors, *, bits: int = 6, chunk: int = SCAN_CHUNK
    ) -> "VAFile":
        """Columnar build: one ``[n, d]`` matrix in, codes out chunk-wise.

        The vector matrix is adopted by reference when already
        ``float64`` (a memmap stays out of core); only the small uint
        code matrix is materialized in RAM."""
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim != 2:
            raise IndexError_(f"expected an [n, d] matrix, got shape {matrix.shape}")
        ids = list(object_ids)
        if len(ids) != len(matrix):
            raise IndexError_(f"{len(ids)} ids for {len(matrix)} vectors")
        positions = cls._new_id_positions(ids)
        va = cls(matrix.shape[1], bits=bits)
        codes = np.empty(matrix.shape, dtype=va._code_dtype)
        for start in range(0, len(matrix), chunk):
            block = matrix[start : start + chunk]
            if not ((block >= 0) & (block <= 1)).all():  # NaN fails too
                raise IndexError_("VA-file stores points in the unit cube only")
            np.clip(
                (block * va.cells).astype(np.int64),
                0,
                va.cells - 1,
                out=codes[start : start + chunk],
                casting="unsafe",
            )
        va._ids = ids
        va._base_matrix = matrix
        va._base_codes = codes
        va._positions = positions
        return va

    def _approximate(self, vector: np.ndarray) -> np.ndarray:
        return np.clip((vector * self.cells).astype(int), 0, self.cells - 1)

    def insert(self, object_id: object, vector) -> None:
        point = self._check_vector(vector)
        if not ((point >= 0) & (point <= 1)).all():
            raise IndexError_("VA-file stores points in the unit cube only")
        self._new_id_positions([object_id], self._positions)
        self._positions[object_id] = len(self._ids)
        self._ids.append(object_id)
        self._tail_vectors.append(point)
        self._tail_codes.append(self._approximate(point).astype(self._code_dtype))
        self._matrix_cache = None
        self._codes_cache = None
        self._columns_cache = None
        self._tie_cache = None

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Columnar views
    # ------------------------------------------------------------------
    def _matrix(self) -> np.ndarray:
        if self._matrix_cache is None:
            blocks = []
            if self._base_matrix is not None and len(self._base_matrix):
                blocks.append(self._base_matrix)
            if self._tail_vectors:
                blocks.append(np.stack(self._tail_vectors))
            if not blocks:
                return np.empty((0, self.dimension))
            self._matrix_cache = (
                blocks[0] if len(blocks) == 1 else np.vstack(blocks)
            )
        return self._matrix_cache

    def _codes(self) -> np.ndarray:
        if self._codes_cache is None:
            blocks = []
            if self._base_codes is not None and len(self._base_codes):
                blocks.append(self._base_codes)
            if self._tail_codes:
                blocks.append(np.stack(self._tail_codes))
            if not blocks:
                return np.empty((0, self.dimension), dtype=self._code_dtype)
            self._codes_cache = (
                blocks[0] if len(blocks) == 1 else np.vstack(blocks)
            )
        return self._codes_cache

    def _tie_array(self) -> np.ndarray:
        if self._tie_cache is None:
            self._tie_cache = canonical_tie_array(self._ids)
        return self._tie_cache

    @property
    def _vectors(self) -> np.ndarray:
        """Row-indexable view of all stored vectors (tests peek here)."""
        return self._matrix()

    @property
    def _approximations(self) -> np.ndarray:
        """Row-indexable view of all stored approximations."""
        return self._codes()

    def vector_of(self, object_id: object) -> np.ndarray:
        row = self._positions.get(object_id)
        if row is None:
            raise UnknownObjectError(f"unknown object: {object_id!r}")
        return np.asarray(self._matrix()[row], dtype=float)

    def vectors_of(self, object_ids: Sequence) -> np.ndarray:
        rows = self._rows_of(self._positions, object_ids)
        if not rows:
            return np.empty((0, self.dimension))
        return np.asarray(self._matrix()[rows], dtype=float)

    # ------------------------------------------------------------------
    # Distance bounds
    # ------------------------------------------------------------------
    def _leaf_columns(self, codes: np.ndarray) -> List[np.ndarray]:
        """One contiguous code column per fold leaf: a paired leaf
        ``(i, j)`` reads the uint16 ``c_i * cells + c_j``, a single one
        ``c_i``.  Cached for the stored codes (``insert`` drops them)."""
        stored = codes is self._codes_cache
        columns = self._columns_cache if stored else None
        if columns is None:
            columns = []
            for leaf in self._leaves:
                column = codes[:, leaf[0]].astype(
                    np.uint16 if len(leaf) == 2 else codes.dtype
                )
                if len(leaf) == 2:
                    column *= self.cells
                    column += codes[:, leaf[1]]
                columns.append(column)
            if stored:
                self._columns_cache = columns
        return columns

    def _table_bounds(
        self, codes: np.ndarray, query: np.ndarray, *, upper: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The one bound kernel: lower (and, if asked, upper) bounds on
        the distance from ``query`` to any point in each code row's cell.

        Builds the ``[d, cells]`` tables of squared per-dimension gaps
        once per query, then folds them column-wise in numpy's own row
        summation order (:func:`_sum_order`), :data:`SCAN_CHUNK` rows at
        a time: each leaf of the fold gathers its table through its code
        column into a chunk buffer, and each add is one in-place
        ``np.add`` of two buffers.  The same IEEE adds run in the same
        order as ``(gap * gap).sum(axis=1)``, so the bounds are bit for
        bit the row-summed ones.  While a pair table stays cache-sized
        (``bits <= _PAIR_BITS``), every add of two raw dimensions
        ``(i, j)`` is one leaf whose table is the outer sum
        ``sq_i[:, None] + sq_j[None, :]`` — that add done once per cell
        pair instead of once per row — gathered through the paired code
        ``c_i * cells + c_j``.  Codes index the tables: they must lie in
        ``[0, cells)``, as construction ensures."""
        cell = np.arange(self.cells)
        cell_low = cell / self.cells
        cell_high = (cell + 1.0) / self.cells
        column = query[:, None]
        below = np.clip(cell_low - column, 0.0, None)
        above = np.clip(column - cell_high, 0.0, None)
        gap = np.maximum(below, above)
        squares = [gap * gap]
        if upper:
            farthest = np.maximum(
                np.abs(column - cell_low), np.abs(column - cell_high)
            )
            squares.append(farthest * farthest)
        tables = [
            [
                square[leaf[0]]
                if len(leaf) == 1
                else (square[leaf[0], :, None] + square[leaf[1]]).ravel()
                for leaf in self._leaves
            ]
            for square in squares
        ]
        columns = self._leaf_columns(codes)
        bounds = [np.empty(len(codes)) for _ in tables]
        scratch = np.empty((self._registers, min(len(codes), SCAN_CHUNK)))
        for start in range(0, len(codes), SCAN_CHUNK):
            stop = min(start + SCAN_CHUNK, len(codes))
            chunk = [column[start:stop] for column in columns]
            for leaf_tables, out in zip(tables, bounds):
                registers = [out[start:stop], *scratch[:, : stop - start]]
                for leaf, register in self._program:
                    if leaf is None:
                        np.add(
                            registers[register],
                            registers[register + 1],
                            out=registers[register],
                        )
                    else:  # in-range codes: "wrap" skips the raise path's copy
                        leaf_tables[leaf].take(
                            chunk[leaf], out=registers[register], mode="wrap"
                        )
                np.sqrt(registers[0], out=registers[0])
        return bounds[0], bounds[1] if upper else None

    def _bounds(self, approximation: np.ndarray, query: np.ndarray) -> Tuple[float, float]:
        """Lower/upper bounds on the distance from query to any point in
        one approximation's grid cell."""
        lower, upper = self._table_bounds(approximation[None, :], query)
        return float(lower[0]), float(upper[0])

    def _all_bounds(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Scan phase: lower/upper bounds for every stored approximation."""
        return self._table_bounds(self._codes(), query)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, lower, upper) -> List[object]:
        lo = self._check_vector(lower)
        hi = self._check_vector(upper)
        size = len(self._ids)
        if size == 0:
            return []
        lo_cells = self._approximate(np.clip(lo, 0.0, 1.0))
        hi_cells = self._approximate(np.clip(hi, 0.0, 1.0))
        codes = self._codes()
        self.stats.record_nodes(size)  # every approximation is read
        maybe = np.all((codes >= lo_cells) & (codes <= hi_cells), axis=1)
        rows = np.nonzero(maybe)[0]
        if not len(rows):
            return []
        self.stats.record_distances(len(rows))  # full-vector checks
        block = self._matrix()[rows]
        inside = np.all((block >= lo) & (block <= hi), axis=1)
        return [self._ids[row] for row in rows[inside]]

    def knn(self, target, k: int) -> List[Neighbor]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = self._check_vector(target)
        size = len(self._ids)
        if size == 0:
            return []

        # Phase 1: vectorized approximation scan + partitioned selection
        # of the pruning threshold (the k-th smallest upper bound).
        lower, upper = self._all_bounds(query)
        self.stats.record_nodes(size)
        if size > k:
            kth_upper = np.partition(upper, k - 1)[k - 1]
            keep = np.nonzero(lower <= kth_upper + EPS)[0]
        else:
            keep = np.arange(size)

        # Phase 2: refine candidates in canonical (lower, tie) order,
        # true distances computed in vectorized blocks.
        ties = self._tie_array()
        order = np.lexsort((ties[keep], lower[keep]))
        candidates = keep[order]
        candidate_lowers = lower[candidates]
        matrix = self._matrix()
        refined_rows: List[np.ndarray] = []
        refined_distances: List[np.ndarray] = []
        refined_count = 0
        cutoff = float("inf")
        position = 0
        while position < len(candidates):
            if refined_count >= k and candidate_lowers[position] > cutoff + EPS:
                break
            rows = candidates[position : position + REFINE_BLOCK]
            position += len(rows)
            distances = euclidean_distances(matrix[rows], query)
            self.stats.record_distances(len(rows))
            refined_rows.append(rows)
            refined_distances.append(distances)
            refined_count += len(rows)
            if refined_count >= k:
                flat = np.concatenate(refined_distances)
                cutoff = float(np.partition(flat, k - 1)[k - 1])
        rows = np.concatenate(refined_rows)
        distances = np.concatenate(refined_distances)
        best = np.lexsort((ties[rows], distances))[:k]
        return [
            (self._ids[rows[i]], float(distances[i])) for i in best
        ]

    def knn_stream(self, target) -> KnnStream:
        return _VAFileStream(self, self._check_vector(target))

    # ------------------------------------------------------------------
    def approximation_bytes(self) -> int:
        """Size of the approximation file (the thing that gets scanned)."""
        bits_total = len(self._ids) * self.dimension * self.bits
        return (bits_total + 7) // 8

    def vector_bytes(self) -> int:
        """Size of the full vectors (8-byte floats)."""
        return len(self._ids) * self.dimension * 8
