"""Common machinery for the multidimensional indexes (section 2.1).

"This suggests the use of a multidimensional indexing method, in order
to speed up the evaluation of atomic multimedia queries.  But multimedia
data often have high dimensionalities ... the 'dimensionality curse'."

Every index stores (object id, feature vector) pairs, answers range and
k-nearest-neighbour queries under Euclidean distance, and tallies its
work in an :class:`IndexStats` so experiment E13 can compare indexes
against the linear-scan baseline as dimensionality grows.

Beyond the batch ``knn()`` API, every index exposes a lazy, resumable
:meth:`VectorIndex.knn_stream`: a best-first iterator that emits
neighbours in certified nondecreasing ``(distance, str(id))`` order
without materializing all n results — the sorted-access feed that
``repro.index.source.KnnSource`` adapts into a graded ranked list.

All distance computation in the index package goes through
:func:`euclidean_distances` so that the same (query, vector) pair yields
the *bit-identical* float in every index — the property the cross-index
conformance gates (exact id+distance equality against the linear-scan
oracle) and the byte-identical CLI answers rely on.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import IndexError_, UnknownObjectError


def euclidean_distances(vectors, query: np.ndarray):
    """Euclidean distance from ``query`` to one vector or a ``[n, d]`` block.

    The single shared kernel for *every* distance the index package
    computes.  It spells out ``sqrt(sum((x - q)**2))`` instead of
    ``np.linalg.norm`` so the scalar and the row-block paths run the
    same pairwise summation and return bit-identical floats — distance
    ties then break identically across indexes, which is what makes
    cross-index conformance byte-exact.
    """
    diff = np.asarray(vectors, dtype=float) - query
    squared = diff * diff
    if diff.ndim == 1:
        return float(np.sqrt(squared.sum()))
    return np.sqrt(squared.sum(axis=1))


def require_finite(vectors: np.ndarray) -> None:
    """Reject NaN/inf coordinates (checked in row blocks, so a memmap
    matrix is streamed rather than mirrored by a full-size mask).

    A non-finite coordinate has no meaningful distance: NaN compares
    false with every bound, so it would slip through pruning checks and
    be emitted at an arbitrary rank."""
    for start in range(0, len(vectors), 65536):
        if not np.isfinite(vectors[start : start + 65536]).all():
            raise IndexError_("index vectors must be finite (no NaN or inf)")


def canonical_tie_array(object_ids) -> np.ndarray:
    """``str(id)`` per object as a numpy array — the canonical tie key."""
    return np.asarray([str(object_id) for object_id in object_ids])


@dataclass
class IndexStats:
    """Work counters for one index instance.

    ``node_accesses`` counts directory/page touches (the I/O proxy);
    ``distance_evaluations`` counts full feature-vector distance
    computations (the CPU proxy).  Updates go through
    :meth:`record_nodes` / :meth:`record_distances`, which hold a lock
    so concurrent probes from the parallel executor never tear a count.
    """

    node_accesses: int = 0
    distance_evaluations: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_nodes(self, n: int = 1) -> None:
        with self._lock:
            self.node_accesses += n

    def record_distances(self, n: int = 1) -> None:
        with self._lock:
            self.distance_evaluations += n

    def snapshot(self) -> Tuple[int, int]:
        """A consistent ``(node_accesses, distance_evaluations)`` pair."""
        with self._lock:
            return self.node_accesses, self.distance_evaluations

    def reset(self) -> None:
        with self._lock:
            self.node_accesses = 0
            self.distance_evaluations = 0


Neighbor = Tuple[object, float]


class KnnStream(ABC):
    """A lazy, resumable nearest-first neighbour stream.

    Emits :data:`Neighbor` pairs in certified nondecreasing
    ``(distance, str(id))`` order.  ``next()`` pops one neighbour (or
    ``None`` when exhausted); ``next_batch(n)`` pops up to ``n`` — the
    bulk shape :class:`repro.index.source.KnnSource` feeds from.  The
    stream is resumable: popping ``j`` then ``j`` more yields exactly
    the first ``2j`` of a fresh stream.
    """

    def __init__(self) -> None:
        self.delivered = 0

    @abstractmethod
    def _advance(self) -> Optional[Neighbor]:
        """Produce the next neighbour, or ``None`` when exhausted."""

    def next(self) -> Optional[Neighbor]:
        neighbor = self._advance()
        if neighbor is not None:
            self.delivered += 1
        return neighbor

    def next_batch(self, n: int) -> List[Neighbor]:
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n}")
        batch: List[Neighbor] = []
        while len(batch) < n:
            neighbor = self.next()
            if neighbor is None:
                break
            batch.append(neighbor)
        return batch

    def __iter__(self) -> Iterator[Neighbor]:
        while True:
            neighbor = self.next()
            if neighbor is None:
                return
            yield neighbor


class _MaterializedKnnStream(KnnStream):
    """Fallback stream: run the batch ``knn`` once, then emit lazily.

    Used by indexes without a native incremental traversal (grid file,
    linear quadtree).  The full answer is computed on the *first* pop —
    constructing the stream costs nothing.
    """

    def __init__(self, index: "VectorIndex", target: np.ndarray) -> None:
        super().__init__()
        self._index = index
        self._target = target
        self._results: Optional[List[Neighbor]] = None
        self._position = 0

    def _advance(self) -> Optional[Neighbor]:
        if self._results is None:
            size = len(self._index)
            self._results = self._index.knn(self._target, size) if size else []
        if self._position >= len(self._results):
            return None
        neighbor = self._results[self._position]
        self._position += 1
        return neighbor


class VectorIndex(ABC):
    """A multidimensional index over labeled feature vectors."""

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise IndexError_(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.stats = IndexStats()

    def _check_vector(self, vector) -> np.ndarray:
        array = np.asarray(vector, dtype=float)
        if array.shape != (self.dimension,):
            raise IndexError_(
                f"expected a {self.dimension}-vector, got shape {array.shape}"
            )
        require_finite(array)
        return array

    @abstractmethod
    def insert(self, object_id: object, vector) -> None:
        """Add one labeled vector."""

    @abstractmethod
    def range_query(self, lower, upper) -> List[object]:
        """Object ids inside the axis-aligned box [lower, upper]."""

    @abstractmethod
    def knn(self, target, k: int) -> List[Neighbor]:
        """The k nearest objects to ``target`` by Euclidean distance.

        Distance ties break by the canonical ``str(id)`` key, so every
        index returns the identical list for the identical data."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored vectors."""

    def knn_stream(self, target) -> KnnStream:
        """A lazy nearest-first stream over the whole index.

        Subclasses with a native incremental traversal override this;
        the default materializes the batch answer on first pop."""
        return _MaterializedKnnStream(self, self._check_vector(target))

    def vector_of(self, object_id: object) -> np.ndarray:
        """The stored feature vector of one object (random access)."""
        raise UnknownObjectError(
            f"{type(self).__name__} does not support vector lookup"
        )


class _ScanStream(KnnStream):
    """Linear-scan stream: all distances on first pop, emitted lazily."""

    def __init__(self, index: "LinearScanIndex", target: np.ndarray) -> None:
        super().__init__()
        self._index = index
        self._target = target
        self._order: Optional[np.ndarray] = None
        self._distances: Optional[np.ndarray] = None
        self._position = 0

    def _advance(self) -> Optional[Neighbor]:
        if self._order is None:
            matrix = self._index._full_matrix()
            if matrix is None:
                self._order = np.empty(0, dtype=int)
                self._distances = np.empty(0)
            else:
                self._index.stats.record_distances(len(matrix))
                self._distances = euclidean_distances(matrix, self._target)
                self._order = np.lexsort(
                    (self._index._tie_array(), self._distances)
                )
        if self._position >= len(self._order):
            return None
        row = int(self._order[self._position])
        self._position += 1
        return (self._index._ids[row], float(self._distances[row]))


class LinearScanIndex(VectorIndex):
    """The no-index baseline: a sequential scan of the entire database.

    "We wish to avoid doing a sequential scan of the entire database"
    (section 6) — this is the thing to beat.  The scan itself is
    columnar: vectors live in one ``[n, d]`` matrix (built by
    :meth:`bulk_load` or consolidated lazily from per-item inserts, and
    the bulk matrix may be a numpy memmap), so a query is one
    vectorized distance pass plus one canonical-order ``lexsort``.
    """

    def __init__(self, dimension: int) -> None:
        super().__init__(dimension)
        self._ids: List[object] = []
        self._matrix: Optional[np.ndarray] = None  # bulk-loaded block
        self._extra: List[np.ndarray] = []  # per-item inserts
        self._matrix_cache: Optional[np.ndarray] = None
        self._tie_cache: Optional[np.ndarray] = None
        self._positions: Dict[object, int] = {}

    @classmethod
    def bulk_load(cls, object_ids, vectors) -> "LinearScanIndex":
        """Columnar build from parallel ids and an ``[n, d]`` matrix.

        The matrix is adopted by reference when already ``float64`` —
        a memmap stays a memmap, so 10^6 vectors never enter RAM."""
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim != 2:
            raise IndexError_(f"expected an [n, d] matrix, got shape {matrix.shape}")
        ids = list(object_ids)
        if len(ids) != len(matrix):
            raise IndexError_(
                f"{len(ids)} ids for {len(matrix)} vectors"
            )
        require_finite(matrix)
        index = cls(matrix.shape[1])
        index._ids = ids
        index._matrix = matrix
        index._positions = {object_id: row for row, object_id in enumerate(ids)}
        return index

    def insert(self, object_id: object, vector) -> None:
        point = self._check_vector(vector)  # before any state changes
        self._positions[object_id] = len(self._ids)
        self._ids.append(object_id)
        self._extra.append(point)
        self._matrix_cache = None
        self._tie_cache = None

    def _full_matrix(self) -> Optional[np.ndarray]:
        if self._matrix_cache is None:
            blocks = []
            if self._matrix is not None and len(self._matrix):
                blocks.append(self._matrix)
            if self._extra:
                blocks.append(np.stack(self._extra))
            if not blocks:
                return None
            self._matrix_cache = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        return self._matrix_cache

    def _tie_array(self) -> np.ndarray:
        if self._tie_cache is None:
            self._tie_cache = canonical_tie_array(self._ids)
        return self._tie_cache

    def vector_of(self, object_id: object) -> np.ndarray:
        row = self._positions.get(object_id)
        if row is None:
            raise UnknownObjectError(f"unknown object: {object_id!r}")
        matrix = self._full_matrix()
        return np.asarray(matrix[row], dtype=float)

    def range_query(self, lower, upper) -> List[object]:
        lo = self._check_vector(lower)
        hi = self._check_vector(upper)
        matrix = self._full_matrix()
        if matrix is None:
            return []
        self.stats.record_distances(len(matrix))
        inside = np.all((matrix >= lo) & (matrix <= hi), axis=1)
        return [self._ids[row] for row in np.nonzero(inside)[0]]

    def knn(self, target, k: int) -> List[Neighbor]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        point = self._check_vector(target)
        matrix = self._full_matrix()
        if matrix is None:
            return []
        self.stats.record_distances(len(matrix))
        distances = euclidean_distances(matrix, point)
        order = np.lexsort((self._tie_array(), distances))[:k]
        return [(self._ids[row], float(distances[row])) for row in order]

    def knn_stream(self, target) -> KnnStream:
        return _ScanStream(self, self._check_vector(target))

    def __len__(self) -> int:
        return len(self._ids)
