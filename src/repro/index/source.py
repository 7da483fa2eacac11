"""Index-backed kNN ranked lists: §2.1's indexes feeding §4's middleware.

"This suggests the use of a multidimensional indexing method, in order
to speed up the evaluation of atomic multimedia queries."  The paper's
top-k algorithms consume *ranked lists*; its index section produces
*nearest neighbours*.  :class:`KnnSource` is the bridge: it adapts a
lazy :meth:`~repro.index.base.VectorIndex.knn_stream` into a
:class:`~repro.core.sources.GradedSource` by mapping each certified
nondecreasing distance through the monotone decreasing
:func:`~repro.multimedia.histogram.distance_to_grade` — so the stream's
distance order *is* the ranked list's grade order, and TA/NRA/θ run
unchanged on top of a VA-file or R-tree instead of a full scan-and-sort.

Access-mode mapping (section 4):

* **sorted access** pops the stream lazily, exactly as deep as it is
  read — neighbours past the stopping depth are never computed, which
  is the entire point of the index fast path;
* **random access** is a direct distance evaluation against the stored
  vector (one ``distance_evaluations`` tick on the index), a bulk probe
  one :meth:`~repro.index.base.VectorIndex.vectors_of` gather;
* it implements the two array hooks every source does
  (``_columns_range``, ``_grades_of_many``) and is ``supports_columnar``
  (free reads, accesses that cannot fail), so the algorithms, storage
  wrappers, tracer accounting, and resilience middleware compose
  unchanged.

Grade accounting stays on the source's :class:`AccessCounter` exactly
as for any other source; the *physical* index work (node accesses,
distance evaluations) accumulates on the index's locked
:class:`~repro.index.base.IndexStats`, surfaced to traces through the
:meth:`KnnSource.index_stats` hook.

:class:`KnnSubsystem` registers the whole thing as a middleware
subsystem: it bulk-loads one index over a feature corpus and binds
``Near = <target>`` atoms to fresh :class:`KnnSource` ranked lists.
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.query import Atomic
from repro.core.sources import GradedSource
from repro.errors import IndexError_
from repro.index.base import (
    LinearScanIndex,
    VectorIndex,
    euclidean_distances,
)
from repro.index.rtree import RTree
from repro.index.vafile import VAFile
from repro.middleware.interface import Subsystem
from repro.multimedia.histogram import distance_to_grade

#: The index kinds selectable end to end (``--index`` on the CLI).
INDEX_KINDS = ("scan", "vafile", "rtree")


def build_knn_index(
    kind: str,
    object_ids,
    vectors,
    *,
    bits: int = 6,
    max_entries: int = 32,
) -> VectorIndex:
    """Bulk-load one index of the chosen kind over an ``[n, d]`` matrix."""
    if kind == "scan":
        return LinearScanIndex.bulk_load(object_ids, vectors)
    if kind == "vafile":
        return VAFile.bulk_load(object_ids, vectors, bits=bits)
    if kind == "rtree":
        return RTree.bulk_load_arrays(object_ids, vectors, max_entries=max_entries)
    raise IndexError_(
        f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
    )


class KnnSource(GradedSource):
    """A ranked list served by a nearest-first index stream.

    The stream prefix materializes lazily (ids + grades in parallel
    lists) as sorted positions are first touched: a read of positions
    ``[start, start + count)`` pulls exactly the neighbours the prefix
    lacks up to there, in one ``next_batch``, and nothing past them.
    Peeks re-read the materialized prefix and stay charge-free.  Grades are
    ``distance_to_grade(distance, scale)`` — since every index computes
    bit-identical distances through the shared Euclidean kernel, two
    :class:`KnnSource`\\ s over different index kinds produce
    byte-identical ranked lists.

    Concurrent queries may read one binding from several threads: a
    lock, held by sorted reads and random access, serializes them on
    the stream, so every reader sees the one serial ranked list.
    """

    supports_columnar = True

    def __init__(
        self,
        index: VectorIndex,
        target,
        *,
        name: str = "knn",
        scale: float = 1.0,
        kind: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self._index = index
        self._target = index._check_vector(target)
        self._scale = float(scale)
        self._kind = kind or type(index).__name__
        self._stream = index.knn_stream(self._target)
        self._prefix_ids: List[object] = []
        self._prefix_grades: List[float] = []
        self._stream_done = False
        self._lock = threading.Lock()

    # -- lazy materialization -------------------------------------------------
    def _materialize_to(self, position: int) -> None:
        """Pull the stream until the prefix covers ``position``: the
        missing neighbours only, in one pull.

        Charges nothing on the access counter — the cursor/random-access
        layer does that accounting; the physical pull cost lands on the
        index's own stats at the moment the work actually happens."""
        need = position + 1 - len(self._prefix_ids)
        if need <= 0 or self._stream_done:
            return
        batch = self._stream.next_batch(need)
        if len(batch) < need:
            self._stream_done = True
        if batch:
            ids, distances = zip(*batch)
            self._prefix_ids.extend(ids)
            self._prefix_grades.extend(
                distance_to_grade(
                    np.asarray(distances, dtype=np.float64), self._scale
                ).tolist()
            )

    # -- GradedSource hooks ---------------------------------------------------
    def _columns_range(self, start: int, count: int) -> Tuple[List[object], np.ndarray]:
        with self._lock:
            self._materialize_to(start + count - 1)
            end = min(start + count, len(self._prefix_ids))
            return (
                self._prefix_ids[start:end],
                np.asarray(self._prefix_grades[start:end], dtype=np.float64),
            )

    def _grades_of_many(self, object_ids) -> np.ndarray:
        # One distance block for the whole request through the shared
        # kernel and ``distance_to_grade``, both elementwise, so every
        # grade is bit for bit what probing one id at a time gives.
        ids = list(object_ids)
        if not ids:
            return np.empty(0)
        with self._lock:
            block = self._index.vectors_of(ids)
            self._index.stats.record_distances(len(ids))
            distances = euclidean_distances(block, self._target)
        return np.asarray(distance_to_grade(distances, self._scale), dtype=np.float64)

    def __len__(self) -> int:
        return len(self._index)

    # -- observability hook ---------------------------------------------------
    def index_stats(self) -> Dict[str, object]:
        """Physical index work behind this source (engine trace hook).

        Counters live on the index, so sources sharing one index report
        the cumulative work of that index; a traced query reports the
        difference across its own run."""
        nodes, distances = self._index.stats.snapshot()
        return {
            "index": self._kind,
            "n": len(self._index),
            "node_accesses": nodes,
            "distance_evals": distances,
        }


class KnnSubsystem(Subsystem):
    """A middleware subsystem serving ``Near = <target>`` kNN atoms.

    Bulk-loads one index (``scan`` | ``vafile`` | ``rtree``) over a
    feature corpus at construction; every supported atom binds to a
    fresh :class:`KnnSource` over that shared index.  String targets
    resolve to deterministic pseudo-random unit-cube query points
    (crc32-seeded, stable across processes), so SQL like
    ``WHERE Near = 'sunset'`` works without shipping raw vectors.
    """

    def __init__(
        self,
        name: str,
        object_ids,
        vectors,
        *,
        index: str = "vafile",
        attribute: str = "Near",
        scale: float = 1.0,
        bits: int = 6,
        max_entries: int = 32,
    ) -> None:
        super().__init__(name)
        self.kind = index
        self._attribute = attribute
        self._scale = scale
        self._index = build_knn_index(
            index, object_ids, vectors, bits=bits, max_entries=max_entries
        )

    @property
    def index(self) -> VectorIndex:
        return self._index

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self._attribute})

    def resolve_target(self, value) -> np.ndarray:
        """An atom target as a query vector (strings hash to stable points)."""
        if isinstance(value, str):
            seed = zlib.crc32(value.encode("utf-8"))
            rng = np.random.default_rng(seed)
            return rng.random(self._index.dimension)
        return self._index._check_vector(value)

    def _bind(self, atom: Atomic) -> GradedSource:
        target = self.resolve_target(atom.target)
        label = atom.target if isinstance(atom.target, str) else "<vector>"
        return KnnSource(
            self._index,
            target,
            name=f"{self._attribute}={label}",
            scale=self._scale,
            kind=self.kind,
        )
