"""A linear quadtree via Morton (Z-order) codes (section 2.1).

The other method the paper names as growing "exponentially with the
dimensionality" [Sa89].  A *linear* quadtree stores no explicit tree:
each point is coded by interleaving the bits of its quantized
coordinates (the Morton code), and cells become contiguous code ranges.
Range queries decompose the query box into cell ranges at a fixed depth;
the number of such cells — and hence query work — is exponential in the
dimension, which E13 measures.

Generalized to d dimensions (a true "quadtree" is d = 2 with 4-way
fan-out; the code handles any d >= 1 with 2^d-way fan-out).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import IndexError_, UnknownObjectError
from repro.index.base import Neighbor, VectorIndex, euclidean_distances


def interleave_bits(coordinates: Tuple[int, ...], depth: int) -> int:
    """Morton code: bit-interleave quantized coordinates at ``depth`` bits."""
    code = 0
    for bit in range(depth - 1, -1, -1):
        for axis, coordinate in enumerate(coordinates):
            code = (code << 1) | ((coordinate >> bit) & 1)
    return code


class LinearQuadtree(VectorIndex):
    """Morton-coded point store over the unit cube at a fixed depth."""

    #: Refuse cell spaces past this size — range decomposition visits a
    #: number of cells exponential in the dimension (the curse), and
    #: beyond this bound even one query would take unbounded time.
    MAX_CELLS = 2**22

    def __init__(self, dimension: int, depth: int = 4) -> None:
        super().__init__(dimension)
        if depth < 1:
            raise IndexError_(f"depth must be >= 1, got {depth}")
        if 2 ** (depth * dimension) > self.MAX_CELLS:
            raise IndexError_(
                f"cell space 2^{depth * dimension} at dimension {dimension} "
                "is intractable: the dimensionality curse in action"
            )
        self.depth = depth
        self.cells_per_dim = 2**depth
        #: (code, object_id, vector), kept sorted by code.
        self._entries: List[Tuple[int, object, np.ndarray]] = []
        self._codes: List[int] = []
        self._by_id: Dict[object, np.ndarray] = {}

    def _quantize(self, vector: np.ndarray) -> Tuple[int, ...]:
        cells = np.clip(
            (vector * self.cells_per_dim).astype(int), 0, self.cells_per_dim - 1
        )
        return tuple(int(c) for c in cells)

    def code_of(self, vector) -> int:
        """The Morton code of a point (exposed for tests)."""
        return interleave_bits(self._quantize(self._check_vector(vector)), self.depth)

    def insert(self, object_id: object, vector) -> None:
        point = self._check_vector(vector)
        if np.any(point < 0) or np.any(point > 1):
            raise IndexError_("linear quadtree stores points in the unit cube only")
        self._new_id_positions([object_id], self._by_id)
        code = interleave_bits(self._quantize(point), self.depth)
        position = bisect.bisect_left(self._codes, code)
        self._codes.insert(position, code)
        self._entries.insert(position, (code, object_id, point))
        self._by_id[object_id] = point

    def vector_of(self, object_id: object) -> np.ndarray:
        vector = self._by_id.get(object_id)
        if vector is None:
            raise UnknownObjectError(f"unknown object: {object_id!r}")
        return vector

    def range_query(self, lower, upper) -> List[object]:
        lo = self._check_vector(lower)
        hi = self._check_vector(upper)
        lo_cell = self._quantize(np.clip(lo, 0.0, 1.0))
        hi_cell = self._quantize(np.clip(hi, 0.0, 1.0))
        results: List[object] = []
        # Visit every cell overlapping the box — the cell count is
        # exponential in dimension, which is the point of E13.
        ranges = [range(a, b + 1) for a, b in zip(lo_cell, hi_cell)]
        for cell in itertools.product(*ranges):
            code = interleave_bits(cell, self.depth)
            self.stats.record_nodes()
            start = bisect.bisect_left(self._codes, code)
            end = bisect.bisect_right(self._codes, code)
            for _, object_id, point in self._entries[start:end]:
                self.stats.record_distances()
                if np.all(point >= lo) and np.all(point <= hi):
                    results.append(object_id)
        return results

    def knn(self, target, k: int) -> List[Neighbor]:
        """k-NN by growing a range box around the target.

        Doubles the box half-width until k candidates are inside and the
        box fully covers the k-th distance, then verifies exactly.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        point = self._check_vector(target)
        if not self._entries:
            return []
        half_width = 1.0 / self.cells_per_dim
        while True:
            ids = self.range_query(point - half_width, point + half_width)
            if len(ids) >= k or half_width >= 1.0:
                candidates = []
                vectors = {
                    object_id: vector for _, object_id, vector in self._entries
                }
                for object_id in ids:
                    self.stats.record_distances()
                    d = euclidean_distances(vectors[object_id], point)
                    candidates.append((d, str(object_id), object_id))
                candidates.sort()
                if half_width >= 1.0 or (
                    len(candidates) >= k and candidates[k - 1][0] <= half_width
                ):
                    return [(obj, d) for d, _, obj in candidates[:k]]
            half_width *= 2.0

    def __len__(self) -> int:
        return len(self._entries)
