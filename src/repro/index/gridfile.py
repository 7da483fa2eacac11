"""A grid file (section 2.1's exponential-growth example).

"Two popular multidimensional indexing methods, namely linear quadtrees
and grid files, grow exponentially with the dimensionality.  So these
methods are not practical in these situations."  [NHS84]

This is a simplified grid file over the unit cube: a uniform directory
of ``cells_per_dim ** dimension`` cells.  The directory size — the
quantity that explodes with dimension — is exposed as
:attr:`GridFile.directory_size`, and experiment E13 charts it against
the R-tree's node count to reproduce the paper's "not practical"
verdict.  k-NN expands concentric cell shells around the target until
the unexplored shells provably cannot improve the answer.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import IndexError_, UnknownObjectError
from repro.index.base import Neighbor, VectorIndex, euclidean_distances

Cell = Tuple[int, ...]


class GridFile(VectorIndex):
    """Uniform grid directory over [0, 1]^d."""

    #: Refuse directories past this size instead of exhausting memory —
    #: the practical manifestation of the dimensionality curse.
    MAX_DIRECTORY = 2_000_000

    def __init__(self, dimension: int, cells_per_dim: int = 8) -> None:
        super().__init__(dimension)
        if cells_per_dim < 1:
            raise IndexError_(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        self.cells_per_dim = cells_per_dim
        self.directory_size = cells_per_dim**dimension
        if self.directory_size > self.MAX_DIRECTORY:
            raise IndexError_(
                f"grid directory would need {self.directory_size} cells at "
                f"dimension {dimension}: the dimensionality curse in action"
            )
        self._cells: Dict[Cell, List[Tuple[object, np.ndarray]]] = {}
        self._by_id: Dict[object, np.ndarray] = {}
        self._count = 0

    def _cell_of(self, vector: np.ndarray) -> Cell:
        scaled = np.clip(
            (vector * self.cells_per_dim).astype(int), 0, self.cells_per_dim - 1
        )
        return tuple(int(c) for c in scaled)

    def insert(self, object_id: object, vector) -> None:
        point = self._check_vector(vector)
        if np.any(point < 0) or np.any(point > 1):
            raise IndexError_("grid file stores points in the unit cube only")
        self._new_id_positions([object_id], self._by_id)
        self._cells.setdefault(self._cell_of(point), []).append((object_id, point))
        self._by_id[object_id] = point
        self._count += 1

    def vector_of(self, object_id: object) -> np.ndarray:
        vector = self._by_id.get(object_id)
        if vector is None:
            raise UnknownObjectError(f"unknown object: {object_id!r}")
        return vector

    def range_query(self, lower, upper) -> List[object]:
        lo = self._check_vector(lower)
        hi = self._check_vector(upper)
        lo_cell = self._cell_of(np.clip(lo, 0.0, 1.0))
        hi_cell = self._cell_of(np.clip(hi, 0.0, 1.0))
        results: List[object] = []
        ranges = [range(a, b + 1) for a, b in zip(lo_cell, hi_cell)]
        for cell in itertools.product(*ranges):
            self.stats.record_nodes()
            for object_id, point in self._cells.get(cell, ()):
                self.stats.record_distances()
                if np.all(point >= lo) and np.all(point <= hi):
                    results.append(object_id)
        return results

    def _shell(self, center: Cell, radius: int):
        """Cells at Chebyshev distance exactly ``radius`` from center."""
        if radius == 0:
            yield center
            return
        spans = [
            range(
                max(0, c - radius), min(self.cells_per_dim - 1, c + radius) + 1
            )
            for c in center
        ]
        for cell in itertools.product(*spans):
            if max(abs(a - b) for a, b in zip(cell, center)) == radius:
                yield cell

    def knn(self, target, k: int) -> List[Neighbor]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        point = self._check_vector(target)
        if self._count == 0:
            return []
        center = self._cell_of(np.clip(point, 0.0, 1.0))
        cell_size = 1.0 / self.cells_per_dim
        found: List[Tuple[float, str, object]] = []
        for radius in range(self.cells_per_dim + 1):
            # Any point in an unexplored shell is at least this far away.
            shell_min_distance = max(0.0, (radius - 1) * cell_size)
            if len(found) >= k and found[k - 1][0] <= shell_min_distance:
                break
            for cell in self._shell(center, radius):
                self.stats.record_nodes()
                for object_id, vector in self._cells.get(cell, ()):
                    self.stats.record_distances()
                    d = euclidean_distances(vector, point)
                    found.append((d, str(object_id), object_id))
            found.sort()
        return [(object_id, d) for d, _, object_id in found[:k]]

    def occupied_cells(self) -> int:
        """Number of directory cells actually holding data."""
        return len(self._cells)

    def __len__(self) -> int:
        return self._count
