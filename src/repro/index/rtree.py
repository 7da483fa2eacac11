"""An R-tree with quadratic split and STR bulk loading (section 2.1).

"Another popular multidimensional indexing method is R-trees.  These
tend to be more robust for higher dimensions, at least for dimensions up
to around 20."  [BKSS90, Ot92]

The implementation follows Guttman's original design with the quadratic
split heuristic, plus Sort-Tile-Recursive (STR) bulk loading for
building from a batch.  k-NN uses the standard best-first traversal on
MINDIST, which visits exactly the nodes whose bounding boxes could still
contain a result — so the node-access counter directly measures how much
of the tree a query actually needed (the E13 comparison quantity).

Leaves are columnar: each leaf holds its ids plus one ``[c, d]`` point
matrix, so scoring a visited leaf is a single vectorized distance pass.
:meth:`RTree.bulk_load_arrays` builds the whole tree from one ``[n, d]``
matrix with argsort-based STR tiling over index arrays (no per-entry
Python objects at the leaf level); per-item :meth:`RTree.insert` with
quadratic splits remains as the incremental path.
:meth:`RTree.knn_stream` exposes the best-first traversal as a lazy
resumable stream in canonical ``(distance, str(id))`` order — at equal
distance, nodes expand before objects emit, so every tied object is in
the frontier before the tie breaks on ``str(id)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_, UnknownObjectError
from repro.index.base import (
    KnnStream,
    Neighbor,
    VectorIndex,
    euclidean_distances,
    require_finite,
)


class _BBox:
    """An axis-aligned bounding box with the usual R-tree operations."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: np.ndarray, upper: np.ndarray) -> None:
        self.lower = lower
        self.upper = upper

    @classmethod
    def of_point(cls, point: np.ndarray) -> "_BBox":
        return cls(point.copy(), point.copy())

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def enlarged(self, other: "_BBox") -> "_BBox":
        return _BBox(
            np.minimum(self.lower, other.lower),
            np.maximum(self.upper, other.upper),
        )

    def enlargement(self, other: "_BBox") -> float:
        return self.enlarged(other).volume() - self.volume()

    def intersects_box(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        return bool(np.all(self.upper >= lower) and np.all(self.lower <= upper))

    def mindist(self, point: np.ndarray) -> float:
        """Distance from a point to the nearest point of the box.

        Computed by the shared kernel on the clipped point, so it is a
        lower bound of the *computed* distance of every point inside
        the box (each ``|x - q|`` term is no smaller than the clipped
        one, and the kernel's rounding and summation are monotone) —
        never one ulp above it, which would emit a tied neighbour late."""
        nearest = np.clip(point, self.lower, self.upper)
        return euclidean_distances(nearest, point)


class _Node:
    __slots__ = ("is_leaf", "entries", "ids", "matrix", "bbox")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        #: inner entries: (bbox, child); leaves keep ids + matrix instead
        self.entries: List[tuple] = []
        #: leaf payload: parallel ids and a [c, d] point matrix
        self.ids: List[object] = []
        self.matrix: Optional[np.ndarray] = None
        self.bbox: Optional[_BBox] = None

    def size(self) -> int:
        return len(self.ids) if self.is_leaf else len(self.entries)

    def recompute_bbox(self) -> None:
        if self.is_leaf:
            self.bbox = _BBox(self.matrix.min(axis=0), self.matrix.max(axis=0))
        else:
            boxes = [entry[0] for entry in self.entries]
            lower = np.minimum.reduce([b.lower for b in boxes])
            upper = np.maximum.reduce([b.upper for b in boxes])
            self.bbox = _BBox(lower, upper)


class _RTreeStream(KnnStream):
    """Best-first MINDIST traversal as a lazy resumable stream.

    Heap entries are ``(distance, kind, tie, seq, payload)`` with kind 0
    for nodes and 1 for objects: at equal distance every node expands
    before any object emits, so all tied objects are in the heap when
    the canonical ``str(id)`` tie key decides the emission order.
    """

    def __init__(self, tree: "RTree", point: np.ndarray) -> None:
        super().__init__()
        self._tree = tree
        self._point = point
        self._heap: Optional[List[tuple]] = None
        self._counter = itertools.count()

    def _advance(self) -> Optional[Neighbor]:
        if self._heap is None:
            self._heap = []
            if len(self._tree):
                root = self._tree._root
                heapq.heappush(
                    self._heap,
                    (root.bbox.mindist(self._point), 0, "", next(self._counter), root),
                )
        while self._heap:
            distance, kind, _, _, payload = heapq.heappop(self._heap)
            if kind == 1:
                return (payload, distance)
            node: _Node = payload
            self._tree.stats.record_nodes()
            if node.is_leaf:
                distances = euclidean_distances(node.matrix, self._point)
                self._tree.stats.record_distances(len(node.ids))
                for object_id, d in zip(node.ids, distances):
                    heapq.heappush(
                        self._heap,
                        (float(d), 1, str(object_id), next(self._counter), object_id),
                    )
            else:
                for box, child in node.entries:
                    heapq.heappush(
                        self._heap,
                        (box.mindist(self._point), 0, "", next(self._counter), child),
                    )
        return None


class RTree(VectorIndex):
    """Guttman R-tree over points, with STR bulk load and best-first k-NN."""

    def __init__(
        self, dimension: int, *, max_entries: int = 16, min_entries: Optional[int] = None
    ) -> None:
        super().__init__(dimension)
        if max_entries < 4:
            raise IndexError_(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(2, max_entries // 3)
        )
        if not 2 <= self.min_entries <= self.max_entries // 2:
            raise IndexError_(
                f"min_entries must lie in [2, {self.max_entries // 2}], "
                f"got {self.min_entries}"
            )
        self._root = _Node(is_leaf=True)
        self._root.matrix = np.empty((0, dimension))
        self._count = 0
        #: bulk-loaded vectors: one shared matrix + id -> row map
        self._bulk_matrix: Optional[np.ndarray] = None
        self._bulk_positions: Dict[object, int] = {}
        #: incrementally inserted vectors, by id
        self._inserted: Dict[object, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[object, Sequence[float]]],
        dimension: int,
        *,
        max_entries: int = 16,
    ) -> "RTree":
        """Sort-Tile-Recursive bulk load: packed leaves, short tree."""
        if not items:
            return cls(dimension, max_entries=max_entries)
        ids = [object_id for object_id, _ in items]
        matrix = np.asarray([vector for _, vector in items], dtype=float)
        return cls.bulk_load_arrays(
            ids, matrix, dimension=dimension, max_entries=max_entries
        )

    @classmethod
    def bulk_load_arrays(
        cls,
        object_ids,
        vectors,
        *,
        dimension: Optional[int] = None,
        max_entries: int = 16,
    ) -> "RTree":
        """Vectorized STR bulk load from one ``[n, d]`` matrix.

        The tiling recursion argsorts index arrays instead of sorting
        Python entry tuples, and leaves adopt contiguous row blocks —
        no per-entry objects exist below the inner levels."""
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim != 2:
            raise IndexError_(f"expected an [n, d] matrix, got shape {matrix.shape}")
        if dimension is not None and matrix.shape[1] != dimension:
            raise IndexError_(
                f"expected {dimension}-vectors, got {matrix.shape[1]}"
            )
        ids = list(object_ids)
        if len(ids) != len(matrix):
            raise IndexError_(f"{len(ids)} ids for {len(matrix)} vectors")
        require_finite(matrix)
        positions = cls._new_id_positions(ids)
        tree = cls(matrix.shape[1], max_entries=max_entries)
        size = len(ids)
        if size == 0:
            return tree
        groups = tree._str_tile(np.arange(size), matrix, 0)
        nodes: List[_Node] = []
        for rows in groups:
            leaf = _Node(is_leaf=True)
            leaf.ids = [ids[row] for row in rows]
            leaf.matrix = np.ascontiguousarray(matrix[rows])
            leaf.recompute_bbox()
            nodes.append(leaf)
        while len(nodes) > 1:
            lowers = np.stack([node.bbox.lower for node in nodes])
            uppers = np.stack([node.bbox.upper for node in nodes])
            centers = (lowers + uppers) / 2.0
            groups = tree._str_tile(np.arange(len(nodes)), centers, 0)
            parents: List[_Node] = []
            for rows in groups:
                parent = _Node(is_leaf=False)
                parent.entries = [(nodes[row].bbox, nodes[row]) for row in rows]
                parent.recompute_bbox()
                parents.append(parent)
            nodes = parents
        tree._root = nodes[0]
        tree._count = size
        tree._bulk_matrix = matrix
        tree._bulk_positions = positions
        return tree

    def _str_tile(
        self, index: np.ndarray, centers: np.ndarray, axis: int
    ) -> List[np.ndarray]:
        """Recursive sort-tile slabs over an index array (argsort-based)."""
        capacity = self.max_entries
        if axis >= self.dimension or len(index) <= capacity:
            return [
                index[start : start + capacity]
                for start in range(0, len(index), capacity)
            ]
        order = np.argsort(centers[index, axis], kind="stable")
        index = index[order]
        leaves_needed = math.ceil(len(index) / capacity)
        remaining_axes = self.dimension - axis
        slabs = math.ceil(leaves_needed ** (1.0 / remaining_axes))
        slab_size = math.ceil(len(index) / slabs)
        groups: List[np.ndarray] = []
        for start in range(0, len(index), slab_size):
            groups.extend(
                self._str_tile(index[start : start + slab_size], centers, axis + 1)
            )
        return groups

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, object_id: object, vector) -> None:
        point = self._check_vector(vector)
        self._new_id_positions([object_id], self._inserted, self._bulk_positions)
        self._inserted[object_id] = point
        split = self._insert_point(self._root, object_id, point)
        if split is not None:
            old_root = self._root
            self._root = _Node(is_leaf=False)
            self._root.entries = [(old_root.bbox, old_root), (split.bbox, split)]
            self._root.recompute_bbox()
        self._count += 1

    def _insert_point(
        self, node: _Node, object_id: object, point: np.ndarray
    ) -> Optional[_Node]:
        """Insert into the subtree; return the new sibling on a split."""
        if node.is_leaf:
            node.ids.append(object_id)
            node.matrix = (
                point[None, :].copy()
                if node.matrix is None or not len(node.matrix)
                else np.vstack([node.matrix, point])
            )
        else:
            point_box = _BBox.of_point(point)
            best_index = min(
                range(len(node.entries)),
                key=lambda i: (
                    node.entries[i][0].enlargement(point_box),
                    node.entries[i][0].volume(),
                ),
            )
            child: _Node = node.entries[best_index][1]
            split = self._insert_point(child, object_id, point)
            node.entries[best_index] = (child.bbox, child)
            if split is not None:
                node.entries.append((split.bbox, split))
        if node.size() > self.max_entries:
            return self._split_node(node)
        node.recompute_bbox()
        return None

    def _quadratic_partition(
        self, boxes: List[_BBox]
    ) -> Tuple[List[int], List[int]]:
        """Guttman's quadratic split over indices into ``boxes``."""
        count = len(boxes)
        seed_a, seed_b = max(
            itertools.combinations(range(count), 2),
            key=lambda pair: boxes[pair[0]].enlarged(boxes[pair[1]]).volume()
            - boxes[pair[0]].volume()
            - boxes[pair[1]].volume(),
        )
        group_a = [seed_a]
        group_b = [seed_b]
        box_a = boxes[seed_a]
        box_b = boxes[seed_b]
        remaining = [i for i in range(count) if i not in (seed_a, seed_b)]
        while remaining:
            # Honor minimum fill if one group is running out of slack.
            slack = len(remaining)
            if len(group_a) + slack == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + slack == self.min_entries:
                group_b.extend(remaining)
                break
            # Assign the entry with the strongest preference first.
            def preference(i: int) -> float:
                return abs(
                    box_a.enlargement(boxes[i]) - box_b.enlargement(boxes[i])
                )

            chosen = max(remaining, key=preference)
            remaining.remove(chosen)
            if box_a.enlargement(boxes[chosen]) <= box_b.enlargement(boxes[chosen]):
                group_a.append(chosen)
                box_a = box_a.enlarged(boxes[chosen])
            else:
                group_b.append(chosen)
                box_b = box_b.enlarged(boxes[chosen])
        return group_a, group_b

    def _split_node(self, node: _Node) -> _Node:
        """Quadratic split; mutates ``node``, returns the new sibling."""
        if node.is_leaf:
            matrix = node.matrix
            boxes = [_BBox(matrix[i], matrix[i]) for i in range(len(node.ids))]
            group_a, group_b = self._quadratic_partition(boxes)
            sibling = _Node(is_leaf=True)
            sibling.ids = [node.ids[i] for i in group_b]
            sibling.matrix = np.ascontiguousarray(matrix[np.asarray(group_b)])
            node.ids = [node.ids[i] for i in group_a]
            node.matrix = np.ascontiguousarray(matrix[np.asarray(group_a)])
        else:
            boxes = [entry[0] for entry in node.entries]
            group_a, group_b = self._quadratic_partition(boxes)
            sibling = _Node(is_leaf=False)
            sibling.entries = [node.entries[i] for i in group_b]
            node.entries = [node.entries[i] for i in group_a]
        node.recompute_bbox()
        sibling.recompute_bbox()
        return sibling

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, lower, upper) -> List[object]:
        lo = self._check_vector(lower)
        hi = self._check_vector(upper)
        results: List[object] = []
        if self._count == 0:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.record_nodes()
            if node.is_leaf:
                self.stats.record_distances(len(node.ids))
                inside = np.all(
                    (node.matrix >= lo) & (node.matrix <= hi), axis=1
                )
                results.extend(
                    node.ids[row] for row in np.nonzero(inside)[0]
                )
            else:
                for box, child in node.entries:
                    if box.intersects_box(lo, hi):
                        stack.append(child)
        return results

    def knn(self, target, k: int) -> List[Neighbor]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return self.knn_stream(target).next_batch(k)

    def knn_stream(self, target) -> KnnStream:
        return _RTreeStream(self, self._check_vector(target))

    def vector_of(self, object_id: object) -> np.ndarray:
        vector = self._inserted.get(object_id)
        if vector is not None:
            return vector
        row = self._bulk_positions.get(object_id)
        if row is None:
            raise UnknownObjectError(f"unknown object: {object_id!r}")
        return np.asarray(self._bulk_matrix[row], dtype=float)

    def vectors_of(self, object_ids: Sequence) -> np.ndarray:
        block = np.empty((len(object_ids), self.dimension))
        slots, rows = [], []
        for slot, object_id in enumerate(object_ids):
            vector = self._inserted.get(object_id)
            if vector is not None:
                block[slot] = vector
                continue
            row = self._bulk_positions.get(object_id)
            if row is None:
                raise UnknownObjectError(f"unknown object: {object_id!r}")
            slots.append(slot)
            rows.append(row)
        if rows:
            block[slots] = self._bulk_matrix[rows]
        return block

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        node = self._root
        levels = 1
        while not node.is_leaf:
            node = node.entries[0][1]
            levels += 1
        return levels

    def check_invariants(self) -> None:
        """Validate bounding-box containment and fill factors (tests)."""

        def visit(node: _Node, is_root: bool) -> _BBox:
            if not is_root and not node.is_leaf:
                if not self.min_entries <= len(node.entries) <= self.max_entries:
                    raise IndexError_(
                        f"node fill {len(node.entries)} violates "
                        f"[{self.min_entries}, {self.max_entries}]"
                    )
            if node.is_leaf:
                return _BBox(node.matrix.min(axis=0), node.matrix.max(axis=0))
            boxes = []
            for entry in node.entries:
                child_box = visit(entry[1], False)
                stored: _BBox = entry[0]
                if not (
                    np.all(stored.lower <= child_box.lower + 1e-9)
                    and np.all(stored.upper >= child_box.upper - 1e-9)
                ):
                    raise IndexError_("stored child bbox does not contain child")
                boxes.append(child_box)
            lower = np.minimum.reduce([b.lower for b in boxes])
            upper = np.maximum.reduce([b.upper for b in boxes])
            return _BBox(lower, upper)

        if self._count:
            visit(self._root, True)
