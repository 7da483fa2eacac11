"""The bounds state behind the algorithm hot loops.

The paper's algorithms (section 4) are bulk-synchronous: each round
performs m accesses and then re-evaluates bounds over everything seen so
far.  NRA, CA, the naive scan and A0's compute phase each run one loop
over a *bounds state* — per seen object a lower bound (missing grades
-> 0) and an upper bound (missing grades -> the list bottoms) — and
:class:`GradeMatrix` is that state: seen objects live in an
``[n_seen, m]`` float64 matrix (NaN marks a grade not yet learned), and
each stop check is a handful of numpy array operations through
``ScoringFunction.combine_matrix``.

Its small interface is all the algorithm loops use: ``count``,
``add_batch``/``set_grade`` to record deliveries, ``grades_of`` (one
object's m grades, ``None`` where unknown), ``scores``/``ranked``
(lower bounds, unordered / best k), ``stop_view`` (the :class:`StopView`
NRA's stop test reads), ``best_incomplete`` (CA's resolution target),
``intervals`` and ``known_states`` (certificates, snapshots and
hand-offs, as plain ``{object_id: {column: grade}}`` data), and
``from_known`` to rebuild a state from that data.

Determinism contract
--------------------
Every bound is exactly the per-object fold ``rule([...])`` would give:
``combine_matrix`` is either a rule's native form, which folds the same
IEEE-754 operations in the same order as its scalar path, or the exact
per-row loop (see :mod:`repro.scoring.base`).  Answers are ordered by the
same ``(-grade, str(object_id))`` key as ``GradedItem`` (via
``numpy.lexsort``, stable in first-seen order), so answers, tie-breaks,
charged access counts and traces do not depend on how the bounds are
stored.  tests/core/test_grade_matrix.py holds every method to that
per-object fold.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np


def resolve_kernel(kernel=None, sources=(), rule=None) -> str:
    # Inert; bench/layers.py is its only reader.
    return "vector"


class StopView(NamedTuple):
    """What one NRA stop check reads from a bounds state."""

    #: the (up to) k best seen objects by lower bound, canonical order
    ids: List
    #: their lower bounds, parallel to ``ids``
    lowers: List[float]
    #: the k-th best lower bound; 0.0 while fewer than k objects are seen
    kth_lower: float
    #: the best upper bound among the seen objects outside ``ids``
    rival_upper: float
    #: the widest ``upper - lower`` among ``ids``
    gap: float


class GradeMatrix:
    """Columnar bounds state: an [n_seen, m] grade matrix with every
    bound a numpy fold.

    Rows are assigned in first-seen order; NaN marks a grade not yet
    learned.  String object-id keys are cached per row because every ordering in the
    repo tie-breaks on ``str(object_id)`` ascending after grade
    descending (``GradedItem._sort_key``).
    """

    __slots__ = ("m", "count", "ids", "_rows", "_strs", "_matrix", "_str_cache")

    def __init__(self, m: int, capacity: int = 1024) -> None:
        self.m = m
        self.count = 0
        self.ids: List = []
        self._rows: Dict = {}
        self._strs: List[str] = []
        self._matrix = _np.full((max(capacity, 1), m), _np.nan)
        self._str_cache = None

    @classmethod
    def from_known(cls, known: Dict, m: int, capacity: int = 1024) -> "GradeMatrix":
        """Build a matrix from ``{object_id: {column: grade}}``
        bookkeeping (A0's ``_known``, TA's seen-set, cache snapshots),
        preserving insertion order.  The matrix copies ``known``."""
        matrix = cls(m, capacity=max(len(known), capacity))
        for object_id, grades in known.items():
            row = matrix.row_of(object_id)
            for column, grade in grades.items():
                matrix._matrix[row, column] = grade
        return matrix

    def _ensure(self, needed: int) -> None:
        capacity = self._matrix.shape[0]
        if needed <= capacity:
            return
        grown = _np.full((max(needed, capacity * 2), self.m), _np.nan)
        grown[: self.count] = self._matrix[: self.count]
        self._matrix = grown

    def row_of(self, object_id) -> int:
        """The row for ``object_id``, assigning the next one if unseen."""
        row = self._rows.get(object_id)
        if row is None:
            row = self.count
            self._rows[object_id] = row
            self.ids.append(object_id)
            self._strs.append(str(object_id))
            self._ensure(row + 1)
            self.count = row + 1
            self._str_cache = None
        return row

    def __contains__(self, object_id) -> bool:
        return object_id in self._rows

    def set_grade(self, object_id, column: int, grade: float) -> None:
        # Resolve the row BEFORE indexing: row_of may reallocate _matrix.
        row = self.row_of(object_id)
        self._matrix[row, column] = grade

    def add_batch(self, column: int, ids: Sequence, grades) -> None:
        """Record a sorted-access batch: ``grades[i]`` for ``ids[i]`` in
        list ``column``.  Row creation follows delivery order."""
        row_of = self.row_of
        rows = _np.fromiter(
            (row_of(object_id) for object_id in ids),
            dtype=_np.intp,
            count=len(ids),
        )
        self._matrix[rows, column] = grades

    def known(self):
        """The live [count, m] view of the grade matrix."""
        return self._matrix[: self.count]

    def grades_of(self, object_id) -> List[Optional[float]]:
        """The object's m grades, ``None`` where not yet learned."""
        values = self._matrix[self._rows[object_id]].tolist()
        return [None if value != value else value for value in values]

    def str_keys(self):
        """``str(object_id)`` per row, as a numpy array (cached)."""
        if self._str_cache is None or len(self._str_cache) != self.count:
            self._str_cache = _np.asarray(self._strs[: self.count])
        return self._str_cache

    def _fold(self, rule, fill, rows=None):
        """``rule`` over every row (or just ``rows``), missing grades
        read from ``fill``: a rule without a native batch form runs once
        per row folded, so callers fold only the rows they read."""
        known = self.known() if rows is None else self._matrix[rows]
        return rule.combine_matrix(_np.where(_np.isnan(known), fill, known))

    def lower_bounds(self, rule, rows=None):
        """Every row's (or just ``rows``') lower bound: missing grades
        pinned to 0."""
        return self._fold(rule, 0.0, rows)

    def upper_bounds(self, rule, bottoms: Sequence[float], rows=None):
        """Every row's (or just ``rows``') upper bound: missing grades
        pinned to the per-list bottom grades (the best an unseen entry
        can still be)."""
        return self._fold(rule, _np.asarray(bottoms, dtype=_np.float64), rows)

    def complete_mask(self):
        """True per row when every grade is known."""
        return ~_np.isnan(self.known()).any(axis=1)

    def top_order(self, scores):
        """Row indices sorted by the repo's canonical answer order:
        grade descending, then ``str(object_id)`` ascending — exactly
        ``GradedItem._sort_key``."""
        return _np.lexsort((self.str_keys(), -scores))

    def scores(self, rule) -> Tuple[List, List[float]]:
        """Every seen object's lower bound (its exact grade once all m
        grades are known), in first-seen order."""
        return self.ids, self.lower_bounds(rule).tolist()

    def ranked(self, rule, k: int) -> Tuple[List, List[float]]:
        """The k best seen objects by lower bound, canonical order."""
        lower = self.lower_bounds(rule)
        top = self.top_order(lower)[:k]
        return [self.ids[row] for row in top.tolist()], lower[top].tolist()

    def stop_view(self, rule, bottoms: Sequence[float], k: int) -> StopView:
        lower = self.lower_bounds(rule)
        upper = self.upper_bounds(rule, bottoms)
        order = self.top_order(lower)
        top, rest = order[:k], order[k:]
        lowers = lower[top].tolist()
        return StopView(
            [self.ids[row] for row in top.tolist()],
            lowers,
            lowers[k - 1] if len(lowers) >= k else 0.0,
            float(upper[rest].max()) if rest.size else 0.0,
            float((upper[top] - lower[top]).max()) if top.size else 0.0,
        )

    def best_incomplete(self, rule, bottoms: Sequence[float]) -> Optional[Tuple]:
        """``(object_id, upper bound)`` of the incomplete object with
        the highest upper bound, or ``None``.  argmax is the first
        occurrence of the maximum in row (= first-seen) order, i.e. the
        first-seen object wins ties."""
        rows = _np.nonzero(~self.complete_mask())[0]
        if not rows.size:
            return None
        upper = self.upper_bounds(rule, bottoms, rows)
        best = int(_np.argmax(upper))
        return self.ids[int(rows[best])], float(upper[best])

    def intervals(self, rule, bottoms: Sequence[float], ids: Iterable) -> Dict:
        """``{object_id: (lower, upper)}`` for the named seen objects."""
        ids = list(ids)
        rows = [self._rows[object_id] for object_id in ids]
        lower = self.lower_bounds(rule, rows).tolist()
        upper = self.upper_bounds(rule, bottoms, rows).tolist()
        return {
            object_id: bounds for object_id, bounds in zip(ids, zip(lower, upper))
        }

    def known_states(self) -> Dict:
        """A plain-data copy of the seen set, ``{object_id: {column:
        grade}}`` in first-seen order — independent of this state, so a
        snapshot of it survives later continuations, and
        :meth:`from_known` restores it row for row."""
        return {
            object_id: {
                column: value for column, value in enumerate(row) if value == value
            }
            for object_id, row in zip(self.ids, self._matrix[: self.count].tolist())
        }


def top_k_from_arrays(ids: Sequence, str_ids, grades, k: int) -> List:
    """The k best ``(object_id, grade)`` pairs under the canonical
    ``(-grade, str(object_id))`` order, via one lexsort — the vectorized
    equivalent of ``GradedSet(...).top(k)``."""
    order = _np.lexsort((str_ids, -grades))[:k]
    values = grades[order].tolist()
    return [(ids[row], values[i]) for i, row in enumerate(order.tolist())]


def iter_str_keys(ids: Iterable) -> "object":
    """``str()`` per object id, as a numpy array."""
    return _np.asarray([str(object_id) for object_id in ids])


def merge_sorted_shard_blocks(
    ids_per_shard: Sequence[Sequence],
    strs_per_shard: Sequence,
    grades_per_shard: Sequence,
):
    """K-way merge of per-shard sorted columnar blocks, columnar-side.

    Each shard contributes a block of its sorted prefix as parallel
    (ids, ``str(id)`` keys, float64 grades) columns, already in
    canonical order within the shard.  One ``lexsort`` over the
    concatenation — the same ``(-grade, str(id))`` key every ordering
    in the repo uses — yields the exact global sorted order, so a
    :class:`~repro.storage.sharded.ShardedSource` built over K shards
    delivers byte-identical answers and tie-breaks to the monolithic
    backend.  Returns ``(merged_ids, merged_grades, shard_of)`` where
    ``shard_of[i]`` is the index of the shard that owns position ``i``
    — the per-shard state the sharded cursor rolls access accounting up
    from.
    """
    shard_of = _np.concatenate(
        [
            _np.full(len(ids), index, dtype=_np.intp)
            for index, ids in enumerate(ids_per_shard)
        ]
    )
    grades = _np.concatenate(
        [_np.asarray(block, dtype=_np.float64) for block in grades_per_shard]
    )
    strs = _np.concatenate([_np.asarray(block) for block in strs_per_shard])
    flat_ids: List = []
    for block in ids_per_shard:
        flat_ids.extend(block)
    order = _np.lexsort((strs, -grades))
    merged_ids = [flat_ids[j] for j in order.tolist()]
    return merged_ids, grades[order], shard_of[order]
