"""Vectorized columnar kernels for the algorithm hot loops.

The paper's algorithms (section 4) are bulk-synchronous: each round
performs m accesses and then re-evaluates bounds over everything seen so
far.  NRA, CA, the naive scan and A0's compute phase each run one loop
over a *bounds state* — per seen object a lower bound (missing grades
-> 0) and an upper bound (missing grades -> the list bottoms) — and this
module holds its two representations.  :class:`_DictBounds` is the
reference: a plain ``{object_id: {column: grade}}`` mapping scored
through ``ScoringFunction.__call__`` one tuple at a time, O(seen * m)
Python-level work per stop check.  :class:`GradeMatrix` is the columnar
alternative: seen objects live in an ``[n_seen, m]`` float64 matrix (NaN
marks a grade not yet learned), and each stop check is a handful of
numpy array operations via ``ScoringFunction.combine_matrix``.

Both offer the same small interface, which is all the algorithm loops
use: ``count``, ``add_batch``/``set_grade`` to record deliveries,
``grades_of`` (one object's m grades, ``None`` where unknown),
``scores``/``ranked`` (lower bounds, unordered / best k),
``stop_view`` (the :class:`StopView` NRA's stop test reads),
``best_incomplete`` (CA's resolution target), ``intervals`` and
``known_states`` (certificates, snapshots and hand-offs).
:func:`bounds_state` picks the class from :func:`resolve_kernel`'s
answer.

Kernel selection
----------------
Three kernel names, resolved by :func:`resolve_kernel`:

``scalar``
    The dict-backed reference state (in TA: the threshold from one
    ``rule(bottoms)`` per round, every probe through
    ``random_access_many``).
``vector``
    The numpy fast path (in TA: a window's thresholds in one
    ``combine_matrix``, bulk reads on bare columnar backends).  It
    works over any source (item-based fallbacks keep wrapper accounting
    intact).
``auto`` (the default)
    Picks ``vector`` exactly when it is both profitable and provably
    byte-identical: every source columnar (``supports_columnar`` — a
    bare ``ArraySource``, ``MemmapSource``, ``ShardedSource`` or
    ``KnnSource``, not a wrapper), and the rule natively batch-capable
    *and* batch-exact (:attr:`ScoringFunction.batch_exact`).  Otherwise
    ``scalar``.  A query the engine or SQL compiles over catalog rules
    (:func:`repro.core.evaluation.compile_query`) is natively
    batch-exact, so over columnar bindings it runs ``vector``.

Determinism contract
--------------------
The vector kernel is not "approximately" the scalar kernel: for
batch-exact rules it folds the same IEEE-754 operations in the same
order, orders answers with the same ``(-grade, str(object_id))`` key
(via ``numpy.lexsort``), and performs sorted/random accesses in the same
sequence — so answers, tie-breaks, charged access counts, traces, and
degradation behavior are byte-identical.  The conformance suite
(tests/core/test_kernel_conformance.py) enforces this differentially.

:func:`configure_kernel` sets the process-wide default used when an
algorithm is called without an explicit ``kernel=``; the engine and CLI
(``--kernel``) layer per-query overrides on top.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import ReproError

#: The kernel names accepted by ``configure_kernel`` / ``kernel=``.
KERNEL_CHOICES = ("auto", "vector", "scalar")

_default_kernel = "auto"


def configure_kernel(kernel: str = "auto") -> str:
    """Set the process-wide default kernel (``auto``/``vector``/``scalar``).

    Returns the installed name.
    """
    global _default_kernel
    _default_kernel = _validate_name(kernel)
    return _default_kernel


def default_kernel() -> str:
    """The process-wide default kernel name."""
    return _default_kernel


def _validate_name(kernel: str) -> str:
    if kernel not in KERNEL_CHOICES:
        raise ReproError(
            f"unknown kernel {kernel!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    return kernel


def resolve_kernel(kernel: Optional[str], sources: Sequence, rule) -> str:
    """Resolve a kernel request to ``"vector"`` or ``"scalar"``.

    ``kernel=None`` means "use the configured default".  ``auto`` picks
    the vector kernel only when it is guaranteed byte-identical *and*
    actually fast: a natively batch-exact rule, and all sources
    columnar (bare array, memmap, sharded or kNN-index backends; any
    wrapper opts out).  Forcing ``vector`` bypasses the profitability
    checks (item-based fallbacks still keep it correct).
    """
    name = _validate_name(kernel if kernel is not None else _default_kernel)
    if name != "auto":
        return name
    if not (getattr(rule, "supports_batch", False) and getattr(rule, "batch_exact", False)):
        return "scalar"
    if not all(getattr(source, "supports_columnar", False) for source in sources):
        return "scalar"
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


def _answer_key(pair: Tuple) -> Tuple[float, str]:
    """The canonical answer order (``GradedItem._sort_key``) over
    ``(object_id, grade)`` pairs."""
    return (-pair[1], str(pair[0]))


class _DictBounds:
    """The reference bounds state: a view over a plain
    ``{object_id: {column: grade}}`` mapping in first-seen order.

    That mapping is the shape A0's ``_known``, TA's seen-set and the
    cache's warm-start snapshots already keep, so hand-offs between them
    share it instead of converting.  Every bound is one
    ``ScoringFunction.__call__`` per object; the kernel-conformance
    suite holds :class:`GradeMatrix` to this class's answers.
    """

    __slots__ = ("m", "known")

    def __init__(self, m: int, known: Optional[Dict] = None) -> None:
        self.m = m
        self.known: Dict = {} if known is None else known

    @property
    def count(self) -> int:
        return len(self.known)

    def add_batch(self, column: int, ids: Sequence, grades) -> None:
        """Record a sorted-access batch: ``grades[i]`` for ``ids[i]`` in
        list ``column``, first sightings appended in delivery order."""
        known = self.known
        for object_id, grade in zip(ids, grades.tolist()):
            row = known.get(object_id)
            if row is None:
                row = known[object_id] = {}
            row[column] = grade

    def set_grade(self, object_id, column: int, grade: float) -> None:
        self.known.setdefault(object_id, {})[column] = grade

    def grades_of(self, object_id) -> List[Optional[float]]:
        """The object's m grades, ``None`` where not yet learned."""
        row = self.known[object_id]
        return [row.get(column) for column in range(self.m)]

    def _bound(self, rule, row: Dict, fill: Sequence[float]) -> float:
        """``rule`` over one object's grades, missing ones read from ``fill``."""
        return rule([row.get(column, fill[column]) for column in range(self.m)])

    def _fold(self, rule, fill: Sequence[float]) -> Dict:
        """:meth:`_bound` per seen object, in first-seen order."""
        return {
            object_id: self._bound(rule, row, fill)
            for object_id, row in self.known.items()
        }

    def scores(self, rule) -> Tuple[List, List[float]]:
        """Every seen object's lower bound (its exact grade once all m
        grades are known), in first-seen order."""
        lower = self._fold(rule, [0.0] * self.m)
        return list(lower), list(lower.values())

    def ranked(self, rule, k: int) -> Tuple[List, List[float]]:
        """The k best seen objects by lower bound, canonical order."""
        top = heapq.nsmallest(
            k, self._fold(rule, [0.0] * self.m).items(), key=_answer_key
        )
        return [object_id for object_id, _ in top], [grade for _, grade in top]

    def stop_view(self, rule, bottoms: Sequence[float], k: int) -> StopView:
        ids, lowers = self.ranked(rule, k)
        upper = self._fold(rule, bottoms)
        chosen = set(ids)
        return StopView(
            ids,
            lowers,
            lowers[k - 1] if len(lowers) >= k else 0.0,
            max(
                (bound for obj, bound in upper.items() if obj not in chosen),
                default=0.0,
            ),
            max((upper[obj] - low for obj, low in zip(ids, lowers)), default=0.0),
        )

    def best_incomplete(self, rule, bottoms: Sequence[float]) -> Optional[Tuple]:
        """``(object_id, upper bound)`` of the incomplete object with
        the highest upper bound (first seen wins ties), or ``None``."""
        best = None
        for object_id, row in self.known.items():
            if len(row) == self.m:
                continue
            upper = self._bound(rule, row, bottoms)
            if best is None or upper > best[1]:
                best = (object_id, upper)
        return best

    def intervals(self, rule, bottoms: Sequence[float], ids: Iterable) -> Dict:
        """``{object_id: (lower, upper)}`` for the named seen objects."""
        zeros = [0.0] * self.m
        return {
            object_id: (
                self._bound(rule, self.known[object_id], zeros),
                self._bound(rule, self.known[object_id], bottoms),
            )
            for object_id in ids
        }

    def known_states(self) -> Dict:
        """A plain-data copy of the seen set, ``{object_id: {column:
        grade}}`` in first-seen order — independent of this state, so a
        snapshot of it survives later continuations."""
        return {object_id: dict(row) for object_id, row in self.known.items()}


class GradeMatrix:
    """Columnar bounds state: an [n_seen, m] grade matrix offering
    :class:`_DictBounds`'s interface with every bound a numpy fold.

    Rows are assigned in first-seen order (mirroring the reference
    state's dict-insertion order); NaN marks a grade not yet learned.  String
    object-id keys are cached per row because every ordering in the
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
    def from_known(cls, known: Dict, m: int, capacity: int) -> "GradeMatrix":
        """Build a matrix from ``{object_id: {column: grade}}``
        bookkeeping (the hand-off paths), preserving insertion order."""
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

    def lower_bounds(self, rule):
        """Every row's lower bound: missing grades pinned to 0."""
        known = self.known()
        return rule.combine_matrix(_np.where(_np.isnan(known), 0.0, known))

    def upper_bounds(self, rule, bottoms: Sequence[float]):
        """Every row's upper bound: missing grades pinned to the
        per-list bottom grades (the best an unseen entry can still be)."""
        known = self.known()
        fill = _np.asarray(bottoms, dtype=_np.float64)
        return rule.combine_matrix(_np.where(_np.isnan(known), fill, known))

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
        occurrence of the maximum in row (= first-seen) order — the same
        object the reference state's strict-max scan picks."""
        rows = _np.nonzero(~self.complete_mask())[0]
        if not rows.size:
            return None
        upper = self.upper_bounds(rule, bottoms)[rows]
        best = int(_np.argmax(upper))
        return self.ids[int(rows[best])], float(upper[best])

    def intervals(self, rule, bottoms: Sequence[float], ids: Iterable) -> Dict:
        """``{object_id: (lower, upper)}`` for the named seen objects."""
        lower = self.lower_bounds(rule)
        upper = self.upper_bounds(rule, bottoms)
        rows = self._rows
        return {
            object_id: (float(lower[rows[object_id]]), float(upper[rows[object_id]]))
            for object_id in ids
        }

    def known_states(self) -> Dict:
        """A plain-data copy of the seen set, ``{object_id: {column:
        grade}}`` in first-seen order — the shape :class:`_DictBounds`
        views, so snapshots and hand-offs restore identically whichever
        state wrote them."""
        return {
            object_id: {
                column: value for column, value in enumerate(row) if value == value
            }
            for object_id, row in zip(self.ids, self._matrix[: self.count].tolist())
        }


def bounds_state(kernel: str, m: int, known: Optional[Dict] = None, *, capacity: int = 1024):
    """The bounds state for one run over m lists: ``kernel`` is
    :func:`resolve_kernel`'s answer.  ``known`` seeds it with
    ``{object_id: {column: grade}}`` bookkeeping; the reference state
    *shares* that mapping (what it learns lands in it), the matrix
    copies it."""
    if kernel == "vector":
        return GradeMatrix.from_known(known or {}, m, capacity)
    return _DictBounds(m, known)


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
