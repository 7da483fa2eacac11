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
``intervals`` and ``known_states`` (certificates and A0's paging
hand-off, as plain ``{object_id: {column: grade}}`` data), and
``from_known`` to rebuild a state from that data.

TA keeps no bounds state: its bulk round works on dense int32 codes for
a query's object ids — an :class:`ObjectCodes` index, or the
:class:`ColumnCodes` a memmap build wrote — and decodes ids only for its
answer candidates, ranked by :func:`canonical_order`.

Determinism contract
--------------------
Every bound is exactly the per-object fold ``rule([...])`` would give:
``combine_matrix`` is either a rule's native form, which folds the same
IEEE-754 operations in the same order as its scalar path, or the exact
per-row loop (see :mod:`repro.scoring.base`).  Answers are ordered by the
same ``(-grade, str(object_id))`` key as ``GradedItem`` (via
:func:`canonical_order`, stable in first-seen order), so answers, tie-breaks,
charged access counts and traces do not depend on how the bounds are
stored.  tests/core/test_grade_matrix.py holds every method to that
per-object fold.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
    learned.  ``str(object_id)`` is cached per row because every ordering
    in the repo tie-breaks on it ascending after grade descending
    (``GradedItem._sort_key``).
    """

    __slots__ = ("m", "count", "ids", "_rows", "_strs", "_matrix")

    def __init__(self, m: int, capacity: int = 1024) -> None:
        self.m = m
        self.count = 0
        self.ids: List = []
        self._rows: Dict = {}
        self._strs: List[str] = []
        self._matrix = _np.full((max(capacity, 1), m), _np.nan)

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

    def top_order(self, scores, k: int):
        """The (up to) ``k`` best rows by ``scores`` in the repo's
        canonical answer order: grade descending, then ``str(object_id)``
        ascending — exactly ``GradedItem._sort_key`` — then first seen.
        Only the rows that can make the cut are ordered: those scoring
        above the k-th best, and of those tied with it the ones with the
        smallest strings (a bound state's lower bounds tie at 0 by the
        thousand)."""
        strs = self._strs
        rows = _np.arange(self.count)
        if k < self.count:
            kth = _np.partition(scores, self.count - k)[self.count - k]
            above = _np.flatnonzero(scores > kth)
            tied = heapq.nsmallest(
                k - above.size, _np.flatnonzero(scores == kth).tolist(), key=strs.__getitem__
            )
            rows = _np.sort(_np.concatenate((above, _np.array(tied, dtype=above.dtype))))
        order = canonical_order([strs[row] for row in rows.tolist()], scores[rows])
        return rows[order]

    def scores(self, rule) -> Tuple[List, List[float]]:
        """Every seen object's lower bound (its exact grade once all m
        grades are known), in first-seen order."""
        return self.ids, self.lower_bounds(rule).tolist()

    def ranked(self, rule, k: int) -> Tuple[List, List[float]]:
        """The k best seen objects by lower bound, canonical order."""
        lower = self.lower_bounds(rule)
        top = self.top_order(lower, k)
        return [self.ids[row] for row in top.tolist()], lower[top].tolist()

    def stop_view(self, rule, bottoms: Sequence[float], k: int) -> StopView:
        lower = self.lower_bounds(rule)
        upper = self.upper_bounds(rule, bottoms)
        top = self.top_order(lower, k)
        rest = _np.ones(self.count, dtype=bool)
        rest[top] = False
        lowers = lower[top].tolist()
        return StopView(
            [self.ids[row] for row in top.tolist()],
            lowers,
            lowers[k - 1] if 0 < k <= len(lowers) else 0.0,
            float(upper[rest].max()) if rest.any() else 0.0,
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
        grade}}`` in first-seen order — independent of this state, which
        :meth:`from_known` restores row for row."""
        return {
            object_id: {
                column: value for column, value in enumerate(row) if value == value
            }
            for object_id, row in zip(self.ids, self._matrix[: self.count].tolist())
        }


def str_ranks(ids: Iterable):
    """The rank of ``str(object_id)`` per id, in Python string order, as
    an int64 array; ids with equal strings (``1`` and ``"1"``) share a
    rank.  (Numpy ``<U`` keys would drop a trailing ``"\\x00"``; Python's
    ``sorted`` keeps it.)"""
    strs = [str(object_id) for object_id in ids]
    rank = {text: position for position, text in enumerate(sorted(set(strs)))}
    return _np.array([rank[text] for text in strs], dtype=_np.int64)


def canonical_order(ids: Sequence, grades):
    """The permutation putting ``(ids, grades)`` in the canonical order:
    grade descending, then ``str(object_id)`` ascending in Python string
    order, then input position — ``GradedItem``'s order under a stable
    sort.  One argsort on the grades; only the runs of *equal* grades pay
    for :func:`str_ranks`, so untied columns build no string keys."""
    order = _np.argsort(-grades)
    ranked = grades[order]
    equal = ranked[1:] == ranked[:-1]  # 0.0 and -0.0 share a run
    tied = _np.zeros(len(order), dtype=bool)
    tied[1:] = equal
    tied[:-1] |= equal
    slots = _np.flatnonzero(tied)
    if slots.size:
        rows = order[slots]
        keys = str_ranks([ids[j] for j in rows.tolist()])
        # Grades are nonincreasing along the slots, so sorting on them
        # first permutes rows within their own run only.
        order[slots] = rows[_np.lexsort((rows, keys, -ranked[slots]))]
    return order


class ObjectCodes:
    """Dense int32 codes for object ids: an id -> code dict and the
    ``ids`` decode list.

    ``ObjectCodes(ids)`` codes distinct ``ids`` by position.  The dict
    is built on first use, so of a set of sources that settle on one
    index only that index ever builds one.  :meth:`encode` gives an id
    the next code the first time it sees it, which is how a per-run
    index grows; :meth:`lookup` never grows.  An
    :class:`~repro.core.sources.ArraySource` holds its grades by code,
    and a set of them settles on the one index with the smallest
    ``serial`` (the oldest), so TA's bulk round works on codes alone.
    """

    __slots__ = ("serial", "ids", "_codes")

    _serials = itertools.count()
    #: codes are assigned per index, not read off stored columns
    fingerprint = None

    def __init__(self, ids: Iterable = ()) -> None:
        self.serial = next(ObjectCodes._serials)
        self.ids: List = list(ids)
        self._codes: Optional[Dict] = None

    def __len__(self) -> int:
        return len(self.ids)

    def _table(self) -> Dict:
        # Two threads may both build it; either dict is the same table.
        if self._codes is None:
            self._codes = dict(zip(self.ids, range(len(self.ids))))
        return self._codes

    def __getitem__(self, object_id) -> int:
        """The code of ``object_id``; ``KeyError`` if it has none."""
        return self._table()[object_id]

    def lookup(self, ids: Iterable):
        """The codes of ``ids`` (int32); ``KeyError`` names the first id
        without one."""
        codes = self._table()
        return _np.array([codes[object_id] for object_id in ids], dtype=_np.int32)

    def encode(self, ids: Sequence):
        """The codes of ``ids`` (int32), coding unseen ids in order."""
        codes = self._table()
        new = [object_id for object_id in dict.fromkeys(ids) if object_id not in codes]
        if new:
            codes.update(zip(new, range(len(self.ids), len(self.ids) + len(new))))
            self.ids.extend(new)
        return self.lookup(ids)

    def decode(self, codes) -> List:
        """The ids of an array of codes."""
        ids = self.ids
        return [ids[code] for code in codes.tolist()]

    def decoded(self, codes) -> Iterator:
        """:meth:`decode`, done only once the result is iterated."""
        yield from self.decode(codes)


class ColumnCodes:
    """Object codes written at build time: the code of an object is its
    row in a stored id column, plus that column's offset.

    ``columns`` are id columns in ascending id order (a memmap source's
    lookup ids; a sharded source's, shard after shard), and
    ``fingerprint`` names their content: two universes with equal
    fingerprints code every object alike, so sources over them share
    codes without building a dict.  Decoding gathers from the columns
    once per code and keeps the id, so every decode of a code returns
    the one id object, as sorted access's id lists do.
    """

    __slots__ = ("fingerprint", "columns", "offsets", "_decoded")

    def __init__(self, fingerprint: tuple, columns: Sequence) -> None:
        self.fingerprint = fingerprint
        self.columns = list(columns)
        #: ``offsets[c]`` is column ``c``'s first code; the last is the size
        self.offsets = _np.cumsum([0] + [len(column) for column in self.columns])
        self._decoded: Dict = {}

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def owners(self, coded):
        """The column each code falls in (an intp array)."""
        return _np.searchsorted(self.offsets, coded, side="right") - 1

    def decode(self, coded) -> List:
        """The ids of an array of codes."""
        # Two threads may both decode a code; either id is the same id.
        decoded = self._decoded
        codes = coded.tolist()
        new = _np.array([code for code in codes if code not in decoded], dtype=_np.int64)
        if new.size:
            owners = self.owners(new)
            for column, column_ids in enumerate(self.columns):
                mine = new[owners == column]
                if mine.size:
                    rows = mine - self.offsets[column]
                    decoded.update(zip(mine.tolist(), column_ids[rows].tolist()))
        return [decoded[code] for code in codes]

    def decoded(self, coded) -> Iterator:
        """:meth:`decode`, done only once the result is iterated."""
        yield from self.decode(coded)


def merge_sorted_shard_blocks(ids_per_shard: Sequence[Sequence], grades_per_shard: Sequence):
    """K-way merge of per-shard sorted columnar blocks, columnar-side.

    Each shard contributes a block of its sorted prefix as parallel
    (ids, float64 grades) columns, already in canonical order within the
    shard.  One :func:`canonical_order` over the concatenation — the
    ``(-grade, str(id))`` key every ordering in the repo uses — yields
    the exact global sorted order, so a
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
    flat_ids: List = []
    for block in ids_per_shard:
        flat_ids.extend(block)
    order = canonical_order(flat_ids, grades)
    merged_ids = [flat_ids[j] for j in order.tolist()]
    return merged_ids, grades[order], shard_of[order]
