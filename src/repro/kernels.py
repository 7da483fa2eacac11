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
(lower bounds, unordered / best k), ``best_incomplete`` (CA's
resolution target), and ``from_known`` to build a state from plain
``{object_id: {column: grade}}`` bookkeeping (A0's ``_known``).

NRA holds the same bounds by object code instead: a
:class:`CodedBounds` finds a row through a by-code array, not an id
dict, and tags every cell with the round that delivered it, so one
state answers the stop test (its ``stop_view``, the :class:`StopView`
the test reads) at every depth it has peeked; ``known_states`` hands
A0's paging state back as plain data.  Both states rank through
:func:`top_rows`.

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
    #: the state's rows of ``ids``
    rows: object


def top_rows(scores, k: int, strs_of):
    """The (up to) ``k`` best rows by ``scores`` in the repo's canonical
    answer order: grade descending, then ``str(object_id)`` ascending —
    exactly ``GradedItem._sort_key`` — then row (first seen).
    ``strs_of(rows)`` lists ``str(object_id)`` for an int array of rows;
    it is asked only about the rows that can make the cut: those scoring
    above the k-th best, and those tied with it (a bound state's lower
    bounds tie at 0 by the thousand)."""
    count = scores.size
    rows = _np.arange(count)
    if k < count:
        kth = _np.partition(scores, count - k)[count - k]
        above = _np.flatnonzero(scores > kth)
        tied = _np.flatnonzero(scores == kth)
        if tied.size > k - above.size:
            strs = strs_of(tied)
            keep = heapq.nsmallest(k - above.size, range(tied.size), key=strs.__getitem__)
            tied = tied[_np.array(keep, dtype=_np.intp)]
        rows = _np.sort(_np.concatenate((above, tied)))
    return rows[canonical_order(strs_of(rows), scores[rows])]


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
        bookkeeping (A0's ``_known``), preserving insertion order.  The
        matrix copies ``known``."""
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

    def lower_bounds(self, rule):
        """Every row's lower bound: missing grades pinned to 0."""
        return self._fold(rule, 0.0)

    def upper_bounds(self, rule, bottoms: Sequence[float], rows=None):
        """Every row's (or just ``rows``') upper bound: missing grades
        pinned to the per-list bottom grades (the best an unseen entry
        can still be)."""
        return self._fold(rule, _np.asarray(bottoms, dtype=_np.float64), rows)

    def complete_mask(self):
        """True per row when every grade is known."""
        return ~_np.isnan(self.known()).any(axis=1)

    def _strs_of(self, rows) -> List[str]:
        strs = self._strs
        return [strs[row] for row in rows.tolist()]

    def top_order(self, scores, k: int):
        """The (up to) ``k`` best rows by ``scores``, canonical order
        (:func:`top_rows`)."""
        return top_rows(scores, k, self._strs_of)

    def scores(self, rule) -> Tuple[List, List[float]]:
        """Every seen object's lower bound (its exact grade once all m
        grades are known), in first-seen order."""
        return self.ids, self.lower_bounds(rule).tolist()

    def ranked(self, rule, k: int) -> Tuple[List, List[float]]:
        """The k best seen objects by lower bound, canonical order."""
        lower = self.lower_bounds(rule)
        top = self.top_order(lower, k)
        return [self.ids[row] for row in top.tolist()], lower[top].tolist()

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


class CodedBounds:
    """NRA's bounds state, held by object code, with every prefix depth
    in it.

    ``codes`` is the :class:`ObjectCodes` (or :class:`ColumnCodes`)
    index the query's lists are read by.  A seen object's row is found
    through a by-code row array, so recording a window is a handful of
    array operations and ids are decoded only for the rows a ranking
    has to tie-break.  Every learned cell carries the round that
    delivered it — 0 for cells handed over by another algorithm — and
    rows are kept in first-sighting order: by round, then by list
    (handed-over rows first, in the order given).  The state after any
    round ``t`` is therefore a row prefix under one ``learned <= t``
    mask, which is how NRA tests its stop rule at rounds inside a window
    it has peeked but not consumed.  Bounds are the per-object
    ``rule(...)`` fold, as :class:`GradeMatrix`'s.
    """

    __slots__ = ("m", "codes", "count", "_row", "_code", "_first", "_grades", "_learned")

    #: the round of a cell not learned
    NEVER = _np.iinfo(_np.int64).max

    def __init__(self, codes, m: int, capacity: int = 1024) -> None:
        self.m = m
        self.codes = codes
        self.count = 0
        #: row by code, -1 where the object has no row
        self._row = _np.full(len(codes), -1, dtype=_np.intp)
        capacity = max(capacity, 1)
        #: per row: its code, and the round it was first sighted
        self._code = _np.empty(capacity, dtype=_np.int64)
        self._first = _np.empty(capacity, dtype=_np.int64)
        self._grades = _np.full((capacity, m), _np.nan)
        self._learned = _np.full((capacity, m), self.NEVER, dtype=_np.int64)

    @classmethod
    def from_known(cls, known: Dict, m: int) -> "CodedBounds":
        """A state over a per-run index of ``{object_id: {column:
        grade}}`` bookkeeping (A0's ``_known``, TA's seen-set), every
        cell learned at round 0, rows in ``known``'s order."""
        bounds = cls(ObjectCodes(known), m, capacity=len(known))
        bounds.add(_np.arange(len(known)), 0)
        for column in range(m):
            cells = [
                (code, grades[column])
                for code, grades in enumerate(known.values())
                if column in grades
            ]
            if cells:
                coded, grades = zip(*cells)
                bounds.learn(column, _np.array(coded), _np.array(grades), 0)
        return bounds

    def _ensure(self, needed: int) -> None:
        capacity = self._code.size
        if needed <= capacity:
            return
        size = max(needed, capacity * 2)
        for name in ("_code", "_first"):
            grown = _np.empty(size, dtype=_np.int64)
            grown[: self.count] = getattr(self, name)[: self.count]
            setattr(self, name, grown)
        for name, fill in (("_grades", _np.nan), ("_learned", self.NEVER)):
            old = getattr(self, name)
            grown = _np.full((size, self.m), fill, dtype=old.dtype)
            grown[: self.count] = old[: self.count]
            setattr(self, name, grown)

    def _rows_of(self, coded):
        """``_row`` at ``coded``, after growing it to a per-run index
        that has coded new ids."""
        grow = len(self.codes) - self._row.size
        if grow > 0:
            self._row = _np.concatenate((self._row, _np.full(grow, -1, dtype=_np.intp)))
        return self._row[coded]

    def add(self, coded, first) -> None:
        """Rows, in order, for ``coded`` (distinct, with no row yet),
        first sighted at round ``first`` (0 hands over)."""
        start, stop = self.count, self.count + coded.size
        self._ensure(stop)
        self._row[coded] = _np.arange(start, stop)
        self._code[start:stop] = coded
        self._first[start:stop] = first
        self.count = stop

    def learn(self, column: int, coded, grades, rounds) -> None:
        """List ``column``'s grades of ``coded`` (objects with rows),
        delivered at ``rounds``; a cell keeps its earliest round."""
        rows = self._row[coded]
        self._grades[rows, column] = grades
        self._learned[rows, column] = _np.minimum(self._learned[rows, column], rounds)

    def read(self, windows: Sequence, start: int) -> None:
        """Record a window of sorted deliveries: ``windows[i]`` is list
        i's next rows as (codes, grades), its row r delivered at round
        ``start + r + 1``, or None for a list not read.  Objects seen for
        the first time get rows in (round, list) order."""
        m = self.m
        lengths = [0 if window is None else len(window[0]) for window in windows]
        matrix = _np.full((max(lengths, default=0), m), -1, dtype=_np.int64)
        for column, window in enumerate(windows):
            if lengths[column]:
                matrix[: lengths[column], column] = window[0]
        flat = matrix.ravel()
        where = _np.flatnonzero(flat >= 0)  # -1 pads short windows
        where = where[self._rows_of(flat[where]) < 0]
        coded = flat[where]
        # each new object's first sighting: the least position, found in
        # the row array before the object's row is written there
        self._row[coded] = _np.iinfo(_np.intp).max
        _np.minimum.at(self._row, coded, where)
        first = self._row[coded] == where
        self.add(coded[first], start + 1 + where[first] // m)
        for column, window in enumerate(windows):
            if lengths[column]:
                rounds = _np.arange(start + 1, start + 1 + lengths[column])
                self.learn(column, window[0], window[1], rounds)

    def rows_at(self, t: int) -> int:
        """How many rows the state has after round ``t``."""
        return int(_np.searchsorted(self._first[: self.count], t, side="right"))

    def _known(self, t: Optional[int]):
        """The grades of the rows seen after round ``t`` (by default, of
        the whole state), and which of them were not learned by then."""
        if t is None:
            grades = self._grades[: self.count]
            return grades, _np.isnan(grades)
        rows = self.rows_at(t)
        return self._grades[:rows], self._learned[:rows] > t

    def lower_bounds(self, rule, t: Optional[int] = None):
        """Every row's lower bound after round ``t`` (by default, of the
        whole state): grades not learned by then pinned to 0."""
        grades, missing = self._known(t)
        return rule.combine_matrix(_np.where(missing, 0.0, grades))

    def upper_bounds(self, rule, bottoms: Sequence[float], t: Optional[int] = None):
        """Every row's upper bound after round ``t``: grades not learned
        by then pinned to the list ``bottoms``."""
        grades, missing = self._known(t)
        fill = _np.asarray(bottoms, dtype=_np.float64)
        return rule.combine_matrix(_np.where(missing, fill, grades))

    def ids(self, rows) -> List:
        return self.codes.decode(self._code[rows])

    def _strs_of(self, rows) -> List[str]:
        return [str(object_id) for object_id in self.ids(rows)]

    def stop_view(self, lower, upper, k: int) -> StopView:
        """What a stop test reads off the rows' ``lower`` and ``upper``
        bounds (from :meth:`lower_bounds` and :meth:`upper_bounds`)."""
        top = top_rows(lower, k, self._strs_of)
        rest = _np.ones(lower.size, dtype=bool)
        rest[top] = False
        lowers = lower[top].tolist()
        return StopView(
            self.ids(top),
            lowers,
            lowers[k - 1] if 0 < k <= len(lowers) else 0.0,
            float(upper[rest].max()) if rest.any() else 0.0,
            float((upper[top] - lower[top]).max()) if top.size else 0.0,
            top,
        )

    def keep(self, t: int) -> None:
        """Forget every cell learned after round ``t``, and the rows
        first seen after it."""
        count, rows = self.count, self.rows_at(t)
        self._row[self._code[rows:count]] = -1
        self._grades[rows:count] = _np.nan
        self._learned[rows:count] = self.NEVER
        later = self._learned[:rows] > t
        self._grades[:rows][later] = _np.nan
        self._learned[:rows][later] = self.NEVER
        self.count = rows

    def known_states(self) -> Dict:
        """A plain-data copy of the state, ``{object_id: {column:
        grade}}`` in row order, which :meth:`from_known` restores."""
        grades = self._grades[: self.count]
        return {
            object_id: {column: value for column, value in enumerate(row) if value == value}
            for object_id, row in zip(self.ids(_np.arange(self.count)), grades.tolist())
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
