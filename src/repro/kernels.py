"""The bounds state behind the algorithm hot loops.

The paper's algorithms (section 4) are bulk-synchronous: each round
performs m accesses and then re-evaluates bounds over everything seen so
far.  A0, TA, NRA and CA keep one *bounds state* — per seen object the
grades learned so far, a lower bound (missing grades -> 0) and an upper
bound (missing grades -> the list bottoms).  :class:`CodedBounds` is that
state:
seen objects live in an ``[n_seen, m]`` float64 matrix found through a
by-code row array (an object's code in the :class:`ObjectCodes` or
:class:`ColumnCodes` index its lists are read by, not an id dict), and
each stop check is a handful of numpy array operations through
``ScoringFunction.combine_matrix``.  Every cell is tagged with the round
that learned it, so one state answers NRA's stop test (its ``stop_view``,
the :class:`StopView` the test reads) and CA's resolution target
(``best_incomplete``) at every depth it has peeked.

A0 and TA never ask about rounds.  TA finds a window's new objects with
``fresh`` and ``add``s those it commits, holding the grades it used; A0
``read``s its sorted rows and fills the NaN cells of ``table`` by random
access.  Their answer is ``ranked``: the lower bounds of complete rows,
ranked with :func:`top_rows`.  When random access dies, ``hand_over``
counts every cell as learned at round 0 and the state itself carries on
as NRA's.  The naive scan folds its complete grade table with one
``combine_matrix`` and ranks it with :func:`top_rows` too.

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
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

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
        rows = _np.flatnonzero(scores >= kth)
        if rows.size > k:  # ties at the k-th grade: the least strs make it
            above, tied = rows[scores[rows] > kth], rows[scores[rows] == kth]
            strs = strs_of(tied)
            keep = heapq.nsmallest(k - above.size, range(tied.size), key=strs.__getitem__)
            rows = _np.sort(_np.concatenate((above, tied[_np.array(keep, dtype=_np.intp)])))
    return rows[canonical_order(strs_of(rows), scores[rows])]


class CodedBounds:
    """NRA's and CA's bounds state, held by object code, with every
    prefix depth in it.

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
    ``rule(...)`` fold.
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
        # Rows past ``count`` are uninitialised; ``add`` sets them up.
        #: per row: its code, and the round it was first sighted
        self._code = _np.empty(capacity, dtype=_np.int64)
        self._first = _np.empty(capacity, dtype=_np.int64)
        # column-major: every fold and mask runs down the m columns
        self._grades = _np.empty((capacity, m), order="F")
        self._learned = _np.empty((capacity, m), dtype=_np.int64, order="F")

    def _ensure(self, needed: int) -> None:
        capacity = self._code.size
        if needed <= capacity:
            return
        size = max(needed, capacity * 2)
        for name in ("_code", "_first", "_grades", "_learned"):
            old = getattr(self, name)
            grown = _np.empty((size,) + old.shape[1:], dtype=old.dtype, order="F")
            grown[: self.count] = old[: self.count]
            setattr(self, name, grown)

    def _rows_of(self, coded):
        """``_row`` at ``coded``, after growing it to a per-run index
        that has coded new ids."""
        grow = len(self.codes) - self._row.size
        if grow > 0:
            self._row = _np.concatenate((self._row, _np.full(grow, -1, dtype=_np.intp)))
        return self._row[coded]

    def add(self, coded, first, grades=_np.nan) -> None:
        """Rows, in order, for ``coded`` (distinct, with no row yet),
        first sighted at round ``first`` (0 hands over), holding
        ``grades`` (an ``[n, m]`` array, NaN where not known) that no
        round has learned yet."""
        start, stop = self.count, self.count + coded.size
        self._ensure(stop)
        self._row[coded] = _np.arange(start, stop)
        self._code[start:stop] = coded
        self._first[start:stop] = first
        self._grades[start:stop] = grades
        self._learned[start:stop] = self.NEVER
        self.count = stop

    def learn(self, column: int, coded, grades, rounds) -> None:
        """List ``column``'s grades of ``coded`` (objects with rows),
        delivered at ``rounds``; a cell keeps its earliest round."""
        rows = self._row[coded]
        self._grades[rows, column] = grades
        self._learned[rows, column] = _np.minimum(self._learned[rows, column], rounds)

    def fresh(self, windows: Sequence):
        """The objects of a window that have no row, each at its first
        sighting: ``windows[i]`` is list i's next rows as (codes, grades),
        or None for a list not read.  Returns their codes and flat
        positions ``row * m + list``, in that (row-major) order; the row
        array is left as it was found."""
        m = self.m
        lengths = [0 if window is None else len(window[0]) for window in windows]
        matrix = _np.full((max(lengths, default=0), m), -1, dtype=_np.int64)
        for column, window in enumerate(windows):
            if lengths[column]:
                matrix[: lengths[column], column] = window[0]
        flat = matrix.ravel()
        where = _np.flatnonzero((flat >= 0) & (self._rows_of(flat) < 0))  # -1 pads
        coded = flat[where]
        # the least position of each object, found in its row array slot
        self._row[coded] = _np.iinfo(_np.intp).max
        _np.minimum.at(self._row, coded, where)
        where = where[self._row[coded] == where]
        self._row[coded] = -1
        return flat[where], where

    def read(self, windows: Sequence, start: int) -> None:
        """Record a window of sorted deliveries (as :meth:`fresh` takes
        it), list i's row r delivered at round ``start + r + 1``.
        Objects seen for the first time get rows in (round, list)
        order."""
        coded, where = self.fresh(windows)
        self.add(coded, start + 1 + where // self.m)
        for column, window in enumerate(windows):
            if window is not None and len(window[0]):
                rounds = _np.arange(start + 1, start + 1 + len(window[0]))
                self.learn(column, window[0], window[1], rounds)

    def table(self):
        """``(codes, grades)`` of every row, as views: the row's code,
        and its ``[count, m]`` grades, NaN where not known.  A state that
        never asks about rounds (A0's) fills grades in by writing them
        into the view; :meth:`hand_over` then counts them as learned."""
        return self._code[: self.count], self._grades[: self.count]

    def hand_over(self) -> None:
        """Count every row, and every grade it holds, as handed over at
        round 0."""
        count = self.count
        self._first[:count] = 0
        self._learned[:count] = _np.where(_np.isnan(self._grades[:count]), self.NEVER, 0)

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

    def best_incomplete(self, rule, bottoms: Sequence[float], t: int):
        """CA's resolution target after round ``t``: ``(codes, missing
        columns)`` of the object with a grade not learned by then and the
        highest upper bound (its code as a one-element array), the
        first-seen one on ties; None if every object is complete."""
        missing = self._known(t)[1]
        incomplete = missing.any(axis=1)
        if not incomplete.any():
            return None
        upper = self.upper_bounds(rule, bottoms, t)
        row = int(_np.argmax(_np.where(incomplete, upper, -1.0)))
        return self._code[row : row + 1], _np.flatnonzero(missing[row]).tolist()

    def ids(self, rows) -> List:
        return self.codes.decode(self._code[rows])

    def _strs_of(self, rows) -> List[str]:
        return [str(object_id) for object_id in self.ids(rows)]

    def ranked(self, rule, k: int, rows=None):
        """The (up to) ``k`` best of ``rows`` (by default, every row) by
        lower bound, in the canonical answer order of :func:`top_rows`:
        their rows, ids and lower bounds."""
        rows = _np.arange(self.count) if rows is None else rows
        scores = self.lower_bounds(rule)[rows]
        top = top_rows(scores, k, lambda chosen: self._strs_of(rows[chosen]))
        return rows[top], self.ids(rows[top]), scores[top].tolist()

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
        later = self._learned[:rows] > t
        self._grades[:rows][later] = _np.nan
        self._learned[:rows][later] = self.NEVER
        self.count = rows


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
    is built on first use, so of a set of sources that share one index
    only that index ever builds one.  :meth:`encode` gives an id the
    next code the first time it sees it, which is how a per-run index
    grows; :meth:`lookup` never grows.  :meth:`positional` is the fixed
    form, which :meth:`encode` never grows: the index of an
    :class:`~repro.core.sources.ArraySource`, whose grades are held by
    code, shared from construction by every source built from an equal
    id sequence, so TA's bulk round over them works on codes alone.
    """

    __slots__ = ("ids", "_codes", "_fixed", "__weakref__")

    #: codes are assigned per index, not read off stored columns
    fingerprint = None

    def __init__(self, ids: Iterable = ()) -> None:
        self.ids: List = list(ids)
        self._codes: Optional[Dict] = None
        self._fixed = False

    @classmethod
    def positional(cls, ids: List) -> "ObjectCodes":
        """A fixed index over the distinct ``ids``, taking the list as
        its own: code = position, and it never grows."""
        codes = cls()
        codes.ids = ids
        codes._fixed = True
        return codes

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
            assert not self._fixed, f"a positional index never grows: {new[0]!r}"
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
