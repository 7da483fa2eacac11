"""The middleware access model: sorted access and random access (section 4).

A multimedia middleware system (Garlic) obtains information from its
subsystems in exactly two ways:

* **sorted access** — the subsystem outputs its graded set "one by one,
  along with their grades, in sorted order based on grade" until told to
  stop, and can later *resume where it left off*;
* **random access** — the subsystem reports the grade of one named
  object under the query.

:class:`GradedSource` models one ranked list (one atomic subquery bound
to one subsystem) offering both access modes, with every access charged
to an :class:`~repro.core.cost.AccessCounter` *inside* the source, so no
algorithm can under-report its cost.  :class:`SortedCursor` is the
resumable sorted-access stream; keeping the cursor alive across calls is
what lets Fagin's algorithm "continue where we left off" to fetch the
next k answers (section 4.1).

:class:`ListSource` is the standard in-memory implementation used by the
synthetic workloads; subsystems in :mod:`repro.middleware` and
:mod:`repro.multimedia` expose their atomic queries through the same
interface.  :mod:`repro.storage` provides the out-of-core
(:class:`~repro.storage.memmap.MemmapSource`) and scatter-gather
(:class:`~repro.storage.sharded.ShardedSource`) backends behind the same
seam; :func:`sources_from_columns` selects among them via ``backend``
and ``shards``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.cost import AccessCounter
from repro.core.graded import GradedItem, GradedSet, ObjectId, validate_grade
from repro.errors import AccessError, GradeError, UnknownObjectError

#: Default window size for the algorithms' bulk sorted access.  One
#: ``next_batch`` per list per round replaces ``batch_size`` Python call
#: chains; 128 keeps the overshoot-free peek windows small while
#: amortizing the per-call overhead by two orders of magnitude.
DEFAULT_BATCH_SIZE = 128


def validate_grade_array(values, name: str, *, require_sorted: bool = False):
    """Validate a float64 grade array in one vectorized pass.

    Checks every grade is finite and lies in [0, 1]; with
    ``require_sorted`` also that the sequence is nonincreasing (the
    sorted-access contract).  Raises :class:`~repro.errors.GradeError`
    (a ``ValueError``) naming the first offending position, so a bad
    bulk load fails loudly instead of silently producing wrong bounds
    downstream.  Returns the validated array.
    """
    try:
        values = _np.asarray(values, dtype=_np.float64)
    except (TypeError, ValueError) as exc:
        raise GradeError(
            f"source {name!r}: grades must be real numbers: {exc}"
        ) from exc
    if values.ndim != 1:
        raise GradeError(
            f"source {name!r}: grades must be one-dimensional, got shape "
            f"{values.shape}"
        )
    if values.size:
        bad = ~((values >= 0.0) & (values <= 1.0))  # catches NaN/inf too
        if bad.any():
            index = int(bad.argmax())
            raise GradeError(
                f"source {name!r}: grade {values[index]!r} at position "
                f"{index} is not a finite number in [0, 1]"
            )
        if require_sorted and values.size > 1:
            rising = values[1:] > values[:-1]
            if rising.any():
                index = int(rising.argmax())
                raise GradeError(
                    f"source {name!r}: grades are not sorted nonincreasing: "
                    f"{float(values[index + 1])} at position {index + 1} "
                    f"exceeds {float(values[index])} at position {index}"
                )
    return values


def _fast_item(object_id: ObjectId, grade: float) -> GradedItem:
    """Build a :class:`GradedItem` bypassing ``__post_init__`` validation.

    Only for grades already validated in bulk (e.g. one vectorized check
    at :class:`ArraySource` construction) — re-validating per item would
    put a Python call back on the hot path the bulk protocol removes.
    """
    item = object.__new__(GradedItem)
    object.__setattr__(item, "object_id", object_id)
    object.__setattr__(item, "grade", grade)
    return item


class SortedCursor:
    """A resumable sorted-access stream over one source.

    ``next()`` returns the next :class:`GradedItem` in nonincreasing
    grade order (charging one sorted access), or ``None`` once the list
    is exhausted.  ``position`` counts items already delivered.

    ``next_batch(n)`` is the bulk form of the same access mode — the
    paper's "ask the subsystem for, say, the top 10 objects … then
    request the next 10".  It delivers up to ``n`` items in one call
    (fewer only at the end of the list) and charges exactly one sorted
    access per delivered item, so batch draining and item-at-a-time
    draining of the same prefix cost the same under the paper's uniform
    measure.  ``peek_batch(n)`` is the accounting-free, side-effect-free
    lookahead the algorithms use to decide how much of a batch to
    actually consume.
    """

    __slots__ = ("_source", "position")

    def __init__(self, source: "GradedSource") -> None:
        self._source = source
        self.position = 0

    def next(self) -> Optional[GradedItem]:
        item = self._source._item_at(self.position)
        if item is None:
            return None
        start = self.position
        self.position += 1
        self._source.counter.record_sorted()
        self._source._attribute_sorted(start, 1)
        return item

    def next_batch(self, n: int) -> List[GradedItem]:
        """The next ``n`` items in sorted order (charging one sorted
        access per item delivered).  Returns fewer than ``n`` items only
        when the list runs out; an exhausted cursor returns ``[]``."""
        if n <= 0:
            return []
        start = self.position
        items = self._source._items_range(start, n)
        if items:
            self.position += len(items)
            self._source.counter.record_sorted(len(items))
            self._source._attribute_sorted(start, len(items))
        return items

    def peek_batch(self, n: int) -> List[GradedItem]:
        """Up to ``n`` upcoming items, without paying or advancing.

        Peeks are side-effect-free: no counter is charged, no wrapper
        state (verification history, batch windows, caches) moves.
        """
        if n <= 0:
            return []
        return self._source._peek_range(self.position, n)

    def next_batch_columns(self, n: int) -> Tuple[List[ObjectId], "object"]:
        """Columnar :meth:`next_batch`: parallel (ids, float64 grades).

        Identical accounting and delivery semantics — one sorted access
        charged per delivered item, position advanced — but the grades
        stay in an array instead of being boxed into per-item
        :class:`GradedItem` objects.  Only bare columnar backends
        (``supports_columnar``) expose the raw hook; anything wrapped
        (verification, fault injection, tracing, ...) falls back to
        :meth:`next_batch` so wrapper bookkeeping observes every
        delivered item exactly as on the scalar path.
        """
        if n <= 0:
            return [], _np.empty(0)
        hook = getattr(self._source, "_columns_range", None)
        if hook is None:
            items = self.next_batch(n)
            return (
                [item.object_id for item in items],
                _np.asarray([item.grade for item in items], dtype=_np.float64),
            )
        start = self.position
        ids, grades = hook(start, n)
        if ids:
            self.position += len(ids)
            self._source.counter.record_sorted(len(ids))
            self._source._attribute_sorted(start, len(ids))
        return ids, grades

    def peek_batch_columns(self, n: int) -> Tuple[List[ObjectId], "object"]:
        """Columnar :meth:`peek_batch`: charge-free, position unchanged."""
        if n <= 0:
            return [], _np.empty(0)
        hook = getattr(self._source, "_columns_range", None)
        if hook is None:
            items = self.peek_batch(n)
            return (
                [item.object_id for item in items],
                _np.asarray([item.grade for item in items], dtype=_np.float64),
            )
        return hook(self.position, n)

    def peek_grade(self) -> Optional[float]:
        """Grade the next sorted access would return, without paying.

        Not part of the paper's access model — used by the algorithms'
        batch planning, tests, and internal invariant checks.
        """
        item = self._source._peek_at(self.position)
        return None if item is None else item.grade

    @property
    def exhausted(self) -> bool:
        return self._source._peek_at(self.position) is None


class GradedSource(ABC):
    """One ranked list with sorted and random access, cost-accounted.

    Subclasses implement :meth:`_item_at` (the i-th best item, 0-based)
    and :meth:`_grade_of` (the grade of a named object); the public
    methods layer the accounting on top.
    """

    #: False for repositories reachable only through sorted access
    #: ("it may be possible to obtain data from some multimedia
    #: repositories in only limited ways", section 4).
    supports_random_access = True
    #: True when every grade is 0 or 1 (a traditional relational
    #: predicate such as Artist='Beatles').  The planner uses this to
    #: pick the Boolean-conjunct-first strategy of section 4.1.
    is_boolean = False
    #: True only for bare columnar backends whose sorted prefix can be
    #: read as raw (ids, grades-array) columns (``_columns_range``).
    #: Wrappers deliberately leave this False: their per-item side
    #: effects must observe every delivery, so the vector kernels fall
    #: back to item-based access through them, and ``auto`` kernel
    #: selection only goes vectorized over all-columnar sources.
    supports_columnar = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.counter = AccessCounter()

    #: chunk size used by the accounting-free materialization helpers
    _MATERIALIZE_CHUNK = 1024

    # -- implementation hooks -------------------------------------------------
    @abstractmethod
    def _item_at(self, index: int) -> Optional[GradedItem]:
        """The index-th item of the sorted list, or None past the end."""

    @abstractmethod
    def _grade_of(self, object_id: ObjectId) -> float:
        """The grade of the object; raise UnknownObjectError if absent."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of objects in the list (the database size N)."""

    # -- bulk implementation hooks --------------------------------------------
    # Wrappers MUST override these to delegate to the wrapped source's
    # bulk hooks; otherwise wrapping silently degrades bulk access back
    # to one Python call per item.  Backends (ListSource, ArraySource)
    # override them with slice/vector implementations.
    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        """Items ``start .. start+count-1`` of the sorted list (short at
        the end).  May carry the same side effects as ``_item_at``
        (verification, batch-window charging, cache extension)."""
        items: List[GradedItem] = []
        for index in range(start, start + count):
            item = self._item_at(index)
            if item is None:
                break
            items.append(item)
        return items

    def _peek_at(self, index: int) -> Optional[GradedItem]:
        """Like ``_item_at`` but guaranteed side-effect- and charge-free.

        The default assumes ``_item_at`` is already pure (true for plain
        backends); stateful wrappers override this to bypass their
        delivery bookkeeping.
        """
        return self._item_at(index)

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        """Bulk, side-effect-free lookahead (see :meth:`_peek_at`)."""
        items: List[GradedItem] = []
        for index in range(start, start + count):
            item = self._peek_at(index)
            if item is None:
                break
            items.append(item)
        return items

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        """Grades of the named objects, without accounting (bulk form of
        ``_grade_of``); raise UnknownObjectError if any is absent."""
        return {object_id: self._grade_of(object_id) for object_id in object_ids}

    # -- storage attribution hooks ---------------------------------------------
    # Composite backends (ShardedSource) break charged totals down to
    # their physical constituents.  Both hooks forward along the wrapper
    # chain by default, so a sharded source keeps exact per-shard
    # accounting no matter how deep it sits in a wrapper stack; wrappers
    # that *translate* object ids (MappedSource) override the random
    # hook to translate before forwarding.  Neither hook charges the
    # source's own counter — that already happened at the call site.
    def _attribute_sorted(self, start: int, count: int) -> None:
        """Attribute ``count`` consumed sorted accesses from position
        ``start`` to the owning physical constituents, if any."""
        inner = getattr(self, "_inner", None)
        if inner is not None:
            inner._attribute_sorted(start, count)

    def _attribute_random(self, object_ids: Sequence[ObjectId]) -> None:
        """Attribute charged random probes of ``object_ids`` to the
        owning physical constituents, if any."""
        inner = getattr(self, "_inner", None)
        if inner is not None:
            inner._attribute_random(object_ids)

    def _record_random_probes(self, object_ids: Sequence[ObjectId]) -> None:
        """Charge random accesses whose grades were already read through
        the free bulk path.

        The vector kernels prefetch probe grades via
        :meth:`_grades_of_many` (free) and then charge exactly the
        probes the scalar path would have performed; this is the single
        charge point for that replay, so composite backends keep their
        per-constituent accounting in sync with the paper's measure.
        """
        if object_ids:
            self.counter.record_random(len(object_ids))
            self._attribute_random(object_ids)

    def prefetch_sorted(self, depth: int, *, executor=None) -> None:
        """Free hint: the caller will soon read the sorted prefix up to
        ``depth`` items.

        Never charges and never changes delivery semantics — backends
        may use it to warm caches (memmap pages, shard-merge buffers),
        optionally overlapping per-constituent reads on ``executor`` (a
        :class:`~repro.parallel.ParallelAccessExecutor`; must only be
        driven from the coordinating thread).  The default forwards
        along the wrapper chain; plain backends ignore it.
        """
        inner = getattr(self, "_inner", None)
        if inner is not None:
            inner.prefetch_sorted(depth, executor=executor)

    # -- public access modes ---------------------------------------------------
    def cursor(self) -> SortedCursor:
        """Open a fresh sorted-access cursor at the top of the list."""
        return SortedCursor(self)

    def random_access_available(self) -> bool:
        """Whether random access is currently worth attempting.

        The static ``supports_random_access`` flag says what the
        repository's protocol offers; this dynamic check also reflects
        runtime health (a resilient wrapper whose random-access circuit
        breaker is open reports False here so the planner can choose a
        sorted-only strategy up front).
        """
        return self.supports_random_access

    def random_access(self, object_id: ObjectId) -> float:
        """Grade of ``object_id`` under this source's query (one access)."""
        grade = self._grade_of(object_id)
        self.counter.record_random()
        self._attribute_random((object_id,))
        return grade

    def random_access_many(
        self, object_ids: Iterable[ObjectId]
    ) -> Dict[ObjectId, float]:
        """Grades of the named objects in one bulk request.

        The bulk form of :meth:`random_access`: one access is charged
        per requested object, so probing a set in bulk costs exactly
        what probing it one object at a time would — the call only
        amortizes the round trip, never the paper's cost measure.
        Callers should pass distinct ids (duplicates are charged per
        request, like repeated :meth:`random_access` calls would be).

        Sources that override :meth:`random_access` with special
        accounting must override this method consistently.
        """
        ids = list(object_ids)
        if not ids:
            return {}
        grades = self._grades_of_many(ids)
        self.counter.record_random(len(ids))
        self._attribute_random(ids)
        return grades

    # -- conveniences ----------------------------------------------------------
    def object_ids(self) -> Iterable[ObjectId]:
        """All object ids, in sorted-list order.  Free (used by tests
        and the naive baseline's result checking, not by algorithms);
        routed through the peek path so no wrapper charges for it.

        Columnar backends (``_columns_range``) stream raw id chunks
        instead of boxing one :class:`GradedItem` per object — on an
        N=10^7 source that is the difference between a flat generator
        and tens of millions of throwaway objects.
        """
        chunk_size = self._MATERIALIZE_CHUNK
        hook = getattr(self, "_columns_range", None)
        index = 0
        if hook is not None:
            while True:
                ids, _ = hook(index, chunk_size)
                yield from ids
                if len(ids) < chunk_size:
                    return
                index += chunk_size
        while True:
            chunk = self._peek_range(index, chunk_size)
            for item in chunk:
                yield item.object_id
            if len(chunk) < chunk_size:
                return
            index += chunk_size

    def as_graded_set(self) -> GradedSet:
        """Materialize the full list as a graded set (accounting-free).

        Uses the side-effect-free peek path, so it stays free even
        through wrappers with their own charging rules (e.g. a
        :class:`~repro.core.batching.BatchedSource` charging whole
        batches per read).  Columnar backends skip the per-item
        :class:`GradedItem` boxing entirely: chunks of raw (id, grade)
        columns land straight in the result's mapping — the grades were
        already validated in bulk when the backend was built.
        """
        result = GradedSet()
        chunk_size = self._MATERIALIZE_CHUNK
        hook = getattr(self, "_columns_range", None)
        index = 0
        if hook is not None:
            grades_map = result._grades
            while True:
                ids, grades = hook(index, chunk_size)
                grades_map.update(zip(ids, grades.tolist()))
                if len(ids) < chunk_size:
                    return result
                index += chunk_size
        while True:
            chunk = self._peek_range(index, chunk_size)
            for item in chunk:
                result[item.object_id] = item.grade
            if len(chunk) < chunk_size:
                return result
            index += chunk_size

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} n={len(self)}>"


class ListSource(GradedSource):
    """In-memory graded list: the workhorse source for synthetic workloads.

    Accepts a :class:`GradedSet`, a mapping, or ``(object, grade)`` pairs.
    Sorted order is computed once; random access is a dict lookup.  Ties
    are ordered deterministically (by object id) so runs are repeatable.
    """

    def __init__(
        self,
        items: Union[GradedSet, Mapping[ObjectId, float], Iterable[Tuple[ObjectId, float]]],
        name: str = "list",
    ) -> None:
        super().__init__(name)
        if isinstance(items, GradedSet):
            graded = items
        else:
            graded = GradedSet(items)
        self._sorted: List[GradedItem] = list(graded)
        self._grades: Dict[ObjectId, float] = graded.as_dict()

    def _item_at(self, index: int) -> Optional[GradedItem]:
        if 0 <= index < len(self._sorted):
            return self._sorted[index]
        return None

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        return self._sorted[start : start + count]

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        return self._sorted[start : start + count]

    def _grade_of(self, object_id: ObjectId) -> float:
        try:
            return self._grades[object_id]
        except KeyError:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {object_id!r}"
            ) from None

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        grades = self._grades
        try:
            return {object_id: grades[object_id] for object_id in object_ids}
        except KeyError as exc:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {exc.args[0]!r}"
            ) from None

    def as_graded_set(self) -> GradedSet:
        return GradedSet(self._grades)

    def __len__(self) -> int:
        return len(self._sorted)


class ArraySource(GradedSource):
    """Columnar, numpy-backed graded list — a drop-in ListSource alternative.

    Grades live in one contiguous ``float64`` array; sorted order is one
    ``argsort`` at construction (descending grade, ties by stringified
    object id — exactly :class:`ListSource`'s order, so the two backends
    are interchangeable object-for-object, not just grade-for-grade).
    Bulk sorted access (``_items_range``/``_peek_range``) is an array
    slice instead of one Python call per item, and grade validation is a
    single vectorized check instead of N ``validate_grade`` calls, which
    is where the bulk-access protocol's wall-clock win comes from on
    large synthetic workloads (benchmark E19).

    Accounting is identical to :class:`ListSource`: the base class
    charges one sorted access per delivered item and one random access
    per probed object, whichever access form the caller uses.
    """

    supports_columnar = True

    def __init__(
        self,
        items: Union[GradedSet, Mapping[ObjectId, float], Iterable[Tuple[ObjectId, float]]],
        name: str = "array",
    ) -> None:
        if isinstance(items, GradedSet):
            mapping: Dict[ObjectId, float] = items.as_dict()
        elif isinstance(items, Mapping):
            mapping = dict(items)
        else:
            mapping = dict(items)  # pairs or GradedItems (both unpack)
        self._init_from_arrays(list(mapping.keys()), list(mapping.values()), name)

    @classmethod
    def from_arrays(
        cls,
        object_ids: Sequence[ObjectId],
        grades,
        name: str = "array",
        *,
        presorted: bool = False,
    ) -> "ArraySource":
        """Fast path: build directly from parallel id/grade sequences.

        ``grades`` may be any array-like; every grade is validated in
        one vectorized pass to be a finite number in [0, 1], raising
        :class:`~repro.errors.GradeError` (a ``ValueError``) naming the
        first offending position.  Ids must be distinct (unlike the
        mapping constructor there is no dict to absorb duplicates, so
        they are rejected loudly).

        ``presorted=True`` trusts the *order* of the input — skipping
        the construction lexsort — but still validates that the grades
        are sorted nonincreasing (again a clear ``GradeError`` instead
        of silently wrong bounds downstream).  The caller must also
        have broken grade ties by ascending ``str(id)`` for the source
        to match the canonical order; the grade order itself is always
        checked.
        """
        source = cls.__new__(cls)
        source._init_from_arrays(
            list(object_ids), grades, name, presorted=presorted
        )
        if len(source._grades) != len(source._sorted_ids):
            raise AccessError(
                f"source {name!r}: duplicate object ids in from_arrays input"
            )
        return source

    def _init_from_arrays(
        self, ids: List[ObjectId], grades, name: str, *, presorted: bool = False
    ) -> None:
        super().__init__(name)
        values = validate_grade_array(grades, name, require_sorted=presorted)
        if len(ids) != values.shape[0]:
            raise AccessError(
                f"source {name!r}: expected one grade per object, got "
                f"{len(ids)} ids and shape {values.shape} grades"
            )
        if presorted:
            self._sorted_grades = values
            self._sorted_ids: List[ObjectId] = list(ids)
        else:
            # One argsort on the grades replaces N log N Python
            # comparisons; only the runs of *equal* grades are then put
            # in ascending (str(id), input position) order — the exact
            # GradedItem sort key under a stable sort, so ties break as
            # ListSource's do — which spares the N-string key array.
            order = _np.argsort(-values)
            ranked = values[order]
            equal = ranked[1:] == ranked[:-1]
            tied = _np.zeros(len(order), dtype=bool)
            tied[1:] = equal
            tied[:-1] |= equal
            slots = _np.nonzero(tied)[0]
            if len(slots):
                rows = order[slots]
                keys = _np.asarray([str(ids[j]) for j in rows.tolist()])
                # Grades are nonincreasing along the slots, so sorting
                # on them first permutes rows within their own run only.
                order[slots] = rows[_np.lexsort((rows, keys, -ranked[slots]))]
                ranked = values[order]  # 0.0 and -0.0 share a run
            self._sorted_grades = ranked
            self._sorted_ids = [ids[j] for j in order.tolist()]
        self._grades: Dict[ObjectId, float] = dict(zip(ids, values.tolist()))

    def _item_at(self, index: int) -> Optional[GradedItem]:
        if 0 <= index < len(self._sorted_ids):
            return _fast_item(
                self._sorted_ids[index], float(self._sorted_grades[index])
            )
        return None

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        ids = self._sorted_ids[start : start + count]
        grades = self._sorted_grades[start : start + count].tolist()
        return [_fast_item(obj, grade) for obj, grade in zip(ids, grades)]

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        return self._items_range(start, count)

    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        """Raw columnar sorted prefix: (ids, float64 grade array).

        The vector kernels' zero-boxing read path (``SortedCursor.
        next_batch_columns``); charge-free by itself — the cursor does
        the accounting, exactly as with ``_items_range``.
        """
        return (
            self._sorted_ids[start : start + count],
            self._sorted_grades[start : start + count],
        )

    def _grade_of(self, object_id: ObjectId) -> float:
        try:
            return self._grades[object_id]
        except KeyError:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {object_id!r}"
            ) from None

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        grades = self._grades
        try:
            return {object_id: grades[object_id] for object_id in object_ids}
        except KeyError as exc:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {exc.args[0]!r}"
            ) from None

    def object_ids(self) -> Iterable[ObjectId]:
        return iter(self._sorted_ids)

    def as_graded_set(self) -> GradedSet:
        return GradedSet(self._grades)

    def __len__(self) -> int:
        return len(self._sorted_ids)


class SortedOnlySource(GradedSource):
    """A source whose repository supports only sorted access.

    Some multimedia repositories expose data "in only limited ways"
    (section 4): random access raises
    :class:`~repro.errors.UnsupportedAccessError`.  The no-random-access
    (NRA) algorithm in :mod:`repro.core.threshold` is the strategy that
    copes with such sources.
    """

    supports_random_access = False

    def __init__(self, inner: GradedSource) -> None:
        super().__init__(f"sorted-only({inner.name})")
        self._inner = inner
        # Share the inner counter so costs are attributed consistently.
        self.counter = inner.counter

    def _item_at(self, index: int) -> Optional[GradedItem]:
        return self._inner._item_at(index)

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        return self._inner._items_range(start, count)

    def _peek_at(self, index: int) -> Optional[GradedItem]:
        return self._inner._peek_at(index)

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        return self._inner._peek_range(start, count)

    def _grade_of(self, object_id: ObjectId) -> float:
        from repro.errors import UnsupportedAccessError

        raise UnsupportedAccessError(
            f"source {self.name!r} does not support random access"
        )

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        # Bulk random access is just as unsupported as the single form.
        from repro.errors import UnsupportedAccessError

        raise UnsupportedAccessError(
            f"source {self.name!r} does not support random access"
        )

    def __len__(self) -> int:
        return len(self._inner)


class VerifyingSource(GradedSource):
    """A defensive wrapper over an untrusted subsystem's ranked list.

    Section 4.2's real-world issues include subsystems the middleware
    does not control.  Every top-k algorithm here *assumes* the sorted
    stream is nonincreasing and that random access agrees with sorted
    access; a subsystem violating either yields silently wrong answers.
    This wrapper turns both violations into immediate
    :class:`~repro.errors.AccessError` failures:

    * sorted access raises if a delivered grade exceeds its predecessor;
    * random access raises if the returned grade contradicts a grade the
      sorted stream already delivered for the same object.

    The checks are O(1) per access; the counter is shared with the
    wrapped source so accounting is unchanged.
    """

    def __init__(self, inner: GradedSource, *, tolerance: float = 1e-9) -> None:
        super().__init__(f"verified({inner.name})")
        self._inner = inner
        self._tolerance = tolerance
        self.counter = inner.counter
        self.supports_random_access = inner.supports_random_access
        self.is_boolean = inner.is_boolean
        #: grades already delivered under sorted access, for consistency
        self._delivered: Dict[ObjectId, float] = {}
        self._max_position_grade: Optional[Tuple[int, float]] = None

    def _observe_delivery(self, index: int, item: GradedItem) -> None:
        """Record one sorted delivery, raising on an order violation."""
        if self._max_position_grade is not None:
            deepest, grade_there = self._max_position_grade
            if index > deepest and item.grade > grade_there + self._tolerance:
                raise AccessError(
                    f"subsystem {self._inner.name!r} violated sorted order: "
                    f"grade {item.grade} at position {index} exceeds "
                    f"{grade_there} at position {deepest}"
                )
        if self._max_position_grade is None or index > self._max_position_grade[0]:
            self._max_position_grade = (index, item.grade)
        self._delivered[item.object_id] = item.grade

    def _check_consistent(self, object_id: ObjectId, grade: float) -> None:
        seen = self._delivered.get(object_id)
        if seen is not None and abs(seen - grade) > self._tolerance:
            raise AccessError(
                f"subsystem {self._inner.name!r} is inconsistent: object "
                f"{object_id!r} graded {seen} under sorted access but "
                f"{grade} under random access"
            )

    def _item_at(self, index: int) -> Optional[GradedItem]:
        item = self._inner._item_at(index)
        if item is None:
            return None
        self._observe_delivery(index, item)
        return item

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        items = self._inner._items_range(start, count)
        for offset, item in enumerate(items):
            self._observe_delivery(start + offset, item)
        return items

    def _peek_at(self, index: int) -> Optional[GradedItem]:
        # Peeks are not deliveries: no verification state moves, so a
        # peek can never alter what a later random access is checked
        # against (the algorithms only ever *pay* for what they use).
        return self._inner._peek_at(index)

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        return self._inner._peek_range(start, count)

    def _grade_of(self, object_id: ObjectId) -> float:
        grade = self._inner._grade_of(object_id)
        self._check_consistent(object_id, grade)
        return grade

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        grades = self._inner._grades_of_many(object_ids)
        for object_id, grade in grades.items():
            self._check_consistent(object_id, grade)
        return grades

    def __len__(self) -> int:
        return len(self._inner)


#: backend names accepted by :func:`sources_from_columns` and the
#: ``--backend`` plumbing (CLI, workloads, engine).
BACKEND_CHOICES = ("array", "list", "memmap")


def sources_from_columns(
    grades_by_object: Mapping[ObjectId, Sequence[float]],
    names: Optional[Sequence[str]] = None,
    *,
    backend: str = "array",
    shards: int = 1,
    directory: Optional[str] = None,
) -> List[GradedSource]:
    """Build one ranked-list source per grade column.

    ``grades_by_object`` maps each object to its grade vector
    ``(g_1, ..., g_m)``; the result is the m ranked lists the section-4
    algorithms consume.  All vectors must share the same length.

    ``backend`` selects the storage: ``"array"`` (default) builds
    numpy-backed :class:`ArraySource` columns in one vectorized pass,
    ``"list"`` the classic per-item :class:`ListSource`, and
    ``"memmap"`` out-of-core
    :class:`~repro.storage.memmap.MemmapSource` columns under
    ``directory`` (a temporary directory owned by the sources when
    omitted).  All backends produce the same sorted order and the same
    accounting.

    ``shards > 1`` hash-partitions every column into that many shards
    of the chosen backend behind a
    :class:`~repro.storage.sharded.ShardedSource` — answers, costs, and
    traces stay byte-identical to the monolithic build.
    """
    arities = {len(v) for v in grades_by_object.values()}
    if len(arities) > 1:
        raise AccessError(f"inconsistent grade-vector lengths: {sorted(arities)}")
    m = arities.pop() if arities else 0
    if names is not None and len(names) != m:
        raise AccessError(f"expected {m} names, got {len(names)}")
    if backend not in BACKEND_CHOICES:
        raise AccessError(
            f"unknown source backend {backend!r}; use "
            + ", ".join(BACKEND_CHOICES)
        )
    if shards < 1:
        raise AccessError(f"shards must be >= 1, got {shards}")
    labels = [
        names[i] if names is not None else f"A{i + 1}" for i in range(m)
    ]
    if shards > 1 or backend == "memmap":
        # The out-of-core and scatter-gather backends live behind the
        # storage seam; imported lazily to keep the core dependency-free.
        from repro.storage import build_column_sources

        return build_column_sources(
            grades_by_object,
            labels,
            backend=backend,
            shards=shards,
            directory=directory,
        )
    sources: List[GradedSource] = []
    if backend == "array" and m > 0:
        objects = list(grades_by_object.keys())
        try:
            matrix = _np.asarray(
                [grades_by_object[obj] for obj in objects], dtype=_np.float64
            )
        except (TypeError, ValueError) as exc:
            raise GradeError(f"grades must be real numbers: {exc}") from exc
        for i in range(m):
            sources.append(
                ArraySource.from_arrays(objects, matrix[:, i], name=labels[i])
            )
        return sources
    for i in range(m):
        column = {
            obj: validate_grade(vector[i])
            for obj, vector in grades_by_object.items()
        }
        sources.append(ListSource(column, name=labels[i]))
    return sources


def iter_wrapper_chain(source: GradedSource):
    """Yield a source and every source it wraps, outermost first.

    The wrapper convention throughout the library is an ``_inner``
    attribute pointing at the wrapped source (verifying, sorted-only,
    fault-injecting, resilient, mapped, tracing wrappers all follow it).
    Observability consumers — the resilience report, EXPLAIN's per-atom
    statistics — walk the chain through this helper instead of
    re-implementing the traversal.
    """
    node: Optional[GradedSource] = source
    while node is not None:
        yield node
        node = getattr(node, "_inner", None)


def check_same_objects(sources: Sequence[GradedSource]) -> int:
    """Verify all sources rank the same object universe; return its size.

    Fagin's algorithm assumes each subsystem grades *every* object (an
    object absent from a list would silently act as grade 0 under sorted
    access but raise under random access).  The middleware's ID-mapping
    layer (:mod:`repro.middleware.idmap`) establishes this before
    algorithms run; this helper is the cheap sanity check used by the
    algorithm entry points.
    """
    if not sources:
        raise AccessError("at least one source is required")
    sizes = {len(s) for s in sources}
    if len(sizes) > 1:
        raise AccessError(f"sources disagree on database size: {sorted(sizes)}")
    return sizes.pop()
