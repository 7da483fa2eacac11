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

:class:`ArraySource` is the one in-memory implementation: the
synthetic workloads and every subsystem in :mod:`repro.middleware` and
:mod:`repro.multimedia` bind their atomic queries to it.
:mod:`repro.storage` provides the out-of-core
(:class:`~repro.storage.memmap.MemmapSource`) and scatter-gather
(:class:`~repro.storage.sharded.ShardedSource`) backends behind the same
seam; :func:`sources_from_columns` selects among them via ``backend``
and ``shards``.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.cost import AccessCounter
from repro.core.graded import GradedItem, GradedSet, ObjectId
from repro.errors import AccessError, GradeError, UnknownObjectError, UnsupportedAccessError
from repro.kernels import ColumnCodes, ObjectCodes, canonical_order

#: Default window size for the algorithms' bulk sorted access.  One
#: ``next_batch`` per list per round replaces ``batch_size`` Python call
#: chains; 128 keeps the overshoot-free peek windows small while
#: amortizing the per-call overhead by two orders of magnitude.
DEFAULT_BATCH_SIZE = 128


def validate_grade_array(
    values, name: str, *, require_sorted: bool = False, ids: Optional[Sequence[ObjectId]] = None
):
    """Validate a float64 grade array in one vectorized pass.

    Checks every grade is finite and lies in [0, 1]; with
    ``require_sorted`` also that the sequence is nonincreasing (the
    sorted-access contract).  Raises :class:`~repro.errors.GradeError`
    (a ``ValueError``) naming the first offending grade and position —
    and its object, when the caller passes the parallel ``ids`` — so a
    bad bulk load fails loudly instead of silently producing wrong
    bounds downstream.  Returns the validated array.
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
            named = ids is not None and index < len(ids)
            owner = f" of object {ids[index]!r}" if named else ""
            raise GradeError(
                f"source {name!r}: grade {float(values[index])!r}{owner} at "
                f"position {index} is not a finite number in [0, 1]"
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
    is exhausted.  ``position`` (read-only) counts items already
    delivered: a cursor moves only by a charged delivery.

    ``next_batch(n)`` is the bulk form of the same access mode — the
    paper's "ask the subsystem for, say, the top 10 objects … then
    request the next 10".  It delivers up to ``n`` items in one call
    (fewer only at the end of the list) and charges exactly one sorted
    access per delivered item, so batch draining and item-at-a-time
    draining of the same prefix cost the same under the paper's uniform
    measure.  ``peek_batch(n)`` is the accounting-free, side-effect-free
    lookahead the algorithms use to decide how much of a batch to
    actually consume.

    Every access is one columnar read of the source
    (``_columns_range``); a consuming read then calls the source's
    ``_consume`` (delivery side effects, which may refuse the delivery
    by raising) before charging and advancing.  The ``_columns`` forms
    hand the (ids, float64 grades) window over as is; the others box it
    into :class:`GradedItem` s.
    """

    __slots__ = ("_source", "_position")

    def __init__(self, source: "GradedSource") -> None:
        self._source = source
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def next_batch_columns(self, n: int) -> Tuple[List[ObjectId], "object"]:
        """The next ``n`` items in sorted order as parallel (ids, float64
        grades), charging one sorted access per item delivered.  Short
        only when the list runs out; an exhausted cursor returns empty
        columns — after still calling ``_consume`` with a count of 0,
        since asking a repository for more is itself an access."""
        if n <= 0:
            return [], _np.empty(0)
        start = self._position
        ids, grades = self._source._columns_range(start, n)
        self._source._consume(start, len(ids))
        if ids:
            self._charge(len(ids))
            self._position += len(ids)
        return ids, grades

    def _charge(self, count: int) -> None:
        self._source.counter.record_sorted(count)

    def next_batch(self, n: int) -> List[GradedItem]:
        """:meth:`next_batch_columns`, boxed into items."""
        return _boxed(*self.next_batch_columns(n))

    def next(self) -> Optional[GradedItem]:
        items = self.next_batch(1)
        return items[0] if items else None

    def peek_batch_columns(self, n: int) -> Tuple[List[ObjectId], "object"]:
        """Up to ``n`` upcoming items as (ids, float64 grades), without
        paying or advancing.

        Peeks are side-effect-free: no counter is charged, no wrapper
        state (verification history, batch windows, caches) moves.
        """
        if n <= 0:
            return [], _np.empty(0)
        return self._source._columns_range(self.position, n)

    def peek_batch(self, n: int) -> List[GradedItem]:
        """:meth:`peek_batch_columns`, boxed into items."""
        return _boxed(*self.peek_batch_columns(n))

    def peek_grade(self) -> Optional[float]:
        """Grade the next sorted access would return, without paying.

        Not part of the paper's access model — used by the algorithms'
        batch planning, tests, and internal invariant checks.
        """
        ids, grades = self.peek_batch_columns(1)
        return float(grades[0]) if ids else None

    @property
    def exhausted(self) -> bool:
        return not self.peek_batch_columns(1)[0]


def _boxed(ids: List[ObjectId], grades) -> List[GradedItem]:
    return [_fast_item(object_id, grade) for object_id, grade in zip(ids, grades.tolist())]


class GradedSource(ABC):
    """One ranked list with sorted and random access, cost-accounted.

    A source implements two charge-free array hooks —
    :meth:`_columns_range` (a window of the sorted list) and
    :meth:`_grades_of_many` (grades of named objects) — plus
    ``__len__``.  Every public access is derived from them here and in
    :class:`SortedCursor`, which layer the accounting on top.  Delivery
    side effects (fault injection, verification, batch charging, ...)
    go in the optional :meth:`_consume`.
    """

    #: False for repositories reachable only through sorted access
    #: ("it may be possible to obtain data from some multimedia
    #: repositories in only limited ways", section 4).
    supports_random_access = True
    #: True when every grade is 0 or 1 (a traditional relational
    #: predicate such as Artist='Beatles').  The planner uses this to
    #: pick the Boolean-conjunct-first strategy of section 4.1.
    is_boolean = False
    #: True when reads are free and accesses cannot fail, so TA may read
    #: whole windows and probe grades ahead of charging for them (its
    #: bulk round).  Wrappers leave it False: their side effects must
    #: observe every access as it is charged.
    supports_columnar = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.counter = AccessCounter()

    #: chunk size used by the accounting-free materialization helpers
    _MATERIALIZE_CHUNK = 1024

    # -- implementation hooks -------------------------------------------------
    @abstractmethod
    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        """Positions ``start .. start+count-1`` of the sorted list (short
        at the end) as (ids list, float64 grade array).  Never charges
        and never moves wrapper state."""

    @abstractmethod
    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        """Grades of the named objects as a float64 array in request
        order, without accounting; raise UnknownObjectError naming the
        first missing id in request order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of objects in the list (the database size N)."""

    def _consume(self, start: int, count: int) -> None:
        """Delivery side effects of a consuming sorted read of positions
        ``start .. start+count-1`` (``count`` is 0 for an empty read at
        the end of the list).  Raising refuses the delivery: the cursor
        neither charges nor advances."""

    def _attribute_random(self, object_ids: Sequence[ObjectId]) -> None:
        """Attribute charged random probes of ``object_ids`` to the
        owning physical constituents, if any (sharded backends; wrappers
        forward it, translating ids if they rename them).  The source's
        own counter was already charged at the call site."""

    def _charge_random(self, object_ids: Sequence[ObjectId]) -> None:
        """Charge one random access per id in ``object_ids`` and
        attribute them; the grades were already read."""
        if object_ids:
            self.counter.record_random(len(object_ids))
            self._attribute_random(object_ids)

    def _record_random_probes(self, codes: ObjectCodes, coded) -> None:
        """Charge one random access per code in ``coded``, whose grades
        TA's bulk round already read through the free
        :meth:`_grades_of_codes`.

        The bulk round charges exactly the probes the per-row path would
        have performed, here, so composite backends keep their
        per-constituent accounting in sync with the paper's measure.
        Codes are decoded (lazily) only for :meth:`_attribute_random`;
        a source that attributes by code overrides this instead.
        """
        if len(coded):
            self.counter.record_random(len(coded))
            self._attribute_random(codes.decoded(coded))

    # -- object-code hooks -------------------------------------------------------
    # TA's bulk round reads columnar sources by dense object code (an
    # index shared by the query's sources: see shared_object_codes).
    # These defaults go through ids; ArraySource overrides both to slice
    # and gather when the index is its own, and the storage backends
    # when it is the universe their codes were written against.
    def _stored_codes(self) -> Optional[ColumnCodes]:
        """The codes this source's storage wrote at build time, if any."""
        return None

    def _owns_codes(self, codes) -> bool:
        """Whether ``codes`` codes objects as this source's storage does."""
        stored = self._stored_codes()
        return stored is not None and codes.fingerprint == stored.fingerprint

    def _codes_range(self, codes: ObjectCodes, start: int, count: int):
        """Columnar sorted prefix by code: (int32 codes, float64 grades)
        of positions ``start .. start+count-1``, charge-free like
        ``_columns_range``; ids ``codes`` has not seen get new codes."""
        ids, grades = self._columns_range(start, count)
        return codes.encode(ids), grades

    def _grades_of_codes(self, codes: ObjectCodes, coded):
        """Grades (float64, request order) of the objects with codes
        ``coded``, without accounting — ``_grades_of_many`` by code."""
        return self._grades_of_many(codes.decode(coded))

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
        grade = float(self._grades_of_many([object_id])[0])
        self._charge_random((object_id,))
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
        self._charge_random(ids)
        return dict(zip(ids, grades.tolist()))

    # -- conveniences ----------------------------------------------------------
    def _chunks(self):
        """The whole sorted list as charge-free (ids, grades) chunks."""
        chunk_size = self._MATERIALIZE_CHUNK
        index = 0
        while True:
            ids, grades = self._columns_range(index, chunk_size)
            yield ids, grades
            if len(ids) < chunk_size:
                return
            index += chunk_size

    def object_ids(self) -> Iterable[ObjectId]:
        """All object ids, in sorted-list order.  Free (used by tests
        and the naive baseline's result checking, not by algorithms),
        and streamed in raw id chunks — on an N=10^7 source that is the
        difference between a flat generator and tens of millions of
        throwaway :class:`GradedItem` s."""
        for ids, _ in self._chunks():
            yield from ids

    def as_graded_set(self) -> GradedSet:
        """Materialize the full list as a graded set (accounting-free,
        even through wrappers with their own charging rules).  Chunks of
        raw (id, grade) columns land straight in the result's mapping —
        the grades were already validated when the backend was built."""
        result = GradedSet()
        for ids, grades in self._chunks():
            result._grades.update(zip(ids, grades.tolist()))
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} n={len(self)}>"


#: serializes :meth:`ArraySource._adopt`, so a source never moves to a
#: newer index than one another thread adopted meanwhile
_ADOPTION = threading.Lock()


class ArraySource(GradedSource):
    """Columnar, numpy-backed graded list: the one in-memory ranked list.

    Grades live in one contiguous ``float64`` array; sorted order is one
    :func:`~repro.kernels.canonical_order` at construction (descending
    grade, ties by stringified object id — a :class:`GradedSet`'s
    iteration order, and the order every storage backend writes, so the
    backends are interchangeable object-for-object, not just
    grade-for-grade).  Sorted access is an array slice instead of one
    Python call per item, and grade validation is a single vectorized
    check instead of N ``validate_grade`` calls.

    Grades are held by object code (:class:`~repro.kernels.ObjectCodes`),
    not in an id -> grade dict: a random access is one dict lookup and a
    gather, and TA's bulk round slices sorted codes and gathers grades
    without touching ids.  Sources built separately over one object set
    settle on one shared index (:func:`shared_object_codes`).

    The base class charges one sorted access per delivered item and one
    random access per probed object, whichever access form the caller
    uses.  A bare ArraySource is columnar, so TA reads a set of them (m >
    1) in its bulk round; TA's per-row path serves only wrapped stacks
    and m = 1 (:func:`~repro.core.threshold.threshold_top_k`).
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
        the construction sort — but still validates that the grades
        are sorted nonincreasing (again a clear ``GradeError`` instead
        of silently wrong bounds downstream).  The caller must also
        have broken grade ties by ascending ``str(id)`` for the source
        to match the canonical order; the grade order itself is always
        checked.
        """
        ids = list(object_ids)
        source = cls.__new__(cls)
        source._init_from_arrays(ids, grades, name, presorted=presorted)
        if len(set(ids)) != len(ids):
            raise AccessError(
                f"source {name!r}: duplicate object ids in from_arrays input"
            )
        return source

    def _init_from_arrays(
        self, ids: List[ObjectId], grades, name: str, *, presorted: bool = False
    ) -> None:
        super().__init__(name)
        values = validate_grade_array(grades, name, require_sorted=presorted, ids=ids)
        if len(ids) != values.shape[0]:
            raise AccessError(
                f"source {name!r}: expected one grade per object, got "
                f"{len(ids)} ids and shape {values.shape} grades"
            )
        order = _np.arange(len(ids)) if presorted else canonical_order(ids, values)
        self._sorted_grades = values[order]
        self._sorted_ids: List[ObjectId] = [ids[j] for j in order.tolist()]
        #: ``(codes, sorted_codes, grade_by_code)``: an id's code is its
        #: input position until :meth:`_adopt` re-codes the source; one
        #: attribute, so a reader always sees one consistent snapshot.
        self._coded = (ObjectCodes(ids), order.astype(_np.int32), values)

    def _adopt(self, codes: ObjectCodes) -> bool:
        """Re-code this source into the older index ``codes``.

        Declines (False) unless ``codes`` is at least as old as the
        current index, is the same size and codes every id of this
        source; N dict lookups, once per source — none when both were
        built from the same ids in the same order, which code alike.  A
        source only ever moves to an older index, so a set of sources
        adopting their oldest one converges.
        """
        with _ADOPTION:  # check-then-act: concurrent queries adopt too
            current, sorted_codes, grade_by_code = self._coded
            if current is codes:
                return True
            if codes.serial > current.serial or len(codes) != len(current):
                return False
            if codes.ids == current.ids:
                self._coded = (codes, sorted_codes, grade_by_code)
                return True
            try:
                recode = codes.lookup(current.ids)
            except KeyError:
                return False
            by_new_code = _np.empty_like(grade_by_code)
            by_new_code[recode] = grade_by_code
            self._coded = (codes, recode[sorted_codes], by_new_code)
            return True

    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        stop = start + count
        return self._sorted_ids[start:stop], self._sorted_grades[start:stop]

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        codes, _, grade_by_code = self._coded
        try:
            coded = codes.lookup(object_ids)
        except KeyError as exc:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {exc.args[0]!r}"
            ) from None
        return grade_by_code[coded]

    def _codes_range(self, codes: ObjectCodes, start: int, count: int):
        own, sorted_codes, _ = self._coded
        if codes is not own:
            return super()._codes_range(codes, start, count)
        stop = start + count
        return sorted_codes[start:stop], self._sorted_grades[start:stop]

    def _grades_of_codes(self, codes: ObjectCodes, coded):
        own, _, grade_by_code = self._coded
        if codes is not own:
            return super()._grades_of_codes(codes, coded)
        return grade_by_code[coded]

    def __len__(self) -> int:
        return len(self._sorted_ids)


class WrapperSource(GradedSource):
    """Pass-through base of the wrappers over one ``inner`` source.

    Forwards ``__len__``, both array hooks, ``_consume`` and
    ``_attribute_random`` to the wrapped source,
    shares its counter (a wrapper that keeps its own replaces it) and
    copies the protocol flags the planner reads, so a wrapper overrides
    only what it changes.  Wrappers that set ``_copies_positive_count``
    also pass the Boolean selectivity on; the others hide it, which keeps
    the planner's Boolean-first strategy (it has no degradation path)
    off failure-capable stacks.
    """

    _copies_positive_count = False

    def __init__(self, inner: GradedSource, name: Optional[str] = None) -> None:
        super().__init__(inner.name if name is None else name)
        self._inner = inner
        self.counter = inner.counter
        self.supports_random_access = inner.supports_random_access
        self.is_boolean = inner.is_boolean
        positive = getattr(inner, "positive_count", None)
        if positive is not None and self._copies_positive_count:
            self.positive_count = positive

    def __len__(self) -> int:
        return len(self._inner)

    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        return self._inner._columns_range(start, count)

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        return self._inner._grades_of_many(object_ids)

    def _consume(self, start: int, count: int) -> None:
        self._inner._consume(start, count)

    def _attribute_random(self, object_ids: Sequence[ObjectId]) -> None:
        self._inner._attribute_random(object_ids)


class SortedOnlySource(WrapperSource):
    """A source whose repository supports only sorted access.

    Some multimedia repositories expose data "in only limited ways"
    (section 4): random access raises
    :class:`~repro.errors.UnsupportedAccessError`.  The no-random-access
    (NRA) algorithm in :mod:`repro.core.threshold` is the strategy that
    copes with such sources.
    """

    def __init__(self, inner: GradedSource) -> None:
        super().__init__(inner, f"sorted-only({inner.name})")
        self.supports_random_access = False

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        raise UnsupportedAccessError(
            f"source {self.name!r} does not support random access"
        )


class VerifyingSource(WrapperSource):
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
    wrapped source so accounting is unchanged.  Peeks are not
    deliveries: no verification state moves, so a peek can never alter
    what a later random access is checked against.
    """

    def __init__(self, inner: GradedSource, *, tolerance: float = 1e-9) -> None:
        super().__init__(inner, f"verified({inner.name})")
        self._tolerance = tolerance
        #: grades already delivered under sorted access, for consistency
        self._delivered: Dict[ObjectId, float] = {}
        self._max_position_grade: Optional[Tuple[int, float]] = None

    def _consume(self, start: int, count: int) -> None:
        """Record the delivered window, raising on an order violation."""
        self._inner._consume(start, count)
        ids, grades = self._columns_range(start, count)
        for index, object_id, grade in zip(range(start, start + count), ids, grades.tolist()):
            if self._max_position_grade is not None:
                deepest, grade_there = self._max_position_grade
                if index > deepest and grade > grade_there + self._tolerance:
                    raise AccessError(
                        f"subsystem {self._inner.name!r} violated sorted order: "
                        f"grade {grade} at position {index} exceeds "
                        f"{grade_there} at position {deepest}"
                    )
            if self._max_position_grade is None or index > self._max_position_grade[0]:
                self._max_position_grade = (index, grade)
            self._delivered[object_id] = grade

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        grades = self._inner._grades_of_many(object_ids)
        for object_id, grade in zip(object_ids, grades.tolist()):
            seen = self._delivered.get(object_id)
            if seen is not None and abs(seen - grade) > self._tolerance:
                raise AccessError(
                    f"subsystem {self._inner.name!r} is inconsistent: object "
                    f"{object_id!r} graded {seen} under sorted access but "
                    f"{grade} under random access"
                )
        return grades


#: backend names accepted by :func:`sources_from_columns` and the
#: ``--backend`` plumbing (CLI, workloads, engine).
BACKEND_CHOICES = ("array", "memmap")


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
    ``"memmap"`` out-of-core
    :class:`~repro.storage.memmap.MemmapSource` columns under
    ``directory`` (a temporary directory owned by the sources when
    omitted).  All backends produce the same sorted order and the same
    accounting.

    ``shards > 1`` hash-partitions every column into that many shards
    of the chosen backend behind a
    :class:`~repro.storage.sharded.ShardedSource` — answers, costs, and
    traces stay byte-identical to the monolithic build.  Every layout
    is built by :func:`repro.storage.build_sources`.
    """
    arities = {len(v) for v in grades_by_object.values()}
    if len(arities) > 1:
        raise AccessError(f"inconsistent grade-vector lengths: {sorted(arities)}")
    m = arities.pop() if arities else 0
    if names is not None and len(names) != m:
        raise AccessError(f"expected {m} names, got {len(names)}")
    labels = [
        names[i] if names is not None else f"A{i + 1}" for i in range(m)
    ]
    objects = list(grades_by_object.keys())
    try:
        matrix = _np.asarray(
            [grades_by_object[obj] for obj in objects], dtype=_np.float64
        ).reshape(len(objects), m)
    except (TypeError, ValueError) as exc:
        raise GradeError(f"grades must be real numbers: {exc}") from exc
    # The layouts live behind the storage seam; imported lazily so
    # ``import repro`` does not load it.
    from repro.storage import build_sources

    return build_sources(
        objects, matrix, labels, backend=backend, shards=shards, directory=directory
    )


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


def shared_object_codes(sources: Sequence[GradedSource]) -> ObjectCodes:
    """The :class:`~repro.kernels.ObjectCodes` index a query's sources
    are read by in TA's bulk round.

    A set of :class:`ArraySource` s over one object set shares the
    oldest of their indexes, once every one has adopted it
    (:meth:`ArraySource._adopt`).  A set whose storage wrote codes at
    build time (memmap sources, or sharded sources over memmap shards)
    shares them when every universe has the same fingerprint: the same
    lookup ids, shard for shard.  Any other set — kNN, mixed, lists
    partitioned differently, memmaps built before codes were stored, or
    sources over different object sets — gets a fresh per-run index
    that the sources' id-based hooks fill.
    """
    if all(isinstance(source, ArraySource) for source in sources):
        oldest = min(
            (source._coded[0] for source in sources), key=lambda codes: codes.serial
        )
        if all(source._adopt(oldest) for source in sources):
            return oldest
    stored = sources[0]._stored_codes()
    if stored is not None and all(source._owns_codes(stored) for source in sources):
        return stored
    return ObjectCodes()


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
