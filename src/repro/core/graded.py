"""Graded ("fuzzy") sets, the central data structure of the paper.

A graded set is a set of pairs ``(x, g)`` where ``x`` is an object (any
hashable identifier) and ``g``, the *grade*, is a real number in ``[0, 1]``
describing how well the object satisfies a query (paper section 3,
following Zadeh).  A graded set generalizes both a plain set (all grades
are 0 or 1) and a sorted list (iterate objects by nonincreasing grade).

The module provides:

* :class:`GradedItem` — an immutable ``(object_id, grade)`` pair.
* :class:`GradedSet` — a mapping from objects to grades with sorted-list
  iteration, top-k extraction, and fuzzy set algebra (union, intersection,
  complement) parameterized by scoring functions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import GradeError
from repro.grades import GRADE_TOLERANCE, validate_grade

ObjectId = Hashable


@dataclass(frozen=True, order=False, slots=True)
class GradedItem:
    """An object together with its grade under some query.

    Items order by *descending* grade so that sorting a list of
    :class:`GradedItem` yields the paper's "sorted list" presentation
    (best match first).  Ties order by object id (stringified) to make
    sorting deterministic.

    ``slots=True`` matters at scale: algorithms materialize one item per
    delivered row, so dropping the per-item ``__dict__`` cuts both
    memory and attribute-access time on the hot paths.
    """

    object_id: ObjectId
    grade: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "grade", validate_grade(self.grade))

    def _sort_key(self) -> Tuple[float, str]:
        return (-self.grade, str(self.object_id))

    def __lt__(self, other: "GradedItem") -> bool:
        if not isinstance(other, GradedItem):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __iter__(self) -> Iterator:
        """Allow ``obj, grade = item`` unpacking."""
        return iter((self.object_id, self.grade))


class GradedSet:
    """A graded (fuzzy) set: a finite map from objects to grades in [0, 1].

    Construction accepts a mapping, an iterable of ``(object, grade)``
    pairs, or an iterable of :class:`GradedItem`.  Iteration yields
    :class:`GradedItem` in nonincreasing grade order, so a ``GradedSet``
    can be consumed directly as the "sorted list" answer to a multimedia
    query.

    >>> gs = GradedSet({"a": 0.9, "b": 0.5})
    >>> [item.object_id for item in gs]
    ['a', 'b']
    """

    __slots__ = ("_grades", "_sorted_cache")

    def __init__(
        self,
        items: Union[
            Mapping[ObjectId, float],
            Iterable[Union[GradedItem, Tuple[ObjectId, float]]],
            None,
        ] = None,
    ) -> None:
        self._grades: Dict[ObjectId, float] = {}
        self._sorted_cache: Optional[List[GradedItem]] = None
        if items is None:
            return
        if isinstance(items, Mapping):
            pairs: Iterable[Tuple[ObjectId, float]] = items.items()
        else:
            pairs = (
                (it.object_id, it.grade) if isinstance(it, GradedItem) else it
                for it in items
            )
        for object_id, grade in pairs:
            self._grades[object_id] = validate_grade(grade)

    # ------------------------------------------------------------------
    # Mapping-style access
    # ------------------------------------------------------------------
    def grade(self, object_id: ObjectId, default: float = 0.0) -> float:
        """Return the grade of ``object_id``, or ``default`` if absent.

        Absent objects default to grade 0, matching the convention that an
        object not in a fuzzy set has membership 0.
        """
        return self._grades.get(object_id, default)

    def __getitem__(self, object_id: ObjectId) -> float:
        return self._grades[object_id]

    def __setitem__(self, object_id: ObjectId, grade: float) -> None:
        self._grades[object_id] = validate_grade(grade)
        self._sorted_cache = None

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._grades

    def __len__(self) -> int:
        return len(self._grades)

    def __bool__(self) -> bool:
        return bool(self._grades)

    def objects(self) -> Iterator[ObjectId]:
        """Iterate object ids in no particular order."""
        return iter(self._grades)

    def as_dict(self) -> Dict[ObjectId, float]:
        """Return a copy of the underlying object -> grade mapping."""
        return dict(self._grades)

    # ------------------------------------------------------------------
    # Sorted-list view
    # ------------------------------------------------------------------
    def _sorted_items(self) -> List[GradedItem]:
        if self._sorted_cache is None:
            self._sorted_cache = sorted(
                GradedItem(obj, g) for obj, g in self._grades.items()
            )
        return self._sorted_cache

    def __iter__(self) -> Iterator[GradedItem]:
        return iter(self._sorted_items())

    def items(self) -> Iterator[GradedItem]:
        """Alias for iteration in nonincreasing grade order."""
        return iter(self)

    def _best(self, k: int) -> List[Tuple[ObjectId, float]]:
        """The k best ``(object, grade)`` pairs in sorted-list order.

        Selects instead of sorting everything unless the sorted view is
        already cached: ``heapq.nsmallest`` is documented equal to
        ``sorted(...)[:k]`` — same ``GradedItem._sort_key``, same
        stability — so the pairs are exactly ``_sorted_items()[:k]``.
        """
        if self._sorted_cache is not None:
            return [(item.object_id, item.grade) for item in self._sorted_cache[:k]]
        return heapq.nsmallest(
            k, self._grades.items(), key=lambda pair: (-pair[1], str(pair[0]))
        )

    def top(self, k: int) -> "GradedSet":
        """Return a new graded set holding the ``k`` best-graded objects.

        Ties at the cut are broken deterministically by object id, which
        is one of the arbitrary-but-valid tie breaks the paper permits.
        """
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        return GradedSet(self._best(k))

    def best(self) -> Optional[GradedItem]:
        """Return the best-graded item, or None if the set is empty."""
        items = self._sorted_items()
        return items[0] if items else None

    def kth_grade(self, k: int) -> float:
        """Grade of the k-th best object (1-based); 0.0 if fewer than k."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        best = self._best(k)
        return best[k - 1][1] if len(best) >= k else 0.0

    # ------------------------------------------------------------------
    # Fuzzy set algebra
    # ------------------------------------------------------------------
    def combine(
        self,
        other: "GradedSet",
        rule: Callable[[float, float], float],
        *,
        absent: float = 0.0,
    ) -> "GradedSet":
        """Combine two graded sets pointwise with a binary ``rule``.

        Objects absent from one side contribute grade ``absent`` there.
        This is the generic engine behind :meth:`intersection` and
        :meth:`union`.
        """
        result = GradedSet()
        for obj in set(self._grades) | set(other._grades):
            result[obj] = rule(self.grade(obj, absent), other.grade(obj, absent))
        return result

    def intersection(
        self, other: "GradedSet", tnorm: Optional[Callable[[float, float], float]] = None
    ) -> "GradedSet":
        """Fuzzy intersection under a t-norm (default: Zadeh's min rule)."""
        rule = tnorm if tnorm is not None else min
        return self.combine(other, rule)

    def union(
        self, other: "GradedSet", conorm: Optional[Callable[[float, float], float]] = None
    ) -> "GradedSet":
        """Fuzzy union under a t-co-norm (default: Zadeh's max rule)."""
        rule = conorm if conorm is not None else max
        return self.combine(other, rule)

    def complement(
        self, negation: Optional[Callable[[float], float]] = None
    ) -> "GradedSet":
        """Fuzzy complement (default: Zadeh's ``1 - g`` rule).

        Only objects present in the set are complemented; the universe is
        taken to be the support of the set.
        """
        neg = negation if negation is not None else (lambda g: 1.0 - g)
        return GradedSet({obj: neg(g) for obj, g in self._grades.items()})

    def support(self, threshold: float = 0.0) -> "GradedSet":
        """Objects whose grade strictly exceeds ``threshold``."""
        return GradedSet(
            {obj: g for obj, g in self._grades.items() if g > threshold}
        )

    def alpha_cut(self, alpha: float, *, strong: bool = False) -> frozenset:
        """The (strong) alpha-cut: the crisp set of objects with grade
        >= alpha (> alpha when ``strong``).

        Alpha-cuts are the classical bridge from fuzzy sets back to
        crisp sets [Za65]; a filter condition "the color score is at
        least .2" (section 4.1) is exactly the 0.2-cut of the atomic
        query's graded set.
        """
        validate_grade(alpha)
        if strong:
            return frozenset(
                obj for obj, g in self._grades.items() if g > alpha
            )
        return frozenset(obj for obj, g in self._grades.items() if g >= alpha)

    def is_crisp(self) -> bool:
        """True if every grade is exactly 0 or 1 (a traditional set)."""
        return all(g in (0.0, 1.0) for g in self._grades.values())

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------
    def grades_equal(self, other: "GradedSet", tol: float = 1e-9) -> bool:
        """True if both sets hold the same objects with grades within tol."""
        if set(self._grades) != set(other._grades):
            return False
        return all(
            abs(g - other._grades[obj]) <= tol for obj, g in self._grades.items()
        )

    def same_grade_multiset(self, other: "GradedSet", tol: float = 1e-9) -> bool:
        """True if the two sets have the same multiset of grades.

        This is the right equality for comparing *top-k answers*: the
        paper allows ties to be broken arbitrarily, so two correct top-k
        answers may contain different objects yet must carry identical
        grade multisets.
        """
        if len(self) != len(other):
            return False
        mine = sorted(self._grades.values())
        theirs = sorted(other._grades.values())
        return all(abs(a - b) <= tol for a, b in zip(mine, theirs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSet):
            return NotImplemented
        return self._grades == other._grades

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{item.object_id!r}: {item.grade:.4g}" for item in self._sorted_items()[:6]
        )
        suffix = ", ..." if len(self) > 6 else ""
        return f"GradedSet({{{preview}{suffix}}})"


def from_sorted_list(pairs: Iterable[Tuple[ObjectId, float]]) -> GradedSet:
    """Build a graded set from an already-sorted ``(object, grade)`` list.

    Raises :class:`GradeError` if the grades are not nonincreasing, which
    guards against subsystems that violate the sorted-access contract.
    """
    result = GradedSet()
    previous = 1.0
    for object_id, grade in pairs:
        value = validate_grade(grade)
        if value > previous + GRADE_TOLERANCE:
            raise GradeError(
                "sorted list violates nonincreasing grade order: "
                f"{value} follows {previous}"
            )
        previous = value
        result[object_id] = value
    return result
