"""Complex objects with shared sub-objects (section 4.2).

"Assume that the system contains information about Advertisements, which
are complex objects with AdPhotos among their sub-objects.  Assume that
we are interested in Advertisements with an AdPhoto that is red. ...  we
need to be able to obtain object id's for Advertisements from the object
id's of their AdPhotos. ...  this is complicated by the fact that
different multimedia objects can share the same component objects."

:class:`Containment` records the parent/child relation (many-to-many, so
shared sub-objects are first-class).  :class:`PromotedSource` lifts a
ranked list over *children* (AdPhotos ranked by redness) to a ranked
list over *parents* (Advertisements), under the natural existential
semantics: a parent's grade is the maximum grade of its children.

The promotion preserves the access model: because children stream in
nonincreasing grade order, the first child of a parent to appear carries
the parent's grade, so parents are discovered already sorted; random
access on a parent probes each of its children.  Every underlying child
access is charged to this source's counter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource
from repro.errors import IdMappingError, UnknownObjectError


class Containment:
    """A many-to-many parent/child relation between object ids."""

    def __init__(self, parent_to_children: Mapping[ObjectId, Iterable[ObjectId]]) -> None:
        self._children: Dict[ObjectId, Tuple[ObjectId, ...]] = {}
        self._parents: Dict[ObjectId, List[ObjectId]] = {}
        for parent, children in parent_to_children.items():
            kids = tuple(children)
            if not kids:
                raise IdMappingError(
                    f"parent {parent!r} has no children; a complex object "
                    "needs at least one sub-object to be graded through"
                )
            self._children[parent] = kids
            for child in kids:
                self._parents.setdefault(child, []).append(parent)

    def children_of(self, parent: ObjectId) -> Tuple[ObjectId, ...]:
        try:
            return self._children[parent]
        except KeyError:
            raise IdMappingError(f"unknown parent object {parent!r}") from None

    def parents_of(self, child: ObjectId) -> Tuple[ObjectId, ...]:
        return tuple(self._parents.get(child, ()))

    def parents(self) -> FrozenSet[ObjectId]:
        return frozenset(self._children)

    def shared_children(self) -> FrozenSet[ObjectId]:
        """Children belonging to more than one parent."""
        return frozenset(
            child for child, parents in self._parents.items() if len(parents) > 1
        )

    def __len__(self) -> int:
        return len(self._children)


class PromotedSource(GradedSource):
    """A child-level ranked list promoted to its parents (max semantics).

    Sorted access: pull children in grade order from the underlying
    source; each time a child reveals a parent not yet emitted, that
    parent is emitted with the child's grade (its maximum, because the
    stream is nonincreasing).  Random access: probe every child of the
    parent and take the max.
    """

    def __init__(
        self,
        child_source: GradedSource,
        containment: Containment,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"promoted({child_source.name})")
        self._child_source = child_source
        self._containment = containment
        self._child_cursor = child_source.cursor()
        self._parent_ids: List[ObjectId] = []
        self._parent_grades: List[float] = []
        self._emitted: Set[ObjectId] = set()
        # Two accounting levels: this source's own counter tallies
        # parent-level accesses (what the algorithm asked for), while the
        # child source's counter keeps the subsystem-level tally (what
        # the repository actually delivered).  Cost reports should meter
        # the child source to see the real repository load.
        self.supports_random_access = child_source.supports_random_access

    def _columns_range(self, start: int, count: int):
        # Parents are discovered by pulling the child stream one child at
        # a time, so the child counter grows with discovery (peeks
        # included); this source's own counter charges only deliveries.
        stop = start + count
        while len(self._parent_ids) < stop:
            child_item = self._child_cursor.next()
            if child_item is None:
                break
            for parent in self._containment.parents_of(child_item.object_id):
                if parent not in self._emitted:
                    self._emitted.add(parent)
                    self._parent_ids.append(parent)
                    self._parent_grades.append(child_item.grade)
        return (
            self._parent_ids[start:stop],
            _np.array(self._parent_grades[start:stop], dtype=_np.float64),
        )

    def _grades_of_many(self, parents: Sequence[ObjectId]):
        grades = []
        for parent in parents:
            try:
                children = self._containment.children_of(parent)
            except IdMappingError:
                raise UnknownObjectError(
                    f"source {self.name!r} holds no object {parent!r}"
                ) from None
            grades.append(max(self._child_source._grades_of_many(children).tolist()))
        return _np.array(grades, dtype=_np.float64)

    def random_access(self, object_id: ObjectId) -> float:
        """Grade of a parent: max over its children, one probe per child.

        Overridden to charge one child-level random access *per child
        probed* (the honest repository cost of asking about each
        component) plus the one parent-level access on this source.
        """
        children = self._containment.children_of(object_id)
        best = 0.0
        for child in children:
            best = max(best, self._child_source.random_access(child))
        self.counter.record_random()
        return best

    def __len__(self) -> int:
        return len(self._containment)
