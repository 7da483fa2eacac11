"""Subsystems backed by precomputed or computed graded lists.

:class:`ListSubsystem` is the simplest repository shape: for each
(attribute, target) pair it already holds the full graded set — the
situation of section 2.1's precomputation strategy ("precompute the
distance between each pair of objects and store the answers"), and also
how the synthetic workloads feed the middleware in tests and benchmarks.

:class:`GraderSubsystem` is the computed variant: it holds per-object
feature data and one grading function per attribute, evaluating grades
on demand.  The QBIC-style subsystem in :mod:`repro.multimedia.qbic`
builds on it.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, Tuple

from repro.core.graded import GradedSet, ObjectId
from repro.core.query import Atomic
from repro.core.sources import ArraySource, GradedSource
from repro.errors import PlanError
from repro.middleware.interface import Subsystem


class ListSubsystem(Subsystem):
    """A subsystem whose answers are stored, fully graded lists.

    Populate with :meth:`add_list`; each (attribute, target) pair maps to
    one graded set over the subsystem's objects.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._lists: Dict[Tuple[str, object], GradedSet] = {}
        self._attributes: set = set()

    def add_list(
        self, attribute: str, target: object, grades: Mapping[ObjectId, float]
    ) -> None:
        """Store the graded answer list for the atomic query
        ``attribute = target``."""
        self._lists[(attribute, target)] = GradedSet(grades)
        self._attributes.add(attribute)

    def attributes(self) -> FrozenSet[str]:
        return frozenset(self._attributes)

    def supports(self, atom: Atomic) -> bool:
        return (atom.attribute, atom.target) in self._lists

    def _bind(self, atom: Atomic) -> GradedSource:
        try:
            graded = self._lists[(atom.attribute, atom.target)]
        except KeyError:
            raise PlanError(
                f"subsystem {self.name!r} has no stored list for {atom}"
            ) from None
        return ArraySource(graded, name=f"{self.name}:{atom}")


class GraderSubsystem(Subsystem):
    """A subsystem that grades objects on demand with attribute graders.

    ``objects`` maps each object id to its feature payload (a histogram,
    a shape, a row — anything the graders understand).  Each grader is a
    function ``(target, features) -> grade`` registered per attribute.
    Binding an atomic query grades every object once and materializes the
    ranked list; the per-atom binding cache in :class:`Subsystem` makes
    this a one-time cost per distinct query, which is exactly the
    precomputation trade-off section 2.1 describes.
    """

    def __init__(
        self,
        name: str,
        objects: Mapping[ObjectId, object],
        graders: Mapping[str, Callable[[object, object], float]],
    ) -> None:
        super().__init__(name)
        self._objects = dict(objects)
        self._graders = dict(graders)

    def attributes(self) -> FrozenSet[str]:
        return frozenset(self._graders)

    def _bind(self, atom: Atomic) -> GradedSource:
        grader = self._graders[atom.attribute]
        grades = {
            object_id: grader(atom.target, features)
            for object_id, features in self._objects.items()
        }
        return ArraySource(grades, name=f"{self.name}:{atom}")

    def object_count(self) -> int:
        return len(self._objects)
