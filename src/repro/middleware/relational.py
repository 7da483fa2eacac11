"""A traditional relational subsystem with Boolean grades (sections 3–4).

"For traditional database queries, such as Artist='Beatles', the grade
for each object is either 0 or 1."  :class:`RelationalSubsystem` holds
rows and answers atomic equality queries with crisp graded sets, exposing
them through the same sorted/random access interface as every other
subsystem — under sorted access the grade-1 objects stream first, which
is what lets the Boolean-conjunct-first strategy read off the satisfying
set S cheaply.

The bound sources advertise ``is_boolean`` and a ``positive_count`` so
the planner can reason about selectivity (the paper's "reasonable
assumption that there are not many objects that satisfy the first
conjunct").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

import numpy as np

from repro.core.graded import ObjectId
from repro.core.query import Atomic
from repro.core.sources import ArraySource, GradedSource
from repro.middleware.interface import Subsystem


class BooleanSource(ArraySource):
    """A ranked list whose grades are all 0 or 1."""

    is_boolean = True

    def __init__(self, grades: Mapping[ObjectId, float], name: str) -> None:
        super().__init__(grades, name=name)
        self.positive_count = int(np.count_nonzero(self._sorted_grades == 1.0))


class RelationalSubsystem(Subsystem):
    """An in-memory relation: object id -> column -> value.

    Atomic queries are equality predicates on a column; the grade is 1
    when the row's value equals the target and 0 otherwise.
    """

    def __init__(self, name: str, rows: Mapping[ObjectId, Mapping[str, object]]) -> None:
        super().__init__(name)
        self._rows: Dict[ObjectId, Dict[str, object]] = {
            obj: dict(columns) for obj, columns in rows.items()
        }
        self._columns: FrozenSet[str] = frozenset(
            column for row in self._rows.values() for column in row
        )

    def attributes(self) -> FrozenSet[str]:
        return self._columns

    def _bind(self, atom: Atomic) -> GradedSource:
        grades = {
            obj: 1.0 if row.get(atom.attribute) == atom.target else 0.0
            for obj, row in self._rows.items()
        }
        return BooleanSource(grades, name=f"{self.name}:{atom}")

    def select(self, attribute: str, target: object) -> frozenset:
        """The crisp satisfying set (a traditional query's answer)."""
        return frozenset(
            obj
            for obj, row in self._rows.items()
            if row.get(attribute) == target
        )

    def row(self, object_id: ObjectId) -> Dict[str, object]:
        """A copy of one row (raises KeyError for unknown objects)."""
        return dict(self._rows[object_id])

    def __len__(self) -> int:
        return len(self._rows)
