"""Middleware-side prefix caching of ranked lists (section 4).

"Then Garlic could later tell the subsystem to resume outputting the
graded set where it left off."  A middleware that already received a
list's top-d items need not pay for them again when a later query (or a
later batch of the same query) re-reads the prefix: it replays its own
cache and resumes the subsystem's stream only past position d.

:class:`CachedSource` implements exactly that.  Its own counter tallies
*logical* accesses (what the algorithms asked for); the wrapped source's
counter keeps the *repository* tally, which only grows the first time a
position is read.  ``hits``/``misses`` expose the cache's effectiveness.

Random accesses are also memoized: the paper's model says nothing about
a repository forgetting a grade it already reported, and real
middlewares keep such lookups in the query cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as _np

from repro.core.cost import AccessCounter
from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, WrapperSource


class CachedSource(WrapperSource):
    """A ranked list with a middleware-side prefix + probe cache.

    A consuming read serves the cached prefix and extends it with one
    bulk request to the repository (the same hit/miss tallies and
    repository charges as item-at-a-time reads), and peeks never extend
    the cache — looking ahead must not make the repository ship
    anything, so past the prefix a peek reads the wrapped source's own
    free window.
    """

    def __init__(self, inner: GradedSource) -> None:
        super().__init__(inner, f"cached({inner.name})")
        self.counter = AccessCounter()
        self._inner_cursor = inner.cursor()
        self._prefix_ids: List[ObjectId] = []
        self._prefix_grades: List[float] = []
        self._probes: Dict[ObjectId, float] = {}
        #: reads served from the cache (no repository charge)
        self.hits = 0
        #: reads that had to extend the repository stream / probe it
        self.misses = 0

    def _columns_range(self, start: int, count: int):
        stop = start + count
        ids = self._prefix_ids[start:stop]
        grades = self._prefix_grades[start:stop]
        if len(ids) < count:
            more_ids, more_grades = self._inner._columns_range(
                start + len(ids), count - len(ids)
            )
            ids = ids + more_ids
            grades = grades + more_grades.tolist()
        return ids, _np.array(grades, dtype=_np.float64)

    def _consume(self, start: int, count: int) -> None:
        cached = len(self._prefix_ids)
        fetch = start + count - cached
        if fetch > 0 or not count:  # an empty read at the end still asks
            ids, grades = self._inner_cursor.next_batch_columns(max(fetch, 1))
            grades = grades.tolist()
            self._prefix_ids.extend(ids)
            self._prefix_grades.extend(grades)
            for object_id, grade in zip(ids, grades):
                self._probes.setdefault(object_id, grade)
            self.misses += len(ids)
        # Positions already cached before this read count as hits, the
        # newly fetched ones as misses — the same tallies an
        # item-at-a-time read of the range would have produced.
        self.hits += max(0, min(cached, start + count) - min(start, cached))

    def random_access(self, object_id: ObjectId) -> float:
        """Memoized probe: repeated lookups charge the repository once.

        The logical access still lands on this source's counter, so
        algorithm costs stay comparable; only the repository-side
        charge (the inner counter) is saved.
        """
        if object_id in self._probes:
            self.hits += 1
            grade = self._probes[object_id]
        else:
            self.misses += 1
            grade = self._inner.random_access(object_id)
            self._probes[object_id] = grade
        self.counter.record_random()
        return grade

    def random_access_many(
        self, object_ids: Iterable[ObjectId]
    ) -> Dict[ObjectId, float]:
        """Bulk memoized probes: one repository request for the misses.

        Charges, hits, and misses match what the same ids probed one at
        a time would produce — including repeated ids within one call,
        which hit the cache the repeated times just as repeated
        :meth:`random_access` calls would.
        """
        ids = list(object_ids)
        result: Dict[ObjectId, float] = {}
        missing: List[ObjectId] = []
        missing_set = set()
        for object_id in ids:
            if object_id in self._probes:
                self.hits += 1
                result[object_id] = self._probes[object_id]
            elif object_id in missing_set:
                self.hits += 1  # fetched below; a repeat would have hit
            else:
                self.misses += 1
                missing.append(object_id)
                missing_set.add(object_id)
        if missing:
            fetched = self._inner.random_access_many(missing)
            self._probes.update(fetched)
            result.update(fetched)
        if ids:
            self.counter.record_random(len(ids))
        return result

    def repository_cost(self) -> int:
        """What the repository actually served (the inner counter)."""
        return self._inner.counter.database_access_cost
