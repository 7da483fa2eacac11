"""Fagin's Algorithm A0 for monotone top-k queries (paper section 4.1).

Given m ranked lists (one per atomic subquery), a monotone m-ary scoring
function ``t``, and a target count k, the algorithm runs in three phases:

1. **Sorted access** — stream every list in parallel (round-robin here)
   until there is a set L of at least k objects that *every* list has
   output ("k matches").
2. **Random access** — for each object seen anywhere during phase 1,
   obtain its grade in every list where it has not yet been seen.
3. **Computation** — grade every seen object with ``t`` and output the k
   best, with their grades.

Correctness (the paper's sketch): an unseen object y scores below every
member of L in every list, so by monotonicity ``t`` ranks y no higher
than any member of L — hence k of the seen objects are a valid top-k.

For m independent lists the database access cost is
``O(N^{(m-1)/m} k^{1/m})`` with arbitrarily high probability
(Theorem 4.1), and for strict monotone queries this is optimal up to a
constant factor (Theorem 4.2).  Experiments E1–E3 regenerate these laws.

The implementation follows the paper's presentation, with the one
standard economy it alludes to under "various improvements": phase 2
probes only the lists where an object was *not* already seen (a grade
delivered by sorted access is already known; re-probing it would only
inflate cost without gaining information).

:class:`FaginAlgorithm` is *restartable*: "after finding the top k
answers, in order to find the next k best answers we can continue where
we left off."  Each :meth:`FaginAlgorithm.next_k` call continues the
sorted-access cursors from their previous positions and excludes
already-emitted objects.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Sequence, Set

from repro.core.cost import CostMeter
from repro.core.graded import GradedSet, ObjectId
from repro.core.result import TopKResult
from repro.core.sources import (
    DEFAULT_BATCH_SIZE,
    GradedSource,
    SortedCursor,
    check_same_objects,
)
from repro.core.threshold import DEGRADABLE_ACCESS_ERRORS, _nra_run
from repro.errors import MonotonicityError, ScoringError
from repro.kernels import CodedBounds, _np
from repro.parallel import fan_out
from repro.scoring.base import ScoringFunction, as_scoring_function


class FaginAlgorithm:
    """Resumable evaluator for one monotone query over fixed sources.

    Parameters
    ----------
    sources:
        The m ranked lists, one per subquery.  All must rank the same
        object universe.
    scoring:
        A monotone m-ary scoring function (a
        :class:`~repro.scoring.base.ScoringFunction` or plain callable).
    require_monotone:
        When True (default), refuse a scoring function whose
        ``is_monotone`` flag is False — A0 is guaranteed correct only
        for monotone rules (section 4.2's first implementation issue).
    batch_size:
        Window size for bulk sorted access.  Phase 1 peeks a window of
        this many upcoming items per list (free), replays the paper's
        one-item-per-list round robin over the windows in memory, and
        then consumes exactly the items the round robin used with one
        ``next_batch`` per list — so the access counts are identical to
        item-at-a-time draining for every window size (1 reproduces the
        per-item call pattern exactly).
    """

    def __init__(
        self,
        sources: Sequence[GradedSource],
        scoring,
        *,
        require_monotone: bool = True,
        prune_random_access: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
        degrade: bool = True,
        tracer=None,
        executor=None,
    ) -> None:
        #: optional QueryTracer; phases and accesses are emitted at
        #: logical access time (see the paper's phase structure), not at
        #: the deferred bulk consumes.  None stays entirely off the path.
        self.tracer = tracer
        #: optional ParallelAccessExecutor; phase 1's per-list consumes
        #: and phase 2's per-list bulk probes fan out across its workers
        #: and merge in list order, so results and accounting match the
        #: serial path exactly.  None keeps the classic serial path.
        self.executor = executor
        self.sources: List[GradedSource] = list(sources)
        self.database_size = check_same_objects(self.sources)
        self.scoring: ScoringFunction = as_scoring_function(scoring)
        if require_monotone and not self.scoring.is_monotone:
            raise MonotonicityError(
                f"scoring function {self.scoring.name!r} is declared "
                "non-monotone; A0 is only correct for monotone rules"
            )
        #: One of the paper's "various improvements" to A0: in phase 2,
        #: probe objects in decreasing upper-bound order (missing grades
        #: replaced by the list bottoms) and stop as soon as the k-th
        #: best exact grade dominates every remaining bound.  Sound for
        #: any monotone rule; cheapest for min, where the bound is tight.
        self.prune_random_access = prune_random_access
        #: When True (default), a random-access failure in phase 2 (an
        #: open circuit, exhausted retries, a blown deadline) degrades
        #: the run to NRA-style sorted-only processing over the state
        #: accumulated so far instead of aborting the query.
        self.degrade = degrade
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self._cursors: List[SortedCursor] = [s.cursor() for s in self.sources]
        #: grades learned so far: object -> {source index -> grade}.
        #: next_k restartability depends on this plain mapping; the
        #: compute phase folds it with one ``combine_matrix``, and a
        #: degraded NRA continuation starts from a
        #: :class:`~repro.kernels.CodedBounds` built from it.
        self._known: Dict[ObjectId, Dict[int, float]] = {}
        #: objects delivered by sorted access, per source
        self._seen_by_source: List[Set[ObjectId]] = [set() for _ in self.sources]
        #: last grade delivered by each cursor (1.0 before any delivery)
        self._bottoms: List[float] = [1.0 for _ in self.sources]
        #: exact overall grades computed so far (pruned mode)
        self._complete: Dict[ObjectId, float] = {}
        #: objects already emitted by previous next_k calls
        self._emitted: Set[ObjectId] = set()
        self._emitted_set = GradedSet()
        #: |L|: objects delivered by every source, counted incrementally
        self._matched = 0
        #: sorted-access sightings per object (random-access fills do
        #: not count toward L — only what the sorted streams delivered)
        self._sightings: Dict[ObjectId, int] = {}

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return len(self.sources)

    def _match_count(self) -> int:
        """Objects output by *all* sources so far (the set L).

        Maintained incrementally by :meth:`_sorted_phase` — an object
        joins L exactly when its sorted-access sightings reach m.
        """
        return self._matched

    def _sorted_phase(self, needed_matches: int) -> None:
        """Round-robin sorted access until L holds ``needed_matches`` objects.

        Bulk form of the paper's parallel scan: peek one columnar window
        per list (side-effect- and charge-free, no
        :class:`GradedItem` boxing on array backends), replay the
        one-item-per-list round robin over the windows, and consume
        exactly the rows the round robin processed with one
        ``advance`` per list.  The per-item algorithm checks
        the stopping condition between rounds and otherwise takes one
        item from every list, so draining whole rounds in bulk charges
        exactly the same sorted accesses.
        """
        sightings = self._sightings
        known = self._known
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.phase("sorted-phase"):
            while self._match_count() < needed_matches:
                windows = [
                    cursor.peek_batch_columns(self.batch_size)
                    for cursor in self._cursors
                ]
                lengths = [len(window_ids) for window_ids, _ in windows]
                grades_lists = [grades.tolist() for _, grades in windows]
                rows = max(lengths, default=0)
                if rows == 0:
                    break  # every list exhausted
                consumed = 0
                while consumed < rows and self._match_count() < needed_matches:
                    row = consumed
                    for i in range(self.m):
                        if row >= lengths[i]:
                            continue
                        object_id = windows[i][0][row]
                        grade = grades_lists[i][row]
                        if tracer is not None:
                            tracer.record_sorted(
                                self.sources[i].name,
                                object_id,
                                grade,
                                position=self._cursors[i].position + row + 1,
                            )
                        if object_id not in self._seen_by_source[i]:
                            self._seen_by_source[i].add(object_id)
                            seen = sightings.get(object_id, 0) + 1
                            sightings[object_id] = seen
                            if seen == self.m:
                                self._matched += 1
                        grades_known = known.get(object_id)
                        if grades_known is None:
                            grades_known = known[object_id] = {}
                        grades_known[i] = grade
                        self._bottoms[i] = grade
                    consumed += 1
                takers = [
                    i
                    for i in range(self.m)
                    if min(consumed, lengths[i]) > 0
                ]
                outcomes = fan_out(
                    self.executor,
                    [
                        (
                            lambda c=self._cursors[i],
                            t=min(consumed, lengths[i]): c.advance(t)
                        )
                        for i in takers
                    ],
                )
                for outcome in outcomes:
                    if outcome.error is not None:
                        raise outcome.error
                if tracer is not None:
                    tracer.sample("a0.matched", float(self._matched))
                    tracer.sample("a0.seen", float(len(known)))

    def _random_phase(self) -> None:
        """Fill in every missing grade of every seen object.

        One bulk random-access request per list: the paper's cost is one
        access per (object, list) pair either way, the bulk call merely
        amortizes the round trip.
        """
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.phase("random-phase"):
            targets = []
            for i, source in enumerate(self.sources):
                missing = [
                    object_id
                    for object_id, grades in self._known.items()
                    if i not in grades
                ]
                if missing:
                    targets.append((i, source, missing))
            outcomes = fan_out(
                self.executor,
                [
                    (lambda s=source, ids=missing: s.random_access_many(ids))
                    for _, source, missing in targets
                ],
                stop_on_error=True,
            )
            for (i, source, missing), outcome in zip(targets, outcomes):
                if not outcome.ran:
                    break
                if outcome.error is not None:
                    if isinstance(outcome.error, DEGRADABLE_ACCESS_ERRORS):
                        outcome.error.source_name = source.name
                    raise outcome.error
                fetched = outcome.value
                if tracer is not None:
                    for object_id in missing:
                        tracer.record_random(
                            source.name, object_id, fetched[object_id]
                        )
                for object_id in missing:
                    self._known[object_id][i] = fetched[object_id]

    def _compute_phase(self) -> GradedSet:
        """Overall grades for every fully-known seen object."""
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.phase("compute-phase"):
            for object_id, grades in self._known.items():
                if len(grades) != self.m:
                    raise ScoringError(
                        f"object {object_id!r} has incomplete grades after "
                        "the random-access phase"
                    )
            table = _np.array(
                [[grades[i] for i in range(self.m)] for grades in self._known.values()],
                dtype=_np.float64,
            ).reshape(-1, self.m)
            return GradedSet(zip(self._known, self.scoring.combine_matrix(table).tolist()))

    def _pruned_selection(self, k: int) -> GradedSet:
        """Phase 2+3 with upper-bound pruning of random accesses.

        An incomplete object's best possible overall grade replaces each
        missing grade with that list's bottom (the lowest grade its
        sorted stream has shown): by monotonicity the true grade cannot
        exceed this bound.  Probing in decreasing bound order lets the
        loop stop the moment the k-th exact fresh grade dominates every
        remaining bound — the skipped objects provably cannot enter the
        answer.
        """
        import heapq

        # Complete for free anything sorted access has fully revealed.
        for object_id, grades in self._known.items():
            if object_id not in self._complete and len(grades) == self.m:
                vector = [grades[i] for i in range(self.m)]
                self._complete[object_id] = self.scoring(vector)

        fresh: Dict[ObjectId, float] = {
            object_id: grade
            for object_id, grade in self._complete.items()
            if object_id not in self._emitted
        }
        # Min-heap of the k best fresh grades: the stopping threshold in
        # O(log k) per probe instead of a re-sort of the fresh pool.
        best_k = heapq.nlargest(k, fresh.values())
        heapq.heapify(best_k)
        while len(best_k) > k:
            heapq.heappop(best_k)

        def threshold() -> float:
            return best_k[0] if len(best_k) >= k else -1.0

        def upper_bound(grades: Dict[int, float]) -> float:
            vector = [
                grades.get(i, self._bottoms[i]) for i in range(self.m)
            ]
            return self.scoring(vector)

        pending = sorted(
            (
                (upper_bound(grades), str(object_id), object_id)
                for object_id, grades in self._known.items()
                if object_id not in self._complete
            ),
            reverse=True,
        )
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.phase("pruned-selection"):
            for bound, _, object_id in pending:
                if bound <= threshold():
                    break
                grades = self._known[object_id]
                missing = [i for i in range(self.m) if i not in grades]
                probe_outcomes = fan_out(
                    self.executor,
                    [
                        (
                            lambda s=self.sources[i], o=object_id: (
                                s.random_access(o)
                            )
                        )
                        for i in missing
                    ],
                    stop_on_error=True,
                )
                for i, outcome in zip(missing, probe_outcomes):
                    if not outcome.ran:
                        break
                    if outcome.error is not None:
                        if isinstance(outcome.error, DEGRADABLE_ACCESS_ERRORS):
                            outcome.error.source_name = self.sources[i].name
                        raise outcome.error
                    grades[i] = outcome.value
                    if tracer is not None:
                        tracer.record_random(
                            self.sources[i].name, object_id, grades[i]
                        )
                vector = [grades[i] for i in range(self.m)]
                exact = self.scoring(vector)
                self._complete[object_id] = exact
                fresh[object_id] = exact
                if len(best_k) < k:
                    heapq.heappush(best_k, exact)
                elif exact > best_k[0]:
                    heapq.heapreplace(best_k, exact)
        return GradedSet(fresh)

    def _degrade_to_nra(self, k: int, meter: CostMeter, error) -> TopKResult:
        """Continue as NRA over the state phase 1 (and any successful
        probes) already accumulated.

        The NRA continuation shares this algorithm's cursors and
        bottoms and starts from ``_known``, so no sorted access is
        re-paid, and everything the continuation learns is read back
        into ``_known`` for later ``next_k`` calls (which will
        re-attempt random access and degrade again if it is still down).
        """
        if self.tracer is not None:
            self.tracer.event(
                "degraded",
                algorithm="fagin-a0",
                fallback="nra",
                failures={
                    getattr(error, "source_name", "random access"): str(error)
                },
            )
        bounds = CodedBounds.from_known(self._known, self.m)
        k_total = min(len(self._emitted) + k, self.database_size)
        result = _nra_run(
            self.sources,
            self.scoring,
            k_total,
            cursors=self._cursors,
            bounds=bounds,
            bottoms=self._bottoms,
            exhausted=[False for _ in self.sources],
            meter=meter,
            depth=max(c.position for c in self._cursors),
            batch_size=self.batch_size,
            algorithm="fagin-a0+nra",
            prior_failures={
                getattr(error, "source_name", "random access"): str(error)
            },
            tracer=self.tracer,
            phase_name="nra-fallback",
            executor=self.executor,
        )
        self._known = bounds.known_states()
        fresh = {
            item.object_id: item.grade
            for item in result.answers
            if item.object_id not in self._emitted
        }
        batch = GradedSet(fresh).top(min(k, len(fresh))) if fresh else GradedSet()
        for item in batch:
            self._emitted.add(item.object_id)
            self._emitted_set[item.object_id] = item.grade
        degraded = result.degraded
        if degraded is not None:
            degraded.bounds = {
                object_id: bounds
                for object_id, bounds in degraded.bounds.items()
                if object_id in batch
            }
        return TopKResult(
            answers=batch,
            cost=meter.report(),
            algorithm="fagin-a0+nra",
            sorted_depth=max(c.position for c in self._cursors),
            grades_exact=result.grades_exact,
            degraded=degraded,
            extras={"objects_seen": len(self._known)},
        )

    # ------------------------------------------------------------------
    def next_k(self, k: int) -> TopKResult:
        """Return the next k best answers (continuing past prior calls).

        The first call returns the top k; a second call the k after
        those, and so on, reusing all sorted-access work already paid
        for.  The returned cost report covers only this call's accesses.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        meter = CostMeter(self.sources)
        total_needed = min(len(self._emitted) + k, self.database_size)
        self._sorted_phase(total_needed)
        sorted_phase_cost = meter.report().database_access_cost
        try:
            if self.prune_random_access:
                fresh = self._pruned_selection(k)
            else:
                self._random_phase()
                overall = self._compute_phase()
                fresh = GradedSet(
                    item for item in overall if item.object_id not in self._emitted
                )
        except DEGRADABLE_ACCESS_ERRORS as error:
            if not self.degrade:
                raise
            return self._degrade_to_nra(k, meter, error)
        report = meter.report()
        batch = fresh.top(min(k, len(fresh)))
        for item in batch:
            self._emitted.add(item.object_id)
            self._emitted_set[item.object_id] = item.grade
        return TopKResult(
            answers=batch,
            cost=report,
            algorithm="fagin-a0",
            sorted_depth=max(c.position for c in self._cursors),
            extras={
                # Per-phase breakdown: what sorted access cost before a
                # single random probe happened, and what phase 2 added —
                # the observability the paper's cost-modeling discussion
                # (section 4.2) asks for.
                "phase_sorted_cost": sorted_phase_cost,
                "phase_random_cost": report.database_access_cost
                - sorted_phase_cost,
                "objects_seen": len(self._known),
            },
        )

    @property
    def emitted(self) -> GradedSet:
        """Everything emitted so far, across all next_k calls."""
        return GradedSet(self._emitted_set.as_dict())


def fagin_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    require_monotone: bool = True,
    prune_random_access: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    degrade: bool = True,
    tracer=None,
    executor=None,
) -> TopKResult:
    """One-shot convenience wrapper: the top k answers via algorithm A0."""
    algorithm = FaginAlgorithm(
        sources,
        scoring,
        require_monotone=require_monotone,
        prune_random_access=prune_random_access,
        batch_size=batch_size,
        degrade=degrade,
        tracer=tracer,
        executor=executor,
    )
    return algorithm.next_k(k)
