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

import bisect
import itertools
from contextlib import nullcontext
from typing import List, Sequence

from repro.core.cost import CostMeter
from repro.core.graded import GradedSet
from repro.core.result import TopKResult
from repro.core.sources import (
    DEFAULT_BATCH_SIZE,
    GradedSource,
    check_same_objects,
    shared_object_codes,
)
from repro.core.threshold import DEGRADABLE_ACCESS_ERRORS, SortedFrontier, _nra_run, _probes
from repro.errors import MonotonicityError
from repro.kernels import CodedBounds, _np
from repro.scoring.base import ScoringFunction, as_scoring_function


class FaginAlgorithm:
    """Resumable evaluator for one monotone query over fixed sources.

    The seen set is one :class:`~repro.kernels.CodedBounds` over the
    lists' object codes, as for NRA and CA: rows in first-seen order, NaN
    where a grade is not known yet.

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
    prune_random_access:
        One of the paper's "various improvements" to A0: in phase 2,
        probe objects in decreasing upper-bound order (missing grades
        replaced by the list bottoms) and stop as soon as the k-th best
        exact grade dominates every remaining bound.  Sound for any
        monotone rule; cheapest for min, where the bound is tight.
    batch_size:
        Window size for bulk sorted access.  Phase 1 peeks a window of
        this many upcoming rows per list (free), finds the row at which
        the paper's one-item-per-list round robin would stop, and then
        consumes exactly the rows up to it with one ``advance`` per list
        — so the access counts are identical to item-at-a-time draining
        for every window size (1 reproduces the per-item call pattern).
    degrade:
        When True (default), a random-access failure in phase 2 (an open
        circuit, exhausted retries, a blown deadline) degrades the run
        to NRA-style sorted-only processing over the state accumulated
        so far instead of aborting the query.
    tracer:
        Optional QueryTracer; phases and accesses are emitted at logical
        access time (the paper's phase structure), not at the deferred
        bulk consumes.  None stays entirely off the path.
    executor:
        Optional ParallelAccessExecutor; phase 1's per-list consumes and
        phase 2's per-list probes fan out across its workers and merge
        in list order, so results and accounting match the serial path
        exactly.  None keeps the serial path.
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
        self.tracer = tracer
        self.executor = executor
        self.sources: List[GradedSource] = list(sources)
        self.database_size = check_same_objects(self.sources)
        self.scoring: ScoringFunction = as_scoring_function(scoring)
        if require_monotone and not self.scoring.is_monotone:
            raise MonotonicityError(
                f"scoring function {self.scoring.name!r} is declared "
                "non-monotone; A0 is only correct for monotone rules"
            )
        self.prune_random_access = prune_random_access
        self.degrade = degrade
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.m = len(self.sources)
        #: the lists' cursors and bottoms; a failed sorted consume, like
        #: an NRA continuation, records its list in ``dead``, and
        #: ``_degrade_to_nra`` clears them before the hand-off, because
        #: every ``next_k`` re-reads each list from its cursor
        self._frontier = SortedFrontier(self.sources)
        #: bare columnar lists: phase 2 gathers grades by code and
        #: charges them, as TA's bulk round does
        self._columnar = all(s.supports_columnar for s in self.sources)
        codes = shared_object_codes(self.sources)
        self._bounds = CodedBounds(codes, self.m)
        #: by code: how many lists delivered the object by sorted access
        #: (random-access fills do not count toward L — only what the
        #: sorted streams delivered)
        self._sightings = _np.zeros(len(codes), dtype=_np.int64)
        #: by code: whether a page emitted the object
        self._emitted = _np.zeros(len(codes), dtype=bool)
        #: |L|: objects delivered by every list, counted incrementally
        self._matched = 0
        #: pruned mode: the complete rows, in the order they completed
        self._completed: List[int] = []
        #: the pages so far (``emitted`` is their union)
        self._pages: List[GradedSet] = []

    def _grow(self) -> None:
        """Widen the by-code arrays to a per-run index that coded new ids."""
        grow = len(self._bounds.codes) - self._sightings.size
        if grow > 0:
            self._sightings = _np.pad(self._sightings, (0, grow))
            self._emitted = _np.pad(self._emitted, (0, grow))

    def _sorted_phase(self, needed: int) -> None:
        """Round-robin sorted access until L holds ``needed`` objects.

        Bulk form of the paper's parallel scan: peek one window of codes
        per list (charge-free, no ids built), find the row at which the
        round robin stops, and consume exactly the rows up to it with one
        ``advance`` per list.  An object joins L at the row of its m-th
        sorted sighting, so the stop row is the (``needed`` − |L|)-th
        smallest such row, found with ``np.partition`` as TA finds its
        stop row.  The per-item algorithm checks the stopping condition
        between rounds and otherwise takes one item from every list, so
        this charges exactly the same sorted accesses.

        A list's rows enter the state, count toward L and move its bottom
        only once it has delivered them; a failed consume raises after
        the other lists' rows are recorded and its own sorted records are
        withdrawn from the trace, and a retry re-reads its rows.
        """
        bounds, tracer, m, cursors = self._bounds, self.tracer, self.m, self._frontier.cursors
        with nullcontext() if tracer is None else tracer.phase("sorted-phase"):
            while self._matched < needed:
                windows = [
                    source._codes_range(bounds.codes, cursor.position, self.batch_size)
                    for source, cursor in zip(self.sources, cursors)
                ]
                lengths = [len(codes) for codes, _ in windows]
                if not any(lengths):
                    break  # every list exhausted
                self._grow()
                sighted, inverse, count = _np.unique(
                    _np.concatenate([codes for codes, _ in windows]),
                    return_inverse=True,
                    return_counts=True,
                )
                # the window row of each object's last sighting: where it
                # joins L if it has not been delivered by the other lists
                last = _np.zeros(sighted.size, dtype=_np.intp)
                _np.maximum.at(last, inverse, _np.concatenate([_np.arange(n) for n in lengths]))
                joins = last[self._sightings[sighted] + count == m]
                short = needed - self._matched
                rows = max(lengths)
                if joins.size >= short:
                    rows = int(_np.partition(joins, short - 1)[short - 1]) + 1
                used = [min(rows, n) for n in lengths]
                recorded: List[list] = [[] for _ in range(m)]
                if tracer is not None:
                    ids = [bounds.codes.decode(codes[:n]) for (codes, _), n in zip(windows, used)]
                    for row, i in itertools.product(range(rows), range(m)):
                        if row < used[i]:
                            recorded[i].append(tracer.record_sorted(
                                self.sources[i].name,
                                ids[i][row],
                                float(windows[i][1][row]),
                                position=cursors[i].position + row + 1,
                            ))
                takes = {i: n for i, n in enumerate(used) if n}
                failed = self._frontier.advance(
                    [grades for _, grades in windows], takes, self.executor, Exception
                )
                delivered = [i for i in takes if i not in failed]
                if failed and tracer is not None:  # what the failed lists did not deliver
                    tracer.retract([e for i in failed for e in recorded[i]])
                bounds.read(
                    [
                        (windows[i][0][: used[i]], windows[i][1][: used[i]]) if i in delivered else None
                        for i in range(m)
                    ],
                    0,
                )
                for i in delivered:
                    self._sightings[windows[i][0][: used[i]]] += 1  # once per list
                # no window object was delivered by all m lists before
                self._matched += int(_np.count_nonzero(self._sightings[sighted] == m))
                if failed:
                    raise next(iter(failed.values()))
                if tracer is not None:
                    tracer.sample("a0.matched", float(self._matched))
                    tracer.sample("a0.seen", float(bounds.count))

    def _random_phase(self) -> None:
        """Fill in every missing grade, list by list in first-seen order.

        The paper's cost is one random access per missing (object, list)
        cell either way.  Over bare columnar lists the grades are
        gathered by code, free, and charged probe for probe through
        ``_record_random_probes``, as TA's bulk round does; over any
        other lists (wrappers count, fail and retry per request) each
        list gets one charged ``random_access_many``.
        """
        bounds, tracer = self._bounds, self.tracer
        with nullcontext() if tracer is None else tracer.phase("random-phase"):
            codes, grades = bounds.table()
            targets = [(j, _np.flatnonzero(_np.isnan(grades[:, j]))) for j in range(self.m)]
            named = tracer is not None or not self._columnar  # ids are needed
            targets = [
                (j, rows, bounds.ids(rows) if named else None)
                for j, rows in targets
                if rows.size
            ]
            if self._columnar:
                fetched = []
                for j, rows, _ in targets:
                    source = self.sources[j]
                    fetched.append(source._grades_of_codes(bounds.codes, codes[rows]))
                    source._record_random_probes(bounds.codes, codes[rows])
            else:
                probes = _probes(
                    self.executor,
                    self.sources,
                    [
                        (j, lambda s=self.sources[j], n=ids: s.random_access_many(n))
                        for j, _, ids in targets
                    ],
                )
                fetched = (
                    [values[object_id] for object_id in ids]
                    for (_, _, ids), (_, values) in zip(targets, probes)
                )
            for (j, rows, ids), values in zip(targets, fetched):
                grades[rows, j] = values
                if tracer is not None:
                    for object_id, grade in zip(ids, grades[rows, j].tolist()):
                        tracer.record_random(self.sources[j].name, object_id, grade)

    def _top(self, rows, k: int) -> GradedSet:
        """The next page: the k best of the complete ``rows``, in the
        canonical order (grade, then ``str(id)``, then first seen), marked
        emitted."""
        picked, ids, grades = self._bounds.ranked(self.scoring, k, rows)
        self._emitted[self._bounds.table()[0][picked]] = True
        return GradedSet(zip(ids, grades))

    def _pruned_selection(self, k: int) -> GradedSet:
        """Phases 2 and 3 with upper-bound pruning of random accesses.

        An incomplete object's best possible overall grade replaces each
        missing grade with that list's bottom (the lowest grade its
        sorted stream has shown): by monotonicity the true grade cannot
        exceed this bound.  Probing in decreasing bound order lets the
        loop stop the moment the k-th best fresh exact grade dominates
        every remaining bound — the skipped objects provably cannot enter
        the answer.  Equal bounds probe in ``str(id)`` descending, then
        first-seen order.
        """
        bounds, rule, tracer = self._bounds, self.scoring, self.tracer
        codes, grades = bounds.table()
        # complete for free anything sorted access has fully revealed
        complete = ~_np.isnan(grades).any(axis=1)
        self._completed += _np.setdiff1d(_np.flatnonzero(complete), self._completed).tolist()

        def fresh():
            done = _np.array(self._completed, dtype=_np.intp)
            return done[~self._emitted[codes[done]]]

        # the fresh exact grades, ascending
        best = sorted(bounds.lower_bounds(rule)[fresh()].tolist())

        def threshold() -> float:
            return best[-k] if len(best) >= k else -1.0

        upper = bounds.upper_bounds(rule, self._frontier.bottoms)
        pending = _np.flatnonzero(~complete)
        pending = pending[upper[pending] > threshold()]
        ids, bounds_of = bounds.ids(pending), upper[pending].tolist()
        strs = [str(object_id) for object_id in ids]
        order = sorted(
            range(pending.size), key=lambda p: (bounds_of[p], strs[p]), reverse=True
        )
        with nullcontext() if tracer is None else tracer.phase("pruned-selection"):
            for p in order:
                if bounds_of[p] <= threshold():
                    break
                row, object_id = int(pending[p]), ids[p]
                missing = _np.flatnonzero(_np.isnan(grades[row])).tolist()
                probes = _probes(
                    self.executor,
                    self.sources,
                    [(i, lambda s=self.sources[i]: s.random_access(object_id)) for i in missing],
                )
                for i, grade in probes:
                    grades[row, i] = grade
                    if tracer is not None:
                        tracer.record_random(self.sources[i].name, object_id, grade)
                self._completed.append(row)
                bisect.insort(best, rule(grades[row].tolist()))
        return self._top(fresh(), k)

    def _degrade_to_nra(self, k: int, meter: CostMeter, error) -> TopKResult:
        """Continue as NRA over the state phase 1 (and any successful
        probes) already accumulated.

        The NRA continuation takes two objects, the state itself, every
        cell counted as handed over at round 0, and this algorithm's
        frontier, with no list dead, so no sorted access is re-paid, and
        everything the continuation learns stays in the state for later
        ``next_k`` calls (which will re-attempt random access and
        degrade again if it is still down).  ``error`` names its failed
        list by its ``source_name`` tag.
        """
        failures = {error.source_name: str(error)}
        if self.tracer is not None:
            self.tracer.event(
                "degraded", algorithm="fagin-a0", fallback="nra", failures=failures
            )
        bounds, emitted, frontier = self._bounds, self.emitted, self._frontier
        bounds.hand_over()
        frontier.dead.clear()
        result = _nra_run(
            self.sources,
            self.scoring,
            min(len(emitted) + k, self.database_size),
            frontier=frontier,
            bounds=bounds,
            meter=meter,
            batch_size=self.batch_size,
            algorithm="fagin-a0+nra",
            prior_failures=failures,
            tracer=self.tracer,
            phase_name="nra-fallback",
            executor=self.executor,
        )
        self._grow()
        fresh = [item for item in result.answers if item.object_id not in emitted]
        batch = GradedSet(fresh[:k])
        picked = [object_id in batch for object_id in bounds.ids(_np.arange(bounds.count))]
        self._emitted[bounds.table()[0][_np.array(picked, dtype=bool)]] = True
        self._pages.append(batch)
        degraded = result.degraded
        if degraded is not None:  # the bounds of this page's answers
            degraded.bounds = {
                object_id: interval
                for object_id, interval in degraded.bounds.items()
                if object_id in batch
            }
        return TopKResult(
            answers=batch,
            cost=meter.report(),
            algorithm="fagin-a0+nra",
            sorted_depth=self._frontier.depth,
            grades_exact=result.grades_exact,
            degraded=degraded,
            extras={"objects_seen": self._bounds.count},
        )

    def next_k(self, k: int) -> TopKResult:
        """Return the next k best answers (continuing past prior calls).

        The first call returns the top k; a second call the k after
        those, and so on, reusing all sorted-access work already paid
        for.  The returned cost report covers only this call's accesses.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        meter = CostMeter(self.sources)
        emitted = sum(map(len, self._pages))
        self._sorted_phase(min(emitted + k, self.database_size))
        sorted_phase_cost = meter.report().database_access_cost
        try:
            if self.prune_random_access:
                batch = self._pruned_selection(k)
            else:
                self._random_phase()
                with nullcontext() if self.tracer is None else self.tracer.phase("compute-phase"):
                    fresh = _np.flatnonzero(~self._emitted[self._bounds.table()[0]])
                    batch = self._top(fresh, k)
        except DEGRADABLE_ACCESS_ERRORS as error:
            if not self.degrade:
                raise
            return self._degrade_to_nra(k, meter, error)
        report = meter.report()
        self._pages.append(batch)
        return TopKResult(
            answers=batch,
            cost=report,
            algorithm="fagin-a0",
            sorted_depth=self._frontier.depth,
            extras={
                # Per-phase breakdown: what sorted access cost before a
                # single random probe happened, and what phase 2 added —
                # the observability the paper's cost-modeling discussion
                # (section 4.2) asks for.
                "phase_sorted_cost": sorted_phase_cost,
                "phase_random_cost": report.database_access_cost - sorted_phase_cost,
                "objects_seen": self._bounds.count,
            },
        )

    @property
    def emitted(self) -> GradedSet:
        """Everything emitted so far, across all next_k calls."""
        return GradedSet(itertools.chain.from_iterable(self._pages))


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
