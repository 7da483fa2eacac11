"""Threshold-style improvements over algorithm A0 (section 4.1's remark).

The paper notes that "there are various improvements that can be made to
algorithm A0".  The two classical ones — published by Fagin, Lotem and
Naor as TA and NRA shortly after this survey — are implemented here as
the library's extension algorithms and exercised by ablation E12:

* **TA (threshold algorithm)** — under sorted access, immediately random
  access every other list for each newly seen object, maintain the k
  best fully-graded objects, and stop as soon as the k-th best grade
  reaches the *threshold* ``t(bottom_1, ..., bottom_m)`` computed from
  the last grade seen in each list.  Correct for every monotone ``t``;
  never performs more sorted access than A0 and is instance-optimal.

* **NRA (no random access)** — for repositories that only support sorted
  access (:class:`~repro.core.sources.SortedOnlySource`).  Maintains, for
  every seen object, a lower bound (missing grades replaced by 0) and an
  upper bound (missing grades replaced by the list bottoms), and stops
  when the k best lower bounds dominate every other object's upper bound.
  By default it keeps going until the winners' bounds also converge, so
  reported grades are exact; pass ``exact_grades=False`` to stop at
  set-correctness and accept lower-bound grades.

* **CA (combined algorithm)** — interpolates between the two when a
  random access costs ``ratio`` times a sorted access (the situation the
  paper's cost-measure discussion anticipates): run NRA-style sorted
  rounds, and only once every ``ratio`` rounds spend random accesses to
  resolve the most promising incomplete object.

All require a *monotone* scoring function, like A0.

**Graceful degradation.**  NRA was defined for repositories where random
access is *unavailable* — which in a production middleware is not a
static property but a runtime one: a subsystem's random access can die
mid-query (its circuit breaker opens, see
:mod:`repro.middleware.resilience`).  The NRA core here is therefore a
resumable continuation, :func:`_nra_run`, that can start from *any*
accumulated bounds state (a :class:`~repro.kernels.GradeMatrix`); TA
maintains that bookkeeping as it goes, and when a random probe fails
degradably it hands its cursors, bottoms, and seen grades to the NRA
continuation instead of aborting.  If sorted streams later die too, the
continuation returns a best-effort partial answer carrying NRA
lower/upper grade bounds and a structured
:class:`~repro.core.result.DegradedResult` report.
"""

from __future__ import annotations

import bisect
import heapq
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from repro.core.cost import CostMeter
from repro.core.graded import GradedSet, ObjectId
from repro.core.result import (
    ApproximationCertificate,
    DegradedResult,
    TopKResult,
)
from repro.core.sources import (
    DEFAULT_BATCH_SIZE,
    GradedSource,
    _fast_item,
    check_same_objects,
    shared_object_codes,
)
from repro.kernels import GradeMatrix, _np, canonical_order
from repro.parallel import fan_out
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MonotonicityError,
    TransientAccessError,
)
from repro.scoring.base import ScoringFunction, as_scoring_function

#: Failures an in-flight algorithm may survive by degrading instead of
#: aborting: retryable errors whose retries were already exhausted by
#: the resilience layer, open circuits, and blown deadline budgets.
DEGRADABLE_ACCESS_ERRORS = (
    TransientAccessError,
    CircuitOpenError,
    DeadlineExceededError,
)


def _require_monotone(rule: ScoringFunction, algorithm: str) -> None:
    if not rule.is_monotone:
        raise MonotonicityError(
            f"scoring function {rule.name!r} is declared non-monotone; "
            f"{algorithm} is only correct for monotone rules"
        )


def _certify(tracer, **fields) -> ApproximationCertificate:
    """Build a run's certificate from ``ApproximationCertificate.build``'s
    fields and, for a θ > 1 run under a tracer, emit it as the
    ``theta-certified`` event."""
    certificate = ApproximationCertificate.build(**fields)
    if tracer is not None and certificate.theta > 1.0:
        tracer.event(
            "theta-certified",
            theta=certificate.theta,
            achieved=certificate.achieved,
            kth=certificate.kth_grade,
            bound=certificate.bound,
            anytime=certificate.anytime,
        )
    return certificate


def _nra_run(
    sources: Sequence[GradedSource],
    rule: ScoringFunction,
    k: int,
    *,
    cursors,
    bounds,
    bottoms: List[float],
    exhausted: List[bool],
    meter: CostMeter,
    depth: int = 0,
    exact_grades: bool = True,
    tol: float = 1e-12,
    theta: float = 1.0,
    batch_size: int = 4096,
    algorithm: str = "nra",
    prior_failures: Optional[Dict[str, str]] = None,
    failed_sorted: Optional[Dict[int, str]] = None,
    tracer=None,
    phase_name: str = "nra",
    executor=None,
    stop_check_growth: float = 2.0,
) -> TopKResult:
    """The NRA main loop, resumable from arbitrary accumulated state.

    :func:`nra_top_k` calls it with fresh cursors and an empty
    ``bounds`` state; the degradation paths of TA and A0 call it
    mid-query with everything they already learned (their cursors keep
    their positions, so sorted work is never re-paid).

    ``bounds`` is the seen set, a :class:`~repro.kernels.GradeMatrix`:
    every bound it reports is exactly the per-object ``rule(...)`` fold,
    ranked under the ``(-grade, str(id))`` answer order.

    The stopping condition is evaluated on a geometric schedule
    controlled by ``stop_check_growth``: after a check at round r, the
    next check happens at round ``max(int(r * stop_check_growth),
    r + 1)``.  The default of 2.0 is the classic doubling schedule
    (rounds 1, 2, 4, 8, ...) rather than checking after every access:
    recomputing every seen object's upper bound is O(seen * m), and
    checking each round would make the algorithm quadratic in the
    database size.  A growth of g can overshoot the minimal stopping
    depth by at most a factor of g (checking every round, g = 1, stops
    at the minimal depth); the default leaves the cost's asymptotic
    shape intact.

    Because the stop test only ever runs at those scheduled rounds, the
    rounds between two checks can be drained with one
    ``next_batch_columns`` per list — there is no decision to make in
    between, so bulk draining consumes (and charges) exactly the same
    accesses as item-at-a-time draining.  ``batch_size`` merely caps how
    many rounds one request may cover.

    A sorted stream that fails with one of
    :data:`DEGRADABLE_ACCESS_ERRORS` is marked dead: its bottom freezes
    at the last grade it delivered (still a sound upper bound for its
    unseen grades) and the loop continues on the surviving lists.  When
    no list can progress and the stop test still fails, the best-effort
    top k by *lower* bound is returned with ``grades_exact=False`` and a
    ``partial-bounds`` :class:`~repro.core.result.DegradedResult`.

    **θ-approximation (NRA-θ).**  ``theta >= 1.0`` relaxes the stop
    test to the Fagin–Lotem–Naor rule: accept as soon as ``theta *
    kth_lower >= rivals_upper`` (and, for θ > 1, without waiting for
    the winners' own bounds to converge even under ``exact_grades``).
    Every true grade outside the answer set is then provably ≤ θ times
    every true grade inside it.  A θ > 1 stop attaches an
    :class:`~repro.core.result.ApproximationCertificate` with the
    *achieved* ratio and per-answer grade intervals; θ = 1.0 is
    decision-for-decision identical to the exact algorithm (``1.0 * x
    == x`` in IEEE-754) and attaches nothing.  Independently of θ, a
    forced partial stop (all streams dead — deadline blown, circuits
    open) certifies whatever the accumulated bounds prove as an
    *anytime* certificate instead of returning bare partial answers.
    """
    if stop_check_growth < 1.0:
        raise ValueError(
            f"stop_check_growth must be >= 1, got {stop_check_growth}"
        )
    database_size = check_same_objects(sources)
    k = min(k, database_size)
    m = len(sources)
    #: lists whose sorted stream is dead, index -> reason; seeded by the
    #: caller when a stream already died before the continuation started
    #: (those indexes must also be pre-marked in ``exhausted``).
    sorted_failures: Dict[int, str] = dict(failed_sorted or {})
    answers: Optional[GradedSet] = None
    converged = True
    partial = False
    stop_kth = 0.0
    stop_bound = 0.0
    rounds = 0
    next_check = 1

    def view_bounds():
        """The state's stop view, and the best overall grade any object
        outside its top k — seen or not — could still have."""
        view = bounds.stop_view(rule, bottoms, k)
        unseen = rule(bottoms) if bounds.count < database_size else 0.0
        return view, max(unseen, view.rival_upper)

    def evaluate_stop() -> Optional[GradedSet]:
        nonlocal converged, stop_kth, stop_bound
        if bounds.count < k:
            return None
        view, rivals_upper = view_bounds()
        if tracer is not None:
            tracer.sample("nra.kth_lower", view.kth_lower)
            tracer.sample("nra.rivals_upper", rivals_upper)
            tracer.sample("nra.buffer_objects", float(bounds.count))
        if theta * view.kth_lower + tol < rivals_upper:
            return None
        gaps_converged = view.gap <= tol
        if exact_grades and theta == 1.0 and not gaps_converged:
            return None
        converged = gaps_converged
        stop_kth = view.kth_lower
        stop_bound = rivals_upper
        return GradedSet(zip(view.ids, view.lowers))

    with nullcontext() if tracer is None else tracer.phase(phase_name):
        while answers is None:
            # Drain everything up to the next scheduled stop check in one
            # batch per list; nothing is decided between checks, so this is
            # access-for-access identical to one-item rounds.
            window = min(max(next_check - rounds, 1), batch_size)
            progressed = False
            drained = 0
            # One round of sorted access across the surviving lists is m
            # independent pulls: fan them out, then merge in list-index
            # order so the accumulated state is identical to serial.
            active = [i for i in range(m) if not exhausted[i]]
            for i in active:
                # free shard-aware hint before the draining fan-out:
                # shard merges/page faults overlap here, on the
                # coordinating thread, so the consuming thunks below
                # never nest a fan-out inside the pool
                sources[i].prefetch_sorted(
                    cursors[i].position + window, executor=executor
                )
            outcomes = fan_out(
                executor,
                [
                    (lambda c=cursors[i], w=window: c.next_batch_columns(w))
                    for i in active
                ],
            )
            for i, outcome in zip(active, outcomes):
                if outcome.error is not None:
                    if not isinstance(outcome.error, DEGRADABLE_ACCESS_ERRORS):
                        raise outcome.error
                    # Dead stream: freeze its bottom (a sound upper bound
                    # for everything it never delivered) and carry on.
                    exhausted[i] = True
                    sorted_failures[i] = str(outcome.error)
                    if tracer is not None:
                        tracer.event(
                            "sorted-stream-failed",
                            source=sources[i].name,
                            reason=str(outcome.error),
                        )
                    continue
                ids, grades = outcome.value
                cursor = cursors[i]
                if not ids:
                    exhausted[i] = True
                    bottoms[i] = 0.0
                    continue
                progressed = True
                if tracer is not None:
                    tracer.record_sorted_batch(
                        sources[i].name,
                        [
                            _fast_item(object_id, grade)
                            for object_id, grade in zip(ids, grades.tolist())
                        ],
                        cursor.position - len(ids),
                    )
                bottoms[i] = float(grades[-1])
                depth = max(depth, cursor.position)
                drained = max(drained, len(ids))
                bounds.add_batch(i, ids, grades)
            rounds += drained if progressed else 1
            if rounds >= next_check or not progressed:
                answers = evaluate_stop()
                next_check = max(int(rounds * stop_check_growth), rounds + 1)
            if not progressed and answers is None:
                # Nothing can progress.  Without failures every grade is
                # known (the lists were fully drained), so the lower bounds
                # are the true grades; with dead streams this is the
                # best-effort ranking by lower bound.
                view, rivals_upper = view_bounds()
                answers = GradedSet(zip(view.ids, view.lowers))
                stop_kth = view.kth_lower
                if sorted_failures:
                    partial = True
                    converged = False
                    stop_bound = rivals_upper
                else:
                    converged = True
                    stop_bound = stop_kth

    failures: Dict[str, str] = dict(prior_failures or {})
    for i, reason in sorted_failures.items():
        failures[sources[i].name] = reason
    intervals: Dict = {}
    if failures or partial or theta > 1.0:
        intervals = bounds.intervals(rule, bottoms, answers.objects())
    degraded: Optional[DegradedResult] = None
    if failures:
        degraded = DegradedResult(
            failed_sources=failures,
            fallback="partial-bounds" if partial else "nra-sorted-only",
            complete=not partial,
            bounds=dict(intervals),
        )

    certificate: Optional[ApproximationCertificate] = None
    if partial or theta > 1.0:
        certificate = _certify(
            tracer,
            theta=theta,
            kth_grade=stop_kth,
            bound=stop_bound,
            intervals=intervals,
            anytime=partial,
        )

    return TopKResult(
        answers=answers,
        cost=meter.report(),
        algorithm=algorithm,
        sorted_depth=depth,
        grades_exact=converged,
        degraded=degraded,
        approximation=certificate,
    )


def threshold_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    require_monotone: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    degrade: bool = True,
    theta: float = 1.0,
    tracer=None,
    executor=None,
) -> TopKResult:
    """Top k answers via the threshold algorithm (TA).

    Sorted access is drained in bulk: each super-round peeks a window of
    ``batch_size`` upcoming items per list (free), replays TA's
    one-item-per-list rounds over the windows in memory — issuing the
    random probes for each round's newly seen objects as one bulk
    request per list — and then consumes exactly the rounds processed
    with one ``next_batch_columns`` per list.  The stopping rule is
    still evaluated between rounds, so the access counts are identical
    to item-at-a-time TA for every ``batch_size`` (1 reproduces the
    per-item pattern exactly).

    There is one loop.  τ for every row of a window comes from one
    ``combine_matrix`` call over the forward-filled bottoms matrix
    (bit-identical to ``t(bottoms)`` per round; a rule without a native
    batch form is therefore evaluated on up to one window of rows past
    the stop row).  When m > 1 and every source ``supports_columnar``
    (bare backends that cannot fail), probe grades are read once per
    window through the free ``_grades_of_many`` (by code in the bulk
    round) and charged, probe for probe, by ``_record_random_probes``.  Without a tracer the whole
    window is one ``bulk_round`` of integer array operations over object
    codes: a set of ArraySources shares one ``ObjectCodes`` index, any
    other set codes its ids per run.  Anything wrapped keeps one
    ``random_access_many`` per list per round, so wrapper accounting and
    fault behaviour observe every probe.

    TA logs the sorted rows and probe results it has used, so when
    ``degrade`` is True (the default) and a random probe fails with one
    of :data:`DEGRADABLE_ACCESS_ERRORS` — e.g. the source's
    random-access circuit breaker opened — the execution does not abort:
    it consumes the sorted rows it already used, replays the log into a
    bounds state and continues as an NRA run over the same cursors,
    still returning correct top-k answers from sorted access alone; a
    sorted stream that dies during a consume is frozen in place and
    handed over the same way.  With ``degrade=False`` the error
    propagates (the E20 ablation).

    Under a ``tracer``, accesses are emitted at *logical* time — each
    row's sorted deliveries as TA's round processes them (even though
    the underlying cursor consumes them in bulk afterwards), each random
    probe when its grade arrives — and the threshold trajectory is
    sampled as ``ta.tau`` / ``ta.kth_grade`` once per round, with the
    value the stop test uses.

    ``executor`` is an optional
    :class:`~repro.parallel.ParallelAccessExecutor`: each round's bulk
    random probes (one request per list) and each super-round's sorted
    consumes fan out across its workers, with results merged in list
    order in the coordinating thread, so answers, cost, and traces are
    identical to serial execution.  ``None`` keeps the classic serial
    path.

    **θ-approximation (TA-θ).**  ``theta >= 1.0`` relaxes the stopping
    rule to ``theta * kth_grade >= τ`` (Fagin–Lotem–Naor): every
    unreported object's true grade is then provably ≤ θ times every
    reported grade.  Reported grades stay exact (TA fully resolves each
    seen object), so a θ > 1 stop attaches an
    :class:`~repro.core.result.ApproximationCertificate` with the
    achieved ratio τ/kth and no intervals; θ = 1.0 is
    decision-for-decision identical to exact TA.  The mid-query
    degradation path hands θ to the NRA continuation unchanged.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1.0, got {theta}")
    rule = as_scoring_function(scoring)
    if require_monotone:
        _require_monotone(rule, "TA")
    database_size = check_same_objects(sources)
    k = min(k, database_size)
    m = len(sources)
    meter = CostMeter(sources)

    cursors = [s.cursor() for s in sources]
    others = [[j for j in range(m) if j != i] for i in range(m)]
    #: the access failures this run outlives by handing over to NRA;
    #: anything else — everything, with ``degrade=False`` — propagates
    survivable = DEGRADABLE_ACCESS_ERRORS if degrade else ()
    columnar = m > 1 and all(source.supports_columnar for source in sources)
    bottoms = [1.0] * m
    #: overall grade of every object sorted access has delivered, in
    #: first-seen (row-major) order — TA's seen-set.  An object enters
    #: at first sight, before its probes, and gets its grade once they
    #: return, so at a probe failure the keys are exactly the seen
    #: objects in the order the NRA continuation must see them.
    overall: Dict[ObjectId, float] = {}
    #: the bulk round's object codes (None on the per-row path) and its
    #: seen-set: a bitmap by code, and each window's (codes, grades).
    object_codes = shared_object_codes(sources) if columnar and tracer is None else None
    seen = _np.zeros(0, dtype=bool)
    seen_log = [(_np.empty(0, dtype=_np.int32), _np.empty(0))]
    # Min-heap of the k best overall grades seen so far, so the stopping
    # test is O(log k) per object instead of a re-sort per round.
    best_k: List[float] = []
    depth = 0
    stop = False
    stop_tau = 0.0
    #: sorted deliveries TA has used, (list index, ids, grades) per
    #: window slice (codes, not ids, in the bulk round) — replayed into
    #: a bounds state if the run has to degrade to NRA.
    sorted_log: List[tuple] = []
    #: applied random-probe results, (list index, {id: grade}).
    probe_log: List[tuple] = []

    def admit(grade: float) -> None:
        if len(best_k) < k:
            heapq.heappush(best_k, grade)
        elif grade > best_k[0]:
            heapq.heapreplace(best_k, grade)

    def bulk_round(windows, lengths, rows, tau, grades_lists):
        """One whole super-round as integer array operations over object
        codes: the seen bitmap and ``np.unique(..., return_index=True)``
        over the ``rows × m`` code matrix give the fresh objects in
        row-major first-seen order, one gather per source and one
        ``combine_matrix`` score them, and the stop row is a search, not
        a scan (the k-th best grade never falls and τ never rises down a
        window; a non-monotone rule scans).  Only objects first delivered
        at or before the stop row are committed and charged, probe for
        probe as the per-row path, so costs and answers are identical.

        Taken only for bare columnar backends (reads are free to
        prefetch, accesses cannot fail) and no tracer; returns
        ``(consumed_rows, stopped)``.
        """
        nonlocal seen, stop_tau
        if seen.size < len(object_codes):  # a per-run index coded new ids
            seen = _np.concatenate((seen, _np.zeros(len(object_codes) - seen.size, bool)))
        matrix = _np.full((rows, m), -1, dtype=_np.int32)
        for i, (codes, _) in enumerate(windows):
            matrix[: lengths[i], i] = codes
        flat = matrix.ravel()
        where = _np.flatnonzero((flat >= 0) & ~seen[flat])  # -1 pads short windows
        _, first = _np.unique(flat[where], return_index=True)
        where = where[_np.sort(first)]  # each fresh object's first sighting
        fresh = flat[where]
        fresh_row, first_list = _np.divmod(where, m)
        scores = _np.empty(0)
        if fresh.size:
            grades = _np.empty((fresh.size, m))
            for j, source in enumerate(sources):
                grades[:, j] = source._grades_of_codes(object_codes, fresh)
            scores = rule.combine_matrix(grades)
        through = _np.searchsorted(fresh_row, _np.arange(rows), side="right")
        kept = _np.asarray(best_k)

        def reach(row: int) -> float:  # θ × the k-th best grade after row
            pool = _np.concatenate((kept, scores[: through[row]]))
            cut = pool.size - k
            return theta * _np.partition(pool, cut)[cut] if cut >= 0 else -_np.inf

        if (_np.diff(tau) > 0).any():  # a non-monotone rule: scan
            stop_row = next((r for r in range(rows) if reach(r) >= tau[r]), rows)
        else:  # no row stops before τ falls to the window's final reach
            last = reach(rows - 1)
            stop_row = bisect.bisect_left(range(rows), True, key=lambda r: last >= tau[r])
            if stop_row < rows and reach(stop_row) < tau[stop_row]:
                stop_row = bisect.bisect_left(
                    range(rows), True, lo=stop_row + 1, key=lambda r: reach(r) >= tau[r]
                )
        consumed = min(stop_row + 1, rows)
        count = through[consumed - 1]
        committed, committed_scores = fresh[:count], scores[:count]
        seen[committed] = True
        seen_log.append((committed, committed_scores))
        if len(best_k) >= k:  # the rest cannot enter the heap
            committed_scores = committed_scores[committed_scores > best_k[0]]
        for grade in committed_scores.tolist():
            admit(grade)
        for j, source in enumerate(sources):
            probes = committed[first_list[:count] != j]  # all but the first list
            source._record_random_probes(probes.size, object_codes.decoded(probes))
        for i in range(m):
            rows_used = min(consumed, lengths[i])
            if rows_used:
                bottoms[i] = grades_lists[i][rows_used - 1]
        stop_tau = tau[consumed - 1]
        return consumed, stop_row < rows

    def consume(windows, rows: int) -> Dict[int, str]:
        """Log the first ``rows`` rows of every window as used by TA,
        then consume them with one ``next_batch_columns`` per list.

        Returns ``{list index: reason}`` for the streams that died
        shipping them (their rows are in TA's state, and so in the log,
        regardless).
        """
        nonlocal depth
        takers = []
        for i, (window_ids, window_grades) in enumerate(windows):
            rows_used = min(rows, len(window_ids))
            if rows_used:
                takers.append((i, rows_used))
                sorted_log.append(
                    (i, window_ids[:rows_used], window_grades[:rows_used])
                )
        outcomes = fan_out(
            executor,
            [(lambda c=cursors[i], t=t: c.next_batch_columns(t)) for i, t in takers],
        )
        died: Dict[int, str] = {}
        for (i, _), outcome in zip(takers, outcomes):
            if outcome.error is not None:
                if not isinstance(outcome.error, survivable):
                    raise outcome.error
                died[i] = str(outcome.error)
                continue
            depth = max(depth, cursors[i].position)
        return died

    def fall_back(
        prior_failures: Dict[str, str],
        dead: Dict[int, str],
        unconsumed=None,
    ) -> TopKResult:
        """Replay the access log into a bounds state and continue as NRA.

        After a probe failure the rows TA already used are still
        ``unconsumed`` — ``(windows, rows)`` — and are consumed first; a
        stream that dies shipping them, like one that died in the main
        loop's consume (``dead``), is frozen in place and handed to the
        continuation as already-exhausted.  The surviving lists carry
        the query.
        """
        if tracer is not None:
            tracer.event(
                "degraded",
                algorithm="threshold-ta",
                fallback="nra",
                failures={
                    **prior_failures,
                    **{sources[i].name: reason for i, reason in dead.items()},
                },
            )
        if unconsumed is not None:
            dead = consume(*unconsumed)
        # Rows are created in TA's first-seen order before the log fills
        # them in: that is the order a live per-object seen-set would
        # have, and NRA's stable (-grade, str(id)) ranking can tell it
        # from the log's list-major order when two ids share a ``str``.
        if object_codes is not None:  # the bulk round keeps codes
            seen_codes = _np.concatenate([codes for codes, _ in seen_log])
            overall.update(dict.fromkeys(object_codes.decode(seen_codes)))
            sorted_log[:] = [(i, object_codes.decode(c), g) for i, c, g in sorted_log]
        bounds = GradeMatrix.from_known(
            {object_id: {} for object_id in overall}, m
        )
        for i, ids, grades in sorted_log:
            bounds.add_batch(i, ids, grades)
        for j, fetched in probe_log:
            for object_id, grade in fetched.items():
                bounds.set_grade(object_id, j, grade)
        return _nra_run(
            sources,
            rule,
            k,
            cursors=cursors,
            bounds=bounds,
            bottoms=bottoms,
            exhausted=[i in dead for i in range(m)],
            meter=meter,
            depth=depth,
            theta=theta,
            batch_size=batch_size,
            algorithm="threshold-ta+nra",
            prior_failures=prior_failures,
            failed_sorted=dead,
            tracer=tracer,
            phase_name="nra-fallback",
            executor=executor,
        )

    with nullcontext() if tracer is None else tracer.phase("ta"):
        while not stop:
            for i in range(m):
                # free shard-aware hint: warm the upcoming peek window
                # (memmap pages, shard-merge buffers), overlapping
                # per-shard reads on the executor when one is configured
                sources[i].prefetch_sorted(
                    cursors[i].position + batch_size, executor=executor
                )
            windows = [
                cursor.peek_batch_columns(batch_size)
                if object_codes is None
                else source._codes_range(object_codes, cursor.position, batch_size)
                for source, cursor in zip(sources, cursors)
            ]
            lengths = [len(window_ids) for window_ids, _ in windows]
            rows = max(lengths, default=0)
            if rows == 0:
                break  # no list can progress: exhausted
            grades_lists = [grades.tolist() for _, grades in windows]
            # tau for every prospective row of this super-round in one
            # batched fold: forward-fill each list's grades over rows it
            # cannot serve (its bottom freezes), then combine rows.
            bottoms_matrix = _np.empty((rows, m))
            for i, (window_ids, window_grades) in enumerate(windows):
                length = lengths[i]
                if length:
                    bottoms_matrix[:length, i] = window_grades
                    bottoms_matrix[length:, i] = window_grades[length - 1]
                else:
                    bottoms_matrix[:, i] = bottoms[i]
            tau = rule.combine_matrix(bottoms_matrix).tolist()
            scan_rows = rows
            consumed = 0
            prefetched = None
            if object_codes is not None:
                consumed, stop = bulk_round(
                    windows, lengths, rows, tau, grades_lists
                )
                scan_rows = 0  # the bulk round already did the row scan
            elif columnar:
                candidates = [
                    object_id
                    for window_ids, _ in windows
                    for object_id in window_ids
                    if object_id not in overall
                ]
                if candidates:
                    candidates = list(dict.fromkeys(candidates))
                    prefetched = [
                        dict(zip(candidates, source._grades_of_many(candidates).tolist()))
                        for source in sources
                    ]
            for row in range(scan_rows):
                # One TA round: the row-th item of every list, with bulk
                # random probes for the objects this round saw first.
                # Under a tracer each delivery is recorded here, at
                # logical access time, not at the deferred bulk consume.
                fresh: List[tuple] = []
                fresh_known: Dict[ObjectId, Dict[int, float]] = {}
                for i in range(m):
                    if row >= lengths[i]:
                        continue
                    object_id = windows[i][0][row]
                    grade = grades_lists[i][row]
                    if tracer is not None:
                        tracer.record_sorted(
                            sources[i].name,
                            object_id,
                            grade,
                            position=cursors[i].position + row + 1,
                        )
                    bottoms[i] = grade
                    if object_id not in overall:
                        overall[object_id] = 0.0  # graded below, once probed
                        fresh.append((object_id, i))
                        fresh_known[object_id] = {i: grade}
                    elif object_id in fresh_known:
                        # Same object surfacing in two lists this round:
                        # second delivery lands in its in-flight grades.
                        fresh_known[object_id][i] = grade
                consumed = row + 1
                if fresh:
                    needed: List[List[ObjectId]] = [[] for _ in range(m)]
                    for object_id, first in fresh:
                        for j in others[first]:
                            needed[j].append(object_id)
                    # The round's random probes are one bulk request per
                    # list: fan them out, merge grades (and emit trace
                    # events) in list order.  The first failure, taken
                    # in list order, is handled exactly as serial TA
                    # handles it; probes beyond it are discarded.
                    targets = [(j, ids) for j, ids in enumerate(needed) if ids]
                    probe_outcomes: Sequence = ()
                    if prefetched is None:
                        probe_outcomes = fan_out(
                            executor,
                            [
                                (lambda s=sources[j], i=ids: s.random_access_many(i))
                                for j, ids in targets
                            ],
                            stop_on_error=True,
                        )
                    for index, (j, ids) in enumerate(targets):
                        if prefetched is not None:
                            # Replay the prefetched bulk reads: same per-
                            # source charge, same trace events, same
                            # grades and ordering as random_access_many
                            # would give on this backend — without a
                            # Python call fan per row.
                            sources[j]._record_random_probes(len(ids), ids)
                            lookup = prefetched[j]
                            fetched = {
                                object_id: lookup[object_id] for object_id in ids
                            }
                        else:
                            outcome = probe_outcomes[index]
                            if not outcome.ran:
                                break
                            if outcome.error is not None:
                                if not isinstance(outcome.error, survivable):
                                    raise outcome.error
                                return fall_back(
                                    {sources[j].name: str(outcome.error)},
                                    {},
                                    unconsumed=(windows, consumed),
                                )
                            fetched = outcome.value
                        if tracer is not None:
                            for object_id in ids:
                                tracer.record_random(
                                    sources[j].name, object_id, fetched[object_id]
                                )
                        probe_log.append((j, fetched))
                        for object_id, grade in fetched.items():
                            fresh_known[object_id][j] = grade
                    for object_id, _ in fresh:
                        known = fresh_known[object_id]
                        grade = rule([known[j] for j in range(m)])
                        overall[object_id] = grade
                        admit(grade)
                full = len(best_k) >= k
                tau_row = tau[row]
                if tracer is not None:
                    tracer.sample("ta.tau", tau_row)
                    if full:
                        tracer.sample("ta.kth_grade", best_k[0])
                if full and theta * best_k[0] >= tau_row:
                    stop = True
                    stop_tau = tau_row
                    if tracer is not None:
                        relaxed = {"theta": theta} if theta > 1.0 else {}
                        tracer.event("stop", tau=stop_tau, kth=best_k[0], **relaxed)
                    break
            died = consume(windows, consumed)
            if died and not stop:
                # A sorted stream died mid-round; its cursor is stuck, so the
                # next peek would replay the same rows forever.  Hand the
                # accumulated state to NRA with the dead list frozen out.
                return fall_back({}, died)

    if object_codes is None:
        ids, codes = list(overall), _np.arange(len(overall))
        grades = _np.fromiter(overall.values(), _np.float64, len(overall))
    else:  # the bulk round decodes only the candidates below
        ids = object_codes.ids
        codes, grades = (_np.concatenate(column) for column in zip(*seen_log))
    # only objects graded at least the k-th best grade can be answers
    cut = _np.partition(grades, -k)[-k] if grades.size > k else -_np.inf
    rows = _np.flatnonzero(grades >= cut)
    picked, candidates = [ids[code] for code in codes[rows].tolist()], grades[rows]
    top = canonical_order(picked, candidates)[:k]
    answers = GradedSet(zip([picked[i] for i in top.tolist()], candidates[top].tolist()))
    certificate: Optional[ApproximationCertificate] = None
    if theta > 1.0:
        # TA's reported grades are exact, so the k-th answer grade IS
        # the proven k-th best; exhaustion (no θ-stop) means exact.
        kth = best_k[0] if len(best_k) >= k else 0.0
        certificate = _certify(
            tracer, theta=theta, kth_grade=kth, bound=stop_tau if stop else kth
        )
    return TopKResult(
        answers=answers,
        cost=meter.report(),
        algorithm="threshold-ta",
        sorted_depth=depth,
        approximation=certificate,
    )


def nra_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    require_monotone: bool = True,
    exact_grades: bool = True,
    tol: float = 1e-12,
    theta: float = 1.0,
    batch_size: int = 4096,
    tracer=None,
    executor=None,
    stop_check_growth: float = 2.0,
) -> TopKResult:
    """Top k answers using sorted access only (NRA).

    A thin wrapper over :func:`_nra_run` with fresh cursors and empty
    state; see there for the batching/stop-schedule mechanics and the
    behaviour when sorted streams die mid-run.

    ``stop_check_growth`` controls the geometric stop-check schedule
    (see :func:`_nra_run`); ``theta`` the Fagin–Lotem–Naor
    θ-approximation knob (1.0 = exact; see :func:`_nra_run`).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1.0, got {theta}")
    rule = as_scoring_function(scoring)
    if require_monotone:
        _require_monotone(rule, "NRA")
    m = len(sources)
    return _nra_run(
        sources,
        rule,
        k,
        cursors=[s.cursor() for s in sources],
        bounds=GradeMatrix(m),
        bottoms=[1.0] * m,
        exhausted=[False] * m,
        meter=CostMeter(sources),
        exact_grades=exact_grades,
        tol=tol,
        theta=theta,
        batch_size=batch_size,
        tracer=tracer,
        executor=executor,
        stop_check_growth=stop_check_growth,
    )


def combined_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    ratio: float = 8.0,
    require_monotone: bool = True,
    tracer=None,
    executor=None,
) -> TopKResult:
    """Top k answers via the combined algorithm (CA).

    ``ratio`` models how much more a random access costs than a sorted
    access; CA performs one resolution step — completing the incomplete
    object with the highest upper bound via random access — only every
    ``h = floor(ratio)`` sorted rounds (Fagin–Lotem–Naor's
    ``h = ⌊c_R / c_S⌋``), so the random-access budget tracks the
    sorted-access budget scaled by the price ratio.

    Correctness mirrors NRA: the algorithm stops once the k best
    *exactly known* grades dominate both every incomplete object's upper
    bound and the unseen threshold ``t(bottoms)``.

    CA's sorted rounds are inherently one item per list (the resolution
    budget is metered per round); the O(seen * m) work — the stop test
    and the best-incomplete selection scan every seen object's upper
    bound — goes through one :class:`~repro.kernels.GradeMatrix`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if ratio < 1.0:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    rule = as_scoring_function(scoring)
    if require_monotone:
        _require_monotone(rule, "CA")
    database_size = check_same_objects(sources)
    k = min(k, database_size)
    m = len(sources)
    meter = CostMeter(sources)

    cursors = [s.cursor() for s in sources]
    exhausted = [False] * m
    bottoms = [1.0] * m
    bounds = GradeMatrix(m)
    complete: Dict[ObjectId, float] = {}
    best_k: List[float] = []
    resolve_every = max(1, int(ratio))
    depth = 0
    rounds = 0
    next_check = 1

    def record_complete(object_id: ObjectId, grade: float) -> None:
        complete[object_id] = grade
        if len(best_k) < k:
            heapq.heappush(best_k, grade)
        elif grade > best_k[0]:
            heapq.heapreplace(best_k, grade)

    def resolve_best_incomplete() -> None:
        best = bounds.best_incomplete(rule, bottoms)
        if best is None:
            return
        best_id = best[0]
        grades = bounds.grades_of(best_id)
        missing = [j for j in range(m) if grades[j] is None]
        probe_outcomes = fan_out(
            executor,
            [
                (lambda s=sources[j], o=best_id: s.random_access(o))
                for j in missing
            ],
            stop_on_error=True,
        )
        for j, outcome in zip(missing, probe_outcomes):
            if not outcome.ran:
                break
            if outcome.error is not None:
                raise outcome.error
            grades[j] = outcome.value
            bounds.set_grade(best_id, j, outcome.value)
            if tracer is not None:
                tracer.record_random(sources[j].name, best_id, outcome.value)
        record_complete(best_id, rule(grades))

    def should_stop() -> bool:
        if len(best_k) < k:
            return False
        kth = best_k[0]
        if bounds.count < database_size and rule(bottoms) > kth:
            return False
        best = bounds.best_incomplete(rule, bottoms)
        return best is None or best[1] <= kth

    with nullcontext() if tracer is None else tracer.phase("ca"):
        while True:
            progressed = False
            active = [i for i in range(m) if not exhausted[i]]
            round_outcomes = fan_out(
                executor,
                [(lambda c=cursors[i]: c.next_batch_columns(1)) for i in active],
                stop_on_error=True,
            )
            for i, outcome in zip(active, round_outcomes):
                if not outcome.ran:
                    break
                if outcome.error is not None:
                    raise outcome.error
                ids, column = outcome.value
                cursor = cursors[i]
                if not ids:
                    exhausted[i] = True
                    bottoms[i] = 0.0
                    continue
                progressed = True
                object_id, grade = ids[0], float(column[0])
                if tracer is not None:
                    tracer.record_sorted(
                        sources[i].name,
                        object_id,
                        grade,
                        position=cursor.position,
                    )
                bottoms[i] = grade
                depth = max(depth, cursor.position)
                bounds.set_grade(object_id, i, grade)
                if object_id not in complete:
                    grades = bounds.grades_of(object_id)
                    if None not in grades:
                        record_complete(object_id, rule(grades))
            rounds += 1
            if rounds % resolve_every == 0:
                resolve_best_incomplete()
            if rounds >= next_check or not progressed:
                if should_stop():
                    break
                next_check = rounds * 2
            if not progressed:
                # Lists exhausted: every grade known via sorted access.
                for object_id, grade in zip(*bounds.scores(rule)):
                    if object_id not in complete:
                        record_complete(object_id, grade)
                break

    return TopKResult(
        answers=GradedSet(complete).top(k),
        cost=meter.report(),
        algorithm="combined-ca",
        sorted_depth=depth,
    )
