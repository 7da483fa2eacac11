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
accumulated bounds state (:func:`repro.kernels.bounds_state`); TA
maintains that bookkeeping as it goes, and when a random probe fails
degradably it hands its cursors, bottoms, and seen grades to the NRA
continuation instead of aborting.  If sorted streams later die too, the
continuation returns a best-effort partial answer carrying NRA
lower/upper grade bounds and a structured
:class:`~repro.core.result.DegradedResult` report.
"""

from __future__ import annotations

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
)
from repro.kernels import (
    _np,
    bounds_state,
    iter_str_keys,
    resolve_kernel,
    top_k_from_arrays,
)
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
    rounds: int = 0,
    next_check: int = 1,
    initial_check: bool = False,
    snapshot_out: Optional[Dict] = None,
) -> TopKResult:
    """The NRA main loop, resumable from arbitrary accumulated state.

    :func:`nra_top_k` calls it with fresh cursors and an empty
    ``bounds`` state; the degradation paths of TA and A0 call it
    mid-query with everything they already learned (their cursors keep
    their positions, so sorted work is never re-paid).

    ``bounds`` is the seen set — a :class:`~repro.kernels._DictBounds`
    or a :class:`~repro.kernels.GradeMatrix`, see
    :func:`repro.kernels.bounds_state` — and the only thing that differs
    between the scalar and vector kernels: the loop, its accesses,
    answers and traces are the same code for both, and the two states
    fold the same IEEE-754 operations under the same ``(-grade,
    str(id))`` answer order.

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

    **Warm-start continuations** (the result cache's tier 3) hand back a
    finished run's position on the stop-check schedule via ``rounds`` and
    ``next_check``, and set ``initial_check=True`` so the continuation
    replays the stop check its snapshot was taken at — for a shallower k
    the fill run stopped there, and a cold run at the deeper k evaluates
    that same check at the same depth before draining further, so the
    resumed access stream stays byte-identical to cold.  ``snapshot_out``
    (a dict, filled in place) captures the finished run's resumable state
    — per-object known grades, list bottoms/positions, schedule position
    — when the run completed cleanly; nothing is written after a
    degraded run, whose frozen streams cannot be resumed faithfully.

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
        if initial_check:
            # Replay the check the snapshot was taken at, WITHOUT moving
            # the schedule: the fill run already advanced next_check past
            # this round, and a cold run at the deeper k fails this very
            # check before draining on.
            answers = evaluate_stop()
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

    if snapshot_out is not None and not failures:
        # Everything is copied into plain built-in containers: the
        # snapshot must stay valid (and immutable in practice) after the
        # run's own bookkeeping is garbage-collected or mutated by a
        # later continuation.  ``states`` maps object id -> {list index
        # -> known grade} in first-seen order, which is exactly the
        # insertion order a resumed run's bookkeeping must reproduce —
        # whichever bounds state wrote it.
        snapshot_out.clear()
        snapshot_out.update(
            kind="nra",
            states=bounds.known_states(),
            bottoms=list(bottoms),
            positions=[cursor.position for cursor in cursors],
            exhausted=list(exhausted),
            depth=depth,
            rounds=rounds,
            next_check=next_check,
            batch_size=batch_size,
            stop_check_growth=stop_check_growth,
            exact_grades=exact_grades,
            tol=tol,
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
    kernel: Optional[str] = None,
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

    There is one loop; ``kernel`` (``None`` means the configured
    default, see :func:`repro.kernels.resolve_kernel`) decides three
    things inside it, none of which changes an answer, a charged access
    or a trace byte for a batch-exact rule:

    * **τ.**  ``"scalar"``, the reference, evaluates ``t(bottoms)`` once
      per round, and only when the stop test or a tracer reads it;
      ``"vector"`` folds a whole window's threshold trajectory in one
      ``combine_matrix`` call over the forward-filled bottoms matrix.
    * **Bare-columnar shortcuts** — ``"vector"`` only, and only when
      every source ``supports_columnar``: such backends cannot fail and
      serve random access from memory, so probe grades are read once per
      window through the free ``_grades_of_many`` path and charged,
      probe for probe and in the same order, by
      ``_record_random_probes``; with a batch-exact rule and no tracer
      the whole window is scored at once (``bulk_round``).  Anything
      wrapped keeps one ``random_access_many`` per list per round, so
      wrapper accounting and fault behaviour observe every probe.
    * **The bounds state** the NRA continuation receives on fall-back
      (:func:`repro.kernels.bounds_state`).

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
    kernel = resolve_kernel(kernel, sources, rule)
    vector = kernel == "vector"
    database_size = check_same_objects(sources)
    k = min(k, database_size)
    m = len(sources)
    meter = CostMeter(sources)

    cursors = [s.cursor() for s in sources]
    others = [[j for j in range(m) if j != i] for i in range(m)]
    #: the access failures this run outlives by handing over to NRA;
    #: anything else — everything, with ``degrade=False`` — propagates
    survivable = DEGRADABLE_ACCESS_ERRORS if degrade else ()
    columnar = (
        vector
        and m > 1
        and all(getattr(source, "supports_columnar", False) for source in sources)
    )
    bottoms = [1.0] * m
    #: overall grade of every object sorted access has delivered, in
    #: first-seen (row-major) order — TA's seen-set.  An object enters
    #: at first sight, before its probes, and gets its grade once they
    #: return, so at a probe failure the keys are exactly the seen
    #: objects in the order the NRA continuation must see them.
    overall: Dict[ObjectId, float] = {}
    # Min-heap of the k best overall grades seen so far, so the stopping
    # test is O(log k) per object instead of a re-sort per round.
    best_k: List[float] = []
    depth = 0
    stop = False
    stop_tau = 0.0
    #: sorted deliveries TA has used, (list index, ids, grades) per
    #: window slice — replayed into a bounds state if the run has to
    #: degrade to NRA.
    sorted_log: List[tuple] = []
    #: applied random-probe results, (list index, {id: grade}).
    probe_log: List[tuple] = []

    def bulk_round(windows, lengths, rows, tau, grades_lists):
        """One whole super-round without per-object Python: discover the
        window's fresh objects, score them in one ``combine_matrix``
        call, and replay TA's per-row heap/stop protocol over the
        precomputed grades.  Only objects first delivered at or before
        the stop row are committed, and the random-probe charge equals
        the per-row charge op for op, so cost accounting and answers
        are byte-identical to the row-at-a-time path.

        Taken only for bare columnar backends (reads are free to
        prefetch, accesses cannot fail) with a batch-exact rule and no
        tracer (per-access events would reintroduce the per-object
        loop).  Returns ``(consumed_rows, stopped)``.
        """
        nonlocal stop_tau
        window_fresh: List[tuple] = []
        fresh_by_row: List[List[int]] = [[] for _ in range(rows)]
        window_seen = set()
        for row in range(rows):
            for i in range(m):
                if row >= lengths[i]:
                    continue
                object_id = windows[i][0][row]
                if object_id in overall or object_id in window_seen:
                    continue
                window_seen.add(object_id)
                fresh_by_row[row].append(len(window_fresh))
                window_fresh.append((object_id, i))
        scores: List[float] = []
        if window_fresh:
            fresh_ids = [object_id for object_id, _ in window_fresh]
            matrix = _np.empty((len(fresh_ids), m))
            for j, source in enumerate(sources):
                fetched = source._grades_of_many(fresh_ids)
                matrix[:, j] = [fetched[object_id] for object_id in fresh_ids]
            scores = rule.combine_matrix(matrix).tolist()
        stop_row = None
        for row in range(rows):
            for index in fresh_by_row[row]:
                grade = scores[index]
                if len(best_k) < k:
                    heapq.heappush(best_k, grade)
                elif grade > best_k[0]:
                    heapq.heapreplace(best_k, grade)
            if len(best_k) >= k and theta * best_k[0] >= tau[row]:
                stop_row = row
                stop_tau = tau[row]
                break
        consumed = rows if stop_row is None else stop_row + 1
        probe_ids: List[List[ObjectId]] = [[] for _ in range(m)]
        for row in range(consumed):
            for index in fresh_by_row[row]:
                object_id, first = window_fresh[index]
                overall[object_id] = scores[index]
                for j in others[first]:
                    probe_ids[j].append(object_id)
        for j in range(m):
            # single charge point for the prefetched reads: charges the
            # probes the per-row path would perform and attributes them
            # to composite backends' physical shards
            sources[j]._record_random_probes(probe_ids[j])
        for i in range(m):
            rows_used = min(consumed, lengths[i])
            if rows_used:
                bottoms[i] = grades_lists[i][rows_used - 1]
        return consumed, stop_row is not None

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
        bounds = bounds_state(
            kernel, m, {object_id: {} for object_id in overall}
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
            windows = [cursor.peek_batch_columns(batch_size) for cursor in cursors]
            lengths = [len(window_ids) for window_ids, _ in windows]
            rows = max(lengths, default=0)
            if rows == 0:
                break  # no list can progress: exhausted
            grades_lists = [grades.tolist() for _, grades in windows]
            tau: List[float] = []
            if vector:
                # tau for every prospective row of this super-round in
                # one batched fold: forward-fill each list's grades over
                # rows it cannot serve (its bottom freezes), then
                # combine rows.
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
            if columnar and tracer is None and rule.batch_exact:
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
                        source._grades_of_many(candidates) for source in sources
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
                            sources[j]._record_random_probes(ids)
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
                        if len(best_k) < k:
                            heapq.heappush(best_k, grade)
                        elif grade > best_k[0]:
                            heapq.heapreplace(best_k, grade)
                full = len(best_k) >= k
                if vector:
                    tau_row = tau[row]
                elif full or tracer is not None:
                    # the reference: t(bottoms), once per round, and
                    # only when the stop test or the tracer reads it
                    tau_row = rule(bottoms)
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

    answers = GradedSet(
        top_k_from_arrays(
            list(overall),
            iter_str_keys(overall),
            _np.fromiter(overall.values(), _np.float64, len(overall)),
            k,
        )
    )
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
    kernel: Optional[str] = None,
    snapshot_out: Optional[Dict] = None,
) -> TopKResult:
    """Top k answers using sorted access only (NRA).

    A thin wrapper over :func:`_nra_run` with fresh cursors and empty
    state; see there for the batching/stop-schedule mechanics and the
    behaviour when sorted streams die mid-run.

    ``stop_check_growth`` controls the geometric stop-check schedule
    (see :func:`_nra_run`); ``theta`` the Fagin–Lotem–Naor
    θ-approximation knob (1.0 = exact; see :func:`_nra_run`); ``kernel``
    selects the dict-backed or columnar bounds state the loop runs over
    (``None`` = configured default, resolved by
    :func:`repro.kernels.resolve_kernel`).  ``snapshot_out`` captures a
    clean run's resumable state for the result cache's warm-start tier
    (see :func:`_nra_run`).
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
        bounds=bounds_state(resolve_kernel(kernel, sources, rule), m),
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
        snapshot_out=snapshot_out,
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
    kernel: Optional[str] = None,
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
    bound — goes through the bounds state ``kernel`` selects
    (:func:`repro.kernels.bounds_state`), with byte-identical decisions
    on either.
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
    bounds = bounds_state(resolve_kernel(kernel, sources, rule), m)
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
