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
  paper's cost-measure discussion anticipates): NRA's loop and stop
  rule, plus a resolution policy — once every ``h = ⌊ratio⌋`` rounds,
  random accesses complete the incomplete object with the highest upper
  bound.

All require a *monotone* scoring function, like A0.

**Graceful degradation.**  NRA was defined for repositories where random
access is *unavailable* — which in a production middleware is not a
static property but a runtime one: a subsystem's random access can die
mid-query (its circuit breaker opens, see
:mod:`repro.middleware.resilience`).  The NRA core here is therefore a
resumable continuation, :func:`_nra_run`, that can start from *any*
accumulated bounds state (a :class:`~repro.kernels.CodedBounds`); TA
keeps its seen set in that state as it goes, and when a random probe
fails degradably it hands the state itself, with its
:class:`SortedFrontier` (cursors, bottoms, dead lists), to the NRA
continuation instead of aborting.  If sorted
streams later die too, the continuation returns a best-effort partial
answer carrying NRA lower/upper grade bounds and a structured
:class:`~repro.core.result.DegradedResult` report.
"""

from __future__ import annotations

import bisect
import heapq
import math
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from repro.core.cost import CostMeter
from repro.core.graded import GradedSet
from repro.core.result import (
    ApproximationCertificate,
    DegradedResult,
    TopKResult,
)
from repro.core.sources import (
    DEFAULT_BATCH_SIZE,
    GradedSource,
    _boxed,
    check_same_objects,
    shared_object_codes,
)
from repro.kernels import CodedBounds, _np
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


class SortedFrontier:
    """The sorted-access state A0, TA, NRA and CA share: each list's
    cursor, its bottom — the last grade it delivered, 1.0 before any, a
    sound upper bound for every grade it has not shown — and the lists
    whose sorted stream died, with their reasons.

    A cursor moves only on a charged delivery, so the sorted depth is
    the largest cursor position.  What a list that ran out reads as is
    each algorithm's own: TA's τ keeps its last delivered grade, NRA's
    bounds read 0.
    """

    __slots__ = ("cursors", "bottoms", "dead")

    def __init__(self, sources: Sequence[GradedSource]) -> None:
        self.cursors = [source.cursor() for source in sources]
        self.bottoms = [1.0] * len(sources)
        self.dead: Dict[int, str] = {}

    @property
    def depth(self) -> int:
        return max(cursor.position for cursor in self.cursors)

    def advance(self, grades, takes: Dict[int, int], executor, survivable) -> Dict[int, Exception]:
        """Deliver ``takes[i]`` rows of each list ``i`` in ``takes`` (in
        list order; 0 is the empty read at the end of a list) with one
        ``SortedCursor.advance`` each, fanned out on ``executor``.
        ``grades[i]`` holds list ``i``'s peeked grades from its cursor
        on; a list's bottom moves to the last of them it delivered, and
        only once it has delivered.

        A failure in ``survivable`` kills its list, which delivered
        nothing: it joins ``dead`` and is returned as ``{list: error}``.
        Any other failure propagates, the first in list order.
        """
        outcomes = fan_out(
            executor, [(lambda c=self.cursors[i], n=n: c.advance(n)) for i, n in takes.items()]
        )
        died: Dict[int, Exception] = {}
        for (i, n), outcome in zip(takes.items(), outcomes):
            error = outcome.error
            if error is None:
                if n:
                    self.bottoms[i] = float(grades[i][n - 1])
            elif isinstance(error, survivable):
                died[i] = error
                self.dead[i] = str(error)
            else:
                raise error
        return died


def _probes(executor, sources: Sequence[GradedSource], requests):
    """Charged random probes, one ``(list, thunk)`` request per list in
    list order, fanned out on ``executor``.  Yields ``(list, value)`` in
    list order; the first failure raises, tagged with its list's name as
    ``source_name``, and the probes after it are discarded."""
    outcomes = fan_out(executor, [thunk for _, thunk in requests], stop_on_error=True)
    for (i, _), outcome in zip(requests, outcomes):
        if outcome.error is not None:
            outcome.error.source_name = sources[i].name
            raise outcome.error
        yield i, outcome.value


def _nra_run(
    sources: Sequence[GradedSource],
    rule: ScoringFunction,
    k: int,
    *,
    frontier: Optional[SortedFrontier] = None,
    bounds: Optional[CodedBounds] = None,
    meter: Optional[CostMeter] = None,
    exact_grades: bool = True,
    tol: float = 1e-12,
    theta: float = 1.0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    algorithm: str = "nra",
    prior_failures: Optional[Dict[str, str]] = None,
    tracer=None,
    phase_name: str = "nra",
    executor=None,
    resolve_every: Optional[int] = None,
) -> TopKResult:
    """The NRA main loop, resumable from arbitrary accumulated state.

    :func:`nra_top_k` and :func:`combined_top_k` start it fresh (no
    ``frontier``: a new frontier and meter, and an empty state over the
    lists' shared object codes); the degradation paths of TA and A0 call
    it mid-query with the two objects that hold what they learned, the
    ``bounds`` and the ``frontier`` (its cursors keep their positions,
    so sorted work is never re-paid; its dead lists are read no more).

    ``bounds`` is the seen set, a :class:`~repro.kernels.CodedBounds`
    over the object codes the lists are read by: every bound it reports
    is exactly the per-object ``rule(...)`` fold, ranked under the
    ``(-grade, str(id))`` answer order.

    **Stopping depth.**  NRA stops after the first round at which the
    k-th best lower bound covers the upper bound of every other object,
    seen or not, and — for exact grades — the answers' own bounds have
    converged; Fagin, Lotem and Naor prove NRA instance-optimal for
    exactly that rule, and this loop stops there, not after it.  Each
    super-round peeks a window of every list for free, by object code
    (``_codes_range``), and records it in ``bounds`` with each cell
    tagged by its round, so the state after any round of the window is
    a row prefix under one mask.  The window starts at ``batch_size``
    rows and doubles after every super-round that does not stop.  The
    stop rule is tested at the window's end; only when it holds there is
    the window searched for its first stopping round.  For θ = 1 with
    exact grades the rule, once true, stays true as rounds are added
    (lower bounds only rise, upper bounds only fall, and every object
    entering the answer has converged bounds), so the search is a
    bisection.  Otherwise an object can leave the answer while its
    upper bound is still high, and the rule can fail again; there the
    search bisects a necessary condition that is monotone — the k-th
    best lower bound covers the unseen bound and the (k+1)-th best upper
    bound — and tests the rounds after it in order.  Every probe runs
    that partition check first, and ranks the answer canonically only
    when the k-th lower bound is tied past k.  Exactly the rounds used
    are then consumed, with one ``advance`` per list, so
    charges and faults land at consume, and the answers, costs and depth
    are those of a test after every round.

    A sorted stream that fails with one of
    :data:`DEGRADABLE_ACCESS_ERRORS` is marked dead: the rows it did not
    deliver leave the state, its bottom freezes at the last grade it
    delivered (still a sound upper bound for its unseen grades), the
    stop rule is tested on what the surviving lists delivered, and the
    loop continues on them.  When no list can progress and the stop
    test still fails, the best-effort top k by *lower* bound is returned
    with ``grades_exact=False`` and a ``partial-bounds``
    :class:`~repro.core.result.DegradedResult`.

    **Resolutions (CA).**  With ``resolve_every`` = h the loop is
    Fagin–Lotem–Naor's CA: after every h-th round r it resolves the
    object that is incomplete after round r and has the highest upper
    bound (the first-seen one on ties), with one charged
    ``random_access`` per missing list in list order, and learns those
    grades at round r.  A window is walked one resolution round at a
    time: the rounds before r are searched for the first stopping round
    as above; if none stops, the lists are consumed through r, the
    resolution is made, and the stop rule is tested at r.  A resolution
    is therefore made only once the run reaches its round, from
    delivered rows alone, and a failing probe propagates.

    Under a ``tracer`` the consumed rows are recorded as sorted
    accesses, and ``nra.kth_lower``, ``nra.rivals_upper`` and
    ``nra.buffer_objects`` are sampled at every window end that fails
    the stop test and at the round that passes it, in depth order; the
    search's probes record nothing.

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
    database_size = check_same_objects(sources)
    k = min(k, database_size)
    m = len(sources)
    if frontier is None:  # a fresh run
        frontier, meter = SortedFrontier(sources), CostMeter(sources)
    if bounds is None:
        bounds = CodedBounds(shared_object_codes(sources), m)
    cursors, bottoms = frontier.cursors, frontier.bottoms
    #: the lists read no more: dead, or run out (bottom 0)
    exhausted = [i in frontier.dead for i in range(m)]
    answers: Optional[GradedSet] = None
    #: the answer's view and the bounds it was read from
    answered = None
    converged = True
    partial = False
    stop_kth = 0.0
    stop_bound = 0.0
    #: the stop test, once passed, passes at every later round
    monotone = theta == 1.0 and exact_grades
    rounds = 0  # rounds consumed by this run
    base = 0  # rounds consumed before the peeked window
    #: the peeked window's grades, by list index
    peeked: Dict[int, object] = {}
    #: the k-th best lower bound after the rounds the search has tested
    kth_at: Dict[int, float] = {}
    tested: List[int] = []  # those rounds, in order
    window = batch_size

    def bottoms_after(t: int) -> List[float]:
        """The list bottoms after round ``t`` of the peeked window."""
        at = list(bottoms)
        for i, grades in peeked.items():
            row = t - base  # a list whose window ran short has run out
            at[i] = float(grades[row - 1]) if row <= len(grades) else 0.0
        return at

    def unseen_bound(at: List[float], lower) -> float:
        """The best grade an object no list has delivered could have."""
        return rule(at) if lower.size < database_size else 0.0

    def bounds_after(t: int):
        """``(lower, upper, unseen)``: every seen object's bounds after
        round ``t``, and the unseen objects' bound."""
        at = bottoms_after(t)
        lower = bounds.lower_bounds(rule, t)
        return lower, bounds.upper_bounds(rule, at, t), unseen_bound(at, lower)

    def may_stop(t: int):
        """``(lower, upper, unseen, kth)`` after round ``t`` if the k-th
        best lower bound ``kth`` covers the unseen bound and the (k+1)-th
        best upper bound, which some rival of the answer holds — the half
        of the stop test that needs no ranking; None if not.  The k-th
        best lower bound never falls as rounds are added, so the best one
        known at an earlier round leaves only the rows above it to select
        from; the upper bounds are folded only once it covers the unseen
        bound."""
        lower = bounds.lower_bounds(rule, t)
        if lower.size < k:
            return None
        at = bottoms_after(t)
        unseen = unseen_bound(at, lower)
        before = bisect.bisect_right(tested, t)
        floor = kth_at[tested[before - 1]] if before else 0.0
        above = lower[lower > floor]
        kth = _np.partition(above, above.size - k)[above.size - k] if above.size >= k else floor
        if t not in kth_at:
            tested.insert(before, t)
        kth_at[t] = kth
        bar = theta * kth + tol
        if unseen > bar:
            return None
        upper = bounds.upper_bounds(rule, at, t)
        if _np.count_nonzero(upper > bar) > k:
            return None
        return lower, upper, unseen, kth

    def stop_test(state):
        """``(view, rivals_upper, passes)``: the canonical top k of a
        ``(lower, upper, unseen)`` state, and the stop test's verdict on
        it (seen objects >= k)."""
        lower, upper, unseen = state
        view = bounds.stop_view(lower, upper, k)
        rivals_upper = max(unseen, view.rival_upper)
        passes = theta * view.kth_lower + tol >= rivals_upper and (
            view.gap <= tol or not monotone
        )
        return view, rivals_upper, passes

    def stops(t: int) -> bool:
        """Whether the stop test passes after round ``t``.  Unless the
        k-th best lower bound is tied past k, the answer is the rows at
        or above it, and the test is decided without ranking them."""
        state = may_stop(t)
        if state is None:
            return False
        lower, upper, _, kth = state
        top = lower >= kth
        if _np.count_nonzero(top) > k:
            return stop_test(state[:3])[2]
        if (upper[~top] > theta * kth + tol).any():
            return False
        return not monotone or bool((upper[top] - lower[top] <= tol).all())

    def first_stop(start: int, end: int) -> Optional[int]:
        """The first round in ``(start, end]`` that passes the stop test,
        or None."""
        low, high = start, end
        if high <= low:
            return None
        if monotone:
            if not stops(end):
                return None
            while high - low > 1:
                middle = (low + high) // 2
                if stops(middle):
                    high = middle
                else:
                    low = middle
            return high
        if may_stop(end) is None:
            return None
        while high - low > 1:
            middle = (low + high) // 2
            if may_stop(middle) is None:
                low = middle
            else:
                high = middle
        return next((t for t in range(high, end + 1) if stops(t)), None)

    def consume(take: int):
        """Consume ``take`` rows of every live list, or what is left of
        its peeked window, counting them in ``got``; returns the rows
        delivered (the most any list shipped) and the lists that died.
        A dead list's bottom freezes at its last delivered grade, a
        sound upper bound for everything it never delivered."""
        takes = {i: min(take, len(windows[i][0]) - got[i]) for i in range(m) if not exhausted[i]}
        died = frontier.advance(
            {i: windows[i][1][got[i]:] for i in takes}, takes, executor, DEGRADABLE_ACCESS_ERRORS
        )
        delivered = 0
        for i, count in takes.items():
            if i in died:
                exhausted[i] = True
                if tracer is not None:
                    tracer.event(
                        "sorted-stream-failed", source=sources[i].name, reason=str(died[i])
                    )
                continue
            if count:
                if tracer is not None:
                    position = cursors[i].position - count
                    tracer.record_sorted_batch(
                        sources[i].name,
                        _boxed(*sources[i]._columns_range(position, count)),
                        position,
                    )
                delivered = max(delivered, count)
                got[i] += count
            if count < take:  # the list has run out
                exhausted[i] = True
                bottoms[i] = 0.0
        return delivered, died

    def resolve(r: int) -> List[tuple]:
        """CA's resolution after round ``r``; returns the cells it
        learned, as ``(column, codes, grades, round)``."""
        best = bounds.best_incomplete(rule, bottoms_after(r), r)
        if best is None:
            return []
        coded, missing = best
        (object_id,) = bounds.codes.decode(coded)
        learned = []
        for j, grade in _probes(
            executor, sources, [(j, lambda s=sources[j]: s.random_access(object_id)) for j in missing]
        ):
            cells = (j, coded, [grade], r)
            bounds.learn(*cells)
            learned.append(cells)
            if tracer is not None:
                tracer.record_random(sources[j].name, object_id, grade)
        return learned

    def sample(view, rivals_upper) -> None:
        if tracer is not None:
            tracer.sample("nra.kth_lower", view.kth_lower)
            tracer.sample("nra.rivals_upper", rivals_upper)
            tracer.sample("nra.buffer_objects", float(bounds.count))

    def answer(view, lower, upper) -> None:
        nonlocal answers, answered
        answers = GradedSet(zip(view.ids, view.lowers))
        answered = view, lower, upper

    def test_now() -> None:
        """Test the stop rule on the consumed state: stop, or sample the
        failure."""
        nonlocal converged, stop_kth, stop_bound
        state = bounds_after(rounds)
        if state[0].size >= k:
            view, rivals_upper, passes = stop_test(state)
            sample(view, rivals_upper)
            if passes:
                answer(view, *state[:2])
                converged = view.gap <= tol
                stop_kth = view.kth_lower
                stop_bound = rivals_upper

    with nullcontext() if tracer is None else tracer.phase(phase_name):
        while answers is None:
            base = rounds
            got = [0] * m  # the rows each list delivered in this window
            windows: List = [None] * m
            for i in range(m):
                if not exhausted[i]:
                    windows[i] = sources[i]._codes_range(
                        bounds.codes, cursors[i].position, window
                    )
                    peeked[i] = windows[i][1]
            rows = max((len(w[0]) for w in windows if w is not None), default=0)
            if rows == 0:
                # No list has a row left: the reads that find them empty
                # mark them exhausted (bottom 0), then a last stop test.
                peeked.clear()
                consume(1)
                rounds += 1
                test_now()
                if answers is not None:
                    break
                # Nothing can progress.  Without failures every grade is
                # known (the lists were fully drained), so the lower bounds
                # are the true grades; with dead streams this is the
                # best-effort ranking by lower bound.
                lower, upper, unseen = bounds_after(rounds)
                view = bounds.stop_view(lower, upper, k)
                answer(view, lower, upper)
                stop_kth = view.kth_lower
                if frontier.dead:
                    partial = True
                    converged = False
                    stop_bound = max(unseen, view.rival_upper)
                else:
                    converged = True
                    stop_bound = stop_kth
                break
            bounds.read(windows, base)
            end, resolved, died, found = base + rows, [], [], None
            # one stretch per resolution round r in the window, then its end
            while rounds < end:
                r, resolving = end, False
                if resolve_every is not None:
                    r = min(end, (rounds // resolve_every + 1) * resolve_every)
                    resolving = r % resolve_every == 0
                found = first_stop(rounds, r - 1 if resolving else r)
                take = (found or r) - rounds
                delivered, died = consume(take)
                rounds += delivered
                if found or died or delivered < take or not resolving:
                    break
                resolved += resolve(r)
                if stops(r):
                    found = r
                    break
            peeked.clear()  # ``bottoms`` now holds what the lists delivered
            if died:
                # Only what the lists delivered stays: the window again,
                # cut to each list's deliveries, and the resolutions.
                bounds.keep(base)
                bounds.read(
                    [None if w is None else (w[0][: got[i]], w[1][: got[i]]) for i, w in enumerate(windows)],
                    base,
                )
                for cells in resolved:
                    bounds.learn(*cells)
                kth_at.clear()  # the state lost cells it was tested with
                tested.clear()
            elif rounds < end:
                bounds.keep(rounds)
            # the stop found, a test of what a dying stream left, or a
            # failing window end's samples
            if rounds > base and (found or died or tracer is not None):
                test_now()
            window *= 2

    failures: Dict[str, str] = dict(prior_failures or {})
    for i, reason in frontier.dead.items():
        failures[sources[i].name] = reason
    intervals: Dict = {}
    if failures or partial or theta > 1.0:
        view, lower, upper = answered
        intervals = dict(
            zip(view.ids, zip(lower[view.rows].tolist(), upper[view.rows].tolist()))
        )
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
        sorted_depth=frontier.depth,
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
    upcoming items per list (free), replays TA's one-item-per-list
    rounds over the windows in memory, and then consumes exactly the
    rounds processed with one ``advance`` per list.  The
    stopping rule is still evaluated between rounds, so the access
    counts are identical to item-at-a-time TA for every ``batch_size``
    (1 reproduces the per-item pattern exactly).

    There is one loop, ``bulk_round``: integer array operations over
    object codes (a set of ArraySources shares one ``ObjectCodes``
    index, memmap and sharded memmap lists partitioned alike share the
    codes their storage wrote, any other set codes its ids per run).  τ
    for every row of a window comes from one ``combine_matrix`` call
    over the forward-filled bottoms matrix (bit-identical to
    ``t(bottoms)`` per round; a rule without a native batch form is
    therefore evaluated on up to one window of rows past the stop row).
    What differs is only the probe policy, chosen from
    ``supports_columnar``.  When every source is a bare columnar backend
    (reads are free, accesses cannot fail), probe grades are gathered by
    code for the whole window, the stop row is found from them, and the
    probes up to it are charged, probe for probe, as
    ``random_access_many`` would charge them; the window starts at
    ``batch_size`` rows and doubles after every super-round that does
    not stop, so a stop at depth d takes about ``log2(d / batch_size) +
    1`` super-rounds and peeks fewer than ``2d + batch_size`` rows per
    list.  Any other set (wrappers, promoted or sharded-over-wrapped
    lists) probes each row's fresh objects with one charged
    ``random_access_many`` per list and tests the stop after every row,
    over fixed windows of ``batch_size`` rows, so wrapper accounting and
    fault behaviour observe every probe, and every consume is at most
    ``batch_size`` rows.

    The seen set is one :class:`~repro.kernels.CodedBounds` over the
    lists' object codes, as for A0, NRA and CA: each round's fresh
    objects come from its ``fresh`` scan, and the objects first sighted
    at or before the stop row become rows, in first-seen order, holding
    the grades TA used.  The answer is the state's ``ranked`` top k.
    When ``degrade`` is True (the default) and a random probe fails
    with one of :data:`DEGRADABLE_ACCESS_ERRORS` — e.g. the source's
    random-access circuit breaker opened — the execution does not
    abort: it consumes the sorted rows it already used, learns what the
    lists delivered, and hands two objects, the state and its
    :class:`SortedFrontier`, to an NRA run, still returning correct
    top-k answers from sorted access alone.  A sorted stream that dies
    during a consume, the stop round's included, delivers nothing: the
    grades its window gave the objects it sighted first leave the state,
    its bottom stays at the last grade it delivered, its sorted records
    are withdrawn from the trace, and it is handed over dead, frozen in
    place, the same way.  With ``degrade=False`` the error propagates
    (the E20 ablation).

    Under a ``tracer``, accesses are emitted at *logical* time, in one
    order — each row's sorted deliveries as TA's round processes them
    (even though the underlying cursor consumes them in bulk
    afterwards), then the row's random probes — and the threshold
    trajectory is sampled as ``ta.tau`` / ``ta.kth_grade`` once per
    round, with the value the stop test uses.  The tracer only records:
    a traced run executes exactly as an untraced one.

    ``executor`` is an optional
    :class:`~repro.parallel.ParallelAccessExecutor`: each row's charged
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

    frontier = SortedFrontier(sources)
    cursors, bottoms = frontier.cursors, frontier.bottoms
    #: the access failures this run outlives by handing over to NRA;
    #: anything else — everything, with ``degrade=False`` — propagates
    survivable = DEGRADABLE_ACCESS_ERRORS if degrade else ()
    #: the probe policy: gather for free, or probe each row charged
    columnar = all(source.supports_columnar for source in sources)
    #: the seen set: rows in first-seen (row-major) order holding the
    #: grades TA used, NaN where a probe failure left one unknown; sized
    #: for eight first windows' sightings, so a stop within the first
    #: four (doubling) windows grows it at most once
    bounds = CodedBounds(
        shared_object_codes(sources), m, capacity=min(8 * batch_size * m, database_size)
    )
    object_codes = bounds.codes
    #: the newest rows' first row, and the list that sighted each first
    #: (set by every round's commit)
    newest = (0, None)
    #: the window's sorted records per list, withdrawn if it dies
    recorded: List[List[dict]] = []
    # Min-heap of the k best overall grades seen so far, so the stopping
    # test is O(log k) per object instead of a re-sort per round.
    best_k: List[float] = []
    stop = False
    stop_tau = 0.0

    def admit(heap: List[float], grades: List[float]) -> None:
        """Admit ``grades`` to ``heap`` in order, keeping the k best."""
        push, replace = heapq.heappush, heapq.heapreplace
        for grade in grades:
            if len(heap) < k:
                push(heap, grade)
            elif grade > heap[0]:
                replace(heap, grade)

    def bulk_round(windows, lengths, rows, tau):
        """One whole super-round as integer array operations over object
        codes.  The state's ``fresh`` scan gives the objects without a
        row in row-major first-seen order; each one's grade in the list
        that delivered it first comes from the window.

        Its other grades come from the probe policy.  A columnar set
        gathers them by code for the whole window, and one
        ``combine_matrix`` scores them.  Row r stops iff at least k
        grades x among the kept k best and those graded through r have
        ``θ·x ≥ τ[r]``: that is ``θ·kth ≥ τ[r]`` exactly, since IEEE
        ``θ·x`` is monotone.  While τ never rises down the window a grade
        counts from the first row that has graded it and where τ has
        fallen to it, so the stop row is the k-th smallest of those rows
        (a non-monotone rule scans the rows).  Any other set probes row
        by row, with one charged ``random_access_many`` per list in list
        order, scores the row's objects with ``rule(...)`` (bit-identical
        to ``combine_matrix``) and tests the stop after it.  Either way
        only objects first delivered at or before the stop row are
        committed and charged, probe for probe, so costs and answers are
        identical, and only they become rows of the state.

        Under a tracer the consumed rows' events are emitted row by row,
        in one order, at logical access time.  Returns ``(consumed_rows,
        stopped, error)``: ``error`` is None, or the error a charged
        probe failed with survivably, tagged with its list's
        ``source_name``; the cut-short round's seen objects then become
        rows with the grades learned so far (NaN for the rest).
        """
        nonlocal stop_tau, recorded
        fresh, where = bounds.fresh(windows)
        fresh_row, first_list = _np.divmod(where, m)
        through = _np.searchsorted(fresh_row, _np.arange(rows), side="right")
        grades, scores = _np.full((fresh.size, m), _np.nan), _np.full(fresh.size, _np.nan)
        stop_row = rows
        if columnar:
            if fresh.size:
                for j, source in enumerate(sources):
                    grades[:, j] = source._grades_of_codes(object_codes, fresh)
                scores = rule.combine_matrix(grades)
            kept, reach = theta * _np.asarray(best_k), theta * scores
            if (tau[1:] > tau[:-1]).any():  # a non-monotone rule: scan

                def stops(row: int) -> bool:
                    bar = tau[row]
                    return (kept >= bar).sum() + (reach[: through[row]] >= bar).sum() >= k

                stop_row = next((r for r in range(rows) if stops(r)), rows)
            else:  # a grade counts from its row on, once τ has fallen to it
                starts = _np.concatenate((
                    _np.searchsorted(-tau, -kept),
                    _np.maximum(fresh_row, _np.searchsorted(-tau, -reach)),
                ))
                stop_row = int(_np.partition(starts, k - 1)[k - 1]) if starts.size >= k else rows
        else:  # each object's grade in its first list is the window's
            for i, (_, window_grades) in enumerate(windows):
                firsts = first_list == i
                grades[firsts, i] = window_grades[fresh_row[firsts]]
        consumed = min(stop_row + 1, rows)
        if tracer is not None or not columnar:  # row by row
            ids = object_codes.decode(fresh[: through[consumed - 1]])
            firsts, ends = first_list.tolist(), through.tolist()
            if tracer is not None:
                recorded = [[] for _ in range(m)]
                window_ids = [object_codes.decode(codes[:consumed]) for codes, _ in windows]
                grades_lists = [window_grades.tolist() for _, window_grades in windows]
            heap = list(best_k)  # the k best grades as the rows commit
            for row in range(consumed):
                if tracer is not None:
                    for i in range(m):
                        if row < lengths[i]:
                            recorded[i].append(tracer.record_sorted(
                                sources[i].name,
                                window_ids[i][row],
                                grades_lists[i][row],
                                position=cursors[i].position + row + 1,
                            ))
                start, end = ends[row - 1] if row else 0, ends[row]
                targets = [(j, [f for f in range(start, end) if firsts[f] != j]) for j in range(m)]
                targets = [(j, needed) for j, needed in targets if needed]
                # Charged, the row's random probes are one bulk request
                # per list, merged (and traced) in list order; the first
                # failure in list order hands over.
                probed = ((j, None) for j, _ in targets) if columnar else _probes(
                    executor,
                    sources,
                    [
                        (j, lambda s=sources[j], n=[ids[f] for f in needed]: s.random_access_many(n))
                        for j, needed in targets
                    ],
                )
                try:
                    for (j, needed), (_, values) in zip(targets, probed):
                        if values is not None:
                            for f in needed:
                                grades[f, j] = values[ids[f]]
                        if tracer is not None:
                            for f in needed:
                                tracer.record_random(sources[j].name, ids[f], grades[f, j])
                except survivable as error:
                    commit(fresh, grades, first_list, end)
                    return row + 1, False, error
                if not columnar:
                    for f in range(start, end):
                        scores[f] = rule(grades[f].tolist())
                admit(heap, scores[start:end].tolist())
                stopped = len(heap) >= k and theta * heap[0] >= tau[row]
                if tracer is not None:  # the value the stop test used
                    tracer.sample("ta.tau", float(tau[row]))
                    if len(heap) >= k:
                        tracer.sample("ta.kth_grade", heap[0])
                    if stopped:
                        relaxed = {"theta": theta} if theta > 1.0 else {}
                        tracer.event("stop", tau=float(tau[row]), kth=heap[0], **relaxed)
                if stopped:
                    stop_row, consumed = row, row + 1
                    break
        count = through[consumed - 1]
        committed, committed_scores = fresh[:count], scores[:count]
        commit(fresh, grades, first_list, count)
        if len(best_k) >= k:  # the rest cannot enter the heap
            committed_scores = committed_scores[committed_scores > best_k[0]]
        admit(best_k, committed_scores.tolist())
        if columnar:  # charge the gathered probes the stop row used
            for j, source in enumerate(sources):
                others = first_list[:count] != j  # all but the first list
                source._record_random_probes(object_codes, committed[others])
        stop_tau = float(tau[consumed - 1])
        return consumed, stop_row < rows, None

    def commit(fresh, grades, first_list, count: int) -> None:
        """Add the first ``count`` fresh objects as rows holding their
        ``grades``, the ones TA used."""
        nonlocal newest
        newest = (bounds.count, first_list[:count])
        bounds.add(fresh[:count], 0, grades[:count])

    def fall_back(error, windows, takes: Dict[int, int]) -> TopKResult:
        """Hand the state and the frontier to NRA and continue as an NRA
        run.

        The state holds what the last ``windows`` showed TA through the
        rows it used, ``takes[i]`` of list ``i``.  After a failed probe
        (``error``, tagged with its list's ``source_name``) those rows
        are not consumed yet and are consumed first.  A list that dies
        shipping them, like one that died in the main loop's consume,
        delivered none of them: its sorted records of the window leave
        the trace, the grades its window gave the objects it sighted
        first leave the state, and the frontier hands it over dead,
        frozen in place.  What the other lists delivered is learned (a
        list grades an object alike under sorted and random access),
        every cell counts as handed over at round 0, and the surviving
        lists carry the query.
        """
        failures = {} if error is None else {error.source_name: str(error)}
        if tracer is not None:
            tracer.event(
                "degraded",
                algorithm="threshold-ta",
                fallback="nra",
                failures={
                    **failures,
                    **{sources[i].name: reason for i, reason in frontier.dead.items()},
                },
            )
        if error is not None:
            frontier.advance([grades for _, grades in windows], takes, executor, survivable)
        dead = frontier.dead
        if dead and tracer is not None:
            tracer.retract([event for i in dead for event in recorded[i]])
        start, firsts = newest
        for i, (codes, grades) in enumerate(windows):
            if i in dead:
                bounds.table()[1][start + _np.flatnonzero(firsts == i), i] = _np.nan
            else:
                used = takes.get(i, 0)
                bounds.learn(i, codes[:used], grades[:used], 0)
        bounds.hand_over()
        return _nra_run(
            sources,
            rule,
            k,
            frontier=frontier,
            bounds=bounds,
            meter=meter,
            theta=theta,
            batch_size=batch_size,
            algorithm="threshold-ta+nra",
            prior_failures=failures,
            tracer=tracer,
            phase_name="nra-fallback",
            executor=executor,
        )

    window = batch_size  # doubled after every columnar round
    with nullcontext() if tracer is None else tracer.phase("ta"):
        while not stop:
            windows = [
                source._codes_range(object_codes, cursor.position, window)
                for source, cursor in zip(sources, cursors)
            ]
            lengths = [len(codes) for codes, _ in windows]
            rows = max(lengths, default=0)
            if rows == 0:
                break  # no list can progress: exhausted
            # tau for every prospective row of this super-round in one
            # batched fold: forward-fill each list's grades over rows it
            # cannot serve (its bottom freezes), then combine rows.
            bottoms_matrix = _np.empty((rows, m))
            for i, (_, window_grades) in enumerate(windows):
                length = lengths[i]
                if length:
                    bottoms_matrix[:length, i] = window_grades
                    bottoms_matrix[length:, i] = window_grades[length - 1]
                else:
                    bottoms_matrix[:, i] = bottoms[i]
            tau = rule.combine_matrix(bottoms_matrix)
            consumed, stop, error = bulk_round(windows, lengths, rows, tau)
            takes = {i: min(consumed, n) for i, n in enumerate(lengths) if n}
            if error is not None or frontier.advance(
                [grades for _, grades in windows], takes, executor, survivable
            ):
                # a probe failed, or a sorted stream died: its cursor is
                # stuck, so the next peek would replay the same rows
                return fall_back(error, windows, takes)
            if columnar:
                window *= 2

    _, ids, grades = bounds.ranked(rule, k)
    answers = GradedSet(zip(ids, grades))
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
        sorted_depth=frontier.depth,
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
    batch_size: int = DEFAULT_BATCH_SIZE,
    tracer=None,
    executor=None,
) -> TopKResult:
    """Top k answers using sorted access only (NRA).

    A thin wrapper over :func:`_nra_run` with fresh cursors and an empty
    state; see there for the
    windows, the stopping depth — Fagin–Lotem–Naor's earliest, found
    inside each peeked window — and the behaviour when sorted streams
    die mid-run.  ``batch_size`` is the first window; ``theta`` the
    Fagin–Lotem–Naor θ-approximation knob (1.0 = exact; see
    :func:`_nra_run`).
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
    return _nra_run(
        sources,
        rule,
        k,
        exact_grades=exact_grades,
        tol=tol,
        theta=theta,
        batch_size=batch_size,
        tracer=tracer,
        executor=executor,
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

    CA is NRA plus that resolution policy: it runs :func:`_nra_run`'s
    windowed loop and stops after the first round that passes NRA's
    exact stop rule with no tolerance (the k-th best lower bound covers
    every rival's upper bound, and the answers' bounds have met), so its
    answers and grades are exact; see there for the windows and how a
    resolution fits into them.  ``ratio`` must be a finite number >= 1.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 1.0 <= ratio < math.inf:
        raise ValueError(f"ratio must be a finite number >= 1, got {ratio}")
    rule = as_scoring_function(scoring)
    if require_monotone:
        _require_monotone(rule, "CA")
    return _nra_run(
        sources,
        rule,
        k,
        tol=0.0,
        resolve_every=int(ratio),
        algorithm="combined-ca",
        tracer=tracer,
        phase_name="ca",
        executor=executor,
    )
