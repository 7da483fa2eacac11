"""NRA stops at Fagin–Lotem–Naor's earliest depth, and peeks leak nothing.

FLN prove NRA instance-optimal when it stops after the first round at
which the k-th best lower bound covers every rival's upper bound (and,
for exact grades, the answers' bounds have converged).  The oracle
below rebuilds the bounds from scratch at every prefix depth with a
plain per-object fold and finds that round; ``nra_top_k`` must stop at
exactly it, with exactly its answers, and make no random access —
whatever the first window (``batch_size``), on tie-dense lists with
±0.0 and the smallest denormal, for k past N, and for θ > 1, where the
stop test can pass at one round and fail at the next.

NRA peeks each window for free and consumes only the rounds it uses.
A sorted stream that dies at consume in the middle of a peeked window
must leave no grade it did not deliver in the bounds — in NRA's own
windows, in CA's (which keep every grade their resolutions probed) and
in the state TA hands over: the tests rebuild the bounds
from the trace — what was actually delivered and probed — and hold the
run's partial-bounds report and certificate to them.  TA hands over its
own state, over the index it read by, also when a stream dies at the
consume of the round TA stops at.

A kill-after sweep runs all four algorithms with one list killed after
every possible number of served accesses, serially and on two workers:
the trace records only charged deliveries, the sorted depth is the
deepest cursor, a dead list is named, and both executions agree byte
for byte.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import threshold
from repro.core.fagin import fagin_top_k
from repro.core.sources import WrapperSource, sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import TransientAccessError
from repro.kernels import ObjectCodes
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import VirtualClock
from repro.observability import QueryTracer
from repro.parallel import ParallelAccessExecutor
from repro.scoring import means, tnorms
from repro.workloads.graded_lists import independent

DENORMAL = 5e-324
BELOW_ONE = 1.0 - 2.0**-53
GRADES = (0.0, -0.0, DENORMAL, 0.25, 0.5, 0.75, BELOW_ONE, 1.0)
IDS = (1, "1", 2, "2", "a", "a\x00", "b", 10, "10", "c", "d", "e")
RULES = {"min": tnorms.MIN, "mean": means.MEAN, "product": tnorms.PRODUCT}


def sorted_columns(sources):
    """Every list's full sorted order, read for free."""
    return [source.cursor().peek_batch_columns(len(source)) for source in sources]


def state_at(columns, depth):
    """``{object: {list: grade}}`` after ``depth`` rounds (first-seen,
    i.e. round then list, order) and the list bottoms: the last grade
    each list delivered, 0 once it has run out, 1 before it delivers."""
    n = len(columns[0][0])
    known = {}
    for row in range(min(depth, n)):
        for i, (ids, grades) in enumerate(columns):
            known.setdefault(ids[row], {})[i] = float(grades[row])
    bottoms = [
        float(grades[depth - 1]) if depth <= n else 0.0 for _, grades in columns
    ]
    return known, bottoms


def earliest_stop(columns, rule, k, theta=1.0, exact_grades=True, tol=1e-12):
    """``(depth, answers)`` of the first round whose state passes NRA's
    stop test; the round after the last row finds every list empty and
    ends the run whatever the test says."""
    n, m = len(columns[0][0]), len(columns)
    k = min(k, n)
    for depth in range(1, n + 2):
        known, bottoms = state_at(columns, depth)
        lower = {o: rule([g.get(i, 0.0) for i in range(m)]) for o, g in known.items()}
        upper = {o: rule([g.get(i, bottoms[i]) for i in range(m)]) for o, g in known.items()}
        # stable: first-seen order breaks ties of the whole key
        ranked = sorted(known, key=lambda o: (-lower[o], str(o)))
        top, rest = ranked[:k], ranked[k:]
        answers = [(o, lower[o]) for o in top]
        if depth > n:
            return n, answers
        if len(known) < k:
            continue
        unseen = rule(bottoms) if len(known) < n else 0.0
        rivals = max(unseen, max((upper[o] for o in rest), default=0.0))
        gap = max((upper[o] - lower[o] for o in top), default=0.0)
        if theta * answers[k - 1][1] + tol < rivals:
            continue
        if exact_grades and theta == 1.0 and not gap <= tol:
            continue
        return depth, answers


@st.composite
def instances(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, unique=True))
    grade = st.sampled_from(GRADES)
    if draw(st.booleans()):
        grade = st.sampled_from(draw(st.lists(grade, min_size=1, max_size=2)))
    table = {object_id: [draw(grade) for _ in range(m)] for object_id in ids}
    k = draw(st.integers(min_value=1, max_value=len(ids) + 2))
    return (
        table,
        draw(st.sampled_from(sorted(RULES))),
        k,
        draw(st.sampled_from((1.0, 1.3))),
        draw(st.booleans()),
        draw(st.sampled_from((1, 3, 128))),
    )


#: θ = 1.3, k = 1, mean: the test passes after round 2 and fails after
#: round 3 (B's completed grade overtakes A, whose upper bound is still
#: 0.9), so a search that only bisects from a window's end misses it.
NOT_MONOTONE = {
    "A": [1.0, 0.1], "X": [0.5, 0.05], "B": [0.4, 0.8], "Y": [0.3, 0.8], "Z": [0.2, 0.8],
}


@settings(deadline=None, max_examples=300)
@given(instances())
@example((NOT_MONOTONE, "mean", 1, 1.3, True, 1))
@example((NOT_MONOTONE, "mean", 1, 1.3, True, 3))
@example(({1: [0.5, -0.0], "1": [0.5, 0.0]}, "min", 1, 1.0, True, 1))
@example(({"a": [DENORMAL], "b": [0.0], "c": [DENORMAL]}, "min", 5, 1.0, True, 3))
def test_nra_stops_at_the_earliest_depth(instance):
    table, rule_name, k, theta, exact_grades, batch_size = instance
    rule = RULES[rule_name]
    sources = sources_from_columns(table)
    depth, answers = earliest_stop(sorted_columns(sources), rule, k, theta, exact_grades)
    result = nra_top_k(
        sources, rule, k, theta=theta, exact_grades=exact_grades, batch_size=batch_size
    )
    assert result.sorted_depth == depth
    assert [(item.object_id, item.grade) for item in result.answers] == answers
    assert result.cost.random_access_cost == 0
    for source in sources:
        assert source.counter.sorted_accesses == depth


@pytest.mark.parametrize("rule_name", ("min", "mean"))
@pytest.mark.parametrize("batch_size", (1, 5, 128))
def test_traced_nra_samples_failing_window_ends_then_the_stop(rule_name, batch_size):
    """Samples fall at each window end whose test fails, then at the stop
    round, in depth order; the sorted records are the consumed rows."""
    rule = RULES[rule_name]
    sources = sources_from_columns(independent(400, 2, seed=4))
    columns = sorted_columns(sources)
    depth, answers = earliest_stop(columns, rule, 5)
    tracer = QueryTracer()
    result = nra_top_k(sources, rule, 5, batch_size=batch_size, tracer=tracer)
    assert result.sorted_depth == depth < len(columns[0][0])
    ends, end, window = [], batch_size, batch_size
    while end < depth:
        ends.append(end)
        window *= 2
        end += window
    expected = [
        float(len(state_at(columns, at)[0]))
        for at in ends + [depth]
        if len(state_at(columns, at)[0]) >= 5
    ]
    assert [value for _, value in tracer.samples("nra.buffer_objects")] == expected
    assert tracer.samples("nra.kth_lower")[-1][1] == answers[-1][1]
    for source, (ids, grades) in zip(sources, columns):
        records = [
            (event["object"], event["grade"], event["position"])
            for event in tracer.events
            if event["type"] == "sorted" and event["source"] == source.name
        ]
        assert records == [
            (ids[row], float(grades[row]), row + 1) for row in range(depth)
        ]


# ---------------------------------------------------------------------------
# A stream that dies at consume, in the middle of a peeked window.


class SortedStreamDies(WrapperSource):
    """Sorted access refuses any delivery reaching past ``limit`` rows;
    peeks and random access keep working."""

    def __init__(self, inner, limit):
        super().__init__(inner)
        self._limit = limit

    def _consume(self, start, count):
        if start + count > self._limit:
            raise TransientAccessError(f"{self.name}: sorted stream is gone")
        self._inner._consume(start, count)


def learned_from(tracer, sources):
    """What the run actually learned, from its trace: every delivered or
    probed grade, and each list's bottom — its last delivered grade (1.0
    before any), or 0 once it has delivered every row."""
    names = [source.name for source in sources]
    known, bottoms = {}, {name: 1.0 for name in names}
    for event in tracer.events:
        if event["type"] in ("sorted", "random"):
            column = names.index(event["source"])
            known.setdefault(event["object"], {})[column] = event["grade"]
            if event["type"] == "sorted":
                bottoms[event["source"]] = event["grade"]
    for source in sources:
        if source.counter.sorted_accesses == len(source):
            bottoms[source.name] = 0.0
    return known, [bottoms[name] for name in names]


def assert_records_are_the_charged_deliveries(tracer, sources):
    """Each source's sorted records in the trace are exactly the sorted
    accesses it was charged: positions 1, 2, ... in order."""
    __tracebackhide__ = True
    for source in sources:
        records = [
            event["position"]
            for event in tracer.events
            if event["type"] == "sorted" and event["source"] == source.name
        ]
        assert records == list(range(1, source.counter.sorted_accesses + 1)), source.name


def assert_bounds_come_from_deliveries(result, sources, tracer, rule, table):
    __tracebackhide__ = True
    known, bottoms = learned_from(tracer, sources)
    m = len(sources)
    expected = {
        object_id: (
            rule([known[object_id].get(i, 0.0) for i in range(m)]),
            rule([known[object_id].get(i, bottoms[i]) for i in range(m)]),
        )
        for object_id in result.answers.objects()
    }
    assert result.degraded.bounds == expected
    if result.approximation is not None:
        assert result.approximation.intervals == expected
    assert_records_are_the_charged_deliveries(tracer, sources)
    truth = {object_id: rule(row) for object_id, row in table.items()}
    for object_id, (lower, upper) in expected.items():
        assert lower <= truth[object_id] <= upper
    certificate = result.approximation
    if certificate is not None and certificate.anytime and certificate.achieved != float("inf"):
        excluded = max(
            (grade for object_id, grade in truth.items() if object_id not in result.answers),
            default=0.0,
        )
        for item in result.answers:
            assert certificate.achieved * truth[item.object_id] >= excluded - 1e-12


@pytest.mark.parametrize("limits", ((13, None, None), (13, 30, 45)), ids=("one", "all"))
def test_fresh_nra_keeps_only_what_a_dying_stream_delivered(limits):
    """List 0 dies consuming a window that starts at row 8 and would end
    past row 13, having delivered 8 rows; with every list dying, the run
    ends on partial bounds with an anytime certificate."""
    table = independent(200, 3, seed=7)
    sources = sources_from_columns(table)
    sources = [
        source if limit is None else SortedStreamDies(source, limit)
        for source, limit in zip(sources, limits)
    ]
    tracer = QueryTracer()
    result = nra_top_k(sources, tnorms.MIN, 60, batch_size=8, tracer=tracer)
    assert sources[0].counter.sorted_accesses == 8
    assert "A1" in result.degraded.failed_sources
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)
    if limits[1] is not None:
        assert result.degraded.fallback == "partial-bounds"
        assert result.approximation.anytime


def test_ta_continuation_keeps_only_what_a_dying_stream_delivered():
    """TA loses random access on list 2 after 5 probes and hands over to
    NRA; the continuation's windows then kill list 0 mid-window."""
    table = independent(200, 3, seed=9)
    sources = sources_from_columns(table)
    sources[0] = SortedStreamDies(sources[0], 21)
    sources[2] = FaultInjectingSource(
        sources[2], FaultProfile(break_random_after=5), clock=VirtualClock()
    )
    tracer = QueryTracer()
    result = threshold_top_k(sources, tnorms.MIN, 30, batch_size=4, tracer=tracer)
    assert result.algorithm == "threshold-ta+nra"
    assert sorted(result.degraded.failed_sources) == ["A1", "faulty(A3)"]
    delivered = sources[0].counter.sorted_accesses
    assert delivered <= 21 < sources[1].counter.sorted_accesses
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)


@pytest.mark.parametrize("batch_size", (3, 128))
def test_ta_hand_off_keeps_only_what_a_dying_stream_delivered(batch_size):
    """TA's own consume kills list 1 before it ships a row, and list 2
    loses random access after 5 probes: the grades of list 1's peeked
    rows never reach NRA (an object seen only there keeps just its
    probed grades), list 1's bottom stays 1.0, and the trace takes back
    its sorted records."""
    table = independent(200, 3, seed=11)
    sources = sources_from_columns(table)
    sources[1] = SortedStreamDies(sources[1], 1)
    sources[2] = FaultInjectingSource(
        sources[2], FaultProfile(break_random_after=5), clock=VirtualClock()
    )
    tracer = QueryTracer()
    result = threshold_top_k(sources, tnorms.MIN, 5, batch_size=batch_size, tracer=tracer)
    assert result.algorithm == "threshold-ta+nra"
    assert sorted(result.degraded.failed_sources) == ["A2", "faulty(A3)"]
    assert sources[1].counter.sorted_accesses == 0
    assert result.degraded.fallback == "partial-bounds"
    assert result.approximation.anytime
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)


@pytest.mark.parametrize(
    "table, breaks_after",
    (
        (independent(200, 3, seed=11), 5),
        # row 0 shows "a" in both lists and a's probe in list 1 fails:
        # its grade there is known from that delivery alone
        ({"a": [0.9, 0.8], "b": [0.5, 0.1], "c": [0.1, 0.7]}, 0),
    ),
    ids=("independent", "delivered-not-probed"),
)
def test_ta_hands_nra_its_own_state_over_the_index_it_read_by(monkeypatch, table, breaks_after):
    """Over a wrapped set TA reads by a per-run index.  When the last
    list's random access breaks, the continuation's bounds are TA's own
    state, over that same index — the hand-off builds no second
    ``ObjectCodes`` — and the state holds exactly the grades the trace
    shows delivered or probed, in first-seen order."""
    sources = [WrapperSource(source) for source in sources_from_columns(table)]
    sources[-1] = FaultInjectingSource(
        sources[-1], FaultProfile(break_random_after=breaks_after), clock=VirtualClock()
    )
    built, handed = [], []
    build = ObjectCodes.__init__

    def counted(codes, *args):
        built.append(codes)
        build(codes, *args)

    monkeypatch.setattr(ObjectCodes, "__init__", counted)
    continue_as_nra = threshold._nra_run

    def hand_over(*args, bounds, **kwargs):
        codes, grades = bounds.table()
        state = {
            object_id: {column: grade for column, grade in enumerate(row) if grade == grade}
            for object_id, row in zip(bounds.codes.decode(codes), grades.tolist())
        }
        handed.append((bounds, state, learned_from(tracer, sources)[0]))
        return continue_as_nra(*args, bounds=bounds, **kwargs)

    monkeypatch.setattr(threshold, "_nra_run", hand_over)
    tracer = QueryTracer()
    result = threshold_top_k(sources, tnorms.MIN, 2, batch_size=4, tracer=tracer)
    assert result.algorithm == "threshold-ta+nra"
    assert list(result.degraded.failed_sources) == [sources[-1].name]
    (index,) = built  # the per-run index TA read by
    ((bounds, state, seen),) = handed
    assert bounds.codes is index
    assert len(index) == len(set(index.ids))
    assert state == seen and list(state) == list(seen)
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)


def test_ta_hands_over_a_stream_that_dies_at_the_stop_round():
    """List 0 dies at the consume of the round TA stops at.  It delivered
    nothing, so TA hands over to NRA as for a death in any other round:
    the dead list is named, charged no sorted access, and its sorted
    records leave the trace, and the answer's bounds are what the lists
    delivered and probed."""
    table = independent(200, 3, seed=11)
    sources = sources_from_columns(table)
    sources[0] = SortedStreamDies(sources[0], 0)
    tracer = QueryTracer()
    result = threshold_top_k(sources, tnorms.MIN, 5, tracer=tracer)
    named = [event.get("name") for event in tracer.events]
    assert "stop" in named and named.index("stop") < named.index("degraded")
    assert result.algorithm == "threshold-ta+nra"
    assert sources[0].name in result.degraded.failed_sources
    assert sources[0].counter.sorted_accesses == 0
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)


@pytest.mark.parametrize("limits", ((13, None, None), (13, 30, 45)), ids=("one", "all"))
def test_ca_keeps_its_resolutions_when_a_stream_dies_mid_window(limits):
    """CA (h = 3) resolves after rounds 3, 6, 9 and 12 of its first
    window; list 0 then dies consuming rounds 13 to 15.  The window is
    cut back to what each list delivered, and the grades the
    resolutions probed stay learned."""
    table = independent(200, 3, seed=7)
    sources = sources_from_columns(table)
    sources = [
        source if limit is None else SortedStreamDies(source, limit)
        for source, limit in zip(sources, limits)
    ]
    tracer = QueryTracer()
    result = combined_top_k(sources, tnorms.MIN, 60, ratio=3, tracer=tracer)
    assert sources[0].counter.sorted_accesses == 12
    assert "A1" in result.degraded.failed_sources
    probed = {event["object"] for event in tracer.events if event["type"] == "random"}
    assert probed & set(result.answers.objects())
    assert_bounds_come_from_deliveries(result, sources, tracer, tnorms.MIN, table)


# ---------------------------------------------------------------------------
# Every kill point, for every algorithm, serial and on two workers.

SWEPT = {
    "ta": lambda sources, **run: threshold_top_k(sources, tnorms.MIN, 5, **run),
    "nra": lambda sources, **run: nra_top_k(sources, tnorms.MIN, 5, **run),
    "ca": lambda sources, **run: combined_top_k(sources, tnorms.MIN, 5, ratio=3, **run),
    "a0": lambda sources, **run: fagin_top_k(sources, tnorms.MIN, 5, **run),
}


def kill_after_sweep(algorithm, executor=None):
    """Run ``algorithm`` with the last of three lists killed after n
    served accesses, for n = 0, 1, ... until the kill no longer fires,
    checking each run; returns, per n, the run's answers (or error),
    cost and trace JSON.

    The killed list is the last one, so no probe follows its failure
    in list order and a parallel fan-out charges nothing a serial one
    skips."""
    table = independent(200, 3, seed=3)
    runs, fired = [], True
    while fired:
        sources = sources_from_columns(table)
        sources[-1] = dying = FaultInjectingSource(
            sources[-1], FaultProfile(kill_after=len(runs)), clock=VirtualClock()
        )
        tracer = QueryTracer()
        try:
            outcome = SWEPT[algorithm](sources, tracer=tracer, executor=executor)
        except TransientAccessError as error:
            outcome = error
        fired = dying.injected.dead_refusals > 0
        assert_records_are_the_charged_deliveries(tracer, sources)
        if isinstance(outcome, Exception):
            assert fired
            if algorithm == "a0":  # A0's sorted phase propagates the failure
                assert all(source.counter.random_accesses == 0 for source in sources)
            else:  # so does a CA resolution's probe, tagged with its list
                assert algorithm == "ca" and outcome.source_name == dying.name
            answered = str(outcome)
        else:
            assert outcome.sorted_depth == max(s.counter.sorted_accesses for s in sources)
            assert (outcome.degraded is not None) == fired
            if fired:
                assert dying.name in outcome.degraded.failed_sources
            answered = [(item.object_id, item.grade) for item in outcome.answers]
        costs = [source.counter.snapshot() for source in sources]
        runs.append((answered, costs, tracer.to_json()))
    return runs


@pytest.mark.parametrize("algorithm", sorted(SWEPT))
def test_kill_after_sweep(algorithm):
    assert len(kill_after_sweep(algorithm)) > 1


@pytest.mark.parametrize("algorithm", sorted(SWEPT))
def test_kill_after_sweep_on_two_workers_matches_serial(algorithm):
    with ParallelAccessExecutor(2) as executor:
        parallel = kill_after_sweep(algorithm, executor)
    assert parallel == kill_after_sweep(algorithm)
