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
must leave no grade it did not deliver in the bounds: the tests rebuild
the bounds from the trace — what was actually delivered and probed —
and hold the run's partial-bounds report and certificate to them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sources import WrapperSource, sources_from_columns
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.errors import TransientAccessError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import VirtualClock
from repro.observability import QueryTracer
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
    for source in sources:  # the records are exactly the charged deliveries
        records = [
            event["position"]
            for event in tracer.events
            if event["type"] == "sorted" and event["source"] == source.name
        ]
        assert records == list(range(1, source.counter.sorted_accesses + 1))
    truth = {object_id: rule(row) for object_id, row in table.items()}
    for object_id, (lower, upper) in expected.items():
        assert lower <= truth[object_id] <= upper


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
        certificate = result.approximation
        assert certificate.anytime
        truth = {object_id: tnorms.MIN(row) for object_id, row in table.items()}
        excluded = max(
            grade for object_id, grade in truth.items() if object_id not in result.answers
        )
        if certificate.achieved != float("inf"):
            for item in result.answers:
                assert certificate.achieved * truth[item.object_id] >= excluded - 1e-12


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
