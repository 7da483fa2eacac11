"""TracingSource: records exactly the charged accesses, nothing else."""

from repro.core.sources import ArraySource
from repro.observability import QueryTracer, TracingSource, traced, validate_trace

TABLE = {"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.2}


def make(tracer=None):
    tracer = tracer if tracer is not None else QueryTracer()
    return TracingSource(ArraySource(TABLE, name="L"), tracer), tracer


def test_identity_is_transparent():
    source, _ = make()
    inner = source._inner
    assert source.name == inner.name == "L"
    # the counter is *shared*, not copied: cost reports see one tally
    assert source.counter is inner.counter
    assert len(source) == len(TABLE)
    assert source.random_access_available()


def test_sorted_accesses_record_position_and_grade():
    source, tracer = make()
    cursor = source.cursor()
    first = cursor.next()
    second = cursor.next()
    events = [e for e in tracer.events if e["type"] == "sorted"]
    assert [(e["object"], e["grade"], e["position"]) for e in events] == [
        (first.object_id, first.grade, 1),
        (second.object_id, second.grade, 2),
    ]
    assert source.counter.sorted_accesses == 2
    validate_trace(tracer.as_dict())


def test_bulk_sorted_access_records_every_item():
    source, tracer = make()
    items = source.cursor().next_batch(3)
    events = [e for e in tracer.events if e["type"] == "sorted"]
    assert [e["object"] for e in events] == [item.object_id for item in items]
    assert [e["position"] for e in events] == [1, 2, 3]
    assert source.counter.sorted_accesses == 3


def test_peeks_are_side_effect_free():
    """Peeks are never charged, so the wrapper must not record them.

    Regression guard for the audit that tracing wrappers, like
    VerifyingSource, stay invisible to the paper's cost measure.
    """
    source, tracer = make()
    cursor = source.cursor()
    window = cursor.peek_batch(4)
    assert len(window) == 4
    assert cursor.peek_grade() == 0.9
    assert tracer.events == []
    assert source.counter.sorted_accesses == 0
    assert source.counter.random_accesses == 0
    # peeking did not advance the cursor either
    assert cursor.next().object_id == window[0].object_id


def test_random_accesses_record_single_and_bulk():
    source, tracer = make()
    grade = source.random_access("c")
    grades = source.random_access_many(["a", "d"])
    events = [e for e in tracer.events if e["type"] == "random"]
    assert [(e["object"], e["grade"]) for e in events] == [
        ("c", grade),
        ("a", grades["a"]),
        ("d", grades["d"]),
    ]
    assert source.counter.random_accesses == 3


def test_access_counts_mirror_shared_counter():
    source, tracer = make()
    source.cursor().next_batch(2)
    source.random_access("a")
    assert tracer.access_counts() == {"L": (2, 1)}
    assert source.counter.sorted_accesses == 2
    assert source.counter.random_accesses == 1


def test_traced_helper_shares_one_tracer():
    tracer = QueryTracer()
    wrapped = traced(
        [ArraySource(TABLE, name="L"), ArraySource(TABLE, name="M")], tracer
    )
    for source in wrapped:
        assert isinstance(source, TracingSource)
        source.cursor().next()
    assert tracer.access_counts() == {"L": (1, 0), "M": (1, 0)}
