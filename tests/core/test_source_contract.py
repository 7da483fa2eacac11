"""The source contract, for every concrete source and every wrapper.

A source implements two charge-free array hooks, ``_columns_range`` and
``_grades_of_many``; the cursor and ``GradedSource`` derive every other
access from them, and delivery side effects live in ``_consume``.  This
matrix pins what that buys, on each backend (array, memmap, sharded
over array and over memmap, kNN, Boolean, promoted) and each
wrapper over an array and a sharded source:

* peeks and materialization charge nothing and move no wrapper state;
* a consuming read delivers exactly what the peek before it showed and
  charges exactly one sorted access per delivered item;
* ``advance`` (delivery by count, after a peek) moves exactly what the
  columnar read of the same rows moves;
* bulk random access is bit-equal to one probe at a time;
* ``_grades_of_many`` names the first missing id in request order;
* a consuming read past the end of the list still asks the repository
  once (one fault die), however the fault injector is wrapped.
"""

import random

import numpy as np
import pytest

from repro.core.batching import BatchedSource
from repro.core.sources import (
    ArraySource,
    SortedOnlySource,
    VerifyingSource,
    iter_wrapper_chain,
)
from repro.errors import DeadlineExceededError, UnknownObjectError, UnsupportedAccessError
from repro.index.source import KnnSource, build_knn_index
from repro.middleware.complex_objects import Containment, PromotedSource
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.idmap import IdMapping, MappedSource
from repro.middleware.relational import BooleanSource
from repro.middleware.resilience import DeadlineGuard, ResilientSource, VirtualClock
from repro.observability import QueryTracer
from repro.observability.tracer import TracingSource
from repro.storage import ShardedSource
from tests.storage.helpers import column_source

N = 40
IDS = [f"o{i}" for i in range(N)]
_rng = random.Random(17)
#: a small alphabet, so the sorted order is full of ties
COLUMN = {object_id: _rng.choice((0.0, 0.2, 0.5, 0.5, 0.8, 1.0)) for object_id in IDS}
#: fails never, but draws one random number per roll of the die
DICE = FaultProfile(latency_rate=0.5, latency=0.1, seed=3)


def knn_source():
    vectors = np.random.default_rng(5).random((N, 3))
    index = build_knn_index("vafile", IDS, vectors)
    return KnnSource(index, np.full(3, 0.4), name="knn")


def promoted_source():
    children = {f"c{i}": _rng.random() for i in range(2 * N)}
    containment = Containment({IDS[i]: (f"c{i}", f"c{2 * N - 1 - i}") for i in range(N)})
    return PromotedSource(ArraySource(children, name="kids"), containment, name="promoted")


CONCRETE = {
    "array": lambda tmp: ArraySource(COLUMN, name="col"),
    "memmap": lambda tmp: column_source(COLUMN, backend="memmap", directory=str(tmp / "mm")),
    "sharded-array": lambda tmp: column_source(COLUMN, shards=3),
    "sharded-memmap": lambda tmp: column_source(
        COLUMN, shards=3, backend="memmap", directory=str(tmp / "sh")
    ),
    "knn": lambda tmp: knn_source(),
    "boolean": lambda tmp: BooleanSource(
        {object_id: float(grade >= 0.5) for object_id, grade in COLUMN.items()}, name="bool"
    ),
    "promoted": lambda tmp: promoted_source(),
}

WRAPPERS = {
    "sorted-only": SortedOnlySource,
    "verifying": VerifyingSource,
    "batched": lambda inner: BatchedSource(inner, 1),
    "mapped": lambda inner: MappedSource(
        inner, IdMapping({f"g-{object_id}": object_id for object_id in IDS})
    ),
    "fault": lambda inner: FaultInjectingSource(inner, DICE, clock=VirtualClock()),
    "resilient": lambda inner: ResilientSource(inner, clock=VirtualClock()),
    "deadline": lambda inner: DeadlineGuard(inner, 1e9, clock=VirtualClock()),
    "tracing": lambda inner: TracingSource(inner, QueryTracer()),
}


def all_sources():
    for kind, make in CONCRETE.items():
        yield pytest.param(make, id=kind)
    for base in ("array", "sharded-array"):
        for name, wrap in WRAPPERS.items():
            yield pytest.param(
                lambda tmp, w=wrap, b=CONCRETE[base]: w(b(tmp)), id=f"{name}-over-{base}"
            )


def state(source):
    """Everything an access may move, along the whole wrapper chain."""
    snapshot = []
    for node in iter_wrapper_chain(source):
        entry = [type(node).__name__, node.counter.snapshot()]
        if isinstance(node, FaultInjectingSource):
            entry += [node.injected.as_dict(), node.served, node.random_served,
                      node._rng.getstate()]
        if isinstance(node, ResilientSource):
            entry += [node.stats.as_dict(), node.sorted_breaker.state,
                      node.random_breaker.state, node.sorted_breaker.opens,
                      node.random_breaker.opens]
        if isinstance(node, VerifyingSource):
            entry += [dict(node._delivered), node._max_position_grade]
        if isinstance(node, BatchedSource):
            entry += [node.requests, node.fetched]
        if isinstance(node, TracingSource):
            entry += [len(node.tracer.events)]
        if isinstance(node, ShardedSource):
            entry += [node.shard_stats()]
        snapshot.append(entry)
    return snapshot


@pytest.fixture(params=list(all_sources()))
def source(request, tmp_path):
    return request.param(tmp_path)


def test_free_reads_move_nothing(source):
    cursor = source.cursor()
    cursor.next_batch_columns(3)  # a cursor with history, not just a fresh one
    before = state(source)
    for n in (1, 5, N + 10):
        cursor.peek_batch_columns(n)
        cursor.peek_batch(n)
    cursor.peek_grade()
    assert not cursor.exhausted
    ids = list(source.object_ids())
    graded = source.as_graded_set()
    assert state(source) == before
    assert len(ids) == len(set(ids)) == len(source) == len(graded)


def test_consuming_reads_deliver_the_peeked_window_and_charge_it(source):
    cursor = source.cursor()
    delivered = []
    for n in (1, 7, 0, 13, 2, N):
        peeked_ids, peeked_grades = cursor.peek_batch_columns(n)
        sorted_before = source.counter.sorted_accesses
        ids, grades = cursor.next_batch_columns(n)
        assert ids == peeked_ids
        assert grades.dtype == np.float64
        assert grades.tobytes() == np.asarray(peeked_grades, dtype=np.float64).tobytes()
        assert source.counter.sorted_accesses - sorted_before == len(ids)
        delivered += zip(ids, grades.tolist())
    assert cursor.next() is None and cursor.exhausted
    assert [object_id for object_id, _ in delivered] == list(source.object_ids())
    assert dict(delivered) == source.as_graded_set().as_dict()
    # the boxed form of a second cursor is the same stream
    items = source.cursor().next_batch(N)
    assert [(item.object_id, item.grade) for item in items] == delivered


@pytest.mark.parametrize("make", list(all_sources()))
def test_advance_moves_what_a_columnar_read_moves(make, tmp_path):
    # twins: one reads its rows as ids, the other peeks and advances by
    # count; every wrapper's state, trace events included, stays equal
    (tmp_path / "ids").mkdir()
    (tmp_path / "count").mkdir()
    by_ids, by_count = make(tmp_path / "ids"), make(tmp_path / "count")
    ids_cursor, count_cursor = by_ids.cursor(), by_count.cursor()

    def traces(source):
        return [
            node.tracer.to_json()
            for node in iter_wrapper_chain(source)
            if isinstance(node, TracingSource)
        ]

    for n in (1, 7, 0, 13, 2, N, 5):
        ids, _ = ids_cursor.next_batch_columns(n)
        peeked, _ = count_cursor.peek_batch_columns(n)
        if n:
            assert count_cursor.advance(len(peeked)) == len(ids)
        assert count_cursor.position == ids_cursor.position
        assert state(by_count) == state(by_ids)
        assert traces(by_count) == traces(by_ids)


def test_bulk_random_access_is_bit_equal_to_single_probes(source):
    ids = list(source.object_ids())[::3]
    if not source.supports_random_access:
        with pytest.raises(UnsupportedAccessError):
            source.random_access_many(ids)
        with pytest.raises(UnsupportedAccessError):
            source.random_access(ids[0])
        return
    random_before = source.counter.random_accesses
    bulk = source.random_access_many(ids)
    single = {object_id: source.random_access(object_id) for object_id in ids}
    assert list(bulk) == ids
    assert np.array(list(bulk.values())).tobytes() == np.array(list(single.values())).tobytes()
    assert source.counter.random_accesses - random_before == 2 * len(ids)


@pytest.mark.parametrize("kind", list(CONCRETE))
def test_missing_ids_are_named_in_request_order(kind, tmp_path):
    # "y3" routes to the shard that holds "o0"; "x0" is asked for first
    source = CONCRETE[kind](tmp_path)
    assert source._grades_of_many([]).shape == (0,)
    with pytest.raises(UnknownObjectError, match="'x0'"):
        source._grades_of_many(["o0", "x0", "y3"])
    with pytest.raises(UnknownObjectError, match="'x0'"):
        source.random_access_many(["o0", "x0", "y3"])
    assert source.counter.random_accesses == 0


@pytest.mark.parametrize(
    "outer",
    [
        pytest.param(lambda inner: inner, id="bare"),
        *(pytest.param(wrap, id=name) for name, wrap in WRAPPERS.items() if name != "fault"),
    ],
)
@pytest.mark.parametrize("base", ["array", "sharded-array"])
def test_reading_past_the_end_rolls_one_fault_die(outer, base, tmp_path):
    fault = FaultInjectingSource(CONCRETE[base](tmp_path), DICE, clock=VirtualClock())
    source = outer(fault)
    cursor = source.cursor()
    assert len(cursor.next_batch_columns(N + 5)[0]) == N
    for read in (lambda: cursor.next_batch_columns(5), cursor.next):
        expected = random.Random()
        expected.setstate(fault._rng.getstate())
        expected.random()
        counters = state(source)
        read()
        assert fault._rng.getstate() == expected.getstate()
        assert cursor.position == N
        assert [entry[1] for entry in state(source)] == [entry[1] for entry in counters]


def test_a_refused_delivery_charges_nothing_and_stays_put():
    inner = ArraySource(COLUMN, name="col")
    source = DeadlineGuard(inner, -1.0, clock=VirtualClock())
    cursor = source.cursor()
    assert len(cursor.peek_batch_columns(4)[0]) == 4
    with pytest.raises(DeadlineExceededError):
        cursor.next_batch_columns(4)
    assert cursor.position == 0
    assert inner.counter.snapshot() == (0, 0)
