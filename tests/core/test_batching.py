"""Batched sorted access: charging semantics and the latency trade-off."""

import pytest

from repro.core.batching import BatchedSource, LatencyModel, batched
from repro.core.fagin import fagin_top_k
from repro.core.sources import ArraySource, sources_from_columns
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent


def source_of(n=20, seed=0):
    table = independent(n, 1, seed=seed)
    return ArraySource({k: v[0] for k, v in table.items()}, name="L")


def test_batch_size_validated():
    with pytest.raises(ValueError):
        BatchedSource(source_of(), 0)


def test_reading_one_item_pays_for_the_whole_batch():
    batched_source = BatchedSource(source_of(20), 10)
    cursor = batched_source.cursor()
    cursor.next()
    assert batched_source.counter.sorted_accesses == 10
    assert batched_source.requests == 1
    assert batched_source.fetched == 10


def test_items_within_the_window_are_free():
    batched_source = BatchedSource(source_of(20), 10)
    cursor = batched_source.cursor()
    for _ in range(10):
        cursor.next()
    assert batched_source.counter.sorted_accesses == 10
    cursor.next()  # crosses into the second batch
    assert batched_source.counter.sorted_accesses == 20
    assert batched_source.requests == 2


def test_last_batch_is_truncated_at_database_size():
    batched_source = BatchedSource(source_of(13), 10)
    cursor = batched_source.cursor()
    for _ in range(13):
        assert cursor.next() is not None
    assert cursor.next() is None
    assert batched_source.fetched == 13
    assert batched_source.counter.sorted_accesses == 13
    assert batched_source.requests == 2


def test_window_is_shared_across_cursors():
    batched_source = BatchedSource(source_of(20), 10)
    first = batched_source.cursor()
    second = batched_source.cursor()
    first.next()
    second.next()  # inside the already-fetched window: free
    assert batched_source.counter.sorted_accesses == 10


def test_batch_size_one_is_the_plain_model():
    plain = source_of(20, seed=1)
    batched_source = BatchedSource(source_of(20, seed=1), 1)
    cursor_a = plain.cursor()
    cursor_b = batched_source.cursor()
    for _ in range(7):
        cursor_a.next()
        cursor_b.next()
    assert plain.counter.sorted_accesses == batched_source.counter.sorted_accesses


def test_random_access_passes_through():
    inner = source_of(10)
    batched_source = BatchedSource(inner, 5)
    object_id = next(iter(inner.as_graded_set().objects()))
    grade = batched_source.random_access(object_id)
    assert grade == inner.as_graded_set()[object_id]
    assert batched_source.counter.random_accesses == 1


def test_materialization_stays_accounting_free():
    batched_source = BatchedSource(source_of(10), 5)
    batched_source.as_graded_set()
    list(batched_source.object_ids())
    assert batched_source.counter.database_access_cost == 0
    assert batched_source.requests == 0


def test_fagin_is_correct_over_batched_sources():
    table = independent(1000, 2, seed=3)
    plain_result = fagin_top_k(sources_from_columns(table), tnorms.MIN, 10)
    batched_sources = batched(sources_from_columns(table), 50)
    result = fagin_top_k(batched_sources, tnorms.MIN, 10)
    assert result.answers.same_grade_multiset(plain_result.answers)
    # batching can only add overshoot, never reduce items fetched
    assert result.database_access_cost >= plain_result.database_access_cost


def test_latency_model_trade_off():
    """Large batches lose under the uniform measure but win when round
    trips dominate — the concrete version of the paper's cost-measure
    discussion."""
    table = independent(2000, 2, seed=4)
    per_item = {}
    per_latency = {}
    model = LatencyModel(request_charge=50.0, item_charge=1.0)
    for batch_size in (1, 100):
        sources = batched(sources_from_columns(table), batch_size)
        result = fagin_top_k(sources, tnorms.MIN, 10)
        per_item[batch_size] = result.database_access_cost
        per_latency[batch_size] = sum(model.cost_of(s) for s in sources)
    assert per_item[1] <= per_item[100]       # uniform measure: small batches
    assert per_latency[100] < per_latency[1]  # latency measure: big batches


def test_latency_model_prices_random_probes_as_round_trips():
    batched_source = BatchedSource(source_of(10), 5)
    object_id = next(iter(batched_source.as_graded_set().objects()))
    batched_source.random_access(object_id)
    model = LatencyModel(request_charge=10.0, item_charge=1.0)
    assert model.cost_of(batched_source) == pytest.approx(11.0)
