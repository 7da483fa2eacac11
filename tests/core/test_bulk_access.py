"""The bulk-access protocol: equivalence, backends, and wrapper purity.

The refactor's contract is that bulk draining is an *optimization, not a
semantics change*: for every algorithm and every batch size, the answers
AND the access counts must be identical to item-at-a-time execution —
including through the full wrapper stack (verified over batched over
mapped over sorted-only), where a lazy default implementation would
silently degrade bulk reads to per-item calls or, worse, change what a
wrapper charges or records.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batching import BatchedSource
from repro.core.fagin import fagin_top_k
from repro.core.naive import grade_everything
from repro.core.sources import (
    ArraySource,
    ListSource,
    SortedOnlySource,
    VerifyingSource,
    sources_from_columns,
)
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.errors import AccessError, GradeError, UnknownObjectError
from repro.middleware.idmap import IdMapping, MappedSource
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: a small grade alphabet forces heavy ties, the hard case for ordering
tied_grades = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def tables(m, values=grades, min_objects=1, max_objects=40):
    return st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.tuples(*([values] * m)),
        min_size=min_objects,
        max_size=max_objects,
    )


def build_stack(table, *, wrapper_batch=5, sorted_only=False):
    """verified ∘ batched ∘ mapped (∘ sorted-only) over a ListSource.

    Each column speaks subsystem-local ids internally; the algorithms
    see global ids via the mapping, exactly the Garlic situation.
    """
    m = len(next(iter(table.values())))
    stack = []
    for i in range(m):
        column = {oid: vector[i] for oid, vector in table.items()}
        inner = ListSource(
            {f"local-{oid}": grade for oid, grade in column.items()},
            name=f"L{i}",
        )
        if sorted_only:
            inner = SortedOnlySource(inner)
        mapped = MappedSource(
            inner, IdMapping({oid: f"local-{oid}" for oid in column})
        )
        stack.append(VerifyingSource(BatchedSource(mapped, wrapper_batch)))
    return stack


def counter_snapshots(stack):
    """Every distinct counter in every wrapper chain, innermost included."""
    snapshots = []
    for source in stack:
        seen = set()
        node = source
        while node is not None:
            if id(node.counter) not in seen:
                seen.add(id(node.counter))
                snapshots.append(node.counter.snapshot())
            node = getattr(node, "_inner", None)
    return snapshots


# ----------------------------------------------------------------------
# Property: bulk == item-at-a-time, through the full wrapper stack
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algorithm", [fagin_top_k, threshold_top_k], ids=["fagin", "ta"]
)
@given(
    table=tables(2),
    k=st.integers(min_value=1, max_value=10),
    batch=st.integers(min_value=2, max_value=17),
    wrapper_batch=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_bulk_matches_item_at_a_time_through_stack(
    algorithm, table, k, batch, wrapper_batch
):
    per_item = algorithm(
        build_stack(table, wrapper_batch=wrapper_batch),
        tnorms.MIN,
        k,
        batch_size=1,
    )
    bulk_stack = build_stack(table, wrapper_batch=wrapper_batch)
    bulk = algorithm(bulk_stack, tnorms.MIN, k, batch_size=batch)
    assert bulk.answers.same_grade_multiset(per_item.answers)
    assert bulk.sorted_depth == per_item.sorted_depth
    assert bulk.cost.sorted_access_cost == per_item.cost.sorted_access_cost
    assert bulk.cost.random_access_cost == per_item.cost.random_access_cost
    # Re-run the per-item order on a fresh stack so counters of *every*
    # layer (logical and repository-side) can be compared positionally.
    reference_stack = build_stack(table, wrapper_batch=wrapper_batch)
    algorithm(reference_stack, tnorms.MIN, k, batch_size=1)
    assert counter_snapshots(bulk_stack) == counter_snapshots(reference_stack)
    # And the answer is still the right answer.
    expected = grade_everything(sources_from_columns(table), tnorms.MIN).top(k)
    assert bulk.answers.same_grade_multiset(expected)


@given(
    table=tables(2),
    k=st.integers(min_value=1, max_value=10),
    batch=st.integers(min_value=2, max_value=17),
    wrapper_batch=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_nra_bulk_matches_item_at_a_time_sorted_only(
    table, k, batch, wrapper_batch
):
    per_item_stack = build_stack(
        table, wrapper_batch=wrapper_batch, sorted_only=True
    )
    per_item = nra_top_k(per_item_stack, tnorms.MIN, k, batch_size=1)
    bulk_stack = build_stack(
        table, wrapper_batch=wrapper_batch, sorted_only=True
    )
    bulk = nra_top_k(bulk_stack, tnorms.MIN, k, batch_size=batch)
    assert bulk.answers.same_grade_multiset(per_item.answers)
    assert bulk.cost.sorted_access_cost == per_item.cost.sorted_access_cost
    assert bulk.cost.random_access_cost == 0
    assert counter_snapshots(bulk_stack) == counter_snapshots(per_item_stack)
    expected = grade_everything(sources_from_columns(table), tnorms.MIN).top(k)
    assert bulk.answers.same_grade_multiset(expected)


@pytest.mark.parametrize("backend", ["list", "array"])
def test_batch_size_never_changes_cost_on_plain_sources(backend):
    table = independent(400, 3, seed=7)
    baseline = None
    for batch_size in (1, 3, 64, 4096):
        sources = sources_from_columns(table, backend=backend)
        result = threshold_top_k(sources, tnorms.MIN, 10, batch_size=batch_size)
        key = (
            sorted(item.grade for item in result.answers),
            result.cost.sorted_access_cost,
            result.cost.random_access_cost,
            result.sorted_depth,
        )
        if baseline is None:
            baseline = key
        assert key == baseline, f"batch_size={batch_size} diverged"


# ----------------------------------------------------------------------
# ArraySource: a drop-in ListSource replacement, object-for-object
# ----------------------------------------------------------------------
#: ids whose ``str`` collide (``1`` and ``"1"``) tie on the whole
#: ``(grade, str(id))`` key, so only input order is left to break them
colliding_ids = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30).map(str),
    st.integers(min_value=0, max_value=10_000),
)


@given(column=st.dictionaries(colliding_ids, tied_grades, min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_array_source_order_matches_list_source(column):
    from_list = ListSource(column).cursor().next_batch(len(column) + 1)
    expected = [(i.object_id, i.grade) for i in from_list]
    bulk = ArraySource.from_arrays(list(column), list(column.values()))
    for source in (ArraySource(column), bulk):
        from_array = source.cursor().next_batch(len(column) + 1)
        assert [(i.object_id, i.grade) for i in from_array] == expected
        assert source.as_graded_set().as_dict() == column


@given(table=tables(3))
@settings(max_examples=20, deadline=None)
def test_backends_agree_on_ta_answers_and_costs(table):
    as_list = threshold_top_k(
        sources_from_columns(table, backend="list"), tnorms.MIN, 5
    )
    as_array = threshold_top_k(
        sources_from_columns(table, backend="array"), tnorms.MIN, 5
    )
    assert as_array.answers.same_grade_multiset(as_list.answers)
    assert as_array.cost.sorted_access_cost == as_list.cost.sorted_access_cost
    assert as_array.cost.random_access_cost == as_list.cost.random_access_cost


def test_array_source_accounting():
    source = ArraySource({"a": 0.9, "b": 0.6, "c": 0.3})
    cursor = source.cursor()
    assert [i.object_id for i in cursor.next_batch(2)] == ["a", "b"]
    assert source.counter.sorted_accesses == 2
    grades_out = source.random_access_many(["a", "c"])
    assert grades_out == {"a": 0.9, "c": 0.3}
    assert source.counter.random_accesses == 2
    # Over-asking at the end delivers the remainder and charges only it.
    assert len(cursor.next_batch(10)) == 1
    assert source.counter.sorted_accesses == 3
    assert cursor.next_batch(10) == []
    assert source.counter.sorted_accesses == 3


def test_array_source_rejects_bad_grades():
    with pytest.raises(GradeError):
        ArraySource({"a": 1.5})
    with pytest.raises(GradeError):
        ArraySource({"a": float("nan")})
    with pytest.raises(GradeError):
        ArraySource({"a": "not a number"})


def test_array_source_from_arrays():
    source = ArraySource.from_arrays(["x", "y"], [0.2, 0.8], name="col")
    assert [i.object_id for i in source.cursor().next_batch(2)] == ["y", "x"]
    with pytest.raises(AccessError):
        ArraySource.from_arrays(["x", "x"], [0.2, 0.8])
    with pytest.raises(AccessError):
        ArraySource.from_arrays(["x"], [0.2, 0.8])
    with pytest.raises(UnknownObjectError):
        source.random_access("missing")


def test_from_arrays_keeps_each_object_its_own_zero():
    # 0.0 and -0.0 tie, so str(id) orders them; each keeps its sign bit
    source = ArraySource.from_arrays(["b", "a", "c"], [0.0, -0.0, 0.5])
    ids, column = source._columns_range(0, 3)
    assert ids == ["c", "a", "b"]
    assert np.signbit(column).tolist() == [False, True, False]


def test_from_arrays_ranks_tied_ids_in_python_string_order():
    # numpy <U keys drop a trailing NUL, which would tie "a\x00" with "a"
    ids, grades = ["a\x00", "a", "b"], [0.5, 0.5, 0.5]
    array = ArraySource.from_arrays(ids, grades)
    listed = ListSource(dict(zip(ids, grades)))
    assert list(array.object_ids()) == list(listed.object_ids()) == ["a", "a\x00", "b"]


def test_from_arrays_validates_grade_range():
    # GradeError is a ValueError, and the message names the source and
    # the first offending position so a bad column is findable
    with pytest.raises(ValueError, match="col"):
        ArraySource.from_arrays(["x", "y"], [0.2, 1.8], name="col")
    with pytest.raises(GradeError, match="position 1"):
        ArraySource.from_arrays(["x", "y"], [0.2, -0.1], name="col")
    with pytest.raises(GradeError):
        ArraySource.from_arrays(["x"], [float("inf")], name="col")
    with pytest.raises(GradeError):
        ArraySource.from_arrays(["x"], [float("nan")], name="col")


def test_from_arrays_presorted_validates_order():
    # presorted trusts the permutation but still checks monotonicity
    source = ArraySource.from_arrays(
        ["y", "x"], [0.8, 0.2], name="col", presorted=True
    )
    assert [i.object_id for i in source.cursor().next_batch(2)] == ["y", "x"]
    with pytest.raises(GradeError, match="nonincreasing"):
        ArraySource.from_arrays(
            ["x", "y"], [0.2, 0.8], name="col", presorted=True
        )


def test_empty_bulk_random_access_is_free_even_when_unsupported():
    source = SortedOnlySource(ListSource({"a": 0.5}))
    assert source.random_access_many([]) == {}
    assert source.counter.random_accesses == 0


# ----------------------------------------------------------------------
# Satellite regression: peeks are side-effect-free on VerifyingSource
# ----------------------------------------------------------------------
class _InconsistentSource(ListSource):
    """Random access disagrees with the sorted stream for every object."""

    def _grades_of_many(self, object_ids):
        return np.maximum(0.0, super()._grades_of_many(object_ids) - 0.5)


def test_verifying_peek_records_no_delivery():
    verified = VerifyingSource(_InconsistentSource({"a": 0.9, "b": 0.7}))
    cursor = verified.cursor()
    assert cursor.peek_grade() == 0.9
    assert cursor.peek_batch(2)[1].grade == 0.7
    # Nothing was *delivered*, so the (lying) random access has nothing
    # to contradict: a peek must never arm the consistency check.
    assert verified._delivered == {}
    assert verified.random_access("a") == pytest.approx(0.4)
    # A consuming read does arm it.
    cursor.next_batch(1)
    with pytest.raises(AccessError):
        verified.random_access("a")


def test_verifying_source_still_catches_order_violation_in_bulk():
    class _Unsorted(ListSource):
        def __init__(self):
            super().__init__({})
            self._sorted_ids = ["a", "b"]
            self._sorted_grades = np.array([0.3, 0.8])
            self._grades = {"a": 0.3, "b": 0.8}

    verified = VerifyingSource(_Unsorted())
    with pytest.raises(AccessError):
        verified.cursor().next_batch(2)


# ----------------------------------------------------------------------
# Satellite regression: materialization never charges, even wrapped
# ----------------------------------------------------------------------
def _materialization_stack():
    inner = ListSource({f"o{i}": (10 - i) / 10 for i in range(8)}, name="L")
    mapped = MappedSource(inner, IdMapping.identity(f"o{i}" for i in range(8)))
    batched = BatchedSource(mapped, 3)
    return inner, batched, VerifyingSource(batched)


def test_as_graded_set_and_object_ids_are_free_through_wrappers():
    inner, batched, verified = _materialization_stack()
    materialized = verified.as_graded_set()
    ids = list(verified.object_ids())
    assert len(materialized) == 8
    assert ids == [f"o{i}" for i in range(8)]
    # No layer paid: not the logical counters, not the repository, and
    # the batch window never shipped anything.
    for source in (inner, batched, verified):
        assert source.counter.snapshot() == (0, 0)
    assert batched.fetched == 0 and batched.requests == 0
    assert not verified._delivered
