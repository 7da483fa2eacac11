"""Source wrappers compose: verified, batched, mapped stacks."""

import pytest

from repro.core.batching import BatchedSource
from repro.core.fagin import fagin_top_k
from repro.core.naive import grade_everything
from repro.core.sources import ListSource, VerifyingSource, sources_from_columns
from repro.middleware.idmap import IdMapping, MappedSource
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent


def oracle(table, k):
    return grade_everything(sources_from_columns(table), tnorms.MIN).top(k)


def test_verified_over_batched():
    table = independent(200, 2, seed=3)
    stacks = [
        VerifyingSource(BatchedSource(inner, 16))
        for inner in sources_from_columns(table)
    ]
    result = fagin_top_k(stacks, tnorms.MIN, 5)
    assert result.answers.same_grade_multiset(oracle(table, 5))


def test_mapped_over_batched():
    local = ListSource({"l-a": 0.9, "l-b": 0.4}, name="local")
    mapping = IdMapping({"g-a": "l-a", "g-b": "l-b"})
    batched = BatchedSource(local, 2)
    stack = MappedSource(batched, mapping)
    cursor = stack.cursor()
    assert cursor.next().object_id == "g-a"
    assert stack.random_access("g-b") == pytest.approx(0.4)
    # the fetched window is shared by all cursors: re-reading inside it
    # ships nothing new from the repository
    assert (batched.requests, batched.fetched) == (1, 2)
    assert stack.cursor().next().object_id == "g-a"
    assert (batched.requests, batched.fetched) == (1, 2)


def test_triple_stack_end_to_end():
    """verified(mapped(batched(list))) still answers correctly."""
    table = independent(250, 2, seed=4)
    mapping = IdMapping({f"g-{object_id}": object_id for object_id in table})
    stacks = [
        VerifyingSource(MappedSource(BatchedSource(inner, 10), mapping))
        for inner in sources_from_columns(table)
    ]
    result = fagin_top_k(stacks, tnorms.MIN, 7)
    assert result.answers.same_grade_multiset(oracle(table, 7))
    assert all(str(item.object_id).startswith("g-") for item in result.answers)
