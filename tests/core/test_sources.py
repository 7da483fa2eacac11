"""Sources: the sorted/random access model with built-in accounting."""

import pytest

from repro.core.sources import (
    ListSource,
    SortedOnlySource,
    check_same_objects,
    sources_from_columns,
)
from repro.errors import AccessError, UnknownObjectError, UnsupportedAccessError


def test_sorted_access_is_nonincreasing_and_counted():
    source = ListSource({"a": 0.3, "b": 0.9, "c": 0.6}, name="L")
    cursor = source.cursor()
    grades = [cursor.next().grade for _ in range(3)]
    assert grades == sorted(grades, reverse=True)
    assert cursor.next() is None
    assert source.counter.sorted_accesses == 3


def test_exhausted_cursor_costs_nothing_extra():
    source = ListSource({"a": 0.3}, name="L")
    cursor = source.cursor()
    cursor.next()
    assert cursor.next() is None
    assert cursor.next() is None
    assert source.counter.sorted_accesses == 1


def test_random_access_counted_and_validated():
    source = ListSource({"a": 0.3}, name="L")
    assert source.random_access("a") == 0.3
    assert source.counter.random_accesses == 1
    with pytest.raises(UnknownObjectError):
        source.random_access("nope")


def test_independent_cursors_resume_independently():
    source = ListSource({"a": 0.9, "b": 0.5, "c": 0.1}, name="L")
    first = source.cursor()
    second = source.cursor()
    assert first.next().object_id == "a"
    assert first.next().object_id == "b"
    assert second.next().object_id == "a"
    assert first.position == 2 and second.position == 1


@pytest.mark.parametrize("batch", [None, 2])
def test_cursor_position_is_read_only(batch):
    """A cursor moves only by a charged delivery, never by assignment."""
    from repro.core.batching import BatchedSource

    source = ListSource({"a": 0.9, "b": 0.5, "c": 0.1}, name="L")
    if batch is not None:
        source = BatchedSource(source, batch)
    cursor = source.cursor()
    cursor.next()
    with pytest.raises(AttributeError):
        cursor.position = 0
    assert cursor.position == 1
    assert cursor.next().object_id == "b"


def test_peek_does_not_pay():
    source = ListSource({"a": 0.9}, name="L")
    cursor = source.cursor()
    assert cursor.peek_grade() == 0.9
    assert source.counter.sorted_accesses == 0
    assert not cursor.exhausted


def test_ties_order_deterministically():
    source = ListSource({"z": 0.5, "a": 0.5}, name="L")
    cursor = source.cursor()
    assert cursor.next().object_id == "a"
    assert cursor.next().object_id == "z"


def test_as_graded_set_is_free():
    source = ListSource({"a": 0.9, "b": 0.5}, name="L")
    graded = source.as_graded_set()
    assert len(graded) == 2
    assert source.counter.database_access_cost == 0


def test_object_ids_in_sorted_order():
    source = ListSource({"a": 0.1, "b": 0.9}, name="L")
    assert list(source.object_ids()) == ["b", "a"]


def test_sorted_only_source_blocks_random_access():
    inner = ListSource({"a": 0.5}, name="L")
    limited = SortedOnlySource(inner)
    assert not limited.supports_random_access
    cursor = limited.cursor()
    assert cursor.next().object_id == "a"
    with pytest.raises(UnsupportedAccessError):
        limited.random_access("a")
    # sorted accesses land on the shared counter
    assert inner.counter.sorted_accesses == 1


def test_sources_from_columns():
    sources = sources_from_columns(
        {"a": (0.1, 0.9), "b": (0.5, 0.5)}, names=("first", "second")
    )
    assert [s.name for s in sources] == ["first", "second"]
    assert sources[0].random_access("a") == pytest.approx(0.1)
    assert sources[1].random_access("a") == pytest.approx(0.9)


def test_sources_from_columns_validates():
    with pytest.raises(AccessError):
        sources_from_columns({"a": (0.1, 0.9), "b": (0.5,)})
    with pytest.raises(AccessError):
        sources_from_columns({"a": (0.1,)}, names=("x", "y"))


def test_check_same_objects():
    sources = sources_from_columns({"a": (0.1, 0.2), "b": (0.3, 0.4)})
    assert check_same_objects(sources) == 2
    mismatched = [
        ListSource({"a": 0.1}, name="one"),
        ListSource({"a": 0.1, "b": 0.2}, name="two"),
    ]
    with pytest.raises(AccessError):
        check_same_objects(mismatched)
    with pytest.raises(AccessError):
        check_same_objects([])
