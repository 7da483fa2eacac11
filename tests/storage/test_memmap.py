"""MemmapSource: build/open/verify tooling and out-of-core semantics.

The memmap backend must be indistinguishable from an ArraySource over
the same column — same canonical order ``(-grade, str(id))``, same
random-access grades, same charged accounting — while holding only
page-cache views of the on-disk columns.
"""

import json
import os

import numpy as np
import pytest

from repro.core.sources import ArraySource
from repro.errors import GradeError, StorageError, UnknownObjectError
from repro.storage import (
    MemmapSource,
    build_from_items,
    build_memmap,
    build_synthetic_memmap,
    open_memmap,
    verify_memmap,
)

COLUMN = {
    "walrus": 0.8,
    "lobster": 0.8,  # tie with walrus: str-order break
    "crab": 0.31,
    "eel": 1.0,
    "squid": 0.0,
}


def build(tmp_path, column=COLUMN, name="col"):
    ids = list(column.keys())
    grades = [column[i] for i in ids]
    return build_memmap(str(tmp_path / name), ids, grades, name=name)


# ------------------------------------------------------------ round-trip


def test_build_then_open_matches_array_source(tmp_path):
    built = build(tmp_path)
    reopened = open_memmap(str(tmp_path / "col"))
    reference = ArraySource.from_arrays(
        list(COLUMN), [COLUMN[i] for i in COLUMN], name="col"
    )
    for source in (built, reopened):
        assert len(source) == len(COLUMN)
        stream = source.cursor().next_batch(len(COLUMN))
        expected = reference.cursor().next_batch(len(COLUMN))
        assert [(i.object_id, i.grade) for i in stream] == [
            (i.object_id, i.grade) for i in expected
        ]
        # ids come back as pure Python strings, not numpy scalars
        assert all(type(item.object_id) is str for item in stream)


def test_random_access_grades_and_charges(tmp_path):
    source = build(tmp_path)
    assert source.random_access("crab") == 0.31
    got = source.random_access_many(["eel", "squid", "walrus"])
    assert got == {"eel": 1.0, "squid": 0.0, "walrus": 0.8}
    assert source.counter.snapshot() == (0, 4)


def test_integer_ids_round_trip(tmp_path):
    ids = [7, 3, 11]
    source = build_memmap(str(tmp_path / "n"), ids, [0.5, 0.9, 0.5], name="n")
    # canonical order: grade desc, then ascending str(id): "11" < "7"
    assert [i.object_id for i in source.cursor().next_batch(3)] == [3, 11, 7]
    assert source.random_access(11) == 0.5
    assert type(source.cursor().next_batch(1)[0].object_id) is int


def test_unknown_and_wrongly_typed_probes(tmp_path):
    source = build(tmp_path)
    with pytest.raises(UnknownObjectError):
        source.random_access("kraken")
    with pytest.raises(UnknownObjectError):
        source.random_access(42)  # int probe against a str column
    numeric = build_memmap(str(tmp_path / "n"), [1, 2], [0.5, 0.4], name="n")
    with pytest.raises(UnknownObjectError):
        numeric.random_access("1")


def test_peeks_and_prefetch_are_free(tmp_path):
    source = build(tmp_path)
    cursor = source.cursor()
    cursor.peek_batch(3)
    cursor.peek_batch_columns(3)
    source.prefetch_sorted(len(COLUMN))
    assert source.counter.snapshot() == (0, 0)


def test_columnar_batch_path(tmp_path):
    source = build(tmp_path)
    assert source.supports_columnar
    ids, grades = source.cursor().next_batch_columns(3)
    assert ids == ["eel", "lobster", "walrus"]
    assert np.asarray(grades).tolist() == [1.0, 0.8, 0.8]
    assert source.counter.snapshot() == (3, 0)


# ------------------------------------------------------------- builders


def test_build_from_items_mapping(tmp_path):
    source = build_from_items(str(tmp_path / "m"), COLUMN, name="m")
    assert {i.object_id: i.grade for i in source.as_graded_set()} == COLUMN


def test_build_rejects_duplicate_ids(tmp_path):
    with pytest.raises(StorageError):
        build_memmap(str(tmp_path / "d"), ["a", "a"], [0.5, 0.4], name="d")


def test_build_rejects_mixed_id_types(tmp_path):
    with pytest.raises(StorageError):
        build_memmap(str(tmp_path / "x"), ["a", 1], [0.5, 0.4], name="x")


def test_build_rejects_out_of_range_grades(tmp_path):
    with pytest.raises(GradeError):
        build_memmap(str(tmp_path / "g"), ["a", "b"], [0.5, 1.4], name="g")
    with pytest.raises(GradeError):
        build_memmap(str(tmp_path / "g"), ["a"], [float("nan")], name="g")


def test_empty_source(tmp_path):
    source = build_memmap(str(tmp_path / "e"), [], [], name="e")
    assert len(source) == 0
    assert source.cursor().exhausted
    assert verify_memmap(str(tmp_path / "e"))["count"] == 0


def test_open_missing_or_corrupt_directory(tmp_path):
    with pytest.raises(StorageError):
        open_memmap(str(tmp_path / "nowhere"))
    os.makedirs(str(tmp_path / "bad"))
    with open(str(tmp_path / "bad" / "manifest.json"), "w") as handle:
        json.dump({"format": "something-else"}, handle)
    with pytest.raises(StorageError):
        open_memmap(str(tmp_path / "bad"))


def test_synthetic_builder_and_verify(tmp_path):
    directory = str(tmp_path / "synthetic")
    source = build_synthetic_memmap(directory, 5000, chunk=1024)
    assert len(source) == 5000
    grades = np.asarray(source._sorted_grades)
    assert (np.diff(grades) < 0).all()  # strictly decreasing: no ties
    assert source.random_access(0) == grades[0]
    report = verify_memmap(directory)
    assert report["count"] == 5000
    assert "grades-sorted-nonincreasing" in report["checks"]


def test_verify_detects_corruption(tmp_path):
    build(tmp_path)
    directory = str(tmp_path / "col")
    manifest = json.load(open(os.path.join(directory, "manifest.json")))
    grades_file = os.path.join(directory, manifest["files"]["grades"])
    column = np.fromfile(grades_file, dtype=np.float64)
    column[0] = 0.01  # top of the sorted run is now out of order
    column.tofile(grades_file)
    with pytest.raises(StorageError):
        verify_memmap(directory)


def _spaced_directory(tmp_path, count=4000):
    """Even int ids (room to swap one for an odd neighbour) with
    distinct, shuffled grades, so lookup order != sorted order."""
    ids = list(range(0, 2 * count, 2))
    grades = [((i * 7919) % count) / count for i in range(count)]
    build_memmap(str(tmp_path / "spaced"), ids, grades, name="spaced")
    return str(tmp_path / "spaced")


def _sampled_object(directory, samples):
    """(sorted position, id) of a mid-list object the sampled
    cross-check probes."""
    source = open_memmap(directory)
    count = len(source)
    positions = np.unique(
        np.linspace(0, count - 1, num=samples).astype(np.int64)
    )
    position = int(positions[len(positions) // 2])
    return position, int(source._sorted_ids[position])


def test_verify_cross_checks_lookup_grades_at_sampled_positions(tmp_path):
    directory = _spaced_directory(tmp_path)
    position, object_id = _sampled_object(directory, samples=64)
    lookup_ids = np.fromfile(os.path.join(directory, "lookup_ids.dat"), dtype=np.int64)
    grades_file = os.path.join(directory, "lookup_grades.dat")
    lookup_grades = np.fromfile(grades_file, dtype=np.float64)
    slot = int(np.searchsorted(lookup_ids, object_id))
    # still a legal grade: only the sorted-vs-random cross-check can tell
    lookup_grades[slot] = 1.0 - lookup_grades[slot]
    lookup_grades.tofile(grades_file)
    with pytest.raises(StorageError) as excinfo:
        verify_memmap(directory, samples=64)
    message = str(excinfo.value)
    assert f"random access for {object_id!r}" in message
    assert f"sorted position {position}" in message


def test_verify_detects_a_sampled_id_missing_from_lookup(tmp_path):
    directory = _spaced_directory(tmp_path)
    _, object_id = _sampled_object(directory, samples=64)
    ids_file = os.path.join(directory, "lookup_ids.dat")
    lookup_ids = np.fromfile(ids_file, dtype=np.int64)
    # an odd neighbour keeps the column strictly increasing
    lookup_ids[int(np.searchsorted(lookup_ids, object_id))] = object_id + 1
    lookup_ids.tofile(ids_file)
    with pytest.raises(StorageError):
        verify_memmap(directory, samples=64)


def test_source_verify_method(tmp_path):
    source = build(tmp_path)
    assert source.verify()["count"] == len(COLUMN)
