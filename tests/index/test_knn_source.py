"""KnnSource / KnnSubsystem: accounting, parity, and algorithm conformance."""

import logging

import numpy as np
import pytest

from repro.core.threshold import threshold_top_k
from repro.errors import IndexError_, UnknownObjectError
from repro.index import (
    INDEX_KINDS,
    KnnSource,
    KnnSubsystem,
    build_default_indexes,
    build_knn_index,
    euclidean_distances,
)
from repro.scoring import tnorms


def corpus(n=120, dim=4, seed=7):
    rng = np.random.default_rng(seed)
    return [f"obj{i}" for i in range(n)], rng.random((n, dim))


def make_source(kind, ids, matrix, target, **kwargs):
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    return KnnSource(index, target, name=f"near-{kind}", kind=kind, **kwargs)


def test_parameters_validated():
    ids, matrix = corpus()
    index = build_knn_index("scan", ids, matrix)
    with pytest.raises(ValueError):
        KnnSource(index, matrix[0], scale=0.0)
    with pytest.raises(ValueError):
        KnnSource(index, matrix[0], batch=0)
    with pytest.raises(IndexError_):
        build_knn_index("btree", ids, matrix)


def test_sorted_access_charges_per_delivered_item():
    ids, matrix = corpus()
    source = make_source("vafile", ids, matrix, np.full(4, 0.5), batch=8)
    cursor = source.cursor()
    assert cursor.next_batch(10) and source.counter.sorted_accesses == 10
    assert cursor.peek_grade() is not None
    assert source.counter.sorted_accesses == 10  # peeks stay free
    assert source.counter.random_accesses == 0


def test_random_access_charges_counter_and_index():
    ids, matrix = corpus()
    source = make_source("scan", ids, matrix, np.full(4, 0.5))
    _, evals_before = source._index.stats.snapshot()
    grade = source.random_access("obj3")
    _, evals_after = source._index.stats.snapshot()
    expected = np.exp(-euclidean_distances(matrix[3], np.full(4, 0.5)))
    assert grade == pytest.approx(float(expected), abs=0)
    assert source.counter.random_accesses == 1
    assert evals_after == evals_before + 1
    with pytest.raises(UnknownObjectError):
        source.random_access("nope")


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_bulk_random_access_matches_one_at_a_time(kind):
    """``_grades_of_many`` is ``_grade_of`` per id, bit for bit, with the
    same ``distance_evaluations`` charge; an unknown id is refused."""
    ids, matrix = corpus(n=300, dim=8)
    rng = np.random.default_rng(5)
    wanted = [ids[i] for i in rng.permutation(len(ids))[:200]]
    for target in rng.random((5, 8)):
        source = make_source(kind, ids, matrix, target)
        stats = source._index.stats
        _, before = stats.snapshot()
        one_at_a_time = {object_id: source._grade_of(object_id) for object_id in wanted}
        _, middle = stats.snapshot()
        bulk = source._grades_of_many(wanted)
        _, after = stats.snapshot()
        assert list(bulk) == wanted
        assert bulk == one_at_a_time
        assert after - middle == middle - before == len(wanted)
        assert source._grades_of_many([]) == {}
        with pytest.raises(UnknownObjectError):
            source._grades_of_many([ids[0], "nope"])


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_sorted_grades_equal_probe_grades(kind):
    """The stream grades each pulled batch in one array call; every
    sorted grade is bit for bit the random-access grade of that object,
    which TA relies on when it meets an object both ways."""
    ids, matrix = corpus(n=300, dim=8)
    for target in np.random.default_rng(6).random((3, 8)):
        stream = make_source(kind, ids, matrix, target, batch=7)
        items = stream.cursor().next_batch(len(ids))
        probe = make_source(kind, ids, matrix, target)
        assert len(items) == len(ids)
        assert [item.grade for item in items] == [
            probe._grade_of(item.object_id) for item in items
        ]


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_columnar_matches_item_path(kind):
    ids, matrix = corpus()
    target = np.full(4, 0.25)
    items = make_source(kind, ids, matrix, target).cursor().next_batch(25)
    col_ids, col_grades = (
        make_source(kind, ids, matrix, target)
        .cursor()
        .next_batch_columns(25)
    )
    assert col_ids == [item.object_id for item in items]
    assert col_grades.tolist() == [item.grade for item in items]


def test_grades_are_nonincreasing_and_sized():
    ids, matrix = corpus()
    source = make_source("rtree", ids, matrix, np.zeros(4))
    assert len(source) == len(ids)
    grades = [item.grade for item in source.cursor().next_batch(len(ids))]
    assert len(grades) == len(ids)
    assert all(a >= b for a, b in zip(grades, grades[1:]))


def naive_min_top_k(ids, matrix, targets, k):
    grades = np.minimum.reduce(
        [np.exp(-euclidean_distances(matrix, t)) for t in targets]
    )
    order = np.lexsort((np.asarray([str(i) for i in ids]), -grades))
    return [(ids[row], float(grades[row])) for row in order[:k]]


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_ta_over_knn_sources_matches_naive_oracle(kind):
    ids, matrix = corpus(n=200)
    rng = np.random.default_rng(11)
    targets = rng.random((2, 4))
    sources = [
        make_source(kind, ids, matrix, target, batch=16) for target in targets
    ]
    result = threshold_top_k(sources, tnorms.MIN, 7)
    assert [
        (item.object_id, item.grade) for item in result.answers
    ] == naive_min_top_k(ids, matrix, targets, 7)


def test_ta_answers_and_costs_identical_across_kinds():
    ids, matrix = corpus(n=200)
    rng = np.random.default_rng(13)
    targets = rng.random((2, 4))
    baseline = None
    for kind in INDEX_KINDS:
        sources = [
            make_source(kind, ids, matrix, target, batch=16)
            for target in targets
        ]
        result = threshold_top_k(sources, tnorms.MIN, 7)
        key = (
            [(item.object_id, item.grade) for item in result.answers],
            result.cost.sorted_access_cost,
            result.cost.random_access_cost,
            result.sorted_depth,
        )
        baseline = key if baseline is None else baseline
        assert key == baseline, f"{kind} differs from {INDEX_KINDS[0]}"


def test_index_stats_hook_shape():
    ids, matrix = corpus()
    source = make_source("vafile", ids, matrix, np.zeros(4), batch=8)
    source.cursor().next_batch(5)
    info = source.index_stats()
    assert info["index"] == "vafile" and info["n"] == len(ids)
    assert info["node_accesses"] >= len(ids)  # the scan phase saw all codes
    assert 0 < info["distance_evals"] < len(ids)  # but refined only a few


def test_subsystem_binds_deterministic_string_targets():
    ids, matrix = corpus()
    subsystem = KnnSubsystem("knn", ids, matrix, index="vafile")
    assert subsystem.attributes() == frozenset({"Near"})
    once = subsystem.resolve_target("sunset")
    again = subsystem.resolve_target("sunset")
    assert np.array_equal(once, again)
    assert not np.array_equal(once, subsystem.resolve_target("sunrise"))
    from repro.core.query import Atomic

    source = subsystem.bind(Atomic("Near", "sunset"))
    assert source.name == "Near=sunset"
    assert source.cursor().next() is not None


def test_build_default_indexes_logs_skipped_curse_victims(caplog):
    # d=14: the grid file's directory would need 4^14 cells — it must be
    # skipped with a logged note, never with a silent bare except.
    rng = np.random.default_rng(3)
    items = [(i, rng.random(14)) for i in range(10)]
    with caplog.at_level(logging.INFO, logger="repro.index.knn"):
        indexes = build_default_indexes(items, 14)
    assert "gridfile" not in indexes and "quadtree" not in indexes
    notes = [record.message for record in caplog.records]
    assert any("skipping gridfile at dimension 14" in note for note in notes)
    assert any("skipping quadtree at dimension 14" in note for note in notes)


def test_build_default_indexes_propagates_unexpected_errors(monkeypatch):
    import repro.index.knn as knn_module

    class Boom:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("not a curse, a bug")

    monkeypatch.setattr(knn_module, "GridFile", Boom)
    rng = np.random.default_rng(3)
    items = [(i, rng.random(2)) for i in range(5)]
    with pytest.raises(RuntimeError):
        build_default_indexes(items, 2)
