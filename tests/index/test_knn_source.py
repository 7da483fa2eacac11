"""KnnSource / KnnSubsystem: accounting, parity, and algorithm conformance."""

import logging
import sys
import threading

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
    with pytest.raises(IndexError_):
        build_knn_index("btree", ids, matrix)


def test_sorted_access_charges_per_delivered_item():
    ids, matrix = corpus()
    source = make_source("vafile", ids, matrix, np.full(4, 0.5))
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
    """``_grades_of_many`` is ``random_access`` per id, bit for bit, with
    the same ``distance_evaluations`` charge; an unknown id is refused."""
    ids, matrix = corpus(n=300, dim=8)
    rng = np.random.default_rng(5)
    wanted = [ids[i] for i in rng.permutation(len(ids))[:200]]
    for target in rng.random((5, 8)):
        source = make_source(kind, ids, matrix, target)
        stats = source._index.stats
        _, before = stats.snapshot()
        one_at_a_time = [source.random_access(object_id) for object_id in wanted]
        _, middle = stats.snapshot()
        bulk = source._grades_of_many(wanted)
        _, after = stats.snapshot()
        assert bulk.dtype == np.float64
        assert bulk.tolist() == one_at_a_time
        assert after - middle == middle - before == len(wanted)
        assert source._grades_of_many([]).size == 0
        with pytest.raises(UnknownObjectError):
            source._grades_of_many([ids[0], "nope"])


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_sorted_grades_equal_probe_grades(kind):
    """The stream grades each pulled batch in one array call; every
    sorted grade is bit for bit the random-access grade of that object,
    which TA relies on when it meets an object both ways."""
    ids, matrix = corpus(n=300, dim=8)
    for target in np.random.default_rng(6).random((3, 8)):
        stream = make_source(kind, ids, matrix, target)
        items = stream.cursor().next_batch(len(ids))
        probe = make_source(kind, ids, matrix, target)
        assert len(items) == len(ids)
        assert [item.grade for item in items] == [
            probe.random_access(item.object_id) for item in items
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


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_reads_materialize_exactly_the_positions_read(kind):
    """A read of positions ``[0, p)`` pulls p neighbours, no more; a
    re-read pulls nothing and a further read pulls only what it adds."""
    ids, matrix = corpus()
    target = np.full(4, 0.3)
    for p in (1, 7, 64, len(ids) - 1):
        source = make_source(kind, ids, matrix, target)
        assert len(source._columns_range(0, p)[0]) == p
        assert len(source._prefix_ids) == source._stream.delivered == p
        source._columns_range(0, p)
        assert source._stream.delivered == p
        source.cursor().next_batch(1)  # position 0: already there
        assert source._stream.delivered == p
        source._columns_range(p, 1)
        assert len(source._prefix_ids) == source._stream.delivered == p + 1
    source = make_source(kind, ids, matrix, target)
    assert len(source._columns_range(0, 2 * len(ids))[0]) == len(ids)
    assert source._columns_range(len(ids), 5)[0] == []


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_a_traced_near_alone_query_pulls_only_its_k(kind):
    from repro.core.query import Atomic
    from repro.middleware.engine import MiddlewareEngine
    from repro.observability import QueryTracer

    ids, matrix = corpus(n=600)
    engine = MiddlewareEngine()
    engine.register(KnnSubsystem("knn", ids, matrix, index=kind))
    atom = Atomic("Near", "sunset")
    result = engine.top_k(atom, 10, tracer=QueryTracer())
    assert len(result.answers) == 10
    assert engine.bind(atom)._stream.delivered == 10


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
        make_source(kind, ids, matrix, target) for target in targets
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
            make_source(kind, ids, matrix, target)
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
    source = make_source("vafile", ids, matrix, np.zeros(4))
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


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_concurrent_readers_of_one_binding_see_the_serial_stream(kind):
    """8 threads read one KnnSource, each through its own cursor in its
    own window sizes, with random probes in between: every thread must
    see exactly the ranked list a serial reader sees."""
    ids, matrix = corpus(n=400, dim=4)
    target = np.full(4, 0.3)
    serial_ids, serial_grades = make_source(kind, ids, matrix, target)._columns_range(0, 400)
    expected = list(zip(serial_ids, serial_grades.tolist()))
    failures = []

    def reader(source, step):
        cursor = source.cursor()
        seen = []
        while True:
            batch_ids, batch_grades = cursor.next_batch_columns(step)
            if not batch_ids:
                break
            seen.extend(zip(batch_ids, batch_grades.tolist()))
            source.random_access_many(batch_ids[:2])
        if seen != expected:
            failures.append(step)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            source = make_source(kind, ids, matrix, target)
            threads = [
                threading.Thread(target=reader, args=(source, step))
                for step in (1, 2, 3, 5, 7, 11, 13, 64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


DEEP_PARITY_QUERY = (
    "SELECT * FROM images WHERE Near = 'sunset' AND Color = 'red' STOP AFTER 1000"
)


def test_the_deep_cli_parity_query_refills_the_va_stream(monkeypatch, capsys):
    """CI compares this query's CLI output across ``--index`` kinds at
    ``--size 5000`` to cover the VA-file stream past its first order
    slice; the spy confirms the stream really refills more than once."""
    from repro.cli import main
    from repro.index import vafile

    refills = []
    refill = vafile._VAFileStream._refill

    def spy(stream):
        refills.append(stream._slice)
        refill(stream)

    monkeypatch.setattr(vafile._VAFileStream, "_refill", spy)
    argv = ["sql", "--database", "images", "--size", "5000", "--index", "vafile"]
    assert main(argv + [DEEP_PARITY_QUERY]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert len(rows) == 1000
    assert len(refills) > 1
