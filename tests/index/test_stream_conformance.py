"""Differential conformance: every index's stream == batch == scan.

The contract the whole PR rests on: for any corpus (duplicates, tiny
dimensions, degenerate coordinates included), every index kind's
``knn_stream`` prefix, its batch ``knn``, and the linear-scan oracle
agree *exactly* — same ids in the same canonical ``(distance, str(id))``
order, bit-identical distances — and a stream is resumable: popping
``j`` then ``j`` more equals popping ``2j`` at once.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import IndexError_, UnknownObjectError
from repro.index import (
    INDEX_KINDS,
    GridFile,
    LinearQuadtree,
    LinearScanIndex,
    RTree,
    VAFile,
    build_knn_index,
)


@st.composite
def corpora(draw):
    """Small corpora rigged for collisions: coordinates off a 4-point
    grid, so duplicate vectors and distance ties are common."""
    dim = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=64))
    cells = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    matrix = rng.integers(0, cells, size=(n, dim)) / cells
    query = rng.integers(0, cells, size=dim) / cells
    ids = [f"obj{i}" for i in range(n)]
    return ids, matrix.astype(np.float64), np.asarray(query, dtype=np.float64)


def scan_oracle(ids, matrix, query, k):
    return LinearScanIndex.bulk_load(ids, matrix).knn(query, k)


def thirds_corpus(seed):
    """36 points off the {0, 1/3, 2/3} grid in 5-d and an off-grid
    query: many exact distance ties between points of different R-tree
    nodes.  Seed 19 is the corpus on which a MINDIST summed in another
    order than the shared kernel landed one ulp above a tied point's
    distance and emitted ``o0`` after ``o21``."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 3, (36, 5)) / 3
    return [f"o{i}" for i in range(36)], points, rng.random(5)


@pytest.mark.parametrize("kind", INDEX_KINDS)
@given(corpus=corpora(), k=st.integers(min_value=1, max_value=70))
@example(corpus=thirds_corpus(19), k=15)
@settings(max_examples=60, deadline=None)
def test_batch_knn_matches_scan_oracle(kind, corpus, k):
    ids, matrix, query = corpus
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    assert index.knn(query, k) == scan_oracle(ids, matrix, query, k)


def test_rtree_tie_order_sweep():
    """4,000 deterministic tie-heavy corpora (9 of them failed before
    MINDIST became a bound of the computed distance)."""
    for seed in range(4000):
        ids, points, query = thirds_corpus(seed)
        tree = build_knn_index("rtree", ids, points, max_entries=4)
        assert tree.knn(query, 15) == scan_oracle(ids, points, query, 15), seed


@pytest.mark.parametrize("kind", INDEX_KINDS)
@given(corpus=corpora())
@settings(max_examples=60, deadline=None)
def test_stream_prefix_matches_batch(kind, corpus):
    ids, matrix, query = corpus
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    full = index.knn(query, len(ids))
    assert list(index.knn_stream(query)) == full


@pytest.mark.parametrize("kind", INDEX_KINDS)
@given(corpus=corpora(), j=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_stream_is_resumable(kind, corpus, j):
    ids, matrix, query = corpus
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    split = index.knn_stream(query)
    two_pulls = split.next_batch(j) + split.next_batch(j)
    assert two_pulls == index.knn_stream(query).next_batch(2 * j)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_stream_exhaustion(kind):
    rng = np.random.default_rng(3)
    ids = [f"obj{i}" for i in range(20)]
    matrix = rng.random((20, 3))
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    stream = index.knn_stream(rng.random(3))
    assert len(stream.next_batch(100)) == 20
    assert stream.next() is None
    assert stream.next_batch(5) == []
    with pytest.raises(ValueError):
        stream.next_batch(-1)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_duplicate_vectors_break_ties_by_id(kind):
    # Five copies of the same point: order must be str(id) order.
    ids = ["e", "c", "a", "d", "b"]
    matrix = np.zeros((5, 2))
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    assert [obj for obj, _ in index.knn(np.zeros(2), 5)] == [
        "a", "b", "c", "d", "e"
    ]


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_nul_suffixed_ids_tie_in_python_string_order(kind):
    """``"a\\x00"`` sorts after ``"a"`` in Python; a numpy ``<U`` key
    drops the trailing NUL and would tie them in insertion order."""
    ids = ["a\x00", "a"]
    index = build_knn_index(kind, ids, np.zeros((2, 2)), max_entries=4)
    expected = sorted(map(str, ids))
    assert [obj for obj, _ in index.knn(np.zeros(2), 2)] == expected
    assert [obj for obj, _ in index.knn_stream(np.zeros(2))] == expected


@pytest.mark.parametrize("kind", INDEX_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vectors_are_rejected(kind, bad):
    """NaN compares false with every bound, so a NaN row or target would
    be ranked arbitrarily: bulk load, insert and queries all refuse."""
    ids = [f"obj{i}" for i in range(6)]
    matrix = np.full((6, 3), 0.25)
    index = build_knn_index(kind, ids, matrix, max_entries=4)
    with pytest.raises(IndexError_):
        index.insert("late", [0.5, bad, 0.5])
    with pytest.raises(IndexError_):
        index.knn_stream([bad, 0.5, 0.5])
    with pytest.raises(IndexError_):
        index.knn([0.5, 0.5, bad], 2)
    assert len(index) == 6
    matrix[4, 1] = bad
    with pytest.raises(IndexError_):
        build_knn_index(kind, ids, matrix, max_entries=4)


def _inserted(kind):
    """An empty index of ``kind`` for per-item inserts."""
    return {
        "scan": lambda: LinearScanIndex(2),
        "vafile": lambda: VAFile(2, bits=4),
        "rtree": lambda: RTree(2, max_entries=4),
        "grid": lambda: GridFile(2, cells_per_dim=4),
        "quadtree": lambda: LinearQuadtree(2, depth=3),
    }[kind]()


BULK_LOADS = {
    "scan": LinearScanIndex.bulk_load,
    "vafile": VAFile.bulk_load,
    "rtree": RTree.bulk_load_arrays,
    "rtree-items": lambda ids, matrix: RTree.bulk_load(list(zip(ids, matrix)), 2),
}


@pytest.mark.parametrize("kind", ["scan", "vafile", "rtree", "grid", "quadtree"])
def test_insert_rejects_a_stored_id(kind):
    """One id is one vector: a second insert of ``a`` would list it
    twice in the stream while ``vector_of`` answers only the second."""
    index = _inserted(kind)
    index.insert("a", [0.1, 0.1])
    index.insert("b", [0.5, 0.5])
    with pytest.raises(IndexError_, match="duplicate object id: 'a'"):
        index.insert("a", [0.9, 0.9])
    assert len(index) == 2
    assert np.array_equal(index.vector_of("a"), [0.1, 0.1])
    assert [obj for obj, _ in index.knn_stream([0.1, 0.1])] == ["a", "b"]


@pytest.mark.parametrize("load", sorted(BULK_LOADS))
def test_bulk_load_rejects_a_repeated_id(load):
    matrix = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    with pytest.raises(IndexError_, match="duplicate object id: 'a'"):
        BULK_LOADS[load](["a", "b", "a"], matrix)
    index = BULK_LOADS[load](["a", "b", "c"], matrix)
    with pytest.raises(IndexError_, match="duplicate object id: 'c'"):
        index.insert("c", [0.2, 0.2])  # bulk-loaded ids are stored ids
    assert len(index) == 3


@pytest.mark.parametrize("kind", ["scan", "vafile", "rtree", "grid", "quadtree"])
def test_vectors_of_is_stacked_vector_of(kind):
    """Bulk random access is one gather: ``vectors_of`` equals the
    stacked ``vector_of`` rows in request order — bulk-loaded rows and
    inserted tail rows alike — and an unknown id raises naming the
    first missing one in request order."""
    rng = np.random.default_rng(21)
    matrix = rng.random((40, 2))
    ids = [f"o{i}" for i in range(40)]
    if kind in BULK_LOADS:
        index = BULK_LOADS[kind](ids[:30], matrix[:30])
        tail = range(30, 40)
    else:
        index, tail = _inserted(kind), range(40)
    for row in tail:
        index.insert(ids[row], matrix[row])
    wanted = [ids[i] for i in rng.permutation(40)] + ["o3", "o35", "o3"]
    block = index.vectors_of(wanted)
    assert block.dtype == np.float64 and block.shape == (len(wanted), 2)
    assert np.array_equal(block, np.stack([index.vector_of(i) for i in wanted]))
    assert np.array_equal(block[:40], matrix[[int(i[1:]) for i in wanted[:40]]])
    assert index.vectors_of([]).shape == (0, 2)
    with pytest.raises(UnknownObjectError, match="unknown object: 'x1'"):
        index.vectors_of(["o1", "x1", "o39", "x2"])
