"""VA-file: bound soundness, exact k-NN, graceful high-dim behavior."""

import heapq
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.index.base import LinearScanIndex, euclidean_distances
from repro.index.vafile import EPS, ORDER_SLICE, STREAM_BLOCK, VAFile


def build(n, dim, bits=4, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((n, dim))
    va = VAFile(dim, bits=bits)
    scan = LinearScanIndex(dim)
    for i in range(n):
        va.insert(i, points[i])
        scan.insert(i, points[i])
    return va, scan, rng


def test_parameter_validation():
    with pytest.raises(IndexError_):
        VAFile(2, bits=0)
    with pytest.raises(IndexError_):
        VAFile(2, bits=20)
    va = VAFile(2)
    with pytest.raises(IndexError_):
        va.insert("x", [1.5, 0.0])


def test_bounds_bracket_the_true_distance():
    va, _, rng = build(100, 6, seed=1)
    query = rng.random(6)
    for index in range(50):
        lower, upper = va._bounds(va._approximations[index], query)
        true = float(np.linalg.norm(va._vectors[index] - query))
        assert lower <= true + 1e-9
        assert true <= upper + 1e-9


def test_knn_matches_scan():
    va, scan, rng = build(500, 8, seed=2)
    for _ in range(5):
        query = rng.random(8)
        mine = sorted(d for _, d in va.knn(query, 7))
        theirs = sorted(d for _, d in scan.knn(query, 7))
        assert mine == pytest.approx(theirs)


def test_range_query_matches_scan():
    va, scan, _ = build(400, 3, seed=3)
    lo, hi = [0.2, 0.1, 0.3], [0.7, 0.8, 0.9]
    assert sorted(va.range_query(lo, hi)) == sorted(scan.range_query(lo, hi))


def test_refinement_touches_few_full_vectors():
    va, _, rng = build(2000, 8, bits=6, seed=4)
    va.stats.reset()
    va.knn(rng.random(8), 10)
    # approximations are all scanned, but full vectors barely
    assert va.stats.node_accesses == 2000
    assert va.stats.distance_evaluations < 400


def test_graceful_degradation_with_dimension():
    """Unlike the grid file, the VA-file works at any dimension; its
    refinement cost degrades smoothly rather than exploding."""
    evaluations = {}
    for dim in (4, 16, 64):
        va, _, rng = build(800, dim, bits=6, seed=dim)
        va.stats.reset()
        va.knn(rng.random(dim), 5)
        evaluations[dim] = va.stats.distance_evaluations
    assert evaluations[64] <= 800  # never worse than the scan
    assert evaluations[4] <= evaluations[64]


def test_more_bits_prune_better():
    results = {}
    for bits in (2, 8):
        va, _, rng = build(1500, 10, bits=bits, seed=7)
        va.stats.reset()
        va.knn(rng.random(10), 5)
        results[bits] = va.stats.distance_evaluations
    assert results[8] < results[2]


def test_approximation_file_is_much_smaller():
    va, _, _ = build(1000, 16, bits=4)
    assert va.approximation_bytes() * 8 < va.vector_bytes()


def test_empty_and_k_validation():
    va = VAFile(3)
    assert va.knn([0.5, 0.5, 0.5], 3) == []
    with pytest.raises(ValueError):
        va.knn([0.5, 0.5, 0.5], 0)


@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=1, max_value=80),
    k=st.integers(min_value=1, max_value=8),
    bits=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_knn_property_matches_scan(seed, n, k, bits):
    rng = np.random.default_rng(seed)
    points = rng.random((n, 4))
    va = VAFile(4, bits=bits)
    scan = LinearScanIndex(4)
    for i in range(n):
        va.insert(i, points[i])
        scan.insert(i, points[i])
    query = rng.random(4)
    mine = sorted(d for _, d in va.knn(query, k))
    theirs = sorted(d for _, d in scan.knn(query, k))
    assert mine == pytest.approx(theirs)


# ----------------------------------------------------------------------
# Table-lookup scan phase + lazy candidate ordering
# ----------------------------------------------------------------------
def loop_bounds(va, query):
    """The arithmetic the tables replaced, kept as the reference: float
    bounds computed per stored coordinate from the code matrix."""
    codes = va._approximations
    cell_low = codes / va.cells
    cell_high = (codes + 1.0) / va.cells
    below = np.clip(cell_low - query, 0.0, None)
    above = np.clip(query - cell_high, 0.0, None)
    gap = np.maximum(below, above)
    farthest = np.maximum(np.abs(query - cell_low), np.abs(query - cell_high))
    return (
        np.sqrt((gap * gap).sum(axis=1)),
        np.sqrt((farthest * farthest).sum(axis=1)),
    )


def eager_stream(va, query):
    """The stream the lazy ordering replaced, kept as the reference: one
    full lexsort of every row, refined in STREAM_BLOCK blocks.  Yields
    ``(neighbour, distance evaluations so far)``."""
    lower, _ = loop_bounds(va, query)
    ties = np.asarray([str(object_id) for object_id in va._ids])
    order = np.lexsort((ties, lower))
    lowers = lower[order]
    position, refined = 0, []
    while True:
        while position < len(order) and (
            not refined or lowers[position] <= refined[0][0] + EPS
        ):
            rows = order[position : position + STREAM_BLOCK]
            position += len(rows)
            for row, d in zip(rows, euclidean_distances(va._vectors[rows], query)):
                heapq.heappush(refined, (float(d), ties[row], int(row)))
        if not refined:
            return
        distance, _, row = heapq.heappop(refined)
        yield (va._ids[row], distance), position


def drained_slices(va, query):
    """Every slice of the lazy refinement order, stream internals driven
    directly (no refinement in between)."""
    stream = va.knn_stream(query)
    stream._start()
    slices = []
    while stream._floor != np.inf:
        stream._refill()
        slices.append(stream._order)
    return slices


@st.composite
def grids(draw):
    """Corpora with grid-aligned coordinates (cell edges, 0 and 1
    included) mixed with random ones; queries in and outside the cube."""
    dim = draw(st.integers(min_value=1, max_value=9))
    bits = draw(st.integers(min_value=1, max_value=9))  # 9: uint16 codes
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    aligned = rng.integers(0, 2**bits + 1, size=(n, dim)) / 2**bits
    points = np.where(rng.random((n, dim)) < 0.5, aligned, rng.random((n, dim)))
    query = rng.random(dim) * 3.0 - 1.0
    snap = rng.random(dim) < 0.3
    query[snap] = np.round(query[snap] * 2**bits) / 2**bits
    return points, query, bits


@given(grid=grids())
@settings(max_examples=80, deadline=None)
def test_table_bounds_bracket_the_computed_distance(grid):
    points, query, bits = grid
    va = VAFile.bulk_load(range(len(points)), points, bits=bits)
    lower, upper = va._all_bounds(query)
    computed = euclidean_distances(points, query)
    assert np.all(lower <= computed + EPS)
    assert np.all(computed + EPS <= upper + 2 * EPS)
    # bit-identical to the per-coordinate arithmetic, on every path
    expected_lower, expected_upper = loop_bounds(va, query)
    assert np.array_equal(lower, expected_lower)
    assert np.array_equal(upper, expected_upper)
    only_lower, no_upper = va._table_bounds(va._approximations, query, upper=False)
    assert np.array_equal(only_lower, lower) and no_upper is None
    for row in range(len(points)):
        assert va._bounds(va._approximations[row], query) == (lower[row], upper[row])


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("bits, dim", [(6, 4), (2, 2), (1, 1)])
def test_lazy_order_is_the_full_lexsort(n, bits, dim):
    """Slices concatenate to lexsort((str(id), lower)) — with few
    distinct lower bounds (bits=2) or one (bits=1, query in the only
    occupied cell) the ties cross every slice boundary."""
    rng = np.random.default_rng(n + bits)
    points = rng.random((n, dim)) * (0.5 if bits == 1 else 1.0)
    va = VAFile.bulk_load([f"o{i}" for i in range(n)], points, bits=bits)
    query = rng.random(dim) * (0.5 if bits == 1 else 1.0)
    lower, _ = loop_bounds(va, query)
    slices = drained_slices(va, query)
    expected = np.lexsort((va._tie_array(), lower))
    assert np.array_equal(np.concatenate(slices), expected)
    distinct = len(np.unique(lower))
    if distinct == 1:  # every row is tied at the first threshold
        assert [len(rows) for rows in slices if len(rows)] == [n]
    elif n > ORDER_SLICE and distinct > 64:
        assert len(slices) > 1 and len(slices[0]) < n


@pytest.mark.parametrize("bits, dim", [(6, 4), (2, 2)])
def test_stream_refines_exactly_as_the_eager_stream(bits, dim):
    """Same neighbours, same distance evaluations after every pop, as
    one full sort refined block by block — across several refills."""
    rng = np.random.default_rng(bits)
    points = rng.random((5000, dim))
    va = VAFile.bulk_load([f"o{i}" for i in range(5000)], points, bits=bits)
    query = rng.random(dim)
    stream = va.knn_stream(query)
    popped = 0
    for neighbour, evaluations in eager_stream(va, query):
        assert stream.next() == neighbour
        assert va.stats.distance_evaluations == evaluations
        popped += 1
    assert popped == 5000 and stream.next() is None
    assert va.stats.node_accesses == 5000


def test_stream_is_resumable_across_a_refill():
    rng = np.random.default_rng(11)
    ids = [f"o{i}" for i in range(5000)]
    points = rng.random((5000, 6))
    query = rng.random(6)
    va = VAFile.bulk_load(ids, points, bits=5)
    stream = va.knn_stream(query)
    resumed = stream.next_batch(1) + stream.next_batch(2000)
    assert stream._slice > 2 * ORDER_SLICE  # the second pull refilled
    assert resumed == va.knn_stream(query).next_batch(2001)
    # ids and bit-identical distances
    assert resumed == LinearScanIndex.bulk_load(ids, points).knn(query, 2001)


def test_insert_after_bulk_load_then_stream():
    rng = np.random.default_rng(12)
    points = rng.random((1600, 5))
    ids = [f"o{i}" for i in range(1600)]
    query = rng.random(5)
    va = VAFile.bulk_load(ids[:1500], points[:1500], bits=5)
    before = va.knn_stream(query)  # bound to the pre-insert contents
    assert before.next_batch(3) == va.knn(query, 3)
    points[1599] = np.clip(query + 1e-3, 0.0, 1.0)  # the new nearest
    for row in range(1500, 1600):
        va.insert(ids[row], points[row])
    oracle = LinearScanIndex.bulk_load(ids, points).knn(query, 1600)
    assert oracle[0][0] == "o1599"
    assert va.knn_stream(query).next_batch(1600) == oracle
    assert va.knn(query, 40) == oracle[:40]


def test_concurrent_streams_share_one_index():
    """Threads streaming one VAFile get the serial answers, and the
    shared IndexStats totals are exact (no lost update)."""
    rng = np.random.default_rng(13)
    ids = [f"o{i}" for i in range(3000)]
    va = VAFile.bulk_load(ids, rng.random((3000, 6)), bits=5)
    queries = rng.random((6, 6))
    depth = 1500  # deep enough to refill
    serial = [va.knn_stream(q).next_batch(depth) for q in queries]
    expected = va.stats.snapshot()
    va.stats.reset()
    answers = [None] * len(queries)

    def work(slot):
        stream = va.knn_stream(queries[slot])
        answers[slot] = [stream.next() for _ in range(depth)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(queries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == serial
    assert va.stats.snapshot() == expected
