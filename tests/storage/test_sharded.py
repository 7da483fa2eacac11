"""ShardedSource: exact K-way merge, routing, and accounting roll-up.

The sharded view must be indistinguishable from a monolithic source
over the same column — identical item stream (ties broken by
``(-grade, str(id))`` across shards), identical charged totals — while
every physical access lands on exactly one shard's counter, so the
shard tallies always sum to the parent's.
"""

import random
import sys
import threading

import pytest

from repro.core.sources import ArraySource, WrapperSource
from repro.core.threshold import threshold_top_k
from repro.errors import AccessError, UnknownObjectError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.scoring import tnorms
from repro.storage import MemmapSource, ShardedSource, build_sources, hash_router
from tests.storage.helpers import column_source


def make_column(n, seed=0):
    rng = random.Random(seed)
    # quantized grades so cross-shard ties are common
    return {f"obj{i:03d}": rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for i in range(n)}


def monolithic(column, name="col"):
    ids = list(column.keys())
    return ArraySource.from_arrays(ids, [column[i] for i in ids], name=name)


def sharded(column, shards, *, merge_block=4, name="col"):
    return column_source(column, name=name, shards=shards, merge_block=merge_block)


# ---------------------------------------------------------------- merge


@pytest.mark.parametrize("shards", [1, 2, 5])
@pytest.mark.parametrize("merge_block", [1, 3, 64])
def test_merged_stream_matches_monolithic(shards, merge_block):
    column = make_column(40, seed=shards)
    reference = monolithic(column)
    source = sharded(column, shards, merge_block=merge_block)
    got = source.cursor().next_batch(len(column))
    want = reference.cursor().next_batch(len(column))
    assert [(i.object_id, i.grade) for i in got] == [
        (i.object_id, i.grade) for i in want
    ]
    assert source.cursor().exhausted or len(got) == len(column)


def test_peek_is_free_and_side_effect_free():
    column = make_column(30)
    source = sharded(column, 3)
    cursor = source.cursor()
    peeked = cursor.peek_batch(10)
    assert source.counter.snapshot() == (0, 0)
    for shard in source.shards:
        assert shard.counter.snapshot() == (0, 0)
    # the peek did not consume: the same items are delivered next
    delivered = cursor.next_batch(10)
    assert [(i.object_id, i.grade) for i in delivered] == [
        (i.object_id, i.grade) for i in peeked
    ]


def test_columnar_batch_path_matches_items():
    column = make_column(25)
    source = sharded(column, 4)
    ids, grades = source.cursor().next_batch_columns(12)
    reference = monolithic(column).cursor().next_batch(12)
    assert ids == [i.object_id for i in reference]
    assert list(grades) == [i.grade for i in reference]


# ----------------------------------------------------------- accounting


def rollup(source):
    totals = (0, 0)
    for shard in source.shards:
        s, r = shard.counter.snapshot()
        totals = (totals[0] + s, totals[1] + r)
    return totals


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_accounting_rolls_up_exactly(shards):
    column = make_column(40, seed=7)
    source = sharded(column, shards)
    cursor = source.cursor()
    cursor.next_batch(17)
    source.random_access_many(list(column)[:9])
    source.random_access("obj003")
    assert source.counter.snapshot() == (17, 10)
    assert rollup(source) == (17, 10)


def test_shard_stats_shape():
    column = make_column(20)
    source = sharded(column, 3, name="col")
    source.cursor().next_batch(5)
    stats = source.shard_stats()
    assert [entry["shard"] for entry in stats] == [
        "col.s0", "col.s1", "col.s2"
    ]
    assert sum(entry["n"] for entry in stats) == 20
    assert sum(entry["sorted"] for entry in stats) == 5
    assert all(entry["random"] == 0 for entry in stats)


# -------------------------------------------------------------- routing


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_merge_ties_nul_suffixed_ids_in_python_string_order(shards):
    # numpy <U keys drop a trailing NUL, which tied "a\x00" with "a"
    column = {"a\x00": 0.5, "a": 0.5, "b\x00": 0.5, "b": 0.5}
    source = column_source(column, shards=shards)
    expected = list(ArraySource(column).object_ids())
    assert expected == ["a", "a\x00", "b", "b\x00"]
    assert list(source.object_ids()) == expected


def test_hash_router_is_stable_and_bounded():
    route = hash_router(5)
    for obj in ("a", "b", 17, "obj001"):
        index = route(obj)
        assert 0 <= index < 5
        assert route(obj) == index


def test_routerless_falls_back_to_probing():
    column = make_column(15)
    ids = list(column.keys())
    halves = [
        ArraySource({i: column[i] for i in ids[:8]}, name="s0"),
        ArraySource({i: column[i] for i in ids[8:]}, name="s1"),
    ]
    source = ShardedSource(halves, name="col", router=None)
    assert source.random_access(ids[10]) == column[ids[10]]
    # exactly one charged probe, on the owning shard
    assert rollup(source) == (0, 1)
    with pytest.raises(UnknownObjectError):
        source.random_access("missing")


def test_unknown_object_error_names_logical_source():
    source = sharded(make_column(10), 2, name="logical")
    with pytest.raises(UnknownObjectError) as excinfo:
        source.random_access("nope")
    assert "logical" in str(excinfo.value)
    assert ".s0" not in str(excinfo.value)


# ------------------------------------------------------------ builder


def test_partition_backends(tmp_path):
    column = make_column(30)
    reference = monolithic(column)
    want = reference.cursor().next_batch(30)
    for backend, directory in (
        ("array", None),
        ("memmap", str(tmp_path / "shards")),
    ):
        source = column_source(
            column, shards=3, backend=backend, directory=directory
        )
        assert source.supports_columnar, backend
        got = source.cursor().next_batch(30)
        assert [(i.object_id, i.grade) for i in got] == [
            (i.object_id, i.grade) for i in want
        ], backend
    with pytest.raises(AccessError):
        column_source(column, shards=2, backend="paper-tape")
    with pytest.raises(AccessError):
        column_source(column, shards=0)


def test_partitioned_memmap_shards_are_memmaps(tmp_path):
    source = column_source(
        make_column(12), shards=2, backend="memmap", directory=str(tmp_path / "p")
    )
    assert all(isinstance(shard, MemmapSource) for shard in source.shards)
    assert [shard.directory for shard in source.shards] == [
        str(tmp_path / "p" / "00-col" / f"shard{i}") for i in range(2)
    ]


def test_builder_without_directory_owns_a_temporary_one():
    # memmap columns with no directory go to a temporary directory that
    # lives as long as the sources do
    source = column_source(make_column(12), shards=2, backend="memmap")
    root = source._owned_tmpdir.name
    assert all(shard.directory.startswith(root) for shard in source.shards)


def test_builder_routes_every_column_alike():
    ids = [f"obj{i:03d}" for i in range(40)]
    grades = [[(i % 7) / 7, (i % 5) / 5] for i in range(40)]
    first, second = build_sources(ids, grades, ["a", "b"], shards=3)
    assert [sorted(shard.object_ids()) for shard in first.shards] == [
        sorted(shard.object_ids()) for shard in second.shards
    ]
    with pytest.raises(AccessError):
        build_sources(ids, grades, ["a"])


def test_empty_and_skewed_shards():
    # all objects hash wherever they hash; force skew with a router that
    # sends everything to shard 0
    column = make_column(10)
    ids = list(column.keys())
    shards = [
        ArraySource({i: column[i] for i in ids}, name="s0"),
        ArraySource({}, name="s1"),
    ]
    source = ShardedSource(shards, name="col", router=lambda obj: 0)
    got = source.cursor().next_batch(10)
    want = monolithic(column).cursor().next_batch(10)
    assert [(i.object_id, i.grade) for i in got] == [
        (i.object_id, i.grade) for i in want
    ]


# ------------------------------------------------------ wrapped shards


def faulty_sharded_lists(outer):
    """Two lists of 200, each over 3 shards whose random access breaks
    after 3 probes, each list passed through ``outer``."""
    rng = random.Random(3)
    ids = [f"o{i:03d}" for i in range(200)]
    grades = [[rng.random(), rng.random()] for _ in ids]
    return [
        outer(
            ShardedSource(
                [
                    FaultInjectingSource(shard, FaultProfile(break_random_after=3))
                    for shard in source.shards
                ],
                name=source.name,
                router=source._router,
            )
        )
        for source in build_sources(ids, grades, ["a", "b"], shards=3)
    ]


def test_wrapped_shards_keep_ta_degradation():
    # TA's bulk round probes ahead of charging: over wrapped shards the
    # failure must surface at the charged probe, where TA degrades
    sources = faulty_sharded_lists(lambda source: source)
    assert not any(source.supports_columnar for source in sources)
    result = threshold_top_k(sources, tnorms.MIN, 5)
    reference = threshold_top_k(faulty_sharded_lists(WrapperSource), tnorms.MIN, 5)
    assert result.algorithm == reference.algorithm == "threshold-ta+nra"
    assert result.degraded is not None
    assert [(i.object_id, i.grade) for i in result.answers] == [
        (i.object_id, i.grade) for i in reference.answers
    ]
    assert result.cost == reference.cost


# ------------------------------------------------------------ threads


def test_concurrent_readers_of_one_sharded_list_see_the_serial_stream():
    """Concurrent queries share one binding: cursors draining the same
    sharded list from several threads each see the serial stream."""
    column = make_column(600, seed=11)
    want = [
        (i.object_id, i.grade) for i in monolithic(column).cursor().next_batch(600)
    ]
    source = sharded(column, 4, merge_block=2)
    barrier = threading.Barrier(8)
    streams = []

    def drain():
        cursor = source.cursor()
        barrier.wait(timeout=30)
        items = []
        while not cursor.exhausted:
            items.extend(cursor.next_batch(3))
        streams.append([(i.object_id, i.grade) for i in items])

    threads = [threading.Thread(target=drain) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert streams == [want] * 8
    assert rollup(source) == (8 * 600, 0)
