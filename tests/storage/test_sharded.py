"""ShardedSource: exact K-way merge, routing, and accounting roll-up.

The sharded view must be indistinguishable from a monolithic source
over the same column — identical item stream (ties broken by
``(-grade, str(id))`` across shards), identical charged totals — while
every physical access lands on exactly one shard's counter, so the
shard tallies always sum to the parent's.
"""

import random

import pytest

from repro.core.sources import ArraySource, ListSource
from repro.errors import AccessError, StorageError, UnknownObjectError
from repro.parallel import ParallelAccessExecutor
from repro.storage import MemmapSource, ShardedSource, hash_router


def make_column(n, seed=0):
    rng = random.Random(seed)
    # quantized grades so cross-shard ties are common
    return {f"obj{i:03d}": rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for i in range(n)}


def monolithic(column, name="col"):
    ids = list(column.keys())
    return ArraySource.from_arrays(ids, [column[i] for i in ids], name=name)


def sharded(column, shards, *, merge_block=4, name="col"):
    return ShardedSource.partition(
        column, shards, name=name, merge_block=merge_block
    )


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
    source = ShardedSource.partition(column, shards)
    expected = list(ListSource(column).object_ids())
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
        ListSource({i: column[i] for i in ids[:8]}, name="s0"),
        ListSource({i: column[i] for i in ids[8:]}, name="s1"),
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


# ------------------------------------------------------------ partition


def test_partition_backends(tmp_path):
    column = make_column(30)
    reference = monolithic(column)
    want = reference.cursor().next_batch(30)
    for backend, directory in (
        ("array", None),
        ("list", None),
        ("memmap", str(tmp_path / "shards")),
    ):
        source = ShardedSource.partition(
            column, 3, name="col", backend=backend, directory=directory
        )
        got = source.cursor().next_batch(30)
        assert [(i.object_id, i.grade) for i in got] == [
            (i.object_id, i.grade) for i in want
        ], backend
    with pytest.raises(StorageError):
        ShardedSource.partition(column, 2, name="col", backend="memmap")
    with pytest.raises(AccessError):
        ShardedSource.partition(column, 2, name="col", backend="paper-tape")


def test_partitioned_memmap_shards_are_memmaps(tmp_path):
    source = ShardedSource.partition(
        make_column(12), 2, name="col", backend="memmap",
        directory=str(tmp_path / "p"),
    )
    assert all(isinstance(shard, MemmapSource) for shard in source.shards)


def test_empty_and_skewed_shards():
    # all objects hash wherever they hash; force skew with a router that
    # sends everything to shard 0
    column = make_column(10)
    ids = list(column.keys())
    shards = [
        ListSource({i: column[i] for i in ids}, name="s0"),
        ListSource({}, name="s1"),
    ]
    source = ShardedSource(shards, name="col", router=lambda obj: 0)
    got = source.cursor().next_batch(10)
    want = monolithic(column).cursor().next_batch(10)
    assert [(i.object_id, i.grade) for i in got] == [
        (i.object_id, i.grade) for i in want
    ]


# ------------------------------------------------------------- prefetch


def test_prefetch_with_executor_matches_serial():
    column = make_column(60, seed=3)
    serial = sharded(column, 4)
    serial_items = serial.cursor().next_batch(60)
    concurrent = sharded(column, 4)
    with ParallelAccessExecutor(4) as executor:
        concurrent.prefetch_sorted(60, executor=executor)
    assert concurrent.counter.snapshot() == (0, 0)  # prefetch is free
    got = concurrent.cursor().next_batch(60)
    assert [(i.object_id, i.grade) for i in got] == [
        (i.object_id, i.grade) for i in serial_items
    ]
    assert concurrent.counter.snapshot() == (60, 0)
    assert rollup(concurrent) == (60, 0)
