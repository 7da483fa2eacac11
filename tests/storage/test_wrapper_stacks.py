"""Wrapper stacks over the storage backends.

The seam contract: every wrapper (`SortedOnlySource`, `MappedSource`,
`ResilientSource`, `TracingSource`) composes over `MemmapSource` and
`ShardedSource` exactly as it does over the in-RAM backends — shared
counters, free peeks, and random-access attribution that reaches the
owning shard even when a mapping layer renames every object on the way
down.  Also home of the columnar-materialization regression guards
(`object_ids` / `as_graded_set` must read whole chunks and never take a
charged path).
"""

import random
import tracemalloc

import pytest

from repro.core.sources import ArraySource, SortedOnlySource
from repro.errors import UnsupportedAccessError
from repro.middleware.idmap import IdMapping, MappedSource
from repro.middleware.resilience import ResilientSource, VirtualClock
from repro.observability import QueryTracer
from repro.observability.tracer import TracingSource
from tests.storage.helpers import column_source


def make_column(n, seed=0):
    rng = random.Random(seed)
    return {f"obj{i:03d}": rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for i in range(n)}


def backends(tmp_path, column):
    ids = list(column.keys())
    return {
        "array": ArraySource.from_arrays(
            ids, [column[i] for i in ids], name="col"
        ),
        "memmap": column_source(
            column, backend="memmap", directory=str(tmp_path / "mm")
        ),
        "sharded": column_source(column, shards=3),
    }


# ---------------------------------------------------------- sorted-only


@pytest.mark.parametrize("kind", ["array", "memmap", "sharded"])
def test_sorted_only_over_each_backend(tmp_path, kind):
    column = make_column(20, seed=1)
    inner = backends(tmp_path, column)[kind]
    reference = backends(tmp_path.joinpath("ref"), column)["array"]
    source = SortedOnlySource(inner)
    assert not source.supports_random_access
    got = source.cursor().next_batch(20)
    want = reference.cursor().next_batch(20)
    assert [(i.object_id, i.grade) for i in got] == [
        (i.object_id, i.grade) for i in want
    ]
    with pytest.raises(UnsupportedAccessError):
        source.random_access("obj001")
    with pytest.raises(UnsupportedAccessError):
        source.random_access_many(["obj001", "obj002"])
    # the failed probes charged nothing; the sorted drain charged fully
    assert inner.counter.snapshot() == (20, 0)


@pytest.mark.parametrize("kind", ["array", "memmap", "sharded"])
def test_peeks_stay_free_through_wrappers(tmp_path, kind):
    inner = backends(tmp_path, make_column(15))[kind]
    source = SortedOnlySource(inner)
    cursor = source.cursor()
    cursor.peek_batch(10)
    cursor.peek_batch_columns(10)
    assert inner.counter.snapshot() == (0, 0)
    if kind == "sharded":
        for shard in inner.shards:
            assert shard.counter.snapshot() == (0, 0)


def test_wrapped_cursor_falls_back_from_columnar(tmp_path):
    # SortedOnlySource does not advertise supports_columnar (TA probes
    # row by row, charged, over it), yet the cursor's columnar batch reads the
    # wrapped backend's columns straight through it
    column = make_column(12)
    inner = backends(tmp_path, column)["sharded"]
    source = SortedOnlySource(inner)
    assert not source.supports_columnar
    ids, grades = source.cursor().next_batch_columns(6)
    want = backends(tmp_path.joinpath("r"), column)["array"].cursor().next_batch(6)
    assert ids == [i.object_id for i in want]
    assert list(grades) == [i.grade for i in want]
    assert inner.counter.snapshot() == (6, 0)


# --------------------------------------------- mapped/resilient/tracing


def shard_rollup(sharded):
    totals = (0, 0)
    for shard in sharded.shards:
        s, r = shard.counter.snapshot()
        totals = (totals[0] + s, totals[1] + r)
    return totals


def test_mapped_resilient_tracing_chain_over_sharded(tmp_path):
    # the subsystem speaks local ids; the middleware speaks global ids
    column = make_column(24, seed=5)
    local_ids = list(column.keys())
    sharded = column_source(column, shards=3)
    mapping = IdMapping({f"g-{i}": i for i in local_ids})
    tracer = QueryTracer()
    stack = TracingSource(
        ResilientSource(
            MappedSource(sharded, mapping), clock=VirtualClock()
        ),
        tracer,
    )

    got = stack.cursor().next_batch(7)
    assert all(item.object_id.startswith("g-obj") for item in got)

    probes = [f"g-{i}" for i in local_ids[:5]]
    grades = stack.random_access_many(probes)
    assert grades == {f"g-{i}": column[i] for i in local_ids[:5]}
    stack.random_access(probes[0])

    # one shared counter all the way down, and the shard tallies sum to
    # exactly the top-level charges: the mapping layer translated the
    # global probes into ids the router could own
    assert stack.counter is sharded.counter
    assert stack.counter.snapshot() == (7, 6)
    assert shard_rollup(sharded) == (7, 6)

    # the tracing layer saw every charged access under the resilient
    # wrapper's name for the logical source
    kinds = [event["type"] for event in tracer.events]
    assert kinds.count("sorted") == 7
    assert kinds.count("random") == 6
    assert {event["source"] for event in tracer.events} == {"resilient(col)"}


def test_free_reads_charge_nothing_through_full_stack(tmp_path):
    column = make_column(18, seed=2)
    sharded = column_source(column, shards=2)
    mapping = IdMapping.identity(column.keys())
    tracer = QueryTracer()
    stack = TracingSource(
        ResilientSource(MappedSource(sharded, mapping), clock=VirtualClock()),
        tracer,
    )
    stack.cursor().peek_batch(10)
    materialized = stack.as_graded_set()
    assert {i.object_id: i.grade for i in materialized} == column
    assert list(stack.object_ids()) == [
        i.object_id
        for i in column_source(column, shards=2).cursor().next_batch(18)
    ]
    assert stack.counter.snapshot() == (0, 0)
    assert tracer.events == []


# ----------------------------------------- materialization memory guard


def _forbid_charged_paths(source):
    """Fail on any charged path; record the size of every columnar read."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("materialization took a charged access path")

    reads = []
    columns_range = source._columns_range

    def recording(start, count):
        reads.append(count)
        return columns_range(start, count)

    source._consume = boom
    source._grades_of_many = boom
    source._columns_range = recording
    return reads


@pytest.mark.parametrize("kind", ["array", "memmap", "sharded"])
def test_materialization_avoids_per_item_boxing(tmp_path, kind):
    column = make_column(30, seed=3)
    source = backends(tmp_path, column)[kind]
    reads = _forbid_charged_paths(source)
    assert set(source.object_ids()) == set(column)
    assert {i.object_id: i.grade for i in source.as_graded_set()} == column
    # whole chunks, one read per chunk — never one read per object
    assert reads == [source._MATERIALIZE_CHUNK] * 2


def test_materialization_memory_stays_columnar():
    # Regression guard for the satellite: object_ids/as_graded_set on a
    # columnar source must stream chunks, not box N GradedItems.  A
    # boxed GradedItem costs ~150 bytes; with N=200k the old path
    # peaked >= 30 MB.  The columnar path holds one ~1k-entry chunk at
    # a time, so everything beyond the result dict itself stays small.
    n = 200_000
    ids = [f"obj{i:06d}" for i in range(n)]
    grades = [((n - i) % 1000) / 1000.0 for i in range(n)]
    source = ArraySource.from_arrays(ids, grades, name="big")

    tracemalloc.start()
    count = sum(1 for _ in source.object_ids())
    _, id_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == n
    # streaming ids holds one chunk of strings, far below boxing 200k
    # GradedItems (>= 30 MB); allow generous slack for interpreter noise
    assert id_peak < 8_000_000, f"object_ids peaked at {id_peak} bytes"

    tracemalloc.start()
    graded = source.as_graded_set()
    _, set_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(graded) == n
    # the result dict itself costs ~20 MB; per-item boxing would add
    # another >= 30 MB on top
    assert set_peak < 36_000_000, f"as_graded_set peaked at {set_peak} bytes"
