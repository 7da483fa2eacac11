"""Coded storage: object codes written at build time.

A memmap directory stores each sorted position's lookup row (its object
code) and a fingerprint of its lookup ids; a sharded list over memmap
shards codes an object as its shard's offset plus that row.  TA's bulk
round reads such lists by code, and every algorithm must still match
the in-RAM ``ArraySource`` run exactly: answers, grades, costs, sorted
depth, per-shard attribution and traces.  Lists whose universes differ
(other shard counts, other routers, directories built before the code
column existed) fall back to per-run codes and match as well.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fagin import fagin_top_k
from repro.core.sources import ArraySource, shared_object_codes
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.errors import StorageError, UnknownObjectError
from repro.kernels import ColumnCodes, ObjectCodes
from repro.observability import QueryTracer
from repro.scoring import means, tnorms
from repro.storage import (
    ShardedSource,
    build_memmap,
    build_synthetic_memmap,
    hash_router,
    open_memmap,
    verify_memmap,
)
from repro.storage.memmap import MANIFEST_NAME
from tests.per_row import per_row
from tests.strategies import graded_databases


def run_ta(sources, rule, k, tracer):
    return threshold_top_k(sources, rule, k, batch_size=3, tracer=tracer)


def run_ta_theta(sources, rule, k, tracer):
    return threshold_top_k(sources, rule, k, batch_size=3, theta=1.3, tracer=tracer)


def run_a0(sources, rule, k, tracer):
    return fagin_top_k(sources, rule, k, tracer=tracer)


def run_nra(sources, rule, k, tracer):
    return nra_top_k(sources, rule, k, batch_size=3, tracer=tracer)


ALGORITHMS = (("ta", run_ta), ("ta-theta", run_ta_theta), ("a0", run_a0), ("nra", run_nra))

#: memmap layouts under test: shard count (None: one plain memmap)
LAYOUTS = (None, 1, 3, 4)


def build_columns(table, m, root, shards, router=None):
    """One source per column of ``table``: a memmap, or a sharded list
    of memmap shards partitioned by ``router`` (default crc32 routing)."""
    ids = list(table)
    sources = []
    for column in range(m):
        grades = [table[object_id][column] for object_id in ids]
        directory = os.path.join(root, f"c{column}")
        if shards is None:
            sources.append(build_memmap(directory, ids, grades, name=f"c{column}"))
            continue
        route = router or hash_router(shards)
        parts = [([], []) for _ in range(shards)]
        for object_id, grade in zip(ids, grades):
            part = parts[route(object_id)]
            part[0].append(object_id)
            part[1].append(grade)
        sources.append(
            ShardedSource(
                [
                    build_memmap(
                        os.path.join(directory, f"shard{index}"), part_ids, part_grades,
                        name=f"c{column}.s{index}",
                    )
                    for index, (part_ids, part_grades) in enumerate(parts)
                ],
                name=f"c{column}",
                router=route,
            )
        )
    return sources


def array_columns(table, m):
    ids = list(table)
    return [
        ArraySource.from_arrays(ids, [table[i][column] for i in ids], name=f"c{column}")
        for column in range(m)
    ]


def per_row_columns(table, m):
    """The per-row reference: one wrapped ``ArraySource`` per column."""
    return per_row(
        ArraySource({i: grades[column] for i, grades in table.items()}, name=f"c{column}")
        for column in range(m)
    )


def reopen(sources):
    """The same directories, opened afresh (fresh counters)."""
    reopened = []
    for source in sources:
        if isinstance(source, ShardedSource):
            reopened.append(
                ShardedSource(
                    [open_memmap(shard.directory) for shard in source.shards],
                    name=source.name,
                    router=source._router,
                )
            )
        else:
            reopened.append(open_memmap(source.directory))
    return reopened


def snapshot(result):
    return (
        [(item.object_id, item.grade) for item in result.answers],
        result.cost,
        result.sorted_depth,
        result.approximation,
    )


def shard_stats(sources):
    return [s.shard_stats() if isinstance(s, ShardedSource) else None for s in sources]


def strip_code_column(directory):
    """Rewrite a memmap directory as one built before codes were stored."""
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["files"]["codes"], manifest["code_dtype"], manifest["lookup_fingerprint"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    os.remove(os.path.join(directory, "codes.dat"))


def memmap_directories(sources):
    for source in sources:
        if isinstance(source, ShardedSource):
            yield from (shard.directory for shard in source.shards)
        else:
            yield source.directory


# ----------------------------------------------------------------------
# the coded path matches ArraySource
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(graded_databases(min_m=2, max_m=3, max_n=14), st.integers(0, 2))
def test_coded_layouts_match_array_sources(tmp_path_factory, database, selector):
    table, m = database
    rule = (tnorms.MIN, means.MEAN, tnorms.PRODUCT)[selector]
    k = (1, 3, len(table) + 2)[selector]
    for shards in LAYOUTS:
        root = str(tmp_path_factory.mktemp("coded"))
        built = build_columns(table, m, root, shards)
        codes = shared_object_codes(built)
        assert isinstance(codes, ColumnCodes) and len(codes) == len(table)
        for name, algorithm in ALGORITHMS:
            label = f"{name}/shards={shards}"
            reference_tracer = QueryTracer()
            reference = algorithm(array_columns(table, m), rule, k, None)
            traced_reference = algorithm(per_row_columns(table, m), rule, k, reference_tracer)
            coded = reopen(built)
            assert snapshot(algorithm(coded, rule, k, None)) == snapshot(reference), label
            tracer = QueryTracer()
            traced = reopen(built)
            assert snapshot(algorithm(traced, rule, k, tracer)) == snapshot(
                traced_reference
            ), label
            assert tracer.to_json() == reference_tracer.to_json(), label
            assert shard_stats(coded) == shard_stats(traced), label
            for source in coded + traced:
                source.close()
        for source in built:
            source.close()


def test_the_bulk_round_reads_stored_codes_without_routing(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    table = {f"o{i}": tuple(rng.random(2).tolist()) for i in range(300)}
    sources = build_columns(table, 2, str(tmp_path), 4)
    reference = threshold_top_k(array_columns(table, 2), means.MEAN, 10)

    def no_routing(self, ids):
        raise AssertionError("the coded round routed an id")

    monkeypatch.setattr(ShardedSource, "_owners", no_routing)
    result = threshold_top_k(sources, means.MEAN, 10)
    assert snapshot(result) == snapshot(reference)
    for source in sources:
        stats = source.shard_stats()
        assert sum(s["sorted"] for s in stats) == source.counter.sorted_accesses
        assert sum(s["random"] for s in stats) == source.counter.random_accesses


def test_concurrent_coded_queries_over_one_binding_match_serial(tmp_path):
    """8 threads run TA over the same two sharded lists, whose merges
    (and code columns) grow under them three items a round: every
    answer and cost must equal the serial run's, and per-shard
    attribution must still add up."""
    rng = np.random.default_rng(9)
    table = {f"o{i}": tuple(rng.choice((0.2, 0.4, 0.6, 0.8), 2).tolist()) for i in range(400)}
    built = build_columns(table, 2, str(tmp_path), 4)
    cases = [(rule, k) for rule in (tnorms.MIN, means.MEAN) for k in (1, 5, 40, 400)]
    serial = {
        (rule.name, k): snapshot(threshold_top_k(array_columns(table, 2), rule, k))
        for rule, k in cases
    }
    shared = [
        ShardedSource(
            [open_memmap(shard.directory) for shard in source.shards],
            name=source.name,
            router=source._router,
            merge_block=3,
        )
        for source in built
    ]
    mismatches, finished = [], []

    def client(offset):
        for step in range(len(cases)):
            rule, k = cases[(offset + step) % len(cases)]
            if snapshot(threshold_top_k(shared, rule, k)) != serial[rule.name, k]:
                mismatches.append((rule.name, k))
        finished.append(offset)

    threads = [threading.Thread(target=client, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == 8 and mismatches == []
    for source in shared:
        stats = source.shard_stats()
        assert sum(s["sorted"] for s in stats) == source.counter.sorted_accesses
        assert sum(s["random"] for s in stats) == source.counter.random_accesses


def test_opening_maps_no_code_column_until_a_coded_read(tmp_path):
    table = {f"o{i}": (i / 10, 1 - i / 10) for i in range(10)}
    sources = build_columns(table, 2, str(tmp_path), None)
    reopened = reopen(sources)
    assert all(source._codes is None for source in reopened)
    threshold_top_k(reopened, tnorms.MIN, 2)
    assert all(source._codes is not None for source in reopened)
    for source in sources + reopened:
        source.close()
        assert source._codes is None


# ----------------------------------------------------------------------
# universes that differ fall back to per-run codes
# ----------------------------------------------------------------------


def test_lists_partitioned_differently_code_per_run_and_still_match(tmp_path):
    rng = np.random.default_rng(11)
    table = {f"o{i}": tuple(rng.choice((0.1, 0.5, 0.9), 2).tolist()) for i in range(60)}
    reference = snapshot(threshold_top_k(array_columns(table, 2), tnorms.MIN, 5))
    three = build_columns(table, 2, str(tmp_path / "k3"), 3)
    four = build_columns(table, 2, str(tmp_path / "k4"), 4)
    shifted = build_columns(
        table, 2, str(tmp_path / "shifted"), 3,
        router=lambda object_id: (hash_router(3)(object_id) + 1) % 3,
    )
    plain = build_columns(table, 2, str(tmp_path / "plain"), None)
    for mixed in (
        [three[0], four[1]],  # different K
        [three[0], shifted[1]],  # same K, different router
        [plain[0], three[1]],  # a memmap next to a sharded list
        [plain[0], array_columns(table, 2)[1]],  # memmap next to an array
    ):
        assert type(shared_object_codes(mixed)) is ObjectCodes
        assert snapshot(threshold_top_k(reopen_any(mixed), tnorms.MIN, 5)) == reference
    for sources in (three, four, shifted):
        assert isinstance(shared_object_codes(sources), ColumnCodes)
        assert snapshot(threshold_top_k(reopen(sources), tnorms.MIN, 5)) == reference


def reopen_any(sources):
    return [s if isinstance(s, ArraySource) else reopen([s])[0] for s in sources]


def test_directories_built_before_the_code_column_open_and_code_per_run(tmp_path):
    rng = np.random.default_rng(5)
    table = {f"o{i}": tuple(rng.random(2).tolist()) for i in range(80)}
    for shards in LAYOUTS:
        built = build_columns(table, 2, str(tmp_path / f"k{shards}"), shards)
        assert isinstance(shared_object_codes(built), ColumnCodes)
        expected = {}
        for name, algorithm in ALGORITHMS:
            current = reopen(built)
            expected[name] = snapshot(algorithm(current, means.MEAN, 4, None)), shard_stats(current)
            for source in current:
                source.close()
        for source in built:
            source.close()
        for directory in memmap_directories(built):
            strip_code_column(directory)
            report = verify_memmap(directory)
            assert "codes-are-lookup-rows" not in report["checks"]
            assert "id-multiset-agreement" in report["checks"]
            assert report["notes"]
        for name, algorithm in ALGORITHMS:
            old = reopen(built)
            assert type(shared_object_codes(old)) is ObjectCodes
            got = snapshot(algorithm(old, means.MEAN, 4, None)), shard_stats(old)
            assert got == expected[name], f"{name}/shards={shards}"
            for source in old:
                source.close()


# ----------------------------------------------------------------------
# verification of the code column and the fingerprint
# ----------------------------------------------------------------------


def test_verify_checks_the_code_column_and_fingerprint(tmp_path):
    ids = [f"o{i}" for i in range(50)]
    grades = np.random.default_rng(2).random(50)
    directory = str(tmp_path / "m")
    build_memmap(directory, ids, grades).close()
    report = verify_memmap(directory)
    assert {"lookup-fingerprint", "codes-are-lookup-rows"} <= set(report["checks"])
    assert report["notes"] == []

    path = os.path.join(directory, "codes.dat")
    good = np.fromfile(path, dtype=np.int32)
    for corrupt in (
        good[[1, 0] + list(range(2, 50))],  # a swapped pair: still a permutation
        np.where(good == 7, 8, good),  # a duplicate: not a bijection
        np.where(good == 7, 50, good),  # out of range
        np.where(good == 7, -1, good),
    ):
        corrupt.astype(np.int32).tofile(path)
        with pytest.raises(StorageError, match="lookup row"):
            verify_memmap(directory)
    good.tofile(path)
    verify_memmap(directory)

    lookup = os.path.join(directory, "lookup_ids.dat")
    swapped = np.fromfile(lookup, dtype="<U3")
    assert swapped[-1] == "o9"
    swapped[-1] = "oa"  # another id set, still in ascending order
    swapped.tofile(lookup)
    with pytest.raises(StorageError, match="fingerprint"):
        verify_memmap(directory)


def test_synthetic_builds_alias_the_code_column_onto_the_ids(tmp_path):
    directories = [str(tmp_path / name) for name in ("a", "b")]
    sources = [
        build_synthetic_memmap(directory, 500, name=name)
        for name, directory in zip("ab", directories)
    ]
    with open(os.path.join(directories[0], MANIFEST_NAME), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["files"]["codes"] == "ids.dat"
    assert not os.path.exists(os.path.join(directories[0], "codes.dat"))
    assert "codes-are-lookup-rows" in verify_memmap(directories[0])["checks"]
    assert isinstance(shared_object_codes(sources), ColumnCodes)
    reference = [
        ArraySource.from_arrays(
            list(range(500)), (500 - np.arange(500)) / 501.0, name=name
        )
        for name in "ab"
    ]
    assert snapshot(threshold_top_k(sources, tnorms.MIN, 7)) == snapshot(
        threshold_top_k(reference, tnorms.MIN, 7)
    )


# ----------------------------------------------------------------------
# a router that disagrees with where an object lies
# ----------------------------------------------------------------------


def test_a_misplaced_id_is_unknown_by_id_and_read_by_code(tmp_path):
    """Shard 0 holds a, b, c and shard 1 holds d, e, but the router sends
    c to shard 1.  Id-shaped random access asks the router and reports
    c unknown, as before; the coded round, traced or not, never consults
    the router and reads c from the shard that holds it."""
    table = {"a": (0.9, 0.2), "b": (0.5, 0.6), "c": (0.8, 0.8), "d": (0.1, 0.9), "e": (0.3, 0.3)}
    route = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}.__getitem__
    placement = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1}.__getitem__
    sources = build_columns(table, 2, str(tmp_path), 2, router=placement)
    for source in sources:
        source._router = route
    with pytest.raises(UnknownObjectError, match="'c'"):
        sources[0].random_access("c")
    assert sources[0].random_access("a") == 0.9
    result = threshold_top_k(sources, tnorms.MIN, 2)
    assert snapshot(result) == snapshot(threshold_top_k(array_columns(table, 2), tnorms.MIN, 2))
    traced = threshold_top_k(reopen(sources), tnorms.MIN, 2, tracer=QueryTracer())
    assert snapshot(traced) == snapshot(result)


def test_decoding_keeps_one_id_object_per_code(tmp_path):
    table = {f"o{i}": (i / 40, 1 - i / 40) for i in range(40)}
    codes = build_columns(table, 2, str(tmp_path), 3)[0]._stored_codes()
    coded = np.arange(len(codes), dtype=np.int32)[::-1]
    first = codes.decode(coded)
    assert sorted(first) == sorted(table)
    assert all(a is b for a, b in zip(first, codes.decode(coded)))
    assert codes.decode(coded[:0]) == []
