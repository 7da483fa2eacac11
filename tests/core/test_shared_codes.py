"""ArraySources built from one id sequence share its codes from
construction, and the coded algorithms decode ids only at the edges.

An ``ArraySource`` codes its objects by input position.  Sources built
from equal id sequences share one fixed
:class:`~repro.kernels.ObjectCodes` (the oldest live one) from
construction, so a query never re-codes a source and the duplicate-id
check runs once per index.  Each source keeps its own copy of the ids,
and a sorted read decodes only the rows it returns through it.  TA, NRA and A0 consume
what they peeked by count (``SortedCursor.advance``), so untraced runs
over bare sources read no ids but their answers'.
"""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.core.fagin import fagin_top_k
from repro.core.graded import GradedSet
from repro.core.query import Atomic, Scored
from repro.core.sources import ArraySource, VerifyingSource, shared_object_codes
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import AccessError, UnknownObjectError
from repro.kernels import ObjectCodes
from repro.observability import QueryTracer
from repro.observability.tracer import traced
from repro.scoring import means, tnorms
from repro.workloads.cd_store import build_store, generate_catalog
from repro.workloads.image_corpus import build_image_database
from tests.per_row import per_row


def columns(ids, m=3, seed=0):
    return np.random.default_rng(seed).random((m, len(ids)))


def build(ids, grades):
    return [ArraySource.from_arrays(ids, column, name=f"L{j}") for j, column in enumerate(grades)]


def test_sources_from_equal_sequences_share_one_fixed_index():
    ids = [f"s{i}" for i in range(30)]
    first = ArraySource.from_arrays(ids, columns(ids)[0], name="A")
    again = ArraySource.from_arrays(list(ids), columns(ids)[1], name="B")
    mapped = ArraySource(dict(zip(ids, columns(ids)[2].tolist())), name="C")
    codes = first._codes
    assert again._codes is codes and mapped._codes is codes
    assert codes.ids == ids and codes.ids is not ids  # the caller's list is not kept
    assert codes._codes is None  # no id -> code table until an id-shaped access
    assert shared_object_codes([mapped, again, first]) is codes
    with pytest.raises(AssertionError, match="never grows"):
        codes.encode(["new"])
    assert codes.encode(ids[:3]).tolist() == [0, 1, 2]  # coding known ids is a lookup
    assert len(codes) == 30
    grown = ObjectCodes(["x"])
    assert grown.encode(["y"]).tolist() == [1]  # a per-run index still grows


def test_duplicate_ids_raise_on_every_call_even_beside_a_live_index():
    valid = ArraySource.from_arrays(["a", "b", "c"], [0.1, 0.2, 0.3], name="ok")
    for duplicated in (["a", "b", "a"], ["a", "a", "c"], ["c", "c", "c"]):
        for _ in range(2):
            with pytest.raises(AccessError, match="duplicate object ids"):
                ArraySource.from_arrays(duplicated, [0.1, 0.2, 0.3], name="dup")
    again = ArraySource.from_arrays(["a", "b", "c"], [0.3, 0.2, 0.1], name="ok2")
    assert again._codes is valid._codes
    assert valid._codes.ids == ["a", "b", "c"]
    # a grade error is still reported first, as before
    with pytest.raises(ValueError, match="not a finite number"):
        ArraySource.from_arrays(["a", "a"], [0.1, 2.0], name="both")


def test_a_mutated_list_is_not_shared_and_the_built_source_is_unchanged():
    ids = ["a", "b", "c"]
    first = ArraySource.from_arrays(ids, [0.9, 0.5, 0.1], name="first")
    ids[0] = "z"
    ids.append("d")
    second = ArraySource.from_arrays(ids[:3], [0.9, 0.5, 0.1], name="second")
    assert second._codes is not first._codes
    assert first._codes.ids == ["a", "b", "c"]
    assert list(first.object_ids()) == ["a", "b", "c"]
    assert first.as_graded_set() == GradedSet({"a": 0.9, "b": 0.5, "c": 0.1})
    assert first.random_access("a") == 0.9
    with pytest.raises(UnknownObjectError):
        first.random_access("z")
    assert list(second.object_ids()) == ["z", "b", "c"]


def test_ids_that_compare_equal_share_as_adoption_would():
    # 1 == 1.0 (and they hash alike), so [1, 2] and [1.0, 2.0] are equal
    # sequences and share one index from construction; "1" != 1 never
    # shares
    ints = ArraySource.from_arrays([1, 2, 3], [0.9, 0.4, 0.2], name="ints")
    floats = ArraySource.from_arrays([1.0, 2.0, 3.0], [0.8, 0.3, 0.5], name="floats")
    strs = ArraySource.from_arrays(["1", "2", "3"], [0.8, 0.3, 0.5], name="strs")
    assert floats._codes is ints._codes
    assert strs._codes is not ints._codes
    # every source's sorted reads return its own ids
    assert [type(i) for i in floats.object_ids()] == [float] * 3
    assert [type(i) for i in ints.object_ids()] == [int] * 3
    assert floats.random_access(1) == floats.random_access(1.0) == 0.8
    # the answers decode through the shared index, the oldest sequence
    pruned_a0 = partial(fagin_top_k, prune_random_access=True)
    for algorithm in (threshold_top_k, nra_top_k, combined_top_k, fagin_top_k, pruned_a0):
        result = algorithm([floats, ints], tnorms.MIN, 2)
        answers = [(item.object_id, item.grade) for item in result.answers]
        assert answers == [(1, 0.8), (2, 0.3)]
        assert [type(item.object_id) for item in result.answers] == [int, int]
    with pytest.raises(UnknownObjectError):
        threshold_top_k([ints, strs], tnorms.MIN, 2)


def test_concurrent_construction_from_one_list_matches_serial():
    ids = [f"o{i}" for i in range(400)]
    grades = columns(ids, m=8, seed=3)
    rules = ((tnorms.MIN, 5), (means.MEAN, 10))

    def snapshot(result):
        return [(item.object_id, item.grade) for item in result.answers], result.cost

    def pairs(sources):
        return [
            snapshot(algorithm([sources[j], sources[(j + 1) % 8]], rule, k))
            for j in range(8)
            for algorithm in (threshold_top_k, nra_top_k, fagin_top_k)
            for rule, k in rules
        ]

    serial = pairs(build(ids, grades))
    built, results = {}, {}

    def client(slot):
        built[slot] = sources = build(ids, grades)  # kept alive, so is the index
        results[slot] = pairs(sources)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(8))
    assert all(result == serial for result in results.values())
    # every thread's eight columns coded by one index, the same for all
    assert len({id(source._codes) for sources in built.values() for source in sources}) == 1


def test_untraced_coded_runs_decode_only_their_answers(monkeypatch):
    ids = [f"o{i}" for i in range(3000)]
    grades = columns(ids, m=3, seed=9)  # continuous: no ties
    algorithms = (threshold_top_k, nra_top_k, fagin_top_k)

    def run(algorithm, sources):
        result = algorithm(sources, tnorms.MIN, 10)
        return [(item.object_id, item.grade) for item in result.answers], result.cost

    # the wrapped stacks read ids everywhere: the reference
    reference = [run(algorithm, per_row(build(ids, grades))) for algorithm in algorithms]

    def refuse(self, start, count):
        raise AssertionError(f"{self.name} read its sorted list by id")

    def refuse_probe(self, object_ids):
        raise AssertionError(f"{self.name} was probed by id")

    decoded = []
    decode = ObjectCodes.decode

    def spy(self, codes):
        ids_decoded = decode(self, codes)
        decoded.extend(ids_decoded)
        return ids_decoded

    monkeypatch.setattr(ArraySource, "_columns_range", refuse)
    # TA's and A0's probes over bare sources gather grades by code
    monkeypatch.setattr(ArraySource, "random_access_many", refuse_probe)
    monkeypatch.setattr(ObjectCodes, "decode", spy)
    for algorithm, expected in zip(algorithms, reference):
        decoded.clear()
        answers, cost = run(algorithm, build(ids, grades))
        assert (answers, cost) == expected
        assert decoded and set(decoded) <= {object_id for object_id, _ in answers}
        assert cost.sorted_access_cost > 100


def test_reads_and_traced_wrapped_runs_do_not_depend_on_sharing():
    # the same columns, built from one list (one shared index) and from
    # per-column shuffles of it (an index each, read through a per-run
    # index)
    ids = [f"o{i}" for i in range(200)]
    grades = np.random.default_rng(4).choice([0.0, 0.25, 0.5, 0.75, 1.0], (3, 200))

    def shuffled():
        sources = []
        for j, column in enumerate(grades):
            order = np.random.default_rng(j).permutation(200)
            sources.append(
                ArraySource.from_arrays([ids[i] for i in order], column[order], name=f"L{j}")
            )
        return sources

    shared, apart = build(ids, grades), shuffled()
    assert len({id(source._codes) for source in shared}) == 1
    assert len({id(source._codes) for source in apart}) == 3
    for a, b in zip(shared, apart):
        assert a.as_graded_set() == b.as_graded_set()
        assert list(a.object_ids()) == list(b.object_ids())
        assert a.cursor().next_batch(50) == b.cursor().next_batch(50)
        assert a.random_access_many(ids[::7]) == b.random_access_many(ids[::7])

    def run(sources, algorithm, wrap):
        tracer = QueryTracer()
        result = algorithm(wrap(sources), means.MEAN, 5, tracer=tracer)
        return [(i.object_id, i.grade) for i in result.answers], result.cost, tracer.to_json()

    wraps = (
        lambda sources: sources,
        lambda sources: [VerifyingSource(source) for source in sources],
        lambda sources: traced(sources, QueryTracer()),
    )
    for algorithm in (threshold_top_k, nra_top_k, combined_top_k, fagin_top_k):
        for wrap in wraps:
            assert run(build(ids, grades), algorithm, wrap) == run(shuffled(), algorithm, wrap)


@pytest.mark.parametrize(
    "build, atoms",
    [
        (
            lambda: build_store(generate_catalog(1000, seed=0)),
            (
                Atomic("Artist", "Beatles"),
                Atomic("AlbumColor", "red"),
                Atomic("AlbumColor", "blue"),
            ),
        ),
        (
            lambda: build_image_database(300, seed=0),
            (Atomic("Color", "red"), Atomic("Shape", "round")),
        ),
    ],
    ids=["cds", "images"],
)
def test_relocated_array_bindings_share_one_index_from_construction(build, atoms):
    # --backend array rebuilds every binding from its native one in
    # input order, so the relocated atoms keep the native id sequence
    # and share its index before any query runs
    native, relocated = build(), build()
    relocated.configure_storage("array")
    native_bound = [native.bind(atom) for atom in atoms]
    bound = [relocated.bind(atom) for atom in atoms]
    codes = shared_object_codes(bound)
    assert codes is shared_object_codes(native_bound)
    assert codes._fixed and all(source._codes is codes for source in bound)

    def run(engine, query):
        tracer = engine.configure_observability(QueryTracer())
        result = engine.top_k(query, 5)
        answers = [(item.object_id, item.grade) for item in result.answers]
        return answers, result.cost, tracer.to_json()

    for query in (atoms[0] & atoms[1], Scored(means.MEAN, atoms)):
        assert run(relocated, query) == run(native, query)
