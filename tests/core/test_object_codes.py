"""Dense object codes: :class:`~repro.kernels.ObjectCodes` and TA's bulk
round over them.

TA's bulk round reads columnar sources by int32 object code.  A set of
``ArraySource`` s shares one index (the oldest, which the others adopt);
sharded memmap sources share the codes their storage wrote, and other
sharded sources get an index coded per run through their id-based
hooks.  All must reproduce TA's per-row path over wrapped
``ArraySource`` s exactly: answers in order, their grades (down to the sign of a zero),
costs, sorted depth, the θ certificate, and per-shard access
attribution.
"""

import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fagin import fagin_top_k
from repro.core.graded import GradedSet
from repro.core.naive import naive_top_k
from repro.core.sources import (
    ArraySource,
    SortedCursor,
    VerifyingSource,
    shared_object_codes,
    sources_from_columns,
)
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import UnknownObjectError
from repro.kernels import ObjectCodes, str_ranks
from repro.observability import QueryTracer
from repro.scoring import conorms, means, tnorms
from repro.scoring.owa import OwaScoring
from repro.scoring.weighted import WeightedScoring
from repro.scoring.base import FunctionScoring
from repro.storage import build_sources
from tests.per_row import per_row
from tests.strategies import with_combine

# ----------------------------------------------------------------------
# ObjectCodes
# ----------------------------------------------------------------------


def test_encode_codes_unseen_ids_in_order_and_decode_inverts_it():
    codes = ObjectCodes()
    assert codes.encode(["b", 1, "b", "1"]).tolist() == [0, 1, 0, 2]
    assert codes.encode([1, "c"]).tolist() == [1, 3]
    assert codes.encode([]).dtype == np.int32
    assert len(codes) == 4
    assert codes.decode(np.array([3, 0, 2, 1])) == ["c", "b", "1", 1]
    assert list(codes.decoded(np.array([1]))) == [1]


def test_positional_codes_and_lookup_never_grows():
    codes = ObjectCodes(["x", "y"])
    assert codes["y"] == 1
    assert codes.lookup(["y", "x"]).tolist() == [1, 0]
    with pytest.raises(KeyError, match="'z'"):
        codes.lookup(["x", "z"])
    assert len(codes) == 2


ID_POOL = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.text(alphabet="ab1\x00", max_size=3),
)


@settings(deadline=None, max_examples=80)
@given(st.lists(ID_POOL, unique=True, max_size=25))
@example(["a\x00", "a", 1, "1", "10", 2])
def test_str_ranks_are_python_string_order(ids):
    rank = str_ranks(ids)
    by_rank = np.argsort(rank, kind="stable")
    assert [str(ids[row]) for row in by_rank] == sorted(map(str, ids))
    # equal strings (1 and "1") share a rank, so a stable sort keeps
    # them in input order
    strs = [str(object_id) for object_id in ids]
    for a in range(len(ids)):
        for b in range(len(ids)):
            assert (rank[a] == rank[b]) == (strs[a] == strs[b])


@pytest.mark.parametrize("backend", ["per-row", "array", "sharded"])
def test_nul_suffixed_ids_tie_break_alike_in_every_algorithm(backend):
    # "a" and "a\x00" tie at 0.8 under min; Python string order puts
    # "a" first, where numpy <U keys (which drop the NUL) saw a tie
    table = {"a\x00": (0.9, 0.8), "a": (0.8, 0.9), "c": (0.1, 0.1)}
    for algorithm in (naive_top_k, fagin_top_k, threshold_top_k, nra_top_k, combined_top_k):
        sources = sources_from_columns(table, shards=3 if backend == "sharded" else 1)
        if backend == "per-row":
            sources = per_row(sources)
        result = algorithm(sources, tnorms.MIN, 1)
        assert [item.object_id for item in result.answers] == ["a"], algorithm.__name__
    graded = GradedSet({object_id: min(grades) for object_id, grades in table.items()})
    assert [item.object_id for item in graded.top(1)] == ["a"]


# ----------------------------------------------------------------------
# TA: bulk round over codes vs the per-row path over wrapped ArraySources
# ----------------------------------------------------------------------

#: every int 0..19 next to its string twin, plus ids whose str ends in NUL
MIXED_IDS = [i for n in range(20) for i in (n, str(n))] + ["a", "a\x00"]
INT_IDS = list(range(40))
STR_IDS = [f"s{n}" for n in range(40)]
#: signed zeros, the smallest denormal and the largest grade below 1
GRADES = (0.0, -0.0, 5e-324, 1 - 2**-53, 1.0, 0.5)
RULES = (
    tnorms.MIN,
    tnorms.PRODUCT,
    conorms.MAX,
    means.MEAN,
    with_combine(means.MEAN, "scalar"),
    means.WeightedArithmeticMean((0.3, 0.7)),
    WeightedScoring(tnorms.MIN, (0.3, 0.7)),
    OwaScoring((0.6, 0.4)),
)
#: rules whose native batch form must keep the scalar rule's sign of zero
SIGNED_ZERO_RULES = (
    tnorms.MIN,
    conorms.MAX,
    means.MEAN,
    means.WeightedArithmeticMean((0.3, 0.7)),
    OwaScoring((0.6, 0.4)),
    WeightedScoring(tnorms.MIN, (0.3, 0.7)),
    WeightedScoring(means.MEAN, (0.5, 0.5)),
)


@pytest.mark.parametrize("rule", SIGNED_ZERO_RULES, ids=lambda rule: rule.name)
def test_batch_forms_keep_the_scalar_sign_of_zero(rule):
    rows = [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0], [5e-324, -0.0]]
    batch = rule.combine_matrix(np.array(rows))
    scalar = np.array([rule(row) for row in rows])
    assert batch.tolist() == scalar.tolist()
    assert np.signbit(batch).tolist() == np.signbit(scalar).tolist()


@st.composite
def instances(draw):
    pool = draw(st.sampled_from((MIXED_IDS, INT_IDS, STR_IDS)))
    n = draw(st.integers(min_value=1, max_value=16))
    ids = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    m = draw(st.integers(min_value=2, max_value=3))
    if draw(st.booleans()):  # all ties
        level = draw(st.sampled_from(GRADES))
        columns = [[level] * n for _ in range(m)]
    else:
        cells = st.lists(st.sampled_from(GRADES), min_size=n, max_size=n)
        columns = [draw(cells) for _ in range(m)]
    k = draw(st.sampled_from((1, 2, n, n + 3)))
    # a weighted rule takes exactly one grade per weight
    rules = [rule for rule in RULES if len(getattr(rule, "weights", ())) in (0, m)]
    return (
        ids,
        columns,
        draw(st.sampled_from(rules)),
        k,
        draw(st.sampled_from((1, 7, 128))),
        draw(st.sampled_from((1.0, 1.3))),
    )


def build(kind, ids, columns, directory):
    names = [f"L{i}" for i in range(len(columns))]
    if kind == "per-row":
        return per_row(ArraySource(dict(zip(ids, c)), name=n) for n, c in zip(names, columns))
    if kind == "array":
        # built separately: the bulk round makes them adopt one index
        return [ArraySource.from_arrays(ids, c, name=n) for n, c in zip(names, columns)]
    backend = kind.split("-")[1]
    return build_sources(
        ids, np.column_stack(columns), names, backend=backend, shards=3,
        directory=directory,
    )


def outcome(sources, rule, k, batch_size, theta, traced=False):
    tracer = QueryTracer() if traced else None
    result = threshold_top_k(
        sources, rule, k, batch_size=batch_size, theta=theta, tracer=tracer
    )
    return (
        [(item.object_id, item.grade, np.signbit(item.grade)) for item in result.answers],
        result.cost,
        result.sorted_depth,
        result.approximation,
        tracer.to_json() if traced else None,
    )


@settings(deadline=None, max_examples=60)
@given(instances())
@example((["a\x00", "a", 1, "1"], [[0.5] * 4, [0.5] * 4], tnorms.MIN, 2, 7, 1.0))
@example(([0, 1, 2], [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]], tnorms.MIN, 2, 1, 1.3))
@example(  # a signed-zero tie that a vectorized top-k heap gets wrong
    (
        [0, "0", 1, "1", 2, "2", 3, "3", 4, "4", 5],
        [
            [0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-324],
            [0.0, 0.0, 0.0, 0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        tnorms.MIN, 1, 1, 1.0,
    )
)
def test_bulk_round_over_codes_matches_the_per_row_path(instance):
    ids, columns, rule, k, batch_size, theta = instance

    def run(sources, traced=False):
        return outcome(sources, rule, k, batch_size, theta, traced)

    reference = run(build("per-row", ids, columns, None))
    # the traced per-row run is the independent reference for every
    # bulk round's events
    traced_reference = run(build("per-row", ids, columns, None), traced=True)
    assert traced_reference[:-1] == reference[:-1]
    array = build("array", ids, columns, None)
    assert run(array) == reference
    assert len({id(source._coded[0]) for source in array}) == 1
    assert run(build("array", ids, columns, None), traced=True) == traced_reference
    kinds = []
    if not any(str(i).endswith("\x00") for i in ids):
        kinds.append("sharded-array")  # the shard merge keys on numpy strings
        if len({type(i) for i in ids}) == 1:
            kinds.append("sharded-memmap")  # all-str or all-int ids only
    with tempfile.TemporaryDirectory() as directory:
        for kind in kinds:
            bulk = build(kind, ids, columns, os.path.join(directory, "bulk"))
            traced = build(kind, ids, columns, os.path.join(directory, "traced"))
            assert run(bulk) == reference, kind
            assert run(traced, traced=True) == traced_reference, kind
            assert [s.shard_stats() for s in bulk] == [
                s.shard_stats() for s in traced
            ], kind
            for source in bulk + traced:
                source.close()


@pytest.mark.parametrize("first", (1, 3, 128))
def test_the_bulk_round_doubles_its_window_and_the_per_row_path_does_not(
    monkeypatch, first
):
    # a bare columnar set peeks b, 2b, 4b, ... rows per list, so a stop
    # at depth d takes ceil(log2(d/b + 1)) peeks; a wrapped set takes the
    # per-row path and peeks b rows at a time; both charge every list
    # exactly what item-at-a-time TA charges
    ids = list(range(3000))
    columns = np.random.default_rng(11).random((2, len(ids)))

    def run(batch_size, wrap=False):
        sources = [ArraySource.from_arrays(ids, c, name=f"L{i}") for i, c in enumerate(columns)]
        stack = [VerifyingSource(s) for s in sources] if wrap else sources
        result = threshold_top_k(stack, tnorms.MIN, 40, batch_size=batch_size)
        return result.sorted_depth, [s.counter.sorted_accesses for s in sources]

    bulk_peeks, row_peeks = [], []
    codes_range, peek = ArraySource._codes_range, SortedCursor.peek_batch_columns

    def spy_codes_range(self, codes, start, count):
        bulk_peeks.append((self.name, count))
        return codes_range(self, codes, start, count)

    def spy_peek(self, n):
        row_peeks.append(n)
        return peek(self, n)

    item_at_a_time = run(1, wrap=True)
    monkeypatch.setattr(ArraySource, "_codes_range", spy_codes_range)
    monkeypatch.setattr(SortedCursor, "peek_batch_columns", spy_peek)
    depth, counts = run(first)
    assert (depth, counts) == item_at_a_time
    assert depth > 2 * 128  # a stop past the second 128-row window
    windows = [first * 2**i for i in range(int(np.ceil(np.log2(depth / first + 1))))]
    assert bulk_peeks == [(f"L{i}", w) for w in windows for i in range(2)]
    assert row_peeks == []
    assert run(first, wrap=True) == item_at_a_time
    assert row_peeks == [first] * (2 * -(-depth // first))


def test_a_traced_run_over_arrays_never_leaves_the_bulk_round(monkeypatch):
    # the per-row path probes through random_access_many, which reads
    # grades by id; the bulk round gathers them by code and needs neither
    ids = [f"o{i}" for i in range(60)]
    columns = np.random.default_rng(5).choice(GRADES, (3, 60)).tolist()
    reference = outcome(build("per-row", ids, columns, None), means.MEAN, 5, 7, 1.0, traced=True)

    def refuse(self, object_ids):
        raise AssertionError("the traced run read grades by id")

    monkeypatch.setattr(ArraySource, "random_access_many", refuse)
    monkeypatch.setattr(ArraySource, "_grades_of_many", refuse)
    traced = outcome(build("array", ids, columns, None), means.MEAN, 5, 7, 1.0, traced=True)
    assert traced == reference
    assert '"type": "random"' in traced[-1]


def test_a_non_monotone_rule_matches_the_per_row_path():
    # τ can rise down a window, so the bulk round scans for the stop row
    # (on the first instance a binary search would stop elsewhere)
    rule = FunctionScoring(lambda g: abs(g[0] - g[1]), name="gap", is_monotone=False)
    rng = np.random.default_rng(7)
    cases = [
        (
            [[0.3, 0.1, 0.9, 0.1, 0.3, 0.6, 0.9, 0.6, 0.9],
             [0.1, 0.3, 0.6, 0.3, 0.3, 0.3, 0.1, 0.1, 0.6]],
            2, 128,
        )
    ] + [
        ([rng.choice((0.1, 0.3, 0.6, 0.9), 80).tolist() for _ in range(2)], k, batch)
        for k, batch in ((1, 7), (5, 128), (20, 1))
    ]
    for columns, k, batch_size in cases:
        ids = [f"o{i}" for i in range(len(columns[0]))]
        row_run, array_run = (
            threshold_top_k(
                build(kind, ids, columns, None), rule, k,
                batch_size=batch_size, require_monotone=False,
            )
            for kind in ("per-row", "array")
        )
        assert [(i.object_id, i.grade) for i in array_run.answers] == [
            (i.object_id, i.grade) for i in row_run.answers
        ]
        assert array_run.cost == row_run.cost
        assert array_run.sorted_depth == row_run.sorted_depth


# ----------------------------------------------------------------------
# Adoption
# ----------------------------------------------------------------------


def shuffled_sources(count, n=60, seed=5):
    """``count`` ArraySources over one object set, each built separately
    from its own input order (so each codes the ids differently)."""
    rng = np.random.default_rng(seed)
    ids = [f"o{i}" for i in range(n)]
    sources = []
    for index in range(count):
        order = rng.permutation(n)
        sources.append(
            ArraySource.from_arrays(
                [ids[j] for j in order], rng.random(n), name=f"A{index}"
            )
        )
    return ids, sources


def test_separately_built_sources_converge_on_the_oldest_index():
    ids, sources = shuffled_sources(3)
    before = [source._grades_of_many(ids).tolist() for source in sources]
    single = [[source.random_access(object_id) for object_id in ids] for source in sources]
    graded = [source.as_graded_set() for source in sources]
    oldest = sources[0]._coded[0]
    assert len({id(source._coded[0]) for source in sources}) == 3

    threshold_top_k(sources[::-1], tnorms.MIN, 5)
    assert all(source._coded[0] is oldest for source in sources)
    assert shared_object_codes(sources) is oldest
    assert [source._grades_of_many(ids).tolist() for source in sources] == before
    assert [
        [source.random_access(object_id) for object_id in ids] for source in sources
    ] == single
    assert [source.as_graded_set() for source in sources] == graded
    # a source never moves to a newer index
    _, (newer,) = shuffled_sources(1)
    assert not sources[0]._adopt(newer._coded[0])
    assert newer._adopt(oldest)


def test_sources_over_the_same_id_order_adopt_without_a_lookup():
    """Columns built from one id list code alike: adopting the older
    index builds no id -> code table, and every access is unchanged."""
    ids = [f"o{i}" for i in range(50)]
    rng = np.random.default_rng(3)
    sources = [ArraySource.from_arrays(ids, rng.random(50), name=f"A{i}") for i in range(3)]
    graded = [source.as_graded_set() for source in sources]
    oldest = sources[0]._coded[0]
    assert shared_object_codes(sources[::-1]) is oldest
    assert oldest._codes is None
    assert [source._grades_of_many(ids).tolist() for source in sources] == [
        [grades.grade(object_id) for object_id in ids] for grades in graded
    ]
    coded, by_ids = (
        [(item.object_id, item.grade) for item in nra_top_k(stack, tnorms.MIN, 5).answers]
        for stack in (sources, per_row(sources))
    )
    assert coded == by_ids


def test_different_object_sets_decline_adoption_with_the_old_error():
    a = ArraySource.from_arrays(["x", "y", "z"], [0.9, 0.5, 0.1], name="A")
    b = ArraySource.from_arrays(["x", "y", "w"], [0.8, 0.6, 0.2], name="B")
    assert not b._adopt(a._coded[0])
    with pytest.raises(UnknownObjectError) as error:
        threshold_top_k([a, b], tnorms.MIN, 3)
    assert str(error.value) == "\"source 'A' holds no object 'w'\""
    with pytest.raises(UnknownObjectError) as error:
        threshold_top_k([b, a], tnorms.MIN, 3)
    assert str(error.value) == "\"source 'B' holds no object 'z'\""


def test_concurrent_queries_over_unadopted_sources_match_serial():
    """8 threads run TA over shared sources that have not adopted an
    index yet.  Every thread walks pairs from the newest sources to the
    oldest, so sources keep moving to older indexes while other threads
    query them: every answer and cost must equal the serial run's."""
    count = 12
    pairs = [(i, i + 1) for i in reversed(range(count - 1))]
    pairs += [(i, i + 2) for i in reversed(range(count - 2))]
    rules = ((tnorms.MIN, 3), (means.MEAN, 8))

    def snapshot(result):
        return [(i.object_id, i.grade) for i in result.answers], result.cost

    _, serial_sources = shuffled_sources(count, n=300)
    serial = {
        (pair, rule.name): snapshot(
            threshold_top_k([serial_sources[i] for i in pair], rule, k)
        )
        for pair in pairs
        for rule, k in rules
    }
    mismatches, finished = [], []

    def client(sources, offset):
        for step, pair in enumerate(pairs[offset:] + pairs[:offset]):
            rule, k = rules[(offset + step) % 2]
            got = snapshot(threshold_top_k([sources[i] for i in pair], rule, k))
            if got != serial[pair, rule.name]:
                mismatches.append((pair, rule.name))
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            _, sources = shuffled_sources(count, n=300)
            threads = [
                threading.Thread(target=client, args=(sources, offset))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert len({id(source._coded[0]) for source in sources}) == 1
    finally:
        sys.setswitchinterval(interval)
    assert len(finished) == 4 * 8
    assert mismatches == []
