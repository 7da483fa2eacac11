"""Differential conformance for the one bounds state and its combines.

Every algorithm folds its bounds through one
:class:`~repro.kernels.GradeMatrix` and scores batches through
``combine_matrix``, which is a rule's native numpy form or the exact
per-row loop.  The contract: the two forms are interchangeable — same
answers, same tie-breaks, same charged access counts, same traces, same
degradation behavior — at every algorithm, over bare ArraySources
(columnar) and wrapped ones (TA's per-row path), traced and untraced,
serial and parallel.  ``combine`` below is that axis (``tests.strategies.COMBINES``:
``"scalar"`` is the per-row loop, ``"vector"`` the native form).
Hypothesis drives the differential runs; deterministic tests pin down
degradation parity, TA's window mechanics, and the engine's bulk-round
and per-row paths.  NRA's stopping depth has its own suite
(tests/core/test_nra_stop_depth.py).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fagin import FaginAlgorithm, fagin_top_k
from repro.core.naive import naive_top_k
from repro.core.planner import Strategy
from repro.core.query import Atomic, Scored
from repro.core.sources import ArraySource, WrapperSource, sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import TransientAccessError
from repro.index import KnnSubsystem
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.interface import Subsystem
from repro.middleware.resilience import VirtualClock
from repro.observability import QueryTracer
from repro.parallel import ParallelAccessExecutor
from repro.scoring import means, tnorms
from repro.scoring.owa import owa_mean
from repro.scoring.weighted import WeightedScoring
from repro.sql.compiler import compile_sql
from repro.workloads.graded_lists import independent
from tests.per_row import columns
from tests.strategies import COMBINES, pick_k, with_combine
from tests.strategies import graded_databases as shared_graded_databases


def graded_databases(min_m=1, max_m=3, max_n=16):
    return shared_graded_databases(
        min_m=min_m, max_m=max_m, max_n=max_n, rows="list"
    )


def pick_rule(m, index):
    """Rules with a native batch form first, then rules whose batch form
    is the per-row loop (pow/log folds numpy cannot match ulp for ulp)."""
    weights = ((1.0,), (0.7, 0.3), (0.5, 0.3, 0.2))[m - 1]
    rules = (
        tnorms.MIN,
        tnorms.PRODUCT,
        means.MEAN,
        owa_mean(m),
        WeightedScoring(tnorms.MIN, weights),
        tnorms.YagerTNorm(2.0),
        means.GEOMETRIC_MEAN,
    )
    return rules[index % len(rules)]


def run_naive(sources, rule, k, tracer, executor):
    return naive_top_k(sources, rule, k, tracer=tracer, executor=executor)


def run_a0(sources, rule, k, tracer, executor):
    return fagin_top_k(sources, rule, k, tracer=tracer, executor=executor)


def ta_with_window(batch_size):
    def run(sources, rule, k, tracer, executor):
        return threshold_top_k(
            sources, rule, k, batch_size=batch_size, tracer=tracer,
            executor=executor,
        )

    return run


run_ta = ta_with_window(3)


def run_nra(sources, rule, k, tracer, executor):
    return nra_top_k(
        sources, rule, k, batch_size=3, tracer=tracer, executor=executor
    )


def run_ca(sources, rule, k, tracer, executor):
    return combined_top_k(
        sources, rule, k, ratio=3.0, tracer=tracer, executor=executor
    )


ALGORITHMS = (
    ("naive", run_naive),
    ("a0", run_a0),
    ("ta", run_ta),
    ("nra", run_nra),
    ("ca", run_ca),
)


def run_once(algorithm, table, rule, k, backend, combine, workers=1, traced=True):
    sources = columns(table, backend)
    rule = with_combine(rule, combine)
    tracer = QueryTracer() if traced else None
    if workers == 1:
        result = algorithm(sources, rule, k, tracer, None)
    else:
        with ParallelAccessExecutor(workers) as executor:
            result = algorithm(sources, rule, k, tracer, executor)
    return result, tracer.to_json() if traced else None


def assert_identical(name, scalar, vector, scalar_trace, vector_trace):
    __tracebackhide__ = True
    assert [
        (item.object_id, item.grade) for item in vector.answers
    ] == [(item.object_id, item.grade) for item in scalar.answers], name
    assert vector.cost == scalar.cost, name
    assert vector.sorted_depth == scalar.sorted_depth, name
    assert vector.grades_exact == scalar.grades_exact, name
    assert vector.algorithm == scalar.algorithm, name
    assert vector_trace == scalar_trace, name


def edge_table(rows):
    return {f"o{i:02d}": list(row) for i, row in enumerate(rows)}, len(rows[0])


DENORMAL = 5e-324
BELOW_ONE = 1.0 - 2.0**-53

#: the inputs where the two combine forms are most likely to diverge:
#: a single list, k past N, nothing but ties, constant columns, and
#: grades at the edges of float64's [0, 1]
EDGE_DATABASES = (
    edge_table([(0.5,), (0.9,), (0.5,), (0.0,)]),
    edge_table([(0.5, 0.5, 0.5)] * 6),
    edge_table([(0.0, 0.0)] * 5),
    edge_table([(1.0, 1.0)] * 5),
    edge_table([(0.0, 1.0), (0.0, 0.25), (0.0, 1.0), (0.0, 0.75)]),
    edge_table([(1.0, 0.1), (1.0, 0.9), (1.0, 0.9)]),
    # one object surfacing in two lists in the same TA round (row 0,
    # then row 1), the others in different rounds
    edge_table([(0.9, 0.8), (0.7, 0.6), (0.2, 0.4), (0.3, 0.1)]),
    edge_table(
        [
            (DENORMAL, BELOW_ONE),
            (BELOW_ONE, DENORMAL),
            (0.0, BELOW_ONE),
            (DENORMAL, DENORMAL),
            (BELOW_ONE, BELOW_ONE),
            (1.0, DENORMAL),
        ]
    ),
)


def edge_examples(test):
    for database in EDGE_DATABASES:
        for rule_index in (0, 1, 2):
            for selector in (0, 1, 2):
                test = example(database, rule_index, selector, "array")(test)
        test = example(database, 4, 2, "per-row")(test)
        test = example(database, 6, 1, "array")(test)
    return test


@settings(deadline=None, max_examples=40)
@given(
    graded_databases(),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(("array", "per-row")),
)
@edge_examples
def test_vector_kernel_is_byte_identical(database, rule_index, selector, backend):
    table, m = database
    rule = pick_rule(m, rule_index)
    k = pick_k(table, selector)
    for name, algorithm in ALGORITHMS:
        scalar, scalar_trace = run_once(algorithm, table, rule, k, backend, "scalar")
        vector, vector_trace = run_once(algorithm, table, rule, k, backend, "vector")
        assert_identical(name, scalar, vector, scalar_trace, vector_trace)
        # untraced (on array sources TA's bulk super-round, no per-access
        # events) must produce the same answers and charges
        untraced, _ = run_once(
            algorithm, table, rule, k, backend, "vector", traced=False
        )
        assert_identical(f"{name}/untraced", scalar, untraced, None, None)


@settings(deadline=None, max_examples=8)
@given(graded_databases(min_m=2), st.integers(min_value=0, max_value=6))
def test_kernels_and_workers_commute(database, rule_index):
    """combine x workers {1,4}: all four runs produce the same bytes."""
    table, m = database
    rule = pick_rule(m, rule_index)
    k = min(len(table), 5)
    for name, algorithm in ALGORITHMS:
        baseline, baseline_trace = run_once(
            algorithm, table, rule, k, "array", "scalar", workers=1
        )
        for combine in COMBINES:
            for workers in (1, 4):
                result, trace = run_once(
                    algorithm, table, rule, k, "array", combine, workers=workers
                )
                label = f"{name}/{combine}/workers={workers}"
                assert_identical(label, baseline, result, baseline_trace, trace)


# ---------------------------------------------------------------------------
# Degradation parity: both combine forms make the same fallback decisions.

K = 8


def faulty_sources(profile, only, n=200, m=3, seed=11):
    clock = VirtualClock()
    sources = sources_from_columns(independent(n, m, seed=seed))
    return [
        FaultInjectingSource(source, profile, clock=clock) if j in only else source
        for j, source in enumerate(sources)
    ]


def run_degraded(algorithm, profile, only, combine, **kwargs):
    tracer = QueryTracer()
    result = algorithm(
        faulty_sources(profile, only), with_combine(tnorms.MIN, combine), K,
        tracer=tracer, **kwargs,
    )
    return result, tracer.to_json()


def assert_degraded_identical(scalar, vector, scalar_trace, vector_trace):
    __tracebackhide__ = True
    assert vector.algorithm == scalar.algorithm
    assert [
        (item.object_id, item.grade) for item in vector.answers
    ] == [(item.object_id, item.grade) for item in scalar.answers]
    assert vector.cost == scalar.cost
    assert (vector.degraded is None) == (scalar.degraded is None)
    if scalar.degraded is not None:
        assert vector.degraded.complete == scalar.degraded.complete
        assert vector.degraded.fallback == scalar.degraded.fallback
        assert vector.degraded.failed_sources == scalar.degraded.failed_sources
        assert vector.degraded.bounds == scalar.degraded.bounds
    assert vector_trace == scalar_trace


@pytest.mark.parametrize("algorithm", (threshold_top_k, fagin_top_k))
def test_random_access_death_degrades_identically(algorithm):
    profile = FaultProfile(break_random_after=5)
    scalar, scalar_trace = run_degraded(algorithm, profile, {2}, "scalar")
    vector, vector_trace = run_degraded(algorithm, profile, {2}, "vector")
    assert scalar.degraded is not None and scalar.degraded.complete
    assert_degraded_identical(scalar, vector, scalar_trace, vector_trace)


@pytest.mark.parametrize(
    "algorithm, kwargs",
    ((threshold_top_k, {}), (nra_top_k, {"batch_size": 16})),
)
def test_total_source_death_degrades_identically(algorithm, kwargs):
    profile = FaultProfile(kill_after=40)
    scalar, scalar_trace = run_degraded(algorithm, profile, {2}, "scalar", **kwargs)
    vector, vector_trace = run_degraded(algorithm, profile, {2}, "vector", **kwargs)
    assert scalar.degraded is not None
    assert_degraded_identical(scalar, vector, scalar_trace, vector_trace)


def test_a0_propagates_total_death_identically():
    """A0 treats a dead sorted stream as fatal under either combine form
    (only random-access loss degrades); the error must not depend on it."""
    profile = FaultProfile(kill_after=40)
    messages = []
    for combine in COMBINES:
        with pytest.raises(TransientAccessError) as excinfo:
            run_degraded(fagin_top_k, profile, {2}, combine)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_a0_paging_after_degradation_matches_across_kernels():
    profile = FaultProfile(break_random_after=5)
    handles = [
        FaginAlgorithm(
            faulty_sources(profile, {2}), with_combine(tnorms.MIN, combine)
        )
        for combine in COMBINES
    ]
    for _ in range(3):
        scalar_page, vector_page = (handle.next_k(4) for handle in handles)
        assert [
            (item.object_id, item.grade) for item in vector_page.answers
        ] == [(item.object_id, item.grade) for item in scalar_page.answers]
        assert vector_page.cost == scalar_page.cost
        # what the NRA continuation learned is read back into ``_known``
        # identically under either combine form, first-seen order included
        scalar_known, vector_known = (handle._known for handle in handles)
        assert vector_known == scalar_known
        assert list(vector_known) == list(scalar_known)


class SortedStreamDies(WrapperSource):
    """Sorted access fails for good past ``limit`` deliveries; random
    access keeps working."""

    def __init__(self, inner, limit):
        super().__init__(inner)
        self._limit = limit

    def _consume(self, start, count):
        if start + count > self._limit:
            raise TransientAccessError(f"{self.name}: sorted stream is gone")
        self._inner._consume(start, count)


def run_faulty_ta(combine, rule, *, traced, degrade, batch_size, sorted_limit,
                  random_breaks_after=None):
    """TA over 200 x 3 lists whose list 1 stops shipping sorted rows past
    ``sorted_limit`` and whose list 2, optionally, loses random access
    after ``random_breaks_after`` probes.  Returns what the two combine
    forms must agree on: the result (or the propagated error), the trace,
    and every source's charged accesses."""
    sources = sources_from_columns(independent(200, 3, seed=11))
    sources[1] = SortedStreamDies(sources[1], sorted_limit)
    if random_breaks_after is not None:
        sources[2] = FaultInjectingSource(
            sources[2],
            FaultProfile(break_random_after=random_breaks_after),
            clock=VirtualClock(),
        )
    tracer = QueryTracer() if traced else None
    try:
        outcome = threshold_top_k(
            sources, with_combine(rule, combine), K, batch_size=batch_size,
            degrade=degrade, tracer=tracer,
        )
    except TransientAccessError as error:
        outcome = error
    charged = [
        (source.counter.sorted_accesses, source.counter.random_accesses)
        for source in sources
    ]
    return outcome, tracer.to_json() if traced else None, charged


def assert_faulty_runs_identical(scalar_run, vector_run, *, degrade):
    __tracebackhide__ = True
    (scalar, scalar_trace, scalar_charged) = scalar_run
    (vector, vector_trace, vector_charged) = vector_run
    assert vector_charged == scalar_charged
    if degrade:
        assert scalar.algorithm == "threshold-ta+nra"
        assert vector.sorted_depth == scalar.sorted_depth
        assert_degraded_identical(scalar, vector, scalar_trace, vector_trace)
    else:
        assert isinstance(scalar, TransientAccessError)
        assert type(vector) is type(scalar) and str(vector) == str(scalar)
        assert vector_trace == scalar_trace


@pytest.mark.parametrize("rule", (tnorms.MIN, means.MEAN), ids=("min", "mean"))
def test_ta_hands_a_dead_sorted_stream_to_nra_identically(rule):
    """TA's sorted consume fails while its probes still succeed: the
    access log is replayed into the bounds state, and the continuation
    must not be able to tell which combine form folds it — traced or
    not; with ``degrade=False`` the same error propagates after the same
    charges."""
    for degrade in (True, False):
        for traced in (True, False):
            scalar_run, vector_run = (
                run_faulty_ta(
                    combine, rule, traced=traced, degrade=degrade, batch_size=8,
                    sorted_limit=20,
                )
                for combine in COMBINES
            )
            if degrade:
                assert list(scalar_run[0].degraded.failed_sources) == ["A2"]
            assert_faulty_runs_identical(scalar_run, vector_run, degrade=degrade)


@pytest.mark.parametrize("traced", (True, False), ids=("traced", "untraced"))
@pytest.mark.parametrize("degrade", (True, False), ids=("degrade", "propagate"))
@pytest.mark.parametrize("batch_size", (4, 64))
def test_ta_probe_failure_mid_window_with_a_stream_dying_in_the_consume(
    batch_size, degrade, traced
):
    """List 2's random access breaks on a row > 0 of a window; consuming
    the rows TA already used then kills list 1's sorted stream, so the
    continuation starts with one failure of each kind."""
    scalar_run, vector_run = (
        run_faulty_ta(
            combine, tnorms.MIN, traced=traced, degrade=degrade,
            batch_size=batch_size, sorted_limit=1, random_breaks_after=5,
        )
        for combine in COMBINES
    )
    if degrade:
        assert sorted(scalar_run[0].degraded.failed_sources) == ["A2", "faulty(A3)"]
        _, _, charged = scalar_run
        assert charged[1] == (0, 6)  # list 1 never shipped a sorted row
    assert_faulty_runs_identical(scalar_run, vector_run, degrade=degrade)


@pytest.mark.parametrize("backend", ("array", "per-row"))
def test_ta_hands_nra_its_first_seen_order(backend):
    """Ids ``1`` and ``"1"`` tie on NRA's whole ``(-grade, str(id))``
    answer key, so their order shows the first-seen order of the state
    TA handed over.  TA saw ``1`` first (row 0 of list 1; ``"1"`` is row
    1 of list 0) — a per-list replay of the window would say ``"1"``."""
    table = {
        "a": [0.9, 0.1],
        "1": [0.75, 0.5],
        "b": [0.6, 0.05],
        1: [0.5, 0.75],
        "c": [0.05, 0.7],
        "d": [0.04, 0.65],
        "e": [0.03, 0.02],
        "f": [0.02, 0.01],
    }
    for combine in COMBINES:
        sources = columns(table, backend)
        sources[1] = SortedStreamDies(sources[1], 2)
        result = threshold_top_k(
            sources, with_combine(means.MEAN, combine), 3, batch_size=3
        )
        assert result.algorithm == "threshold-ta+nra"
        assert [(item.object_id, item.grade) for item in result.answers] == [
            (1, 0.625), ("1", 0.625), ("a", 0.5),
        ], combine


# ---------------------------------------------------------------------------
# TA's window mechanics: where a stop falls in a window, and what a
# tracer sees of tau.


STOP_ROW_KS = (1, 2, 3, 4, 5, 6)


def stop_row_table():
    return independent(40, 2, seed=5)


@pytest.mark.parametrize("k", STOP_ROW_KS)
def test_ta_stop_row_is_independent_of_the_window(k):
    """batch_size 1, 2 and N put the same stop on the only row, the last
    or the first row, and the middle of a window."""
    table = stop_row_table()
    baseline, baseline_trace = run_once(
        ta_with_window(1), table, tnorms.MIN, k, "array", "scalar"
    )
    for batch_size in (1, 2, len(table)):
        for combine in COMBINES:
            for traced in (True, False):
                result, trace = run_once(
                    ta_with_window(batch_size), table, tnorms.MIN, k, "array",
                    combine, traced=traced,
                )
                assert_identical(
                    f"batch={batch_size}/{combine}/traced={traced}",
                    baseline, result, baseline_trace if traced else None, trace,
                )


def test_ta_stop_rows_cover_both_window_edges():
    """The k values above stop at odd and at even depths, i.e. with
    ``batch_size=2`` on the first and on the last row of a window."""
    depths = {
        run_once(
            run_ta, stop_row_table(), tnorms.MIN, k, "array", "scalar", traced=False
        )[0].sorted_depth % 2
        for k in STOP_ROW_KS
    }
    assert depths == {0, 1}


class CountingMin(tnorms.MinimumTNorm):
    """``min`` that counts its scalar evaluations."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _combine(self, grades):
        self.calls += 1
        return super()._combine(grades)


@pytest.mark.parametrize("theta", (1.0, 1.5))
def test_traced_tau_is_sampled_once_per_row_with_the_stop_tests_value(theta):
    table = independent(60, 2, seed=2)
    trajectories = []
    for backend in ("per-row", "array"):
        rule = CountingMin()
        sources = columns(table, backend)
        tracer = QueryTracer()
        result = threshold_top_k(
            sources, rule, 4, batch_size=7, theta=theta, tracer=tracer
        )
        taus = [value for _, value in tracer.samples("ta.tau")]
        assert len(taus) == result.sorted_depth
        (stop,) = [
            event for event in tracer.events
            if event["type"] == "event" and event["name"] == "stop"
        ]
        assert stop["attrs"]["tau"] == taus[-1]
        assert theta * stop["attrs"]["kth"] >= taus[-1]
        if theta > 1.0:
            assert result.approximation.bound == taus[-1]
        # On the per-row path t runs once per seen object — not again for the stop
        # test or the certificate — and tau never calls it: min's native
        # batch form folds a window's thresholds without ``_combine``.
        # On arrays the bulk round, traced too, scores with
        # ``combine_matrix`` and never calls the scalar form.
        seen = {
            item.object_id
            for source in sources
            for item in source.cursor().peek_batch(result.sorted_depth)
        }
        assert rule.calls == (len(seen) if backend == "per-row" else 0)
        trajectories.append(taus)
    assert trajectories[0] == trajectories[1]


# ---------------------------------------------------------------------------
# The engine: wrapped and columnar bindings, catalog and user rules.


def build_engine(n=40):
    from repro.middleware.list_subsystem import ListSubsystem
    import random

    rng = random.Random(9)
    engine = MiddlewareEngine()
    qbic = ListSubsystem("qbic")
    qbic.add_list("Color", "red", {f"g{i}": rng.random() for i in range(n)})
    qbic.add_list("Shape", "round", {f"g{i}": rng.random() for i in range(n)})
    engine.register(qbic)
    return engine


def test_engine_kernel_results_identical():
    """Native bindings, array and memmap bindings and sharded ones,
    under min and under a user rule computing min: one set of answers,
    costs and sorted depths."""
    atoms = (Atomic("Color", "red"), Atomic("Shape", "round"))
    baseline = build_engine().top_k(atoms[0] & atoms[1], 5)
    pairs = [(item.object_id, item.grade) for item in baseline.answers]
    layouts = [(None, 1)] + [
        (backend, shards)
        for backend in ("array", "memmap")
        for shards in (1, 3)
    ]
    for backend, shards in layouts:
        for combine in COMBINES:
            with build_engine() as session:
                if backend is not None:
                    session.configure_storage(backend, shards=shards)
                query = Scored(with_combine(tnorms.MIN, combine), atoms)
                result = session.top_k(query, 5)
            label = f"{backend}/{shards}/{combine}"
            assert [(i.object_id, i.grade) for i in result.answers] == pairs, label
            assert result.cost == baseline.cost, label
            assert result.sorted_depth == baseline.sorted_depth, label


class ColumnSubsystem(Subsystem):
    """Serves every ``<column> = <anything>`` atom as a bare ArraySource
    (``backend="array"``) or one behind a pass-through wrapper
    (``backend="per-row"``)."""

    def __init__(self, ids, columns, backend):
        super().__init__("columns")
        self._ids = ids
        self._columns = columns
        self._backend = backend

    def attributes(self):
        return frozenset(self._columns)

    def _bind(self, atom):
        column = self._columns[atom.attribute]
        source = ArraySource.from_arrays(self._ids, column, name=str(atom))
        return WrapperSource(source) if self._backend == "per-row" else source


def columnar_engine(backend="array", n=400, seed=3):
    """In-RAM columns c0..c2 plus a VA-file kNN subsystem over ``Near``:
    with ``backend="array"`` every binding is columnar, as in the
    end-to-end benchmark."""
    rng = np.random.default_rng(seed)
    ids = [f"o{i}" for i in range(n)]
    engine = MiddlewareEngine()
    engine.register(
        ColumnSubsystem(ids, {f"c{j}": rng.random(n) for j in range(3)}, backend)
    )
    engine.register(KnnSubsystem("knn", ids, rng.random((n, 4)), index="vafile"))
    return engine


#: the query shapes of the end-to-end benchmark, as SQL: a conjunction
#: under min, a USING rule, a kNN atom next to a column, and an
#: NRA-preferred conjunction
BENCH_SHAPES = (
    ("SELECT * FROM t WHERE c0 = 'x' AND c1 = 'x' STOP AFTER 10", None),
    (
        "SELECT * FROM t WHERE c0 = 'x' AND c1 = 'x' AND c2 = 'x' "
        "USING mean STOP AFTER 10",
        None,
    ),
    ("SELECT * FROM t WHERE c0 = 'x' AND c1 = 'x' USING product STOP AFTER 20", None),
    ("SELECT * FROM t WHERE Near = 'sunset' AND c0 = 'x' STOP AFTER 10", None),
    ("SELECT * FROM t WHERE c0 = 'x' AND c1 = 'x' STOP AFTER 10", Strategy.NRA),
)


def split_physical_work(trace_json):
    """The trace with the index's distance-evaluation counters blanked,
    and those counters' values in trace order.

    They count physical work, not charged accesses: over columnar
    bindings TA grades a window's candidates in one block, including
    objects past its stop row, so the counters may grow while every
    access event stays identical."""
    trace = json.loads(trace_json)
    evaluations = []
    for event in trace["events"]:
        if event.get("name") == "index_breakdown":
            evaluations.append(event["attrs"]["distance_evals"])
            event["attrs"]["distance_evals"] = None
        elif event.get("name") == "index.distance_evals":
            evaluations.append(event["value"])
            event["value"] = None
    return trace, evaluations


@pytest.mark.parametrize("sql, prefer", BENCH_SHAPES)
def test_engine_sql_shapes_identical_across_kernels(sql, prefer):
    """SQL through ``engine.top_k`` over wrapped bindings (TA's per-row
    path) and over columnar ones (the bulk round): same answers, costs,
    algorithm and trace.  The one
    relaxation is the kNN shape's distance-evaluation counters, which
    may only grow past the per-row run's; every shape without a kNN atom
    is byte-identical."""
    query = compile_sql(sql)
    runs = []
    for backend in ("per-row", "array"):
        tracer = QueryTracer()
        result = columnar_engine(backend).top_k(
            query, 10, prefer=prefer, tracer=tracer
        )
        runs.append((result, tracer.to_json()))
    (reference, reference_trace), (result, trace) = runs
    reference_masked, reference_evaluations = split_physical_work(reference_trace)
    assert bool(reference_evaluations) == ("Near" in sql)
    masked, evaluations = split_physical_work(trace)
    assert_identical("array", reference, result, reference_masked, masked)
    assert len(evaluations) == len(reference_evaluations)
    assert all(
        ours >= theirs for ours, theirs in zip(evaluations, reference_evaluations)
    )
    if "Near" not in sql:
        assert trace == reference_trace
    untraced = columnar_engine().top_k(query, 10, prefer=prefer)
    assert_identical("array/untraced", reference, untraced, None, None)
