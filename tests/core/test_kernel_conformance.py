"""Differential conformance for the vectorized kernels (repro.kernels).

The contract: for batch-exact rules the vector kernel is byte-identical
to the scalar kernel — same answers, same tie-breaks, same charged
access counts, same traces, same degradation behavior — at every
algorithm, over both columnar (ArraySource) and item-based (ListSource)
backends, serial and parallel.  Hypothesis drives the differential
runs; deterministic tests pin down kernel resolution, the engine/CLI
plumbing, degradation parity, and the ``stop_check_growth`` schedule.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import compile_query
from repro.core.fagin import FaginAlgorithm, fagin_top_k
from repro.core.naive import naive_top_k
from repro.core.planner import Strategy
from repro.core.query import Atomic, Scored
from repro.core.sources import ArraySource, GradedSource, sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import ReproError, TransientAccessError
from repro.index import KnnSubsystem
from repro.kernels import configure_kernel, default_kernel, resolve_kernel
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
from tests.strategies import graded_databases as shared_graded_databases
from tests.strategies import pick_k


def graded_databases(min_m=1, max_m=3, max_n=16):
    return shared_graded_databases(
        min_m=min_m, max_m=max_m, max_n=max_n, rows="list"
    )


def pick_rule(m, index):
    """Batch-exact rules only: the byte-identity contract applies to
    these (pow/log rules agree to 1e-12 and are excluded from auto)."""
    weights = ((1.0,), (0.7, 0.3), (0.5, 0.3, 0.2))[m - 1]
    rules = (
        tnorms.MIN,
        tnorms.PRODUCT,
        means.MEAN,
        owa_mean(m),
        WeightedScoring(tnorms.MIN, weights),
    )
    return rules[index % len(rules)]


def run_naive(sources, rule, k, tracer, executor, kernel):
    return naive_top_k(
        sources, rule, k, tracer=tracer, executor=executor, kernel=kernel
    )


def run_a0(sources, rule, k, tracer, executor, kernel):
    return fagin_top_k(
        sources, rule, k, tracer=tracer, executor=executor, kernel=kernel
    )


def ta_with_window(batch_size):
    def run(sources, rule, k, tracer, executor, kernel):
        return threshold_top_k(
            sources, rule, k, batch_size=batch_size, tracer=tracer,
            executor=executor, kernel=kernel,
        )

    return run


run_ta = ta_with_window(3)


def run_nra(sources, rule, k, tracer, executor, kernel):
    return nra_top_k(
        sources, rule, k, batch_size=3, tracer=tracer, executor=executor,
        kernel=kernel,
    )


def run_ca(sources, rule, k, tracer, executor, kernel):
    return combined_top_k(
        sources, rule, k, ratio=3.0, tracer=tracer, executor=executor,
        kernel=kernel,
    )


ALGORITHMS = (
    ("naive", run_naive),
    ("a0", run_a0),
    ("ta", run_ta),
    ("nra", run_nra),
    ("ca", run_ca),
)


def run_once(algorithm, table, rule, k, backend, kernel, workers=1, traced=True):
    sources = sources_from_columns(table, backend=backend)
    tracer = QueryTracer() if traced else None
    if workers == 1:
        result = algorithm(sources, rule, k, tracer, None, kernel)
    else:
        with ParallelAccessExecutor(workers) as executor:
            result = algorithm(sources, rule, k, tracer, executor, kernel)
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

#: the hand-offs between the two bounds states most likely to diverge:
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
        test = example(database, 4, 2, "list")(test)
    return test


@settings(deadline=None, max_examples=40)
@given(
    graded_databases(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(("array", "list")),
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
        # the untraced vector path (TA's bulk super-round, no per-access
        # events) must produce the same answers and charges
        untraced, _ = run_once(
            algorithm, table, rule, k, backend, "vector", traced=False
        )
        assert_identical(f"{name}/untraced", scalar, untraced, None, None)


@settings(deadline=None, max_examples=8)
@given(graded_databases(min_m=2), st.integers(min_value=0, max_value=4))
def test_kernels_and_workers_commute(database, rule_index):
    """kernel x workers {1,4}: all four runs produce the same bytes."""
    table, m = database
    rule = pick_rule(m, rule_index)
    k = min(len(table), 5)
    for name, algorithm in ALGORITHMS:
        baseline, baseline_trace = run_once(
            algorithm, table, rule, k, "array", "scalar", workers=1
        )
        for kernel in ("scalar", "vector"):
            for workers in (1, 4):
                result, trace = run_once(
                    algorithm, table, rule, k, "array", kernel, workers=workers
                )
                label = f"{name}/{kernel}/workers={workers}"
                assert_identical(label, baseline, result, baseline_trace, trace)


@settings(deadline=None, max_examples=20)
@given(graded_databases(), st.integers(min_value=0, max_value=4))
def test_auto_kernel_matches_forced_kernels(database, rule_index):
    """auto resolves to one of the two and therefore agrees with both."""
    table, m = database
    rule = pick_rule(m, rule_index)
    k = min(len(table), 4)
    for backend in ("array", "list"):
        scalar, scalar_trace = run_once(run_nra, table, rule, k, backend, "scalar")
        auto, auto_trace = run_once(run_nra, table, rule, k, backend, "auto")
        assert_identical("nra/auto", scalar, auto, scalar_trace, auto_trace)


# ---------------------------------------------------------------------------
# resolve_kernel / configure_kernel


def _array_sources():
    return sources_from_columns({"a": [0.5, 0.2], "b": [0.1, 0.9]}, backend="array")


def _list_sources():
    return sources_from_columns({"a": [0.5, 0.2], "b": [0.1, 0.9]}, backend="list")


def test_auto_picks_vector_for_columnar_batch_exact():
    assert resolve_kernel("auto", _array_sources(), tnorms.MIN) == "vector"


def test_auto_falls_back_for_item_backed_sources():
    assert resolve_kernel("auto", _list_sources(), tnorms.MIN) == "scalar"


def test_auto_falls_back_for_non_batch_exact_rules():
    assert not means.GEOMETRIC_MEAN.batch_exact
    assert resolve_kernel("auto", _array_sources(), means.GEOMETRIC_MEAN) == "scalar"


def test_auto_falls_back_for_wrapped_sources():
    clock = VirtualClock()
    wrapped = [
        FaultInjectingSource(source, FaultProfile(), clock=clock)
        for source in _array_sources()
    ]
    assert resolve_kernel("auto", wrapped, tnorms.MIN) == "scalar"


def test_forced_kernels_resolve_anywhere():
    assert resolve_kernel("vector", _list_sources(), means.GEOMETRIC_MEAN) == "vector"
    assert resolve_kernel("scalar", _array_sources(), tnorms.MIN) == "scalar"


def test_unknown_kernel_name_rejected():
    with pytest.raises(ReproError):
        resolve_kernel("simd", _array_sources(), tnorms.MIN)
    with pytest.raises(ReproError):
        configure_kernel("simd")


def test_configure_kernel_sets_the_default():
    assert default_kernel() == "auto"
    try:
        assert configure_kernel("scalar") == "scalar"
        assert default_kernel() == "scalar"
        assert resolve_kernel(None, _array_sources(), tnorms.MIN) == "scalar"
        configure_kernel("vector")
        assert resolve_kernel(None, _list_sources(), means.GEOMETRIC_MEAN) == "vector"
    finally:
        configure_kernel("auto")
    assert resolve_kernel(None, _array_sources(), tnorms.MIN) == "vector"


def test_forced_vector_result_matches_scalar_on_non_exact_rule():
    """Forcing vector on a non-batch-exact rule is allowed; answers agree
    to 1e-12 even though auto would decline the pairing."""
    table = {f"o{i:02d}": [((i * 7) % 10) / 10.0, ((i * 3) % 10) / 10.0]
             for i in range(12)}
    scalar, _ = run_once(run_nra, table, means.GEOMETRIC_MEAN, 4, "array", "scalar")
    vector, _ = run_once(run_nra, table, means.GEOMETRIC_MEAN, 4, "array", "vector")
    assert [item.object_id for item in vector.answers] == [
        item.object_id for item in scalar.answers
    ]
    for ours, theirs in zip(vector.answers, scalar.answers):
        assert ours.grade == pytest.approx(theirs.grade, abs=1e-12)


# ---------------------------------------------------------------------------
# Degradation parity: kernels make the same fallback decisions.

K = 8


def faulty_sources(profile, only, n=200, m=3, seed=11):
    clock = VirtualClock()
    sources = sources_from_columns(independent(n, m, seed=seed))
    return [
        FaultInjectingSource(source, profile, clock=clock) if j in only else source
        for j, source in enumerate(sources)
    ]


def run_degraded(algorithm, profile, only, kernel, **kwargs):
    tracer = QueryTracer()
    result = algorithm(
        faulty_sources(profile, only), tnorms.MIN, K, tracer=tracer,
        kernel=kernel, **kwargs,
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
    """A0 treats a dead sorted stream as fatal on both kernels (only
    random-access loss degrades); the error must not depend on kernel."""
    from repro.errors import TransientAccessError

    profile = FaultProfile(kill_after=40)
    messages = []
    for kernel in ("scalar", "vector"):
        with pytest.raises(TransientAccessError) as excinfo:
            run_degraded(fagin_top_k, profile, {2}, kernel)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_a0_paging_after_degradation_matches_across_kernels():
    profile = FaultProfile(break_random_after=5)
    handles = [
        FaginAlgorithm(faulty_sources(profile, {2}), tnorms.MIN, kernel=kernel)
        for kernel in ("scalar", "vector")
    ]
    for _ in range(3):
        scalar_page, vector_page = (handle.next_k(4) for handle in handles)
        assert [
            (item.object_id, item.grade) for item in vector_page.answers
        ] == [(item.object_id, item.grade) for item in scalar_page.answers]
        assert vector_page.cost == scalar_page.cost
        # what the NRA continuation learned is read back into ``_known``
        # identically from either bounds state, first-seen order included
        scalar_known, vector_known = (handle._known for handle in handles)
        assert vector_known == scalar_known
        assert list(vector_known) == list(scalar_known)


class SortedStreamDies(GradedSource):
    """Sorted access fails for good past ``limit`` deliveries; random
    access keeps working."""

    def __init__(self, inner, limit):
        super().__init__(inner.name)
        self._inner = inner
        self._limit = limit
        self.counter = inner.counter

    def _refuse_past_limit(self, end):
        if end > self._limit:
            raise TransientAccessError(f"{self.name}: sorted stream is gone")

    def _item_at(self, index):
        self._refuse_past_limit(index + 1)
        return self._inner._item_at(index)

    def _items_range(self, start, count):
        self._refuse_past_limit(start + count)
        return self._inner._items_range(start, count)

    def _peek_at(self, index):
        return self._inner._peek_at(index)

    def _peek_range(self, start, count):
        return self._inner._peek_range(start, count)

    def _grade_of(self, object_id):
        return self._inner._grade_of(object_id)

    def _grades_of_many(self, object_ids):
        return self._inner._grades_of_many(object_ids)

    def __len__(self):
        return len(self._inner)


def run_faulty_ta(kernel, rule, *, traced, degrade, batch_size, sorted_limit,
                  random_breaks_after=None):
    """TA over 200 x 3 lists whose list 1 stops shipping sorted rows past
    ``sorted_limit`` and whose list 2, optionally, loses random access
    after ``random_breaks_after`` probes.  Returns what the two kernels
    must agree on: the result (or the propagated error), the trace, and
    every source's charged accesses."""
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
            sources, rule, K, batch_size=batch_size, degrade=degrade,
            tracer=tracer, kernel=kernel,
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
    access log is replayed into a dict state or a matrix, and the
    continuation must not be able to tell — traced or not; with
    ``degrade=False`` the same error propagates after the same charges."""
    for degrade in (True, False):
        for traced in (True, False):
            scalar_run, vector_run = (
                run_faulty_ta(
                    kernel, rule, traced=traced, degrade=degrade, batch_size=8,
                    sorted_limit=20,
                )
                for kernel in ("scalar", "vector")
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
            kernel, tnorms.MIN, traced=traced, degrade=degrade,
            batch_size=batch_size, sorted_limit=1, random_breaks_after=5,
        )
        for kernel in ("scalar", "vector")
    )
    if degrade:
        assert sorted(scalar_run[0].degraded.failed_sources) == ["A2", "faulty(A3)"]
        _, _, charged = scalar_run
        assert charged[1] == (0, 6)  # list 1 never shipped a sorted row
    assert_faulty_runs_identical(scalar_run, vector_run, degrade=degrade)


@pytest.mark.parametrize("backend", ("array", "list"))
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
    for kernel in ("scalar", "vector"):
        sources = sources_from_columns(table, backend=backend)
        sources[1] = SortedStreamDies(sources[1], 2)
        result = threshold_top_k(sources, means.MEAN, 3, batch_size=3, kernel=kernel)
        assert result.algorithm == "threshold-ta+nra"
        assert [(item.object_id, item.grade) for item in result.answers] == [
            (1, 0.625), ("1", 0.625), ("a", 0.5),
        ], kernel


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
        for kernel in ("scalar", "vector"):
            for traced in (True, False):
                result, trace = run_once(
                    ta_with_window(batch_size), table, tnorms.MIN, k, "array",
                    kernel, traced=traced,
                )
                assert_identical(
                    f"batch={batch_size}/{kernel}/traced={traced}",
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
    for kernel in ("scalar", "vector"):
        rule = CountingMin()
        sources = sources_from_columns(table, backend="list")
        tracer = QueryTracer()
        result = threshold_top_k(
            sources, rule, 4, batch_size=7, theta=theta, tracer=tracer,
            kernel=kernel,
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
        if kernel == "scalar":
            # the reference evaluates t once per seen object and once
            # per row — not again for the stop test or the certificate
            seen = {
                item.object_id
                for source in sources
                for item in source.cursor().peek_batch(result.sorted_depth)
            }
            assert rule.calls == len(seen) + result.sorted_depth
        trajectories.append(taus)
    assert trajectories[0] == trajectories[1]


# ---------------------------------------------------------------------------
# stop_check_growth (satellite): the documented doubling schedule.


def nra_depth(growth, kernel="scalar", n=120, m=3, seed=3):
    sources = sources_from_columns(independent(n, m, seed=seed))
    result = nra_top_k(
        sources, tnorms.MIN, 5, batch_size=1, stop_check_growth=growth,
        kernel=kernel,
    )
    return result


@pytest.mark.parametrize("growth", (0.0, 0.5, 0.999, -1.0))
def test_stop_check_growth_below_one_rejected(growth):
    with pytest.raises(ValueError):
        nra_depth(growth)


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
def test_stop_check_growth_overshoot_bound(seed):
    """growth=1 checks the stop test every round and therefore stops at
    the minimal depth d*; a schedule with factor g can overshoot the
    last pre-d* check by at most a factor of g: depth <= g*d* + 1."""
    minimal = nra_depth(1.0, seed=seed).sorted_depth
    for growth in (1.5, 2.0, 4.0):
        depth = nra_depth(growth, seed=seed).sorted_depth
        assert minimal <= depth <= int(growth * minimal) + 1, (growth, minimal, depth)


def test_stop_check_growth_default_is_doubling():
    sources = sources_from_columns(independent(120, 3, seed=3))
    default = nra_top_k(sources, tnorms.MIN, 5, batch_size=1)
    assert default.sorted_depth == nra_depth(2.0).sorted_depth
    assert [(i.object_id, i.grade) for i in default.answers] == [
        (i.object_id, i.grade) for i in nra_depth(2.0).answers
    ]


@pytest.mark.parametrize("growth", (1.0, 1.5, 2.0, 4.0))
def test_stop_check_growth_answers_and_kernels_agree(growth):
    scalar = nra_depth(growth, kernel="scalar")
    vector = nra_depth(growth, kernel="vector")
    truth = nra_depth(1.0)
    assert [(i.object_id, i.grade) for i in scalar.answers] == [
        (i.object_id, i.grade) for i in truth.answers
    ]
    assert vector.sorted_depth == scalar.sorted_depth
    assert vector.cost == scalar.cost
    assert [(i.object_id, i.grade) for i in vector.answers] == [
        (i.object_id, i.grade) for i in scalar.answers
    ]


# ---------------------------------------------------------------------------
# Engine plumbing: configure_kernel and per-query override.


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


def test_engine_configure_kernel_validates_and_sticks():
    engine = build_engine()
    assert engine.kernel is None
    assert engine.configure_kernel("vector") == "vector"
    assert engine.kernel == "vector"
    with pytest.raises(ReproError):
        engine.configure_kernel("simd")


def test_engine_kernel_results_identical():
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    baseline = build_engine().top_k(query, 5)
    pairs = [(item.object_id, item.grade) for item in baseline.answers]
    for kernel in ("auto", "vector", "scalar"):
        session = build_engine()
        session.configure_kernel(kernel)
        result = session.top_k(query, 5)
        assert [(i.object_id, i.grade) for i in result.answers] == pairs
        assert result.cost == baseline.cost
        # per-query override beats the session default
        override = session.top_k(query, 5, kernel="scalar")
        assert [(i.object_id, i.grade) for i in override.answers] == pairs


class ColumnSubsystem(Subsystem):
    """Serves every ``<column> = <anything>`` atom as a bare ArraySource."""

    def __init__(self, ids, columns):
        super().__init__("columns")
        self._ids = ids
        self._columns = columns

    def attributes(self):
        return frozenset(self._columns)

    def _bind(self, atom):
        return ArraySource.from_arrays(
            self._ids, self._columns[atom.attribute], name=str(atom)
        )


def columnar_engine(n=400, seed=3):
    """In-RAM columns c0..c2 plus a VA-file kNN subsystem over ``Near``:
    every binding columnar, as in the end-to-end benchmark."""
    rng = np.random.default_rng(seed)
    ids = [f"o{i}" for i in range(n)]
    engine = MiddlewareEngine()
    engine.register(
        ColumnSubsystem(ids, {f"c{j}": rng.random(n) for j in range(3)})
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

    They count physical work, not charged accesses: the vector kernel
    grades a window's candidates in one block, including objects past
    TA's stop row, so the counters may grow while every access event
    stays identical."""
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
    """SQL through ``engine.top_k`` under every kernel name: same
    answers, costs, algorithm and trace.  The one relaxation is the kNN
    shape's distance-evaluation counters, which may only grow past the
    reference kernel's; every shape without a kNN atom is byte-identical."""
    query = compile_sql(sql)
    runs = []
    for kernel in ("scalar", "vector", "auto"):
        tracer = QueryTracer()
        result = columnar_engine().top_k(
            query, 10, prefer=prefer, kernel=kernel, tracer=tracer
        )
        runs.append((result, tracer.to_json()))
    (scalar, scalar_trace), *others = runs
    scalar_masked, scalar_evaluations = split_physical_work(scalar_trace)
    assert bool(scalar_evaluations) == ("Near" in sql)
    for (result, trace), kernel in zip(others, ("vector", "auto")):
        masked, evaluations = split_physical_work(trace)
        assert_identical(kernel, scalar, result, scalar_masked, masked)
        assert len(evaluations) == len(scalar_evaluations), kernel
        assert all(
            ours >= reference
            for ours, reference in zip(evaluations, scalar_evaluations)
        ), kernel
        if "Near" not in sql:
            assert trace == scalar_trace, kernel


@pytest.mark.parametrize("sql, prefer", BENCH_SHAPES)
def test_compiled_sql_resolves_auto_to_vector_over_columnar_sources(sql, prefer):
    """A compiled catalog-rule query is natively batch-exact, so ``auto``
    runs the vector kernel over columnar bindings (ArraySource, KnnSource)."""
    engine = columnar_engine()
    query = compile_sql(sql)
    sources = engine.bind_all(query)
    assert resolve_kernel(None, sources, compile_query(query, engine.semantics)) == "vector"


def test_compiled_conjunction_and_using_resolve_to_vector_over_array_sources():
    a, b = Atomic("a", "x"), Atomic("b", "x")
    for query in (a & b, Scored(means.MEAN, (a, b))):
        assert resolve_kernel(None, _array_sources(), compile_query(query)) == "vector"
    # still scalar wherever auto's other clauses say so
    assert resolve_kernel(None, _list_sources(), compile_query(a & b)) == "scalar"


def test_cli_kernel_flag_round_trips(capsys):
    from repro.cli import main

    outputs = []
    for kernel in ("scalar", "vector"):
        assert main(["sql", "--size", "50", "-k", "3", "--kernel", kernel,
                     "SELECT * FROM albums WHERE AlbumColor = 'red' "
                     "STOP AFTER 3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
