"""Differential conformance across physical storage backends.

The tentpole contract of the storage refactor: for every algorithm,
answers, tie-breaks, charged access counts, and traces are
byte-identical across {ArraySource behind a pass-through wrapper
(TA's charged per-row probes), MemmapSource, ShardedSource(K in 1, 2, 5)} x
{per-row, native combine} x {1, 4 workers}.  Hypothesis drives small adversarial databases (clustered
grade levels so cross-backend tie-breaking is constantly exercised);
the reference run is always ArraySource / per-row combine / serial.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fagin import fagin_top_k
from repro.core.naive import naive_top_k
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.observability import QueryTracer
from repro.parallel import ParallelAccessExecutor
from repro.scoring import means, tnorms
from tests.per_row import columns
from tests.strategies import COMBINES, with_combine
from tests.strategies import graded_databases as shared_graded_databases

# (label, backend, shards): every physical layout under test
LAYOUTS = (
    ("per-row", "per-row", 1),
    ("memmap", "memmap", 1),
    ("sharded-k1", "array", 1),
    ("sharded-k2", "array", 2),
    ("sharded-k5", "array", 5),
    ("sharded-memmap-k2", "memmap", 2),
)


def graded_databases(min_m=2, max_m=3, max_n=14):
    return shared_graded_databases(
        min_m=min_m, max_m=max_m, max_n=max_n, rows="list"
    )


def run_naive(sources, rule, k, tracer, executor):
    return naive_top_k(sources, rule, k, tracer=tracer, executor=executor)


def run_a0(sources, rule, k, tracer, executor):
    return fagin_top_k(sources, rule, k, tracer=tracer, executor=executor)


def run_ta(sources, rule, k, tracer, executor):
    return threshold_top_k(
        sources, rule, k, batch_size=3, tracer=tracer, executor=executor
    )


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


def run_once(algorithm, table, rule, k, *, backend, shards, combine, workers=1):
    # memmap layouts build into a temporary directory owned by the
    # sources themselves; nothing to clean up here
    sources = columns(table, backend, shards=shards)
    rule = with_combine(rule, combine)
    tracer = QueryTracer()
    if workers == 1:
        result = algorithm(sources, rule, k, tracer, None)
    else:
        with ParallelAccessExecutor(workers) as executor:
            result = algorithm(sources, rule, k, tracer, executor)
    return result, tracer.to_json()


def assert_identical(label, reference, result, reference_trace, trace):
    __tracebackhide__ = True
    assert [
        (item.object_id, item.grade) for item in result.answers
    ] == [(item.object_id, item.grade) for item in reference.answers], label
    assert result.cost == reference.cost, label
    assert result.sorted_depth == reference.sorted_depth, label
    assert result.grades_exact == reference.grades_exact, label
    assert trace == reference_trace, label


def pick_rule(m, index):
    rules = (tnorms.MIN, tnorms.PRODUCT, means.MEAN)
    return rules[index % len(rules)]


@settings(deadline=None, max_examples=12)
@given(
    graded_databases(),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
def test_backends_are_byte_identical(database, rule_index, selector):
    table, m = database
    rule = pick_rule(m, rule_index)
    k = (1, len(table), len(table) + 2)[selector]
    for name, algorithm in ALGORITHMS:
        reference, reference_trace = run_once(
            algorithm, table, rule, k,
            backend="array", shards=1, combine="scalar",
        )
        for label, backend, shards in LAYOUTS:
            result, trace = run_once(
                algorithm, table, rule, k,
                backend=backend, shards=shards, combine="scalar",
            )
            assert_identical(
                f"{name}/{label}", reference, result, reference_trace, trace
            )


@settings(deadline=None, max_examples=6)
@given(graded_databases(), st.integers(min_value=0, max_value=2))
def test_backends_kernels_workers_commute(database, rule_index):
    """layout x combine x workers: every combination produces the same
    bytes as the monolithic per-row serial reference."""
    table, m = database
    rule = pick_rule(m, rule_index)
    k = min(len(table), 5)
    for name, algorithm in ALGORITHMS:
        reference, reference_trace = run_once(
            algorithm, table, rule, k,
            backend="array", shards=1, combine="scalar",
        )
        for label, backend, shards in (
            ("memmap", "memmap", 1),
            ("sharded-k2", "array", 2),
            ("sharded-k5", "array", 5),
        ):
            for combine in COMBINES:
                for workers in (1, 4):
                    result, trace = run_once(
                        algorithm, table, rule, k,
                        backend=backend, shards=shards,
                        combine=combine, workers=workers,
                    )
                    assert_identical(
                        f"{name}/{label}/{combine}/workers={workers}",
                        reference, result, reference_trace, trace,
                    )
