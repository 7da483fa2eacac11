"""Differential conformance: parallel execution is byte-identical to serial.

The determinism contract of :mod:`repro.parallel` is stronger than
"same answers": for every algorithm, every scoring function, and every
worker count, a parallel run must return the *identical ordered
answers*, the *identical cost report*, and a *byte-identical trace
timeline* — fan-out may only change wall-clock time, never anything an
observer can record.  Hypothesis drives random databases (dense with
grade ties) through every algorithm at ``max_workers`` in {1, 2, 8} and
compares against the classic serial path.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boolean_first import boolean_first_top_k
from repro.core.disjunction import disjunction_top_k
from repro.core.fagin import fagin_top_k
from repro.core.naive import naive_top_k
from repro.core.planner import top_k
from repro.core.sources import sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.observability import QueryTracer, validate_trace
from repro.parallel import ParallelAccessExecutor
from repro.scoring import tnorms

from tests.core.test_conformance import (
    boolean_databases,
    graded_databases,
    pick_k,
    pick_rule,
)
from tests.per_row import per_row

WORKER_COUNTS = (1, 2, 8)

ALGORITHMS = (
    ("naive", naive_top_k),
    ("a0", fagin_top_k),
    ("ta", threshold_top_k),
    ("nra", nra_top_k),
    ("ca", combined_top_k),
)


def run_once(table, rule, k, runner, executor):
    sources = per_row(sources_from_columns(table))
    tracer = QueryTracer()
    result = runner(sources, rule, k, tracer=tracer, executor=executor)
    return result, tracer


def observable_state(result, tracer):
    """Everything the determinism contract covers, as comparable values."""
    return (
        list(result.answers.as_dict().items()),  # ordered answers
        result.cost,  # per-source access tallies
        result.sorted_depth,
        result.algorithm,
        tracer.to_json(),  # the full timeline, byte for byte
    )


@settings(deadline=None, max_examples=25)
@given(
    data=graded_databases(min_m=2),
    rule_index=st.integers(0, 4),
    k_selector=st.integers(0, 2),
)
def test_every_algorithm_is_byte_identical_across_worker_counts(
    data, rule_index, k_selector
):
    table, _ = data
    rule = pick_rule(table, rule_index)
    k = pick_k(table, k_selector)
    for name, runner in ALGORITHMS:
        baseline = observable_state(*run_once(table, rule, k, runner, None))
        validate_trace_of(baseline)
        for workers in WORKER_COUNTS:
            with ParallelAccessExecutor(workers) as executor:
                state = observable_state(
                    *run_once(table, rule, k, runner, executor)
                )
            assert state == baseline, (
                f"{name} diverged from serial at max_workers={workers} "
                f"(rule={rule.name}, k={k}, table={table})"
            )


def validate_trace_of(state):
    import json

    validate_trace(json.loads(state[-1]))


@settings(deadline=None, max_examples=20)
@given(data=graded_databases(min_m=2), k_selector=st.integers(0, 2))
def test_disjunction_is_byte_identical_across_worker_counts(data, k_selector):
    table, _ = data
    k = pick_k(table, k_selector)

    def runner(sources, rule, k, *, tracer, executor):
        return disjunction_top_k(sources, k, tracer=tracer, executor=executor)

    baseline = observable_state(*run_once(table, None, k, runner, None))
    for workers in WORKER_COUNTS:
        with ParallelAccessExecutor(workers) as executor:
            state = observable_state(*run_once(table, None, k, runner, executor))
        assert state == baseline


@settings(deadline=None, max_examples=20)
@given(data=boolean_databases(), k_selector=st.integers(0, 2))
def test_boolean_first_is_byte_identical_across_worker_counts(data, k_selector):
    table, _ = data
    k = pick_k(table, k_selector)

    def runner(sources, rule, k, *, tracer, executor):
        return boolean_first_top_k(
            sources, rule, k, boolean_index=0, tracer=tracer, executor=executor
        )

    baseline = observable_state(*run_once(table, tnorms.MIN, k, runner, None))
    for workers in WORKER_COUNTS:
        with ParallelAccessExecutor(workers) as executor:
            state = observable_state(
                *run_once(table, tnorms.MIN, k, runner, executor)
            )
        assert state == baseline


@settings(deadline=None, max_examples=15)
@given(data=graded_databases(min_m=2), k_selector=st.integers(0, 2))
def test_planner_top_k_is_byte_identical_under_an_executor(data, k_selector):
    """The planner entry point forwards the executor to whatever it picks."""
    table, _ = data
    k = pick_k(table, k_selector)

    def run(executor):
        sources = per_row(sources_from_columns(table))
        tracer = QueryTracer()
        result = top_k(
            sources, tnorms.MIN, k, tracer=tracer, executor=executor
        )
        return observable_state(result, tracer)

    baseline = run(None)
    with ParallelAccessExecutor(4) as executor:
        assert run(executor) == baseline


def test_one_executor_is_reusable_across_algorithms_and_queries():
    """Session-style reuse: one pool, many queries, still deterministic."""
    table = {f"o{i:02d}": (i / 40.0, 1.0 - i / 40.0, 0.5) for i in range(40)}
    with ParallelAccessExecutor(4) as executor:
        for name, runner in ALGORITHMS:
            for k in (1, 5, 40):
                baseline = observable_state(
                    *run_once(table, tnorms.MIN, k, runner, None)
                )
                state = observable_state(
                    *run_once(table, tnorms.MIN, k, runner, executor)
                )
                assert state == baseline, (name, k)


def test_memmap_sharded_lists_are_byte_identical_under_a_pool(tmp_path):
    """Shard refills run inside the per-list consume thunks, on pool
    threads: TA, NRA and A0 over memmap-sharded-3 lists still match the
    serial run in answers, cost, trace and per-shard tallies."""
    from tests.storage.helpers import column_source

    rng = random.Random(7)
    columns = [
        {f"o{i:03d}": round(rng.random(), 2) for i in range(300)} for _ in range(3)
    ]
    runs = 0

    def run(runner, executor):
        nonlocal runs
        runs += 1
        sources = [
            column_source(
                column,
                name=f"c{j}",
                backend="memmap",
                shards=3,
                directory=str(tmp_path / f"run{runs}"),
                merge_block=16,
            )
            for j, column in enumerate(columns)
        ]
        tracer = QueryTracer()
        result = runner(sources, tnorms.MIN, 10, tracer=tracer, executor=executor)
        shards = [source.shard_stats() for source in sources]
        for source in sources:
            source.close()
        return observable_state(result, tracer), shards

    for runner in (fagin_top_k, threshold_top_k, nra_top_k):
        baseline = run(runner, None)
        with ParallelAccessExecutor(4) as executor:
            assert run(runner, executor) == baseline, runner.__name__
