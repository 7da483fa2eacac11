"""Differential conformance suite: every algorithm agrees with the oracle.

Property-based lockdown of the paper's correctness claims: over random
graded databases — with deliberate grade ties and duplicates — the naive
scan, Fagin's A0, TA, NRA, and (where applicable) boolean-first and the
disjunction m*k algorithm must all return the *same top-k grade
multiset* for every monotone scoring function and every k, including
k = 1, k = N, and k > N.  Object identity may differ under ties (the
paper permits arbitrary choice among equals), so the comparison is by
grade multiset, the invariant the paper actually guarantees.

A second property pins the observability tentpole to the cost model:
under a tracer, the recorded timeline's per-source access tallies equal
the cost report's, exactly, for every algorithm on every database.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boolean_first import boolean_first_top_k
from repro.core.disjunction import disjunction_top_k
from repro.core.fagin import fagin_top_k
from repro.core.naive import grade_everything, naive_top_k
from repro.core.sources import sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.observability import QueryTracer
from repro.scoring import conorms, means, tnorms
from repro.scoring.owa import owa_mean
from tests.strategies import boolean_databases, graded_databases, pick_k

RULES = (
    tnorms.MIN,
    tnorms.PRODUCT,
    means.MEAN,
    means.GEOMETRIC_MEAN,
)


def pick_rule(table, index):
    """A monotone rule matched to the table's arity (OWA needs m)."""
    m = len(next(iter(table.values())))
    fixed = RULES + (owa_mean(m),)
    return fixed[index % len(fixed)]


def oracle_top(table, rule, k):
    sources = sources_from_columns(table)
    return grade_everything(sources, rule).top(min(k, len(table)))


def _wrap(algorithm):
    def run(s, rule, k, tracer, executor=None):
        return algorithm(s, rule, k, tracer=tracer, executor=executor)

    return run


ALGORITHMS = (
    ("naive", _wrap(naive_top_k)),
    ("a0", _wrap(fagin_top_k)),
    ("ta", _wrap(threshold_top_k)),
    ("nra", _wrap(nra_top_k)),
    ("ca", _wrap(combined_top_k)),
)


@settings(deadline=None, max_examples=60)
@given(data=graded_databases(), rule_index=st.integers(0, 4), k_selector=st.integers(0, 2))
def test_all_algorithms_agree_with_oracle(data, rule_index, k_selector):
    table, _ = data
    rule = pick_rule(table, rule_index)
    k = pick_k(table, k_selector)
    expected = oracle_top(table, rule, k)
    for name, run in ALGORITHMS:
        sources = sources_from_columns(table)
        result = run(sources, rule, k, None)
        assert result.answers.same_grade_multiset(expected), (
            f"{name} disagrees with the oracle: "
            f"{result.answers.as_dict()} != {expected.as_dict()} "
            f"(rule={rule.name}, k={k}, table={table})"
        )


@settings(deadline=None, max_examples=40)
@given(data=graded_databases(min_m=2), k_selector=st.integers(0, 2))
def test_disjunction_agrees_with_max_oracle(data, k_selector):
    table, _ = data
    k = pick_k(table, k_selector)
    expected = oracle_top(table, conorms.MAX, k)
    sources = sources_from_columns(table)
    result = disjunction_top_k(sources, k)
    assert result.answers.same_grade_multiset(expected)


@settings(deadline=None, max_examples=40)
@given(
    data=boolean_databases(),
    rule_index=st.integers(0, 1),
    k_selector=st.integers(0, 2),
)
def test_boolean_first_agrees_with_oracle(data, rule_index, k_selector):
    table, _ = data
    rule = (tnorms.MIN, tnorms.PRODUCT)[rule_index]  # annihilate at zero
    k = pick_k(table, k_selector)
    expected = oracle_top(table, rule, k)
    sources = sources_from_columns(table)
    result = boolean_first_top_k(sources, rule, k, boolean_index=0)
    assert result.answers.same_grade_multiset(expected)


@settings(deadline=None, max_examples=40)
@given(data=graded_databases(), rule_index=st.integers(0, 4), k_selector=st.integers(0, 2))
def test_traced_accesses_equal_cost_report(data, rule_index, k_selector):
    """sum(traced accesses) == result.cost, per source and per kind."""
    table, _ = data
    rule = pick_rule(table, rule_index)
    k = pick_k(table, k_selector)
    for name, run in ALGORITHMS:
        sources = sources_from_columns(table)
        tracer = QueryTracer()
        result = run(sources, rule, k, tracer)
        counts = tracer.access_counts()
        for source in sources:
            sorted_n, random_n = counts.get(source.name, (0, 0))
            assert sorted_n == source.counter.sorted_accesses, (
                f"{name}: traced {sorted_n} sorted accesses on "
                f"{source.name}, counter says {source.counter.sorted_accesses}"
            )
            assert random_n == source.counter.random_accesses, (
                f"{name}: traced {random_n} random accesses on "
                f"{source.name}, counter says {source.counter.random_accesses}"
            )
        traced_total = sum(s + r for s, r in counts.values())
        assert traced_total == result.cost.database_access_cost, name


@settings(deadline=None, max_examples=25)
@given(
    data=graded_databases(min_m=2),
    rule_index=st.integers(0, 4),
    k_selector=st.integers(0, 2),
    workers=st.sampled_from((1, 2, 8)),
)
def test_parallel_execution_changes_nothing_observable(
    data, rule_index, k_selector, workers
):
    """Fan-out is invisible: same oracle agreement, same cost, same
    trace, at every worker count (the full byte-level differential lives
    in tests/parallel/test_parallel_conformance.py)."""
    from repro.parallel import ParallelAccessExecutor

    table, _ = data
    rule = pick_rule(table, rule_index)
    k = pick_k(table, k_selector)
    expected = oracle_top(table, rule, k)
    with ParallelAccessExecutor(workers) as executor:
        for name, run in ALGORITHMS:
            sources = sources_from_columns(table)
            serial_tracer = QueryTracer()
            serial = run(sources, rule, k, serial_tracer)
            sources = sources_from_columns(table)
            tracer = QueryTracer()
            result = run(
                sources,
                rule,
                k,
                tracer,
                executor=executor,
            )
            assert result.answers.same_grade_multiset(expected), name
            assert result.cost == serial.cost, name
            assert tracer.to_json() == serial_tracer.to_json(), name


@settings(deadline=None, max_examples=30)
@given(data=graded_databases(min_m=2), k_selector=st.integers(0, 2))
def test_tracing_does_not_change_answers_or_cost(data, k_selector):
    """A tracer is observation only: same answers, same cost, on or off."""
    table, _ = data
    k = pick_k(table, k_selector)
    for name, run in ALGORITHMS:
        plain = run(sources_from_columns(table), tnorms.MIN, k, None)
        traced = run(
            sources_from_columns(table),
            tnorms.MIN,
            k,
            QueryTracer(),
        )
        assert traced.answers.same_grade_multiset(plain.answers), name
        assert (
            traced.cost.database_access_cost == plain.cost.database_access_cost
        ), name
