"""Differential cache-conformance suite: reuse is never observable.

The tentpole contract, locked down tier by tier against cold runs over
byte-identical data:

* a cache-enabled **miss** runs — answers, costs, traces — exactly like
  a cold query (the cache is invisible until it can prove a reuse);
* an **exact hit** replays the fill byte-identically (answers, cost
  report, algorithm, sorted depth) while the trace shows a single
  ``cache`` event and *zero* access events;
* a **prefix hit** serves a provably correct top-k: its grade multiset
  equals the oracle's (object choice among boundary ties follows the
  cached run — the freedom the paper grants), at an all-zero cost
  report;
* a **deepened** NRA query (deeper than every cached fill) is an
  ordinary miss: it runs cold, its access stream equals a cold run's
  event for event, and its fill then serves the deep k as an exact hit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naive import grade_everything
from repro.core.planner import Strategy
from repro.core.query import Scored
from repro.core.sources import sources_from_columns
from repro.observability import QueryTracer
from repro.scoring import means, tnorms
from tests.cache.helpers import (
    access_events,
    answer_pairs,
    assert_byte_identical,
    atom,
    conjunction,
    engine_from_table,
)
from tests.strategies import graded_databases, pick_k


def pick_query(m, index):
    """Conjunction (min) or an explicit Scored rule over all columns."""
    if index == 0:
        return conjunction(m), tnorms.MIN
    atoms = [atom(column) for column in range(m)]
    rule = (means.MEAN, tnorms.PRODUCT)[index - 1]
    return Scored(rule, atoms), rule


def oracle_top(table, rule, k):
    sources = sources_from_columns(table)
    return grade_everything(sources, rule).top(min(k, len(table)))


@settings(deadline=None, max_examples=50)
@given(
    data=graded_databases(min_m=1, max_m=3, max_n=16),
    query_index=st.integers(0, 2),
    k_selector=st.integers(0, 2),
)
def test_cache_enabled_miss_is_byte_identical_to_cold(
    data, query_index, k_selector
):
    table, m = data
    query, _ = pick_query(m, query_index)
    k = pick_k(table, k_selector)

    cold_engine = engine_from_table(table, m)
    cold_tracer = QueryTracer()
    cold = cold_engine.top_k(query, k=k, tracer=cold_tracer)

    cached_engine = engine_from_table(table, m)
    cache = cached_engine.configure_cache()
    fill_tracer = QueryTracer()
    fill = cached_engine.top_k(query, k=k, tracer=fill_tracer)

    assert_byte_identical("fill vs cold", cold, fill)
    assert "cache" not in fill.extras
    assert fill_tracer.to_json() == cold_tracer.to_json()
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 1


@settings(deadline=None, max_examples=50)
@given(
    data=graded_databases(min_m=1, max_m=3, max_n=16),
    query_index=st.integers(0, 2),
    k_selector=st.integers(0, 2),
)
def test_exact_hit_replays_the_fill_at_zero_access_cost(
    data, query_index, k_selector
):
    table, m = data
    query, _ = pick_query(m, query_index)
    k = pick_k(table, k_selector)

    engine = engine_from_table(table, m)
    cache = engine.configure_cache()
    fill = engine.top_k(query, k=k)

    hit_tracer = QueryTracer()
    hit = engine.top_k(query, k=k, tracer=hit_tracer)

    assert_byte_identical("hit vs fill", fill, hit)
    assert hit.extras["cache"]["tier"] == "exact"
    # The whole trace of a hit is the one cache event: no plan, no
    # phases, and — the point — no repository accesses at all.
    assert access_events(hit_tracer) == []
    [event] = hit_tracer.events
    assert event["type"] == "event" and event["name"] == "cache"
    assert cache.stats()["hits"] == 1


@settings(deadline=None, max_examples=50)
@given(
    data=graded_databases(min_m=1, max_m=3, max_n=16),
    query_index=st.integers(0, 2),
    smaller=st.integers(0, 10),
)
def test_prefix_hit_is_an_exact_top_k_at_zero_cost(
    data, query_index, smaller
):
    table, m = data
    query, rule = pick_query(m, query_index)
    n = len(table)
    fill_k = n + 1  # deepest entry: every smaller k is a prefix probe
    engine = engine_from_table(table, m)
    engine.configure_cache()
    engine.top_k(query, k=fill_k)

    k = 1 + smaller % n
    served = engine.top_k(query, k=k)
    if k == min(fill_k, n):
        assert served.extras["cache"]["tier"] == "exact"
        return
    assert served.extras["cache"]["tier"] == "prefix"
    assert served.grades_exact
    # Correctness in the paper's sense: the served grade multiset is
    # the oracle's, exactly (object identity among boundary ties is
    # the cached run's choice, as it is any single algorithm's).
    assert served.answers.same_grade_multiset(oracle_top(table, rule, k))
    assert served.cost.sorted_access_cost == 0
    assert served.cost.random_access_cost == 0
    # The certificate: every served grade clears the recorded tau.
    tau = served.extras["cache"]["tau"]
    assert all(grade >= tau for _, grade in answer_pairs(served))


@settings(deadline=None, max_examples=40)
@given(
    data=graded_databases(min_m=2, max_m=3, max_n=16),
    query_index=st.integers(0, 2),
    split=st.integers(1, 8),
)
def test_deepened_nra_query_is_a_miss_with_cold_access_events(
    data, query_index, split
):
    table, m = data
    query, _ = pick_query(m, query_index)
    n = len(table)
    shallow = 1 + split % max(n - 1, 1)
    deep = min(shallow + 1 + split % 5, n)
    if deep <= shallow:
        return

    cold_engine = engine_from_table(table, m)
    cold_tracer = QueryTracer()
    cold = cold_engine.top_k(
        query, k=deep, prefer=Strategy.NRA, tracer=cold_tracer
    )

    engine = engine_from_table(table, m)
    cache = engine.configure_cache()
    engine.top_k(query, k=shallow, prefer=Strategy.NRA)

    deep_tracer = QueryTracer()
    deeper = engine.top_k(
        query, k=deep, prefer=Strategy.NRA, tracer=deep_tracer
    )

    assert "cache" not in deeper.extras
    assert_byte_identical("deepened vs cold", cold, deeper)
    assert access_events(deep_tracer) == access_events(cold_tracer)
    assert cache.stats()["misses"] == 2

    # The deeper fill replaced the entry: it serves the deep k exactly.
    again = engine.top_k(query, k=deep, prefer=Strategy.NRA)
    assert again.extras["cache"]["tier"] == "exact"
    assert_byte_identical("re-hit vs deepened", deeper, again)
