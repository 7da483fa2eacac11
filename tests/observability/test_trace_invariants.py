"""Algorithm-level trace invariants on fixed databases.

The conformance suite checks traced-accesses == cost over random
databases for the five ranked-retrieval algorithms; here fixed
databases lock down the *shape* of each timeline — which phases occur,
what random access is allowed to touch, and the same cost identity for
the three specialised strategies (boolean-first, disjunction, filter).
"""

import pytest

from repro.core.boolean_first import boolean_first_top_k
from repro.core.disjunction import disjunction_top_k
from repro.core.fagin import fagin_top_k
from repro.core.filter_condition import filter_condition_top_k
from repro.core.sources import sources_from_columns
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.middleware.relational import BooleanSource
from repro.observability import QueryTracer, validate_trace
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent
from tests.per_row import per_row


def build(n=40, m=3, seed=7):
    return per_row(sources_from_columns(independent(n, m, seed)))


def run_traced(run, sources, *args, **kwargs):
    tracer = QueryTracer()
    result = run(sources, *args, tracer=tracer, **kwargs)
    validate_trace(tracer.as_dict())
    return result, tracer


def assert_traced_equals_cost(sources, tracer, result):
    counts = tracer.access_counts()
    for source in sources:
        assert counts.get(source.name, (0, 0)) == (
            source.counter.sorted_accesses,
            source.counter.random_accesses,
        )
    total = sum(s + r for s, r in counts.values())
    assert total == result.cost.database_access_cost


def seen_before_each_random(events):
    """Every random probe must target an object already seen via sorted."""
    seen = set()
    for event in events:
        if event["type"] == "sorted":
            seen.add(event["object"])
        elif event["type"] == "random":
            assert event["object"] in seen, (
                f"random access to {event['object']} at step "
                f"{event['step']} before any sorted delivery of it"
            )


# ------------------------------------------------------------------- TA


def test_ta_never_probes_unseen_objects():
    sources = build()
    _, tracer = run_traced(threshold_top_k, sources, tnorms.MIN, 5)
    randoms = [e for e in tracer.events if e["type"] == "random"]
    assert randoms, "TA on this database must do random access"
    seen_before_each_random(tracer.events)


def test_ta_interleaves_inside_one_phase():
    sources = build()
    _, tracer = run_traced(threshold_top_k, sources, tnorms.MIN, 5)
    accesses = [e for e in tracer.events if e["type"] in ("sorted", "random")]
    assert {e["phase"] for e in accesses} == {"ta"}
    assert accesses[0]["type"] == "sorted"


def test_ta_tau_samples_are_nonincreasing():
    sources = build()
    _, tracer = run_traced(threshold_top_k, sources, tnorms.MIN, 5)
    taus = [value for _, value in tracer.samples("ta.tau")]
    assert taus == sorted(taus, reverse=True)


# ------------------------------------------------------------------- A0


def test_a0_random_phase_only_probes_seen_objects():
    sources = build()
    _, tracer = run_traced(fagin_top_k, sources, tnorms.MIN, 5)
    seen_before_each_random(tracer.events)


def test_a0_phases_are_ordered_sorted_then_random():
    sources = build()
    _, tracer = run_traced(fagin_top_k, sources, tnorms.MIN, 5)
    accesses = [e for e in tracer.events if e["type"] in ("sorted", "random")]
    phases = [e["phase"] for e in accesses]
    assert set(phases) <= {"sorted-phase", "random-phase"}
    boundary = phases.index("random-phase")
    assert all(p == "sorted-phase" for p in phases[:boundary])
    assert all(p == "random-phase" for p in phases[boundary:])
    assert all(
        e["type"] == ("sorted" if p == "sorted-phase" else "random")
        for e, p in zip(accesses, phases)
    )


# ------------------------------------------------------------------ NRA


def test_nra_trace_has_zero_random_events():
    sources = build()
    result, tracer = run_traced(nra_top_k, sources, tnorms.MIN, 5)
    assert not any(e["type"] == "random" for e in tracer.events)
    assert result.cost.random_access_cost == 0
    assert_traced_equals_cost(sources, tracer, result)


# ------------------------------------- specialised strategies, cost tie


@pytest.mark.parametrize("k", [1, 3, 12])
def test_disjunction_cost_matches_trace(k):
    sources = build(n=12, m=2)
    result, tracer = run_traced(disjunction_top_k, sources, k)
    assert_traced_equals_cost(sources, tracer, result)
    assert not any(e["type"] == "random" for e in tracer.events)


@pytest.mark.parametrize("k", [1, 4, 10])
def test_filter_condition_cost_matches_trace(k):
    sources = build(n=25, m=2, seed=11)
    result, tracer = run_traced(filter_condition_top_k, sources, k)
    assert_traced_equals_cost(sources, tracer, result)
    taus = [value for _, value in tracer.samples("filter.tau")]
    assert taus == sorted(taus, reverse=True)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_boolean_first_cost_matches_trace(k):
    n = 18
    fuzzy = sources_from_columns(independent(n, 1, seed=3))[0]
    names = sorted(fuzzy.object_ids())
    rows = {name: {"Artist": "B" if i % 5 == 0 else "X"} for i, name in enumerate(names)}
    boolean = BooleanSource(
        {name: 1.0 if row["Artist"] == "B" else 0.0 for name, row in rows.items()},
        name="artist",
    )
    sources = [boolean, fuzzy]
    result, tracer = run_traced(
        boolean_first_top_k, sources, tnorms.MIN, k, boolean_index=0
    )
    assert_traced_equals_cost(sources, tracer, result)
    # random access only ever touches the fuzzy list, and only for
    # objects delivered by the Boolean scan
    seen_before_each_random(tracer.events)
    assert all(
        e["source"] == fuzzy.name
        for e in tracer.events
        if e["type"] == "random"
    )
