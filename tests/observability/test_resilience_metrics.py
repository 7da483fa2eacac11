"""resilience_report and the metrics registry must agree, exactly.

The satellite audit: a ResilientSource keeps its own ``stats``;
``attach_resilience_observers`` wires each node to the tracer so the
``resilience.*`` counters track those stats going forward — and
resynchronizes them at attach time, so pre-existing history (a binding
that retried before the tracer was installed) is never lost.
"""

import pytest

from repro.core.sources import ArraySource
from repro.errors import CircuitOpenError, TransientAccessError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import (
    ResiliencePolicy,
    ResilientSource,
    RetryPolicy,
    VirtualClock,
    resilience_report,
)
from repro.observability import (
    MetricsRegistry,
    QueryTracer,
    attach_resilience_observers,
)


def make_list(n=30, name="L"):
    return ArraySource({f"x{i}": (n - i) / n for i in range(n)}, name=name)


def resilient(profile, policy=None, n=30, name="L"):
    clock = VirtualClock()
    faulty = FaultInjectingSource(make_list(n, name=name), profile, clock=clock)
    return ResilientSource(faulty, policy, clock=clock)


def tally(metrics, kind):
    return metrics.counter_total(f"resilience.{kind}")


def test_retry_counts_agree_between_report_and_metrics():
    source = resilient(FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0))
    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics)
    attach_resilience_observers([source], tracer)

    assert len(source.cursor().next_batch(30)) == 30

    report = resilience_report([source])[source.name]
    assert report["retries"] == source.stats.retries > 0
    assert tally(metrics, "retries") == report["retries"]
    assert tally(metrics, "failures") == report["failures"]
    retried = [
        e
        for e in tracer.events
        if e["type"] == "event"
        and e["name"] == "resilience"
        and e["attrs"]["kind"] == "retries"
    ]
    assert len(retried) == report["retries"]
    assert all(e["attrs"]["source"] == source.name for e in retried)


def test_attach_resynchronizes_pre_existing_history():
    source = resilient(FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0))
    # history accumulates *before* any tracer exists
    source.cursor().next_batch(10)
    before = source.stats.retries
    assert before > 0

    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics)
    attach_resilience_observers([source], tracer)
    assert tally(metrics, "retries") == before

    source.cursor().next_batch(10)
    report = resilience_report([source])[source.name]
    assert tally(metrics, "retries") == report["retries"] == source.stats.retries


def test_breaker_open_and_rejections_are_observed():
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1), failure_threshold=2, recovery_time=1000.0
    )
    source = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=50, seed=0), policy
    )
    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics)
    attach_resilience_observers([source], tracer)

    cursor = source.cursor()
    for _ in range(2):
        with pytest.raises(TransientAccessError):
            cursor.next()
    with pytest.raises(CircuitOpenError):
        cursor.next()

    report = resilience_report([source])[source.name]
    assert report["circuit_opens"] == 1
    assert report["sorted_circuit"] == "open"
    kinds = [
        e["attrs"]["kind"]
        for e in tracer.events
        if e["type"] == "event" and e["name"] == "resilience"
    ]
    assert kinds.count("circuit_open") == 1
    assert tally(metrics, "failures") == report["failures"] == 2
    assert tally(metrics, "rejections") == report["rejections"] == 1
    assert tally(metrics, "exhausted") == report["exhausted"] == 2


def test_multiple_sources_are_tallied_separately():
    profile = FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0)
    left = resilient(profile, name="L")
    right = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=2, seed=1), name="M"
    )
    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics)
    attach_resilience_observers([left, right], tracer)

    left.cursor().next_batch(20)
    right.cursor().next_batch(20)

    report = resilience_report([left, right])
    counters = metrics.counters("resilience.retries")
    assert counters[f"resilience.retries{{source={left.name}}}"] == report[left.name]["retries"]
    assert counters[f"resilience.retries{{source={right.name}}}"] == report[right.name]["retries"]
