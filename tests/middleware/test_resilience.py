"""Retry/backoff, deadlines, circuit breakers, and the exactness property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sources import ArraySource, sources_from_columns
from repro.core.threshold import threshold_top_k
from repro.errors import (
    AccessError,
    CircuitOpenError,
    DeadlineExceededError,
    TransientAccessError,
)
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientSource,
    RetryPolicy,
    VirtualClock,
    resilience_report,
)
from repro.scoring.tnorms import MIN
from repro.workloads.graded_lists import independent


def make_list(n=30, name="L"):
    return ArraySource({f"x{i}": (n - i) / n for i in range(n)}, name=name)


def resilient(profile, policy=None, n=30, clock=None):
    clock = clock if clock is not None else VirtualClock()
    faulty = FaultInjectingSource(make_list(n), profile, clock=clock)
    return ResilientSource(faulty, policy, clock=clock)


# ---------------------------------------------------------------- retries


def test_retries_absorb_transient_failures():
    source = resilient(FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0))
    cursor = source.cursor()
    items = cursor.next_batch(30)
    assert len(items) == 30
    assert source.stats.retries > 0
    assert source.stats.exhausted == 0
    # a failed attempt charged nothing: cost equals the fault-free cost
    assert source.counter.sorted_accesses == 30


def test_retries_exhaust_when_failures_outlast_attempts():
    # cap 10 > attempts 3, so the streak outlives the retry budget
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
    source = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=10, seed=0), policy
    )
    with pytest.raises(TransientAccessError):
        source.cursor().next()
    assert source.stats.exhausted == 1
    assert source.stats.failures == 3


def test_backoff_timing_without_jitter_is_exact():
    clock = VirtualClock()
    policy = ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
    )
    source = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=3, seed=0),
        policy,
        clock=clock,
    )
    assert source.cursor().next() is not None
    # three failed attempts slept base * 2**i for i = 0, 1, 2
    assert clock.now() == pytest.approx(0.1 + 0.2 + 0.4)


def test_backoff_respects_max_delay_cap():
    rng_free = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=3.0, jitter=0.0)
    import random

    assert rng_free.backoff(0, random.Random(0)) == pytest.approx(1.0)
    assert rng_free.backoff(5, random.Random(0)) == pytest.approx(3.0)


def test_backoff_jitter_stays_within_band():
    import random

    policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
    rng = random.Random(42)
    delays = [policy.backoff(0, rng) for _ in range(200)]
    assert all(0.5 <= d <= 1.5 for d in delays)
    assert max(delays) > 1.0 > min(delays)  # jitter actually spreads


def test_deadline_budget_covers_retries_and_sleeps():
    clock = VirtualClock()
    policy = ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0, jitter=0.0, deadline=2.5
        )
    )
    source = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=10**6, seed=0),
        policy,
        clock=clock,
    )
    with pytest.raises(DeadlineExceededError):
        source.cursor().next()
    assert source.stats.deadline_exceeded == 1
    assert clock.now() <= 3.5  # gave up near the budget, not after 100 sleeps


# ---------------------------------------------------------------- breakers


def test_breaker_opens_after_threshold_and_recovers_half_open():
    clock = VirtualClock()
    breaker = CircuitBreaker(failure_threshold=3, recovery_time=10.0, clock=clock)
    assert breaker.state == CircuitBreaker.CLOSED
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    clock.sleep(10.0)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()  # one trial call
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_reopens_when_half_open_trial_fails():
    clock = VirtualClock()
    breaker = CircuitBreaker(failure_threshold=1, recovery_time=5.0, clock=clock)
    breaker.record_failure()
    clock.sleep(5.0)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opens == 2


def test_open_circuit_rejects_without_touching_the_subsystem():
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=1), failure_threshold=2)
    source = resilient(
        FaultProfile(transient_rate=1.0, max_consecutive=10**6, seed=0), policy
    )
    cursor = source.cursor()
    for _ in range(2):
        with pytest.raises(TransientAccessError):
            cursor.next()
    inner = source._inner
    before = inner.injected.transients
    with pytest.raises(CircuitOpenError):
        cursor.next()
    assert inner.injected.transients == before  # breaker short-circuited
    assert source.stats.rejections == 1


def test_random_and_sorted_breakers_are_independent():
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=1), failure_threshold=1)
    source = resilient(FaultProfile(break_random_after=0, seed=0), policy)
    with pytest.raises(TransientAccessError):
        source.random_access("x0")
    assert not source.random_access_available()
    assert source.random_breaker.state == CircuitBreaker.OPEN
    # the sorted stream is untouched by the random breaker
    assert source.sorted_breaker.state == CircuitBreaker.CLOSED
    assert source.cursor().next() is not None


# ---------------------------------------------------------------- parsing


def test_retry_policy_parse():
    policy = RetryPolicy.parse("attempts=6,base=0.01,jitter=0,deadline=2")
    assert policy.max_attempts == 6
    assert policy.base_delay == pytest.approx(0.01)
    assert policy.jitter == 0.0
    assert policy.deadline == pytest.approx(2.0)


def test_resilience_policy_parse_splits_breaker_keys():
    policy = ResiliencePolicy.parse("attempts=2,threshold=7,recovery=3.5")
    assert policy.retry.max_attempts == 2
    assert policy.failure_threshold == 7
    assert policy.recovery_time == pytest.approx(3.5)


def test_parse_rejects_unknown_keys():
    with pytest.raises(AccessError):
        RetryPolicy.parse("patience=11")


def test_retry_policy_validates():
    with pytest.raises(AccessError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(AccessError):
        RetryPolicy(jitter=2.0)


# ---------------------------------------------------------------- reporting


def test_resilience_report_walks_wrapper_chains():
    source = resilient(FaultProfile(transient_rate=1.0, max_consecutive=1, seed=0))
    source.cursor().next()
    report = resilience_report([source, make_list(name="clean")])
    assert set(report) == {source.name}
    entry = report[source.name]
    assert entry["retries"] == source.stats.retries
    assert entry["injected"]["transients"] >= 1
    assert entry["sorted_circuit"] == CircuitBreaker.CLOSED


# ------------------------------------------------------ the exactness property


@given(
    fault_seed=st.integers(min_value=0, max_value=10**6),
    data_seed=st.integers(min_value=0, max_value=50),
    rate=st.floats(min_value=0.0, max_value=0.6),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_resilient_top_k_equals_fault_free_top_k(fault_seed, data_seed, rate, k):
    """Under any seeded schedule of retryable faults, the resilient run
    returns exactly the fault-free answers — and pays the same cost."""
    table = independent(60, 3, seed=data_seed)
    baseline = threshold_top_k(sources_from_columns(table), MIN, k)
    clock = VirtualClock()
    profile = FaultProfile(transient_rate=rate, max_consecutive=2, seed=fault_seed)
    wrapped = [
        ResilientSource(
            FaultInjectingSource(s, profile, clock=clock), clock=clock
        )
        for s in sources_from_columns(table)
    ]
    result = threshold_top_k(wrapped, MIN, k)
    assert [(i.object_id, i.grade) for i in result.answers] == [
        (i.object_id, i.grade) for i in baseline.answers
    ]
    assert result.grades_exact
    assert result.degraded is None
    assert (
        result.cost.database_access_cost == baseline.cost.database_access_cost
    )
