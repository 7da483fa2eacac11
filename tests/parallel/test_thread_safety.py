"""Hammer tests: no lost updates in the components workers share.

Each test drives one shared component from N threads through a start
barrier (maximal contention) and asserts *exact* totals afterwards — a
single lost increment fails the test.  Sizes are tuned so a data race
has many thousands of chances per run while the suite stays fast.
"""

import threading

import numpy as np
import pytest

from repro.core.sources import GradedSource
from repro.errors import CircuitOpenError, TransientAccessError
from repro.middleware.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientSource,
    RetryPolicy,
    VirtualClock,
)
from repro.observability import MetricsRegistry, QueryTracer

THREADS = 8
ROUNDS = 400


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on N threads behind a start barrier."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
        assert not thread.is_alive(), "hammer thread hung"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
def test_counter_increments_are_exact_under_contention():
    registry = MetricsRegistry()

    def worker(index):
        counter = registry.counter("hits", source="shared")
        for _ in range(ROUNDS):
            counter.inc()
        registry.counter("hits", source=f"own{index}").inc(ROUNDS)

    hammer(worker)
    assert registry.counter("hits", source="shared").value == THREADS * ROUNDS
    assert registry.counter_total("hits") == 2 * THREADS * ROUNDS


def test_concurrent_instrument_creation_yields_one_instance():
    registry = MetricsRegistry()
    seen = []
    lock = threading.Lock()

    def worker(index):
        counter = registry.counter("created", kind="same")
        with lock:
            seen.append(counter)
        counter.inc()

    hammer(worker)
    assert len({id(c) for c in seen}) == 1
    assert registry.counter("created", kind="same").value == THREADS


def test_histogram_and_series_totals_are_exact():
    registry = MetricsRegistry()

    def worker(index):
        histogram = registry.histogram("latency")
        series = registry.series("tau")
        for i in range(ROUNDS):
            histogram.observe(1.0)
            series.append(index * ROUNDS + i, 0.5)

    hammer(worker)
    snapshot = registry.histogram("latency").as_dict()
    assert snapshot["count"] == THREADS * ROUNDS
    assert snapshot["sum"] == float(THREADS * ROUNDS)
    assert snapshot["min"] == snapshot["max"] == 1.0
    assert len(registry.series("tau").points) == THREADS * ROUNDS


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
def test_breaker_open_count_is_exact_with_no_successes():
    """With only failures, every threshold-th report past the first trip
    re-opens: opens == total_failures - threshold + 1, exactly."""
    threshold = 5
    breaker = CircuitBreaker(threshold, recovery_time=1e9, clock=VirtualClock())

    def worker(index):
        for _ in range(ROUNDS):
            breaker.record_failure()

    hammer(worker)
    total = THREADS * ROUNDS
    assert breaker.opens == total - threshold + 1
    assert breaker.state == CircuitBreaker.OPEN


def test_breaker_trip_is_reported_exactly_once():
    """record_failure returns True for exactly one of N racing reports."""
    for _ in range(20):
        breaker = CircuitBreaker(
            THREADS, recovery_time=1e9, clock=VirtualClock()
        )
        tripped = []
        lock = threading.Lock()

        def worker(index):
            if breaker.record_failure():
                with lock:
                    tripped.append(index)

        hammer(worker)
        assert len(tripped) == 1
        assert breaker.opens == 1


# ---------------------------------------------------------------------------
# ResilientSource
# ---------------------------------------------------------------------------
class AlwaysTransientSource(GradedSource):
    """Every charged access fails transiently, forever."""

    def __init__(self):
        super().__init__("always-down")

    def _grades_of_many(self, object_ids):
        raise TransientAccessError("down")

    def _consume(self, start, count):
        raise TransientAccessError("down")

    def _columns_range(self, start, count):
        return ["x"][start : start + count], np.array([1.0])[start : start + count]

    def __len__(self):
        return 1


def test_resilient_stats_are_exact_under_contention():
    attempts = 3
    source = ResilientSource(
        AlwaysTransientSource(),
        ResiliencePolicy(
            retry=RetryPolicy(max_attempts=attempts, base_delay=0.01),
            failure_threshold=10**9,  # never trips: isolate the tallies
        ),
    )

    calls = 50

    def worker(index):
        for _ in range(calls):
            with pytest.raises(TransientAccessError):
                source.random_access("x")

    hammer(worker)
    total_calls = THREADS * calls
    assert source.stats.failures == total_calls * attempts
    assert source.stats.exhausted == total_calls
    assert source.stats.retries == total_calls * (attempts - 1)
    assert source.stats.rejections == 0
    assert source.counter.random_accesses == 0  # failures charge nothing


def test_resilient_breaker_transitions_are_exact_under_contention():
    """Every call is accounted for, and the breaker's bookkeeping obeys
    its exact invariants even while N threads race past ``allow()``.

    Threads already past the admission check when the breaker trips
    still record their in-flight failures (each re-opens the circuit),
    so ``failures`` may exceed the threshold by up to THREADS - 1 — but
    never silently: opens == failures - threshold + 1 must hold exactly,
    and every open must have been announced exactly once.
    """
    threshold = 4
    source = ResilientSource(
        AlwaysTransientSource(),
        ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),  # one failure per call
            failure_threshold=threshold,
            recovery_time=1e9,
        ),
    )
    announcements = []
    lock = threading.Lock()

    def observe(kind, detail):
        if kind == "circuit_open":
            with lock:
                announcements.append(detail)

    source.observer = observe
    calls = 100

    def worker(index):
        for _ in range(calls):
            with pytest.raises((TransientAccessError, CircuitOpenError)):
                source.random_access("x")

    hammer(worker)
    total_calls = THREADS * calls
    failures = source.stats.failures
    assert failures + source.stats.rejections == total_calls
    assert threshold <= failures <= threshold + THREADS - 1
    assert source.stats.exhausted == failures  # one attempt per call
    assert source.random_breaker.opens == failures - threshold + 1
    assert len(announcements) == source.random_breaker.opens
    assert source.random_breaker.state == CircuitBreaker.OPEN
    assert source.sorted_breaker.state == CircuitBreaker.CLOSED


# ---------------------------------------------------------------------------
# VirtualClock and QueryTracer
# ---------------------------------------------------------------------------
def test_virtual_clock_sleeps_add_up_exactly():
    clock = VirtualClock()

    def worker(index):
        for _ in range(ROUNDS):
            clock.sleep(0.5)  # exact binary float: sums are exact

    hammer(worker)
    assert clock.now() == THREADS * ROUNDS * 0.5


def test_tracer_steps_stay_contiguous_under_contention():
    tracer = QueryTracer()

    def worker(index):
        for i in range(ROUNDS):
            tracer.record_sorted(f"s{index}", f"o{i}", 0.5, position=i + 1)

    hammer(worker)
    total = THREADS * ROUNDS
    assert len(tracer.events) == total
    assert sorted(e["step"] for e in tracer.events) == list(range(total))
    counts = tracer.access_counts()
    assert all(counts[f"s{i}"] == (ROUNDS, 0) for i in range(THREADS))
