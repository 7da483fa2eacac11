"""DeadlineGuard: per-query budgets over shared bindings.

Covers the guard's own semantics (charged accesses guarded, peeks
free, shared counters, bounded overshoot) and the engine's ``deadline``
parameter end to end: late queries degrade to partial bounds instead
of hanging, and ``deadline=None`` leaves the path untouched.
"""

import random

import pytest

from repro.core.graded import GradedSet
from repro.core.query import Atomic
from repro.core.sources import ArraySource
from repro.errors import DeadlineExceededError
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem
from repro.middleware.resilience import (
    DeadlineGuard,
    VirtualClock,
    guard_deadline,
)


def make_source(n=20, seed=3, name="list"):
    rng = random.Random(seed)
    return ArraySource(
        GradedSet({f"x{i}": rng.random() for i in range(n)}), name=name
    )


def build_engine(clock, n=150, seed=21):
    rng = random.Random(seed)
    engine = MiddlewareEngine(clock=clock)
    subsystem = ListSubsystem("qbic")
    subsystem.add_list("Color", "red", {f"i{j}": rng.random() for j in range(n)})
    subsystem.add_list("Shape", "round", {f"i{j}": rng.random() for j in range(n)})
    engine.register(subsystem)
    return engine


# ---------------------------------------------------------------- guard


def test_accesses_flow_before_the_deadline():
    clock = VirtualClock()
    inner = make_source()
    guard = DeadlineGuard(inner, deadline_at=10.0, clock=clock)
    cursor = guard.cursor()
    item = cursor.next()
    assert item is not None
    assert guard.random_access(item.object_id) == pytest.approx(item.grade)
    assert not guard.expired()
    assert guard.remaining() == pytest.approx(10.0)


def test_charged_accesses_refused_after_deadline():
    clock = VirtualClock()
    inner = make_source()
    guard = DeadlineGuard(inner, deadline_at=5.0, clock=clock)
    cursor = guard.cursor()
    cursor.next()
    clock.sleep(5.0)
    assert guard.expired()
    with pytest.raises(DeadlineExceededError):
        cursor.next()
    with pytest.raises(DeadlineExceededError):
        guard.random_access("x0")
    with pytest.raises(DeadlineExceededError):
        guard.random_access_many(["x0", "x1"])


def test_peeks_stay_free_after_deadline():
    clock = VirtualClock()
    inner = make_source()
    guard = DeadlineGuard(inner, deadline_at=0.0, clock=clock)
    clock.sleep(1.0)
    before = inner.counter.snapshot()
    cursor = guard.cursor()
    assert cursor.peek_grade() is not None
    assert len(cursor.peek_batch(5)) == 5
    assert len(guard) == len(inner)
    assert inner.counter.snapshot() == before  # peeks charge nothing


def test_guard_shares_inner_counter_and_name():
    inner = make_source(name="shared")
    guard = DeadlineGuard(inner, deadline_at=100.0, clock=VirtualClock())
    assert guard.name == "shared"
    assert guard.counter is inner.counter
    guard.cursor().next()
    assert inner.counter.sorted_accesses == 1


def test_overshoot_bounded_by_one_access():
    """The check runs *before* the access: once expired, zero further
    charges land — the overshoot is whatever single round was already
    in flight, never more."""
    clock = VirtualClock()
    inner = make_source()
    guard = DeadlineGuard(inner, deadline_at=1.0, clock=clock)
    cursor = guard.cursor()
    cursor.next()
    charged_before = inner.counter.sorted_accesses
    clock.sleep(2.0)
    for _ in range(5):
        with pytest.raises(DeadlineExceededError):
            cursor.next()
    assert inner.counter.sorted_accesses == charged_before


def test_guard_deadline_helper():
    clock = VirtualClock()
    sources = [make_source(name="a"), make_source(name="b")]
    assert guard_deadline(sources, None) == sources  # no deadline: untouched
    guarded = guard_deadline(sources, 5.0, clock=clock)
    assert all(isinstance(g, DeadlineGuard) for g in guarded)
    assert [g.name for g in guarded] == ["a", "b"]


# ---------------------------------------------------------------- engine


def test_engine_deadline_none_is_clean_path():
    clock = VirtualClock()
    engine = build_engine(clock)
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    result = engine.top_k(query, 5)
    assert result.degraded is None
    engine.close()


def test_engine_deadline_generous_budget_exact_answers():
    clock = VirtualClock()
    engine = build_engine(clock)
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    expected = engine.top_k(query, 5)
    result = engine.top_k(query, 5, deadline=3600.0)
    assert result.degraded is None
    assert [(i.object_id, i.grade) for i in result.answers] == [
        (i.object_id, i.grade) for i in expected.answers
    ]
    engine.close()


def test_engine_deadline_exhausted_mid_query_degrades():
    from repro.middleware.faults import FaultProfile

    clock = VirtualClock()
    engine = build_engine(clock)
    # Every access stalls the virtual clock; a small budget dies mid-run.
    engine.configure_resilience(
        None, fault_profile=FaultProfile(latency_rate=1.0, latency=0.25, seed=2)
    )
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    result = engine.top_k(query, 5, deadline=2.0)
    assert result.degraded is not None
    assert not result.degraded.complete
    assert result.degraded.fallback in ("partial-bounds", "nra-sorted-only")
    assert any(
        "deadline" in reason.lower() or "refused" in reason
        for reason in result.degraded.failed_sources.values()
    )
    assert result.cost.database_access_cost > 0
    engine.close()


def test_engine_deadline_zero_budget_degrades_immediately():
    clock = VirtualClock()
    engine = build_engine(clock)
    clock.sleep(1.0)
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    result = engine.top_k(query, 5, deadline=-1.0)
    assert result.degraded is not None
    assert result.grades_exact is False
    engine.close()


def test_engine_deadline_does_not_leak_into_next_query():
    """The guard is per-call: a later query without a deadline runs clean
    on the same cached (shared) bindings."""
    from repro.middleware.faults import FaultProfile

    clock = VirtualClock()
    engine = build_engine(clock)
    engine.configure_resilience(
        None, fault_profile=FaultProfile(latency_rate=1.0, latency=0.5, seed=4)
    )
    query = Atomic("Color", "red") & Atomic("Shape", "round")
    degraded = engine.top_k(query, 5, deadline=1.0)
    assert degraded.degraded is not None
    clean = engine.top_k(query, 5)  # no deadline: runs to completion
    assert clean.degraded is None
    assert len(clean.answers) == 5
    engine.close()
