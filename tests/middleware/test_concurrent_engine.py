"""Concurrent ``Engine.top_k`` from many threads against one engine.

The serving layer relies on the engine being safely shareable: bindings
are built once under the bind lock (one wrapper stack, one breaker, one
fault schedule per atom), all per-query algorithm state is local, and
per-request tracers never interleave.  These tests drive one engine hard
from plain threads — no QueryService in the loop — to pin that contract
where it lives.
"""

import random
import sys
import threading

from repro.core.planner import Strategy
from repro.core.query import Atomic
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem
from repro.observability import QueryTracer

THREADS = 8
ROUNDS = 5
N = 200


def build_engine(clock=None):
    rng = random.Random(31)
    engine = MiddlewareEngine(clock=clock)
    subsystem = ListSubsystem("qbic")
    subsystem.add_list("Color", "red", {f"o{i}": rng.random() for i in range(N)})
    subsystem.add_list("Shape", "round", {f"o{i}": rng.random() for i in range(N)})
    engine.register(subsystem)
    return engine


QUERY = Atomic("Color", "red") & Atomic("Shape", "round")


def hammer(engine, work, threads=THREADS):
    """Run ``work(thread_index)`` from many threads; re-raise failures."""
    errors = []

    def runner(index):
        try:
            work(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    pool = [threading.Thread(target=runner, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    if errors:
        raise errors[0]
    return errors


def test_concurrent_top_k_identical_answers():
    engine = build_engine()
    expected = engine.top_k(QUERY, 5)
    want = [(i.object_id, i.grade) for i in expected.answers]
    results = [None] * THREADS

    def work(index):
        for _ in range(ROUNDS):
            results[index] = engine.top_k(QUERY, 5)

    hammer(engine, work)
    for result in results:
        assert [(i.object_id, i.grade) for i in result.answers] == want
        assert result.algorithm == expected.algorithm
    engine.close()


def test_concurrent_queries_each_report_their_own_cost():
    """Queries racing over the same bindings, and fanning their accesses
    out to one shared pool, each report exactly the serial run's cost:
    a query's meter counts only the accesses billed to that query."""
    engine = build_engine()
    engine.configure_storage("array")  # numpy releases the lock mid-query
    engine.configure_parallelism(3)
    expected = {
        prefer: engine.top_k(QUERY, 5, prefer=prefer).cost
        for prefer in (None, Strategy.NRA)
    }
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def work(index):
            prefer = (None, Strategy.NRA)[index % 2]
            for _ in range(ROUNDS):
                assert engine.top_k(QUERY, 5, prefer=prefer).cost == expected[prefer]

        hammer(engine, work)
    finally:
        sys.setswitchinterval(previous)
    engine.close()


def test_concurrent_binds_share_one_wrapper_stack():
    """All threads racing to bind the same atom get the same object."""
    engine = build_engine()
    atom = Atomic("Color", "red")
    seen = [None] * THREADS
    barrier = threading.Barrier(THREADS, timeout=10.0)

    def work(index):
        barrier.wait()  # maximize the race on the cold cache
        seen[index] = engine.bind(atom)

    hammer(engine, work)
    assert all(source is seen[0] for source in seen)
    engine.close()


def test_concurrent_queries_with_shared_breaker_state():
    """Resilience-wrapped bindings stay shared and consistent under
    concurrent queries (one breaker per atom, counts sane)."""
    from repro.middleware.faults import FaultProfile
    from repro.middleware.resilience import ResiliencePolicy, RetryPolicy

    engine = build_engine()
    engine.configure_resilience(
        ResiliencePolicy(retry=RetryPolicy(max_attempts=5, base_delay=0.0)),
        fault_profile=FaultProfile(transient_rate=0.1, seed=17),
    )
    expected = engine.top_k(QUERY, 5)
    want = [(i.object_id, i.grade) for i in expected.answers]

    def work(index):
        for _ in range(ROUNDS):
            result = engine.top_k(QUERY, 5)
            # Bounded transients + retries: answers stay exact.
            assert result.degraded is None
            assert [(i.object_id, i.grade) for i in result.answers] == want

    hammer(engine, work, threads=4)
    engine.close()


def test_per_query_tracers_stay_isolated():
    """Each thread's tracer sees exactly one query's timeline."""
    engine = build_engine()
    tracers = [QueryTracer() for _ in range(THREADS)]

    def work(index):
        engine.top_k(QUERY, 5, tracer=tracers[index])

    hammer(engine, work)
    reference = engine.top_k(QUERY, 5, tracer=QueryTracer())
    counts = {len(tracer.events) for tracer in tracers}
    assert len(counts) == 1, "tracers saw different event counts"
    for tracer in tracers:
        assert tracer.events, "a thread's tracer recorded nothing"
    engine.close()


def test_shared_metrics_registry_totals_add_up():
    """A metrics-carrying tracer per thread, one shared registry."""
    from repro.observability import MetricsRegistry

    engine = build_engine()
    registry = MetricsRegistry()
    single = build_engine()
    single_tracer = QueryTracer(metrics=MetricsRegistry())
    single.top_k(QUERY, 5, tracer=single_tracer)
    per_query = single_tracer.metrics.counter_total("accesses.sorted")
    single.close()

    def work(index):
        for _ in range(ROUNDS):
            engine.top_k(QUERY, 5, tracer=QueryTracer(metrics=registry))

    hammer(engine, work, threads=4)
    total = registry.counter_total("accesses.sorted")
    assert total == per_query * 4 * ROUNDS
    engine.close()


def test_concurrent_mixed_queries_and_invalidations():
    """Queries racing cache invalidation still answer correctly."""
    engine = build_engine()
    expected = engine.top_k(QUERY, 5)
    want = [(i.object_id, i.grade) for i in expected.answers]
    stop = threading.Event()

    def invalidator():
        while not stop.is_set():
            engine.invalidate()

    chaos = threading.Thread(target=invalidator)
    chaos.start()
    try:

        def work(index):
            for _ in range(ROUNDS):
                result = engine.top_k(QUERY, 5)
                assert [(i.object_id, i.grade) for i in result.answers] == want

        hammer(engine, work, threads=4)
    finally:
        stop.set()
        chaos.join(timeout=10)
    engine.close()


def test_concurrent_deadline_and_clean_queries():
    """Deadline-guarded and unguarded queries share bindings safely."""
    engine = build_engine()
    expected = engine.top_k(QUERY, 5)
    want = [(i.object_id, i.grade) for i in expected.answers]

    def work(index):
        for round_index in range(ROUNDS):
            if index % 2 == 0:
                result = engine.top_k(QUERY, 5, deadline=3600.0)
            else:
                result = engine.top_k(QUERY, 5)
            assert result.degraded is None
            assert [(i.object_id, i.grade) for i in result.answers] == want

    hammer(engine, work)
    engine.close()
