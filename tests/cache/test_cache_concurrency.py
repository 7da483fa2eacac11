"""The cache under concurrent hammering: never torn, always accounted.

Extends the metrics-concurrency pattern (PR 7) to the cache: worker
threads race get/put/invalidate on the *same* key and the suite asserts
the three structural guarantees the module docstring promises — no
torn entries (every served answer is a certified top-k), bounded
duplicate fills (at most one wasted fill per racing thread), and exact
counter totals (every probe lands in exactly one bucket).
"""

import random
import threading

from repro.core.planner import Strategy
from repro.service import QueryService, ServiceConfig
from tests.cache.helpers import answer_pairs, conjunction, engine_from_table
from tests.service.helpers import build_gated_engine

THREADS = 8
ROUNDS = 25
M = 2


def make_engine(n=80, seed=13):
    rng = random.Random(seed)
    levels = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    table = {
        f"o{i:03d}": [rng.choice(levels) for _ in range(M)] for i in range(n)
    }
    return engine_from_table(table, M), engine_from_table(table, M)


def hammer(work, threads=THREADS):
    errors = []
    barrier = threading.Barrier(threads)

    def runner(index):
        try:
            barrier.wait(timeout=30)
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


def test_same_key_hammer_has_exact_totals_and_bounded_fills():
    engine, cold_engine = make_engine()
    cache = engine.configure_cache()
    query = conjunction(M)
    cold = cold_engine.top_k(query, k=10, prefer=Strategy.NRA)
    expected = answer_pairs(cold)

    def worker(index):
        for _ in range(ROUNDS):
            result = engine.top_k(query, k=10, prefer=Strategy.NRA)
            assert answer_pairs(result) == expected
            assert result.cost == cold.cost

    hammer(worker)

    stats = cache.stats()
    probes = THREADS * ROUNDS
    assert stats["hits"] + stats["misses"] == probes
    # A thread's own fill lands before its second probe, so only the
    # initial stampede can miss: duplicate fills are bounded by the
    # number of racing threads.
    assert 1 <= stats["misses"] <= THREADS
    assert stats["fills"] + stats["fill_races"] == stats["misses"]
    assert stats["entries"] == 1

    # The surviving entry is not torn: a fresh exact hit replays the
    # cold run byte-identically.
    final = engine.top_k(query, k=10, prefer=Strategy.NRA)
    assert final.extras["cache"]["tier"] == "exact"
    assert answer_pairs(final) == expected


def test_mixed_k_hammer_serves_certified_answers_at_every_tier():
    engine, cold_engine = make_engine()
    cache = engine.configure_cache()
    query = conjunction(M)
    ks = (4, 10, 25)
    cold = {
        k: cold_engine.top_k(query, k=k, prefer=Strategy.NRA) for k in ks
    }

    def worker(index):
        rng = random.Random(index)
        for _ in range(ROUNDS):
            k = rng.choice(ks)
            result = engine.top_k(query, k=k, prefer=Strategy.NRA)
            # Tier-independent invariant: a certified top-k under the
            # canonical grade multiset, whatever mix of exact, prefix,
            # warm, and plain fills the race produced.
            assert result.answers.same_grade_multiset(cold[k].answers)
            assert result.grades_exact

    hammer(worker)

    stats = cache.stats()
    probes = THREADS * ROUNDS
    assert stats["hits"] + stats["misses"] == probes
    assert stats["fills"] + stats["fill_races"] >= 1
    assert stats["entries"] == 1
    # Deepest fill wins: the entry now serves k=25 as an exact hit and
    # the shallower ks as prefix slices.
    assert (
        engine.top_k(query, k=25, prefer=Strategy.NRA)
        .extras["cache"]["tier"]
        == "exact"
    )
    assert (
        engine.top_k(query, k=4, prefer=Strategy.NRA)
        .extras["cache"]["tier"]
        == "prefix"
    )


def test_hammer_with_concurrent_invalidation_never_serves_stale():
    engine, cold_engine = make_engine()
    cache = engine.configure_cache()
    query = conjunction(M)
    cold = cold_engine.top_k(query, k=8, prefer=Strategy.NRA)
    expected = answer_pairs(cold)
    stop = threading.Event()

    def invalidator():
        while not stop.is_set():
            engine.invalidate()

    chaos = threading.Thread(target=invalidator)
    chaos.start()
    try:

        def worker(index):
            for _ in range(ROUNDS):
                result = engine.top_k(query, k=8, prefer=Strategy.NRA)
                assert answer_pairs(result) == expected

        hammer(worker)
    finally:
        stop.set()
        chaos.join(timeout=30)

    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
    result = engine.top_k(query, k=8, prefer=Strategy.NRA)
    assert answer_pairs(result) == expected


def test_service_counts_admission_hits_and_skips_the_queue():
    engine, cold_engine = make_engine()
    engine.configure_cache()
    query = conjunction(M)
    expected = answer_pairs(cold_engine.top_k(query, k=10))

    with QueryService(engine) as service:
        first = service.submit(query, 10)
        first.result(timeout=10)

        tickets = [service.submit(query, 10) for _ in range(5)]
        for ticket in tickets:
            result = ticket.result(timeout=10)
            assert answer_pairs(result) == expected
            assert result.extras["cache"]["tier"] == "exact"
            # Admission-time hits never waited for a worker.
            assert ticket.status == "done"
            assert ticket.finished_at == ticket.started_at

        metrics = service.metrics
        assert metrics.counter_total("service.cache.hit") == 5
        assert metrics.counter_total("service.cache.miss") == 1
        assert metrics.counter_total("service.admitted") == 6
        assert metrics.counter_total("service.completed") == 6


def test_service_hammer_hits_plus_misses_cover_every_submit():
    engine, cold_engine = make_engine()
    engine.configure_cache()
    query = conjunction(M)
    expected = cold_engine.top_k(query, k=10)

    with QueryService(engine) as service:

        def worker(index):
            for _ in range(ROUNDS):
                result = service.submit(query, 10).result(timeout=30)
                assert result.answers.same_grade_multiset(expected.answers)

        hammer(worker, threads=4)

        metrics = service.metrics
        submits = 4 * ROUNDS
        assert (
            metrics.counter_total("service.cache.hit")
            + metrics.counter_total("service.cache.miss")
            == submits
        )
        assert metrics.counter_total("service.completed") == submits
    stats = engine.cache.stats()
    assert stats["hits"] + stats["misses"] == submits
    assert stats["fills"] + stats["fill_races"] == stats["misses"]


def test_one_worker_service_counts_one_cache_outcome_per_request():
    """Admission looks the cache up without counting a miss; the worker's
    probe counts it, so every request is one hit or one miss, and every
    miss is one fill or one fill race."""
    engine, _ = make_engine()
    cache = engine.configure_cache()
    query = conjunction(M)
    requests = [
        (query, 10, None),  # miss, fill
        (query, 10, None),  # exact
        (query, 4, None),  # prefix
        (query, 20, None),  # too shallow: miss, deeper fill
        (query, 10, Strategy.NRA),  # another plan key: miss, fill
        (query, 10, Strategy.NRA),  # exact
        (query, 20, None),  # exact
    ]
    with QueryService(engine, ServiceConfig(workers=1)) as service:
        for request, k, prefer in requests:
            service.submit(request, k, prefer=prefer).result(timeout=30)
        engine.invalidate()
        service.submit(query, 10).result(timeout=30)  # miss after a drop
        metrics = service.metrics

    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == len(requests) + 1
    assert stats["fills"] + stats["fill_races"] == stats["misses"]
    assert (stats["hits"], stats["misses"]) == (4, 4)
    assert metrics.counter_total("service.cache.hit") == stats["hits"]
    assert metrics.counter_total("service.cache.miss") == stats["misses"]


def test_fill_landing_after_admission_is_served_without_a_second_miss():
    engine, subsystem, query = build_gated_engine()
    cache = engine.configure_cache()
    with QueryService(engine, ServiceConfig(workers=1)) as service:
        first = service.submit(query, 10)
        assert subsystem.started.wait(timeout=30)  # the worker holds it
        second = service.submit(query, 10)  # admission misses: no fill yet
        subsystem.open()
        first.result(timeout=30)
        served = second.result(timeout=30)
        metrics = service.metrics

    assert served.extras["cache"]["tier"] == "exact"
    assert metrics.counter_total("service.cache.served") == 1
    assert metrics.counter_total("service.cache.miss") == 2
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["fills"]) == (1, 1, 1)
    assert stats["fill_races"] == 0
