"""A served hit is built fresh from the entry, and every probe revalidates.

:meth:`QueryCache.probe` promises a freshly built result that callers may
mutate; served hits build it from the entry's recorded pairs without
checking the grades again, so mutating one must reach neither the entry
nor the next hit.  The probe keeps checking the entry's fingerprints on
every call, also for a query whose plan key and atoms are remembered on
the query object.
"""

from repro.cache import QueryCache, plan_key
from repro.core.query import Atomic

from tests.cache.helpers import answer_pairs, conjunction, engine_from_table
from tests.cache.test_cache_matrix import M, make_table

QUERY = conjunction(M)


def snapshot(result):
    return (
        answer_pairs(result),
        {
            name: (counter.sorted_accesses, counter.random_accesses)
            for name, counter in result.cost.per_source.items()
        },
        result.algorithm,
        result.sorted_depth,
        result.grades_exact,
        dict(result.extras["cache"]),
    )


def test_mutating_a_served_hit_reaches_neither_the_entry_nor_the_next_hit():
    engine = engine_from_table(make_table(), M)
    cache = engine.configure_cache()
    fill = engine.top_k(QUERY, k=10)
    for k, tier in ((10, "exact"), (4, "prefix")):
        first = engine.top_k(QUERY, k=k)
        assert first.extras["cache"]["tier"] == tier
        expected = snapshot(first)
        victim = first.answers.best().object_id
        first.answers[victim] = 0.0
        first.answers["intruder"] = 1.0
        first.extras["cache"]["tier"] = "forged"
        first.extras["cache"]["tau"] = -1.0
        first.extras["note"] = "mutated"
        for counter in first.cost.per_source.values():
            counter.sorted_accesses += 1000
        again = engine.top_k(QUERY, k=k)
        assert snapshot(again) == expected
        assert "note" not in again.extras
        assert "intruder" not in again.answers
    (entry,) = cache._entries.values()
    assert entry.answers == tuple(answer_pairs(fill))
    assert entry.k == 10


def test_a_probe_after_invalidate_is_stale_and_refilled():
    # An explicit per-query cache is not the engine's session cache, so
    # engine.invalidate(atom) rebuilds the binding but leaves the entry:
    # only the fingerprint check can tell it is stale.
    engine = engine_from_table(make_table(), M)
    cache = QueryCache()
    fill = engine.top_k(QUERY, k=10, cache=cache)
    key = plan_key(QUERY, engine.semantics)
    assert plan_key(QUERY, engine.semantics) is key

    served, status = cache.probe(key, 10, QUERY.atoms(), engine.bind_all(QUERY))
    assert status == "exact"

    engine.invalidate(Atomic("c0", "x"))
    assert len(cache) == 1
    served, status = cache.probe(key, 10, QUERY.atoms(), engine.bind_all(QUERY))
    assert (served, status) == (None, "stale")
    assert len(cache) == 0

    refill = engine.top_k(QUERY, k=10, cache=cache)
    assert "cache" not in refill.extras
    assert answer_pairs(refill) == answer_pairs(fill)
    served, status = cache.probe(key, 10, QUERY.atoms(), engine.bind_all(QUERY))
    assert status == "exact"
    assert answer_pairs(served) == answer_pairs(fill)
    stats = cache.stats()
    assert (stats["fills"], stats["stale"], stats["hits"], stats["misses"]) == (2, 1, 2, 3)
