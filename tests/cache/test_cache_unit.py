"""Unit coverage of the cache internals: keys, entries, LRU, races.

The conformance suites prove end-to-end behavior; these tests pin the
normalization and bookkeeping rules directly so a regression names the
broken rule instead of a downstream mismatch.
"""

import hashlib
import random
from functools import partial

import pytest

from repro.cache import QueryCache, key_digest, plan_key
from repro.core.planner import Strategy
from repro.core.query import Atomic, Scored, Weighted
from repro.scoring import conorms, means, tnorms
from repro.scoring.base import FunctionScoring
from repro.scoring.owa import OwaScoring
from repro.scoring.weighted import WeightedScoring
from repro.scoring.zadeh import ZADEH

from tests.cache.helpers import answer_pairs, atom, conjunction, engine_from_table

A = Atomic("a", "x")
B = Atomic("b", "x")


# ----------------------------------------------------------------------
# Key normalization
# ----------------------------------------------------------------------
def test_symmetric_conjunction_commutes():
    assert plan_key(A & B, ZADEH) == plan_key(B & A, ZADEH)
    assert plan_key(A | B, ZADEH) == plan_key(B | A, ZADEH)


def test_conjunction_and_disjunction_never_collide():
    assert plan_key(A & B, ZADEH) != plan_key(A | B, ZADEH)


def test_symmetric_scored_rule_commutes():
    assert plan_key(Scored(means.MEAN, (A, B)), ZADEH) == plan_key(
        Scored(means.MEAN, (B, A)), ZADEH
    )
    assert plan_key(Scored(means.MEAN, (A, B)), ZADEH) != plan_key(
        Scored(tnorms.PRODUCT, (A, B)), ZADEH
    )


def test_weighted_children_are_positional():
    # Fagin–Wimmers weights attach to positions: swapping children
    # changes the query, so the keys must differ.
    forward = Weighted((A, B), (0.7, 0.3))
    swapped = Weighted((B, A), (0.7, 0.3))
    assert plan_key(forward, ZADEH) != plan_key(swapped, ZADEH)
    assert plan_key(forward, ZADEH) != plan_key(
        Weighted((A, B), (0.3, 0.7)), ZADEH
    )


def test_prefer_is_part_of_the_key():
    assert plan_key(A & B, ZADEH, Strategy.NRA) != plan_key(A & B, ZADEH)
    assert plan_key(A & B, ZADEH, Strategy.NRA) != plan_key(
        A & B, ZADEH, Strategy.THRESHOLD
    )


def test_function_scoring_rules_never_alias():
    # Two user lambdas with the same display name must not share an
    # entry — the cache cannot prove them equal, so it must not try.
    first = FunctionScoring(lambda grades: min(grades), name="custom")
    second = FunctionScoring(lambda grades: max(grades), name="custom")
    key = plan_key(Scored(first, (A, B)), ZADEH)
    assert key != plan_key(Scored(second, (A, B)), ZADEH)
    assert key == plan_key(Scored(first, (B, A)), ZADEH)


#: pairs of catalog rules whose display names round their parameters
#: to one name although the parameters differ
ROUNDED_NAME_PAIRS = [
    (OwaScoring, (0.3331, 0.6669), (0.3334, 0.6666)),
    (means.WeightedArithmeticMean, (0.3331, 0.6669), (0.3334, 0.6666)),
    (partial(WeightedScoring, tnorms.MIN), (0.6669, 0.3331), (0.6666, 0.3334)),
    (tnorms.HamacherTNorm, 0.1234561, 0.1234564),
    (means.PowerMean, 2.0000001, 2.0000002),
    (lambda p: conorms.DualConorm(tnorms.YagerTNorm(p)), 2.0000001, 2.0000002),
]


@pytest.mark.parametrize(
    "make, first, second",
    ROUNDED_NAME_PAIRS,
    ids=["owa", "weighted-mean", "weighted-min", "hamacher", "power-mean", "dual-yager"],
)
def test_parameterised_rules_key_by_their_exact_parameters(make, first, second):
    # The names agree, so a key of class + name alone would alias them.
    assert make(first).name == make(second).name
    key = plan_key(Scored(make(first), (A, B)), ZADEH)
    assert key != plan_key(Scored(make(second), (A, B)), ZADEH)
    # equal parameters still key alike across instances
    assert key == plan_key(Scored(make(first), (A, B)), ZADEH)


def test_digest_is_hash_seed_independent():
    key = plan_key(A & B, ZADEH)
    # sha1 over repr — byte-stable across processes and PYTHONHASHSEED,
    # unlike hash(), so digests are safe inside golden traces.
    expected = hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:12]
    assert key_digest(key) == expected
    assert key_digest(key) == key_digest(plan_key(B & A, ZADEH))


# ----------------------------------------------------------------------
# Entry bookkeeping via the engine
# ----------------------------------------------------------------------
def small_engine(max_entries=256):
    rng = random.Random(3)
    table = {f"o{i:02d}": [rng.random(), rng.random()] for i in range(30)}
    engine = engine_from_table(table, 2)
    return engine, engine.configure_cache(max_entries=max_entries)


def test_tau_is_the_kth_grade():
    engine, cache = small_engine()
    result = engine.top_k(conjunction(2), k=7)
    served = engine.top_k(conjunction(2), k=7)
    answers = list(result.answers)
    assert served.extras["cache"]["tau"] == answers[-1].grade


@pytest.mark.parametrize("rule", (OwaScoring, means.WeightedArithmeticMean))
def test_a_rule_differing_past_its_display_name_is_not_served(rule):
    first, second = rule((0.3331, 0.6669)), rule((0.3334, 0.6666))
    query = Scored(second, (atom(0), atom(1)))
    engine, _ = small_engine()
    engine.top_k(Scored(first, (atom(0), atom(1))), k=5)
    served = engine.top_k(query, k=5)
    cold = small_engine()[0].top_k(query, k=5)
    assert "cache" not in served.extras
    assert answer_pairs(served) == answer_pairs(cold)
    assert served.cost == cold.cost


def test_lru_eviction_drops_the_oldest():
    engine, cache = small_engine(max_entries=2)
    first = Atomic("c0", "x")
    second = Atomic("c1", "x")
    engine.top_k(first, k=3)
    engine.top_k(second, k=3)
    engine.top_k(first, k=3)  # refresh: first is now the recent one
    engine.top_k(conjunction(2), k=3)  # third entry: evicts second
    assert cache.stats()["evictions"] == 1
    assert engine.top_k(first, k=3).extras["cache"]["tier"] == "exact"
    assert "cache" not in engine.top_k(second, k=3).extras


def test_store_rejects_inexact_grades():
    engine, cache = small_engine()
    result = engine.top_k(conjunction(2), k=5)
    result.grades_exact = False
    key = plan_key(conjunction(2), ZADEH)
    atoms = conjunction(2).atoms()
    sources = engine.bind_all(conjunction(2))
    assert not cache.store(key, atoms, sources, result)


def test_deepest_k_wins_and_shallower_store_counts_a_race():
    engine, cache = small_engine()
    query = conjunction(2)
    deep = engine.top_k(query, k=10)
    key = plan_key(query, ZADEH)
    atoms = query.atoms()
    sources = engine.bind_all(query)

    shallow = engine.top_k(query, k=4, cache=False)
    assert not cache.store(key, atoms, sources, shallow)
    assert cache.stats()["fill_races"] == 1
    # The deep entry survived: k=10 is still an exact hit.
    again = engine.top_k(query, k=10)
    assert again.extras["cache"]["tier"] == "exact"
    assert [(i.object_id, i.grade) for i in again.answers] == [
        (i.object_id, i.grade) for i in deep.answers
    ]


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        QueryCache(max_entries=0)


def test_per_query_cache_override():
    engine, cache = small_engine()
    query = conjunction(2)
    engine.top_k(query, k=5)
    # cache=False bypasses the session cache entirely for one call.
    bypassed = engine.top_k(query, k=5, cache=False)
    assert "cache" not in bypassed.extras
    assert cache.stats()["hits"] == 0
    # An explicit private cache substitutes the session one: it fills
    # independently and the session cache sees none of the traffic.
    private = QueryCache()
    engine.top_k(query, k=5, cache=private)
    assert private.stats() == {**private.stats(), "fills": 1, "misses": 1}
    assert cache.stats()["hits"] == 0
    served = engine.top_k(query, k=5, cache=private)
    assert served.extras["cache"]["tier"] == "exact"


def test_configure_cache_accepts_a_cache_positionally():
    # An empty QueryCache has len() 0; passed as the first positional
    # argument it must install, not read as enabled=False and silently
    # turn caching off.
    engine, _ = small_engine()
    shared = QueryCache(max_entries=8)
    assert engine.configure_cache(shared) is shared
    assert engine.cache is shared
    query = conjunction(2)
    engine.top_k(query, k=5)
    assert shared.stats()["fills"] == 1
    assert engine.top_k(query, k=5).extras["cache"]["tier"] == "exact"
