"""θ-tier cache semantics: certified reuse, qualification, isolation.

The θ tier's contract (see :mod:`repro.cache`): a clean θ-certified
fill is stored under an extended *same-k* key and replays for a later
request exactly when the recorded achieved ratio covers the requested
θ'; exact (θ = 1) entries serve any θ' through tiers 1/2; θ = 1.0 probes
never touch θ entries at all; a θ request deeper than every entry runs
fresh; fingerprint invalidation covers them like every other entry; and
degraded / anytime / unprovable results are never cached.
"""

import random

from repro.cache import QueryCache, plan_key
from repro.core.cost import CostReport
from repro.core.graded import GradedSet
from repro.core.planner import Strategy
from repro.core.result import ApproximationCertificate, DegradedResult, TopKResult
from repro.scoring.zadeh import ZADEH
from tests.cache.helpers import answer_pairs, atom, conjunction, engine_from_table

N = 60
M = 2


def make_table(seed=11):
    rng = random.Random(seed)
    levels = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    return {
        f"o{i:03d}": [rng.choice(levels) for _ in range(M)] for i in range(N)
    }


def cached_engine(table=None):
    engine = engine_from_table(table or make_table(), M)
    return engine, engine.configure_cache()


# ---------------------------------------------------------------- serving


def test_theta_repeat_replays_with_certificate():
    engine, cache = cached_engine()
    query = conjunction(M)
    fill = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    assert fill.extras.get("cache") is None
    assert fill.approximation is not None

    served = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    assert served.extras["cache"]["tier"] == "theta"
    assert answer_pairs(served) == answer_pairs(fill)
    assert served.cost == fill.cost  # full replay of the fill's tallies
    assert served.approximation is not None
    assert served.approximation.achieved == fill.approximation.achieved
    assert served.approximation.theta == 1.5
    assert cache.stats()["theta_hits"] == 1


def test_theta_entry_serves_only_when_achieved_qualifies():
    engine, cache = cached_engine()
    query = conjunction(M)
    fill = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    achieved = fill.approximation.achieved

    # A looser request is covered by the recorded proof.
    looser = engine.top_k(query, 5, prefer=Strategy.NRA, theta=2.0)
    assert looser.extras["cache"]["tier"] == "theta"
    assert looser.approximation.theta == 2.0
    assert looser.approximation.achieved == achieved

    # A request tighter than the achieved ratio must NOT be served from
    # the entry: it re-executes and stores the tighter certificate.
    tight_theta = 1.0 + (achieved - 1.0) / 2 if achieved > 1.0 else None
    if tight_theta is not None and tight_theta > 1.0:
        tighter = engine.top_k(query, 5, prefer=Strategy.NRA, theta=tight_theta)
        assert tighter.extras.get("cache") is None
        assert tighter.approximation.achieved <= tight_theta + 1e-6
        # The tighter fill replaced the entry (tighter achieved wins).
        again = engine.top_k(query, 5, prefer=Strategy.NRA, theta=tight_theta)
        assert again.extras["cache"]["tier"] == "theta"


def test_exact_entries_serve_any_theta():
    engine, cache = cached_engine()
    query = conjunction(M)
    cold = engine.top_k(query, 10, prefer=Strategy.NRA)
    assert cold.extras.get("cache") is None

    exact = engine.top_k(query, 10, prefer=Strategy.NRA, theta=1.5)
    assert exact.extras["cache"]["tier"] == "exact"
    assert exact.approximation is None  # exact answers need no certificate
    assert answer_pairs(exact) == answer_pairs(cold)

    prefix = engine.top_k(query, 4, prefer=Strategy.NRA, theta=3.0)
    assert prefix.extras["cache"]["tier"] == "prefix"
    assert prefix.cost.database_access_cost == 0
    assert cache.stats()["theta_hits"] == 0


def test_theta_one_probe_never_touches_theta_entries():
    """Exact traffic is byte-identical to a cache without θ entries."""
    table = make_table()
    engine, cache = cached_engine(table)
    query = conjunction(M)
    engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)  # θ entry stored

    reference = engine_from_table(table, M).top_k(query, 5, prefer=Strategy.NRA)
    exact = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.0)
    assert exact.extras.get("cache") is None  # cold, not served from θ
    assert answer_pairs(exact) == answer_pairs(reference)
    assert exact.cost == reference.cost
    assert exact.approximation is None


def test_theta_entries_are_same_k_only():
    engine, cache = cached_engine()
    query = conjunction(M)
    engine.top_k(query, 8, prefer=Strategy.NRA, theta=1.5)

    smaller = engine.top_k(query, 3, prefer=Strategy.NRA, theta=1.5)
    assert smaller.extras.get("cache") is None  # a prefix proves nothing
    deeper = engine.top_k(query, 15, prefer=Strategy.NRA, theta=1.5)
    assert deeper.extras.get("cache") is None or (
        deeper.extras["cache"]["tier"] != "theta"
    )


def test_theta_fill_stores_only_a_same_k_certified_entry():
    engine, cache = cached_engine()
    query = conjunction(M)
    engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    (entry,) = cache._entries.values()
    assert entry.key == plan_key(query, ZADEH, Strategy.NRA) + ("theta", 5)
    assert entry.k == 5
    assert entry.certificate is not None and entry.certificate.theta == 1.5


# ---------------------------------------------------------------- invalidation


def test_invalidation_drops_theta_entries():
    engine, cache = cached_engine()
    query = conjunction(M)
    engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    assert engine.top_k(
        query, 5, prefer=Strategy.NRA, theta=1.5
    ).extras["cache"]["tier"] == "theta"

    engine.invalidate(atom(0))
    refilled = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    assert refilled.extras.get("cache") is None  # entry gone, ran cold


def test_storage_reconfiguration_stales_theta_entries():
    engine, cache = cached_engine()
    query = conjunction(M)
    engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    engine.configure_storage("array")
    refilled = engine.top_k(query, 5, prefer=Strategy.NRA, theta=1.5)
    assert refilled.extras.get("cache") is None
    assert refilled.approximation is not None


# ---------------------------------------------------------------- store gating


def _result(certificate=None, degraded=None, grades_exact=True):
    return TopKResult(
        answers=GradedSet({"a": 0.9, "b": 0.5}),
        cost=CostReport(),
        algorithm="nra",
        grades_exact=grades_exact,
        degraded=degraded,
        approximation=certificate,
    )


def _key():
    return plan_key(conjunction(M), ZADEH)


def test_store_refuses_anytime_and_degraded_and_unprovable():
    cache = QueryCache()
    anytime = ApproximationCertificate.build(
        theta=1.5, kth_grade=0.5, bound=0.8, anytime=True
    )
    assert not cache.store(_key(), (), (), _result(certificate=anytime))
    degraded = DegradedResult(fallback="partial-bounds", complete=False)
    assert not cache.store(_key(), (), (), _result(degraded=degraded))
    unprovable = ApproximationCertificate.build(
        theta=1.5, kth_grade=0.0, bound=0.8
    )
    assert unprovable.achieved == float("inf")
    assert not cache.store(_key(), (), (), _result(certificate=unprovable))
    assert len(cache) == 0


def test_store_keeps_tighter_achieved_on_race():
    cache = QueryCache()
    loose = ApproximationCertificate.build(theta=2.0, kth_grade=0.5, bound=0.9)
    tight = ApproximationCertificate.build(theta=2.0, kth_grade=0.5, bound=0.6)
    assert cache.store(_key(), (), (), _result(certificate=loose))
    assert cache.store(_key(), (), (), _result(certificate=tight))
    assert not cache.store(_key(), (), (), _result(certificate=loose))
    assert cache.stats()["fill_races"] == 1
    (entry,) = cache._entries.values()
    assert entry.certificate.achieved == tight.achieved


# ---------------------------------------------------------------- deeper k


def test_deeper_theta_request_after_exact_fill_runs_fresh_and_certifies():
    """A θ > 1 request deeper than the exact fill is a miss: it runs
    fresh, byte-identical to a cache-off run, and certifies from its own
    live bounds — nothing is inherited from the (exact,
    certificate-free) fill."""
    table = make_table()
    engine, cache = cached_engine(table)
    query = conjunction(M)
    fill = engine.top_k(query, 5, prefer=Strategy.NRA)  # exact
    assert fill.approximation is None

    deeper = engine.top_k(query, 15, prefer=Strategy.NRA, theta=1.5)
    assert "cache" not in deeper.extras
    cold = engine_from_table(table, M).top_k(
        query, 15, prefer=Strategy.NRA, theta=1.5
    )
    assert answer_pairs(deeper) == answer_pairs(cold)
    assert deeper.cost == cold.cost
    assert deeper.approximation == cold.approximation
    certificate = deeper.approximation
    assert certificate is not None
    assert certificate.theta == 1.5
    assert not certificate.anytime

    # Certificate soundness against the true grades (Zadeh min rule).
    truth = {obj: min(row) for obj, row in table.items()}
    returned = {item.object_id for item in deeper.answers}
    excluded_best = max(
        (grade for obj, grade in truth.items() if obj not in returned),
        default=0.0,
    )
    if certificate.kth_grade > 0:
        assert certificate.achieved <= 1.5 + 1e-6
    if certificate.achieved != float("inf"):
        for item in deeper.answers:
            assert (
                certificate.achieved * truth[item.object_id]
                >= excluded_best - 1e-9
            )

    # The fresh θ run stored a θ entry at k=15; a repeat replays it while
    # the exact k=5 entry still serves exact traffic untouched.
    repeat = engine.top_k(query, 15, prefer=Strategy.NRA, theta=1.5)
    assert repeat.extras["cache"]["tier"] == "theta"
    exact_again = engine.top_k(query, 5, prefer=Strategy.NRA)
    assert exact_again.extras["cache"]["tier"] == "exact"
    assert answer_pairs(exact_again) == answer_pairs(fill)
