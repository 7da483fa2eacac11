"""Cache tiers across combine forms x storage backends x worker counts.

The cache key deliberately excludes the physical configuration — the
storage/combine conformance suites prove answers byte-identical across
all of it — so one deterministic workload exercises every tier under
each layout and checks the served answers against a single cold
reference (list backend, min conjunction, serial).  ``combine`` is
``tests.strategies.COMBINES``: the query's rule scored natively or
through the per-row loop of a user rule.
"""

import random

import pytest

from repro.core.planner import Strategy
from repro.core.query import Scored
from repro.scoring import tnorms
from tests.cache.helpers import (
    answer_pairs,
    atom,
    conjunction,
    engine_from_table,
)
from tests.strategies import COMBINES, with_combine

N = 60
M = 2


def make_table(seed=11):
    rng = random.Random(seed)
    levels = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    return {
        f"o{i:03d}": [rng.choice(levels) for _ in range(M)] for i in range(N)
    }


LAYOUTS = (
    ("list", None, 1),
    ("array", "array", 1),
    ("sharded", "array", 3),
    ("memmap", "memmap", 1),
)


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("workers", [None, 4])
@pytest.mark.parametrize("label,backend,shards", LAYOUTS)
def test_all_tiers_match_cold_reference(
    label, backend, shards, workers, combine, tmp_path
):
    table = make_table()
    query = Scored(
        with_combine(tnorms.MIN, combine), tuple(atom(c) for c in range(M))
    )
    directory = str(tmp_path / label) if backend == "memmap" else None

    reference = engine_from_table(table, M)
    cold_10 = reference.top_k(conjunction(M), k=10, prefer=Strategy.NRA)
    cold_4 = reference.top_k(conjunction(M), k=4, prefer=Strategy.NRA)
    cold_25 = reference.top_k(conjunction(M), k=25, prefer=Strategy.NRA)

    engine = engine_from_table(
        table,
        M,
        backend=backend,
        shards=shards,
        directory=directory,
        max_workers=workers,
    )
    cache = engine.configure_cache()

    # θ tier first, while no exact entry exists to shadow it: a θ fill
    # stores under its extended key, a looser repeat replays it, and the
    # later θ = 1.0 fill below stays byte-identical to cold — θ entries
    # are invisible to exact traffic.
    theta_fill = engine.top_k(query, k=10, prefer=Strategy.NRA, theta=1.5)
    assert theta_fill.extras.get("cache") is None
    assert theta_fill.approximation is not None
    theta_hit = engine.top_k(query, k=10, prefer=Strategy.NRA, theta=2.0)
    assert theta_hit.extras["cache"]["tier"] == "theta"
    assert answer_pairs(theta_hit) == answer_pairs(theta_fill)
    assert theta_hit.cost == theta_fill.cost

    fill = engine.top_k(query, k=10, prefer=Strategy.NRA)
    assert answer_pairs(fill) == answer_pairs(cold_10)
    assert fill.cost == cold_10.cost

    exact = engine.top_k(query, k=10, prefer=Strategy.NRA)
    assert exact.extras["cache"]["tier"] == "exact"
    assert answer_pairs(exact) == answer_pairs(cold_10)
    assert exact.cost == cold_10.cost

    prefix = engine.top_k(query, k=4, prefer=Strategy.NRA)
    assert prefix.extras["cache"]["tier"] == "prefix"
    assert prefix.answers.same_grade_multiset(cold_4.answers)
    assert prefix.cost.database_access_cost == 0

    # A deeper request is an ordinary miss: it runs cold, and its fill
    # replaces the entry, which then serves both depths.
    deeper = engine.top_k(query, k=25, prefer=Strategy.NRA)
    assert "cache" not in deeper.extras
    assert answer_pairs(deeper) == answer_pairs(cold_25)
    assert deeper.cost == cold_25.cost
    assert deeper.sorted_depth == cold_25.sorted_depth
    assert engine.top_k(query, k=25, prefer=Strategy.NRA).extras["cache"][
        "tier"
    ] == "exact"
    assert engine.top_k(query, k=10, prefer=Strategy.NRA).extras["cache"][
        "tier"
    ] == "prefix"

    # After the exact fill, θ' requests at covered k ride tiers 1/2.
    theta_prefix = engine.top_k(query, k=4, prefer=Strategy.NRA, theta=3.0)
    assert theta_prefix.extras["cache"]["tier"] == "prefix"
    assert theta_prefix.approximation is None

    stats = cache.stats()
    # theta + exact + prefix + exact@25 + prefix@10 + theta-as-prefix
    assert stats["hits"] == 6
    assert stats["theta_hits"] == 1
    assert stats["warm_hits"] == 0
    assert stats["misses"] == 3  # theta fill, fill, the deeper fill
    assert stats["fills"] == 3
