"""E26 — the semantic result cache under a Zipf query mix.

Paper context: Fagin's model prices one query in isolation; production
middleware answers a *stream* in which a few queries dominate (the
classic Zipf popularity curve).  The semantic cache converts that skew
into savings with certified reuse — exact replay and prefix slicing
under the recorded tau; a deeper k runs cold and refills the entry — so
the interesting measurements are end-to-end:

* a **skew sweep**: the same request stream drawn at Zipf exponents
  0.0 (uniform) through 1.5, replayed against a cache-off and a
  cache-on engine; per level, the tier mix, the hit rate, the median
  and p95 per-request latency of both engines, and the total access
  counts;
* the **conformance gate**: every cached answer is checked against the
  cache-off engine's answer for the same query — grade multisets must
  match exactly (the paper's top-k invariant); the report records the
  number of deltas, which must be zero everywhere;
* the **win check**: at Zipf 1.0 the cached engine's median latency
  must beat cold by >= 5x (hits are O(k) dictionary work versus a real
  NRA run).

Results land in BENCH_cache.json next to this file.  ``--smoke`` runs
a CI-sized stream, asserts zero conformance deltas and a positive hit
rate, and exits nonzero on any violation (without touching the
committed full-sweep JSON).
"""

import argparse
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro.core.planner import Strategy
from repro.core.query import Atomic
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem

N = 4000
LISTS = 5
REQUESTS = 400
SMOKE_N = 400
SMOKE_REQUESTS = 80
KS = (5, 10, 20)
SWEEP_S = (0.0, 0.5, 1.0, 1.5)
SPEEDUP_FLOOR = 5.0
OUTPUT = Path(__file__).parent / "BENCH_cache.json"


def build_engine(n):
    rng = random.Random(26)
    engine = MiddlewareEngine()
    subsystem = ListSubsystem("lists")
    for column in range(LISTS):
        subsystem.add_list(
            f"c{column}", "x", {f"o{i:05d}": rng.random() for i in range(n)}
        )
    engine.register(subsystem)
    return engine


def query_pool():
    """Every 2-subset of the lists, conjoined: 10 distinct plans."""
    return [
        Atomic(f"c{a}", "x") & Atomic(f"c{b}", "x")
        for a, b in itertools.combinations(range(LISTS), 2)
    ]


def zipf_ranks(count, exponent, size, rng):
    """``size`` pool indices drawn with P(rank r) ~ 1/r^s."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    return rng.choices(range(count), weights=weights, k=size)


def make_stream(exponent, requests, rng):
    """The request stream: (pool index, k) pairs, Zipf over the pool."""
    ranks = zipf_ranks(len(query_pool()), exponent, requests, rng)
    return [(rank, rng.choice(KS)) for rank in ranks]


def grade_multiset(result):
    return sorted(item.grade for item in result.answers)


def replay(engine, pool, stream, *, reference=None):
    """Run the stream; return latencies, tier counts, conformance deltas.

    ``reference`` maps (pool index, k) -> the cache-off grade multiset;
    when given, every response is gated against it.
    """
    latencies, tiers, deltas = [], {}, 0
    answers = {}
    for index, k in stream:
        started = time.perf_counter()
        result = engine.top_k(pool[index], k=k, prefer=Strategy.NRA)
        latencies.append(time.perf_counter() - started)
        tier = (result.extras.get("cache") or {}).get("tier", "cold")
        tiers[tier] = tiers.get(tier, 0) + 1
        key = (index, k)
        if key not in answers:
            answers[key] = grade_multiset(result)
        if reference is not None and grade_multiset(result) != reference[key]:
            deltas += 1
    return latencies, tiers, deltas, answers


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_level(exponent, n, requests):
    pool = query_pool()
    rng = random.Random(int(exponent * 1000) + 7)
    stream = make_stream(exponent, requests, rng)

    cold_engine = build_engine(n)
    try:
        cold_latencies, _, _, reference = replay(cold_engine, pool, stream)
    finally:
        cold_engine.close()

    cached_engine = build_engine(n)
    cache = cached_engine.configure_cache()
    try:
        latencies, tiers, deltas, _ = replay(
            cached_engine, pool, stream, reference=reference
        )
        stats = cache.stats()
    finally:
        cached_engine.close()

    served = stats["hits"]
    cold_median = statistics.median(cold_latencies)
    cached_median = statistics.median(latencies)
    return {
        "zipf_s": exponent,
        "requests": requests,
        "tiers": tiers,
        "hit_rate": round(served / requests, 4),
        "conformance_deltas": deltas,
        "cache_stats": stats,
        "cold_median_ms": round(cold_median * 1e3, 4),
        "cold_p95_ms": round(percentile(cold_latencies, 0.95) * 1e3, 4),
        "cached_median_ms": round(cached_median * 1e3, 4),
        "cached_p95_ms": round(percentile(latencies, 0.95) * 1e3, 4),
        "median_speedup": round(cold_median / cached_median, 2)
        if cached_median
        else float("inf"),
    }


REPORT_SCHEMA = {"benchmark": str, "config": dict, "levels": list}
LEVEL_SCHEMA = {
    "zipf_s": (int, float),
    "requests": int,
    "tiers": dict,
    "hit_rate": (int, float),
    "conformance_deltas": int,
    "cache_stats": dict,
    "cold_median_ms": (int, float),
    "cold_p95_ms": (int, float),
    "cached_median_ms": (int, float),
    "cached_p95_ms": (int, float),
    "median_speedup": (int, float),
}


def validate_report(report, *, smoke):
    for field, kind in REPORT_SCHEMA.items():
        assert field in report, f"report missing {field!r}"
        assert isinstance(report[field], kind), field
    assert report["levels"], "report has no levels"
    for level in report["levels"]:
        for field, kinds in LEVEL_SCHEMA.items():
            assert field in level, f"level missing {field!r}"
            assert isinstance(level[field], kinds), field
        assert level["conformance_deltas"] == 0, (
            f"cache served a wrong answer at zipf_s={level['zipf_s']}: "
            f"{level['conformance_deltas']} deltas"
        )
        assert level["hit_rate"] > 0.0, "the stream never hit the cache"
    if not smoke:
        hot = next(
            level for level in report["levels"] if level["zipf_s"] == 1.0
        )
        assert hot["median_speedup"] >= SPEEDUP_FLOOR, (
            f"median speedup {hot['median_speedup']}x at Zipf(1.0) is "
            f"below the {SPEEDUP_FLOOR}x floor"
        )


def run(sweep, n, requests, *, smoke=False):
    levels = []
    for exponent in sweep:
        level = run_level(exponent, n, requests)
        levels.append(level)
        print(
            f"zipf {exponent:>4}: hit rate {level['hit_rate']:>6.1%}  "
            f"median {level['cold_median_ms']:>8.3f}ms -> "
            f"{level['cached_median_ms']:>8.3f}ms "
            f"({level['median_speedup']:>6.2f}x)  "
            f"tiers {level['tiers']}  deltas {level['conformance_deltas']}"
        )
    report = {
        "benchmark": "e26-cache",
        "config": {
            "n": n,
            "lists": LISTS,
            "pool": len(query_pool()),
            "ks": list(KS),
            "requests_per_level": requests,
            "smoke": smoke,
        },
        "levels": levels,
    }
    validate_report(report, smoke=smoke)
    if smoke:
        print("cache smoke OK")
    else:
        OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"written: {OUTPUT}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized stream: conformance + hit-rate asserted, no JSON",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run((0.0, 1.0), SMOKE_N, SMOKE_REQUESTS, smoke=True)
    return run(SWEEP_S, N, REQUESTS)


if __name__ == "__main__":
    sys.exit(main())
