"""E27 — TA-θ / NRA-θ: certified approximation factor vs access cost.

Paper context: Fagin's algorithms price the *exact* top k.  Fagin,
Lotem, and Naor's θ-approximation trades certified answer quality for
access cost — stop as soon as every reported answer is provably within
a factor θ of optimal — and the middleware threads that knob end to
end.  This experiment measures the trade at scale:

* a **θ sweep** over {1.0, 1.01, 1.05, 1.1, 1.5, 2.0} for TA-θ and
  NRA-θ at N = 10^6 under the paper's independence model, for the min
  and mean combining rules, across storage backends (in-RAM columnar
  arrays, out-of-core memmaps): per point, the
  charged accesses, sorted depth, achieved ratio, and wall time;
* the **exactness gate**: θ = 1.0 must be byte-identical (answers and
  costs) to not passing θ at all — the knob costs nothing when off;
* the **certificate oracle**: every θ > 1 run is audited against the
  exact true grades — the FLN inequality ``θ * grade(y) >= grade(z)``
  for every returned y and excluded z, the certified achieved ratio
  itself, and (NRA) the per-answer intervals; the violation count must
  be zero everywhere;
* the **monotonicity gate**: access cost is non-increasing in θ for
  every (algorithm, rule, configuration), and the full sweep must show
  a strict reduction from θ = 1.0 to θ = 2.0 — except NRA under min,
  which is structurally θ-insensitive: an object's lower bound stays 0
  until it has been seen in *every* list, and once k objects clear
  that bar the exact stop fires almost immediately anyway, so there is
  nothing for θ to relax.  The sweep records that negative result
  instead of asserting reduction there.

Results land in BENCH_theta.json next to this file.  ``--smoke`` runs
a CI-sized sweep with the same gates and exits nonzero on any
violation (without touching the committed full-sweep JSON).
"""

import argparse
import heapq
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.sources import sources_from_columns
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.scoring import means, tnorms
from repro.workloads.graded_lists import independent

THETAS = (1.0, 1.01, 1.05, 1.1, 1.5, 2.0)
N, M, K, SEED = 1_000_000, 2, 10, 27
SMOKE_N = 400
OUTPUT = Path(__file__).parent / "BENCH_theta.json"

ALGORITHMS = (
    ("ta", threshold_top_k, {"batch_size": 128}),
    ("nra", nra_top_k, {"batch_size": 4096}),
)

RULES = (("min", tnorms.MIN), ("mean", means.MEAN))

#: (algorithm, rule) pairs where θ provably cannot buy anything — see
#: the module docstring for why NRA under min never stops early.
STRICT_REDUCTION_EXEMPT = {("nra", "min")}

FULL_CONFIGS = ("array", "memmap")
SMOKE_CONFIGS = ("array",)


def answer_key(result):
    return [(item.object_id, item.grade) for item in result.answers]


def oracle(table, rule):
    """True grades plus the top-(K+1) ranking the audits need."""
    truth = {obj: rule(list(row)) for obj, row in table.items()}
    ranked = heapq.nlargest(
        K + 1, truth.items(), key=lambda pair: (pair[1], pair[0])
    )
    kth_exact = ranked[min(K, len(ranked)) - 1][1]
    return truth, ranked, kth_exact


def excluded_best(ranked, returned, truth):
    """Best true grade outside ``returned`` (pigeonhole: the global
    top-(K+1) must contain one such object when |returned| <= K)."""
    for obj, grade in ranked:
        if obj not in returned:
            return grade
    return max(
        (grade for obj, grade in truth.items() if obj not in returned),
        default=0.0,
    )


def audit(result, theta, truth, ranked, kth_exact):
    """Count certificate violations against the exact oracle."""
    violations = 0
    returned = {item.object_id for item in result.answers}
    rival = excluded_best(ranked, returned, truth)
    for item in result.answers:
        if theta * truth[item.object_id] < kth_exact - 1e-9:
            violations += 1
    certificate = result.approximation
    if certificate is not None:
        if certificate.achieved != float("inf"):
            for item in result.answers:
                if certificate.achieved * truth[item.object_id] < rival - 1e-9:
                    violations += 1
        if certificate.intervals is not None:
            for obj, (lower, upper) in certificate.intervals.items():
                if not (lower - 1e-12 <= truth[obj] <= upper + 1e-12):
                    violations += 1
    return violations


def run_config(backend, table, oracles, directory):
    kwargs = {"backend": backend}
    if backend == "memmap":
        kwargs["directory"] = directory
    sources = sources_from_columns(table, **kwargs)
    rows = []
    for rule_name, rule in RULES:
        truth, ranked, kth_exact = oracles[rule_name]
        for name, algo, algo_kwargs in ALGORITHMS:
            baseline = algo(sources, rule, K, **algo_kwargs)
            costs = []
            for theta in THETAS:
                started = time.perf_counter()
                result = algo(sources, rule, K, theta=theta, **algo_kwargs)
                elapsed = time.perf_counter() - started
                label = f"{name}/{rule_name}/{backend}"
                if theta == 1.0:
                    assert answer_key(result) == answer_key(baseline), (
                        f"{label}: theta=1.0 answers differ from the "
                        "exact run"
                    )
                    assert result.cost == baseline.cost, (
                        f"{label}: theta=1.0 cost differs"
                    )
                    assert result.approximation is None
                violations = audit(result, theta, truth, ranked, kth_exact)
                certificate = result.approximation
                costs.append(result.database_access_cost)
                rows.append(
                    {
                        "algorithm": name,
                        "rule": rule_name,
                        "backend": backend,
                        "theta": theta,
                        "cost": result.database_access_cost,
                        "sorted": result.cost.sorted_access_cost,
                        "random": result.cost.random_access_cost,
                        "depth": result.sorted_depth,
                        "achieved": (
                            round(certificate.achieved, 6)
                            if certificate is not None
                            else None
                        ),
                        "violations": violations,
                        "seconds": round(elapsed, 4),
                    }
                )
            for tighter, looser in zip(costs, costs[1:]):
                assert tighter >= looser, (
                    f"{label}: cost not monotone in theta: {costs} over "
                    f"{THETAS}"
                )
    return rows


def run(configs, n, *, smoke=False):
    table = independent(n, M, seed=SEED)
    oracles = {name: oracle(table, rule) for name, rule in RULES}
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-e27-") as scratch:
        for index, backend in enumerate(configs):
            directory = str(Path(scratch) / f"cfg{index}")
            rows.extend(run_config(backend, table, oracles, directory))
    for row in rows:
        achieved = row["achieved"] if row["achieved"] is not None else "-"
        print(
            f"{row['algorithm']:>4}/{row['rule']:<4} "
            f"{row['backend']:<6} "
            f"theta {row['theta']:>5}: cost {row['cost']:>8} "
            f"(depth {row['depth']:>6})  achieved {achieved:>9}  "
            f"violations {row['violations']}  {row['seconds']:.3f}s"
        )
    total_violations = sum(row["violations"] for row in rows)
    assert total_violations == 0, (
        f"{total_violations} certificate violations against the oracle"
    )
    if not smoke:
        for name, _, _ in ALGORITHMS:
            for rule_name, _ in RULES:
                if (name, rule_name) in STRICT_REDUCTION_EXEMPT:
                    continue
                for backend in configs:
                    mine = [
                        row
                        for row in rows
                        if row["algorithm"] == name
                        and row["rule"] == rule_name
                        and row["backend"] == backend
                    ]
                    exact_cost = mine[0]["cost"]
                    loosest_cost = mine[-1]["cost"]
                    assert loosest_cost < exact_cost, (
                        f"{name}/{rule_name}/{backend}: theta=2.0 "
                        f"cost {loosest_cost} shows no reduction from "
                        f"exact {exact_cost}"
                    )
    report = {
        "benchmark": "e27-theta",
        "config": {
            "n": n,
            "m": M,
            "k": K,
            "seed": SEED,
            "thetas": list(THETAS),
            "rules": [name for name, _ in RULES],
            "configs": list(configs),
            "strict_reduction_exempt": sorted(
                list(pair) for pair in STRICT_REDUCTION_EXEMPT
            ),
            "smoke": smoke,
        },
        "rows": rows,
    }
    if smoke:
        print("theta smoke OK")
    else:
        OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"written: {OUTPUT}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized sweep: all gates asserted, no JSON written",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run(SMOKE_CONFIGS, SMOKE_N, smoke=True)
    return run(FULL_CONFIGS, N)


if __name__ == "__main__":
    sys.exit(main())
