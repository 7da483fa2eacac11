"""Regenerate every experiment table (E1-E20) in one run.

This is the script behind EXPERIMENTS.md: it runs the full experiment
index from DESIGN.md and prints each table with its reproduction notes.
Expect a few minutes of wall-clock time.

Run:  python examples/reproduce_paper.py [--quick]
"""

import sys
import time

from repro.harness import (
    e1_cost_vs_n,
    e2_cost_vs_m,
    e3_cost_vs_k,
    e4_disjunction,
    e5_scoring_functions,
    e6_beatles,
    e7_filter,
    e8_weighted,
    e9_adversary,
    e10_uniqueness,
    e11_precompute,
    e12_cost_model_ablation,
    e12_ta_ablation,
    e13_curse,
    e14_filter_condition,
    e15_batching,
    e16_pruning,
    e17_concentration,
    e18_resumption,
    e20_resilience,
)
from repro.harness.reporting import format_table

FULL = (
    ("E1  — A0 cost vs N (sqrt law)", lambda: e1_cost_vs_n()),
    ("E2  — exponent vs m", lambda: e2_cost_vs_m()),
    ("E3  — cost vs k", lambda: e3_cost_vs_k()),
    ("E4  — disjunction m*k", lambda: e4_disjunction()),
    ("E5  — scoring catalog", lambda: e5_scoring_functions()),
    ("E6  — Boolean-first (Beatles)", lambda: e6_beatles()),
    ("E7  — distance-bounding filter", lambda: e7_filter()),
    ("E8  — weighted queries", lambda: e8_weighted()),
    ("E9  — adversarial linear bound", lambda: e9_adversary()),
    ("E10 — min/max uniqueness", lambda: e10_uniqueness()),
    ("E11 — precomputed distances", lambda: e11_precompute()),
    ("E12 — TA/NRA ablation", lambda: e12_ta_ablation()),
    ("E12b — cost-measure robustness", lambda: e12_cost_model_ablation()),
    ("E13 — dimensionality curse", lambda: e13_curse()),
    ("E14 — filter-condition simulation", lambda: e14_filter_condition()),
    ("E15 — batched sorted access", lambda: e15_batching()),
    ("E16 — A0 random-access pruning", lambda: e16_pruning()),
    ("E17 — cost concentration (w.h.p.)", lambda: e17_concentration()),
    ("E18 — resumption amortization", lambda: e18_resumption()),
    ("E20 — resilience (retries, NRA fallback ablation)", lambda: e20_resilience()),
)

QUICK = (
    ("E1  — A0 cost vs N (sqrt law)",
     lambda: e1_cost_vs_n(ns=(1000, 2000, 4000), seeds=(0,))),
    ("E4  — disjunction m*k", lambda: e4_disjunction(ns=(1000, 4000), ms=(2,))),
    ("E9  — adversarial linear bound",
     lambda: e9_adversary(ns=(1000, 2000, 4000))),
    ("E10 — min/max uniqueness", lambda: e10_uniqueness()),
)


def main() -> None:
    suite = QUICK if "--quick" in sys.argv else FULL
    for title, runner in suite:
        start = time.time()
        result = runner()
        elapsed = time.time() - start
        print(f"\n{'=' * 72}\n{title}   [{elapsed:.1f}s]\n{'=' * 72}")
        print(format_table(result.headers, result.rows))
        for note in result.notes:
            print(f"  * {note}")


if __name__ == "__main__":
    main()
