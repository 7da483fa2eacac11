"""Strategy selection for top-k evaluation (sections 4.1–4.2).

The paper describes several evaluation strategies, each best in a
different regime:

* the **Boolean-conjunct-first** strategy when a conjunct is a selective
  relational predicate (the Beatles example);
* the **m*k max algorithm** when the scoring function is the standard
  fuzzy disjunction;
* **Fagin's algorithm A0** (or its TA/NRA refinements) for general
  monotone scoring functions;
* the **naive scan** as the always-correct fallback.

"In order to use an optimizer, we need to understand the cost of applying
various operators over various data in various repositories" (section
4.2) — :func:`plan_top_k` is that optimizer in miniature: it inspects the
sources (Boolean? random access supported? how selective?) and the
scoring function, estimates each applicable strategy's cost under the
paper's model, and picks the cheapest.  The produced :class:`Plan`
records the reason for the choice, and :func:`execute` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.core.boolean_first import boolean_first_top_k
from repro.core.disjunction import disjunction_top_k
from repro.core.fagin import fagin_top_k
from repro.core.naive import naive_top_k
from repro.core.result import TopKResult
from repro.core.sources import GradedSource, check_same_objects
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.errors import PlanError
from repro.scoring.base import ScoringFunction, as_scoring_function
from repro.scoring.conorms import MaximumConorm
from repro.scoring.tnorms import MIN


class Strategy(Enum):
    """The evaluation strategies the planner can choose among."""

    FAGIN = "fagin-a0"
    THRESHOLD = "threshold-ta"
    NRA = "nra"
    DISJUNCTION = "disjunction-max"
    BOOLEAN_FIRST = "boolean-first"
    NAIVE = "naive"


@dataclass
class Plan:
    """A chosen strategy plus the planner's cost rationale.

    ``storage`` summarizes each source's physical backend (innermost of
    its wrapper chain: list/array/memmap, shard layout) — the paper's
    cost model is storage-agnostic, so the summary is informational and
    never steers the strategy choice; EXPLAIN renders it.

    ``theta`` is the Fagin–Lotem–Naor θ-approximation knob (1.0 =
    exact).  Only TA and NRA have θ-relaxed stopping rules; the other
    strategies always return exact answers, which trivially satisfy any
    θ ≥ 1, so the knob never changes the strategy choice.
    """

    strategy: Strategy
    scoring: ScoringFunction
    k: int
    reason: str
    estimated_cost: float
    boolean_index: Optional[int] = None
    storage: Optional[List[Dict[str, object]]] = None
    theta: float = 1.0

    def __repr__(self) -> str:
        return (
            f"Plan({self.strategy.value}, k={self.k}, "
            f"est={self.estimated_cost:.0f}, reason={self.reason!r})"
        )


def _annihilates_at_zero(rule: ScoringFunction, arity: int) -> bool:
    """True if a 0 grade in any slot forces the overall grade to 0.

    Checked empirically at a handful of points; every t-norm satisfies
    it by A-conservation + monotonicity, the arithmetic mean does not.
    """
    probes = (0.25, 0.5, 0.75, 1.0)
    for position in range(arity):
        for level in probes:
            vector = [level] * arity
            vector[position] = 0.0
            if rule(vector) > 0.0:
                return False
    return True


def _is_max_rule(rule: ScoringFunction, arity: int) -> bool:
    """True if the rule coincides with max on a probe grid."""
    if isinstance(rule, MaximumConorm):
        return True
    probes = (0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
    for i, a in enumerate(probes):
        for b in probes[i:]:
            vector = [a] * arity
            vector[-1] = b
            if abs(rule(vector) - max(a, b)) > 1e-12:
                return False
    return True


def _fact(test, rule: ScoringFunction, arity: int) -> bool:
    """``test(rule, arity)``, kept on a compiled query's rule (its
    ``facts``) so a repeated query probes the rule once."""
    facts = getattr(rule, "facts", None)
    if facts is None:
        return test(rule, arity)
    fact = facts.get(test)
    if fact is None:
        fact = facts[test] = test(rule, arity)
    return fact


def _boolean_selectivity(source: GradedSource) -> Optional[int]:
    """Number of grade-1 objects in a Boolean source, if it advertises one."""
    count = getattr(source, "positive_count", None)
    if count is not None:
        return int(count)
    return None


def plan_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    prefer: Optional[Strategy] = None,
    theta: float = 1.0,
) -> Plan:
    """Choose an evaluation strategy and estimate its access cost.

    ``prefer`` forces a specific strategy (the planner still refuses a
    strategy whose preconditions fail, e.g. TA over a sorted-only
    source).  Cost estimates use the paper's formulas: ``m * N`` naive,
    ``m * k`` disjunction, ``|S| * m`` Boolean-first, and the Theorem 4.1
    law ``m * N^{(m-1)/m} * k^{1/m}`` (sorted) plus one random probe per
    seen object for A0/TA.  ``theta`` rides along on the plan and is
    honored by the strategies with θ-relaxed stopping rules (TA, NRA).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1.0, got {theta}")
    rule = as_scoring_function(scoring)
    n = check_same_objects(sources)
    m = len(sources)
    k_eff = min(k, n)
    # Dynamic, not just protocol-level: a resilient source whose
    # random-access circuit breaker is open reports unavailable here, so
    # the planner picks a sorted-only strategy up front instead of
    # letting the execution degrade mid-query.
    random_ok = all(s.random_access_available() for s in sources)

    candidates: Dict[Strategy, Plan] = {}

    def offer(strategy: Strategy, cost: float, reason: str, **kw) -> None:
        candidates[strategy] = Plan(strategy, rule, k_eff, reason, cost, **kw)

    offer(Strategy.NAIVE, float(m * n), "always-correct full scan")
    if rule.is_monotone:
        offer(
            Strategy.NRA,
            2.0 * m * n ** ((m - 1) / m) * k_eff ** (1 / m) if m > 1 else float(k_eff),
            "sorted access only; works without random access",
        )
    if _fact(_is_max_rule, rule, m):
        offer(
            Strategy.DISJUNCTION,
            float(m * k_eff),
            "max rule: m*k algorithm, cost independent of N",
        )
    if random_ok and rule.is_monotone:
        fa_sorted = m * n ** ((m - 1) / m) * k_eff ** (1 / m) if m > 1 else float(k_eff)
        offer(
            Strategy.FAGIN,
            fa_sorted + (m - 1) * fa_sorted / max(m, 1),
            "Theorem 4.1 law for independent lists",
        )
        offer(
            Strategy.THRESHOLD,
            fa_sorted,  # TA never does more sorted access than A0
            "instance-optimal refinement of A0",
        )
        if rule.is_monotone and _fact(_annihilates_at_zero, rule, m):
            for i, source in enumerate(sources):
                if not source.is_boolean:
                    continue
                selected = _boolean_selectivity(source)
                if selected is None:
                    continue
                cost = selected * m + 1
                previous = candidates.get(Strategy.BOOLEAN_FIRST)
                if previous is None or cost < previous.estimated_cost:
                    offer(
                        Strategy.BOOLEAN_FIRST,
                        float(cost),
                        f"Boolean conjunct {source.name!r} selects "
                        f"{selected}/{n} objects",
                        boolean_index=i,
                    )

    def summarized(plan: Plan) -> Plan:
        from repro.storage import describe_source_storage

        plan.storage = [describe_source_storage(s) for s in sources]
        plan.theta = theta
        return plan

    if prefer is not None:
        if prefer not in candidates:
            raise PlanError(
                f"strategy {prefer.value!r} is not applicable here "
                f"(applicable: {[s.value for s in candidates]})"
            )
        return summarized(candidates[prefer])
    # Tie break by simplicity: a specialized strategy (disjunction,
    # Boolean-first) beats a general one, and random-access strategies
    # beat NRA's bound bookkeeping, at equal estimated cost.
    preference = {
        Strategy.DISJUNCTION: 0,
        Strategy.BOOLEAN_FIRST: 1,
        Strategy.THRESHOLD: 2,
        Strategy.FAGIN: 3,
        Strategy.NRA: 4,
        Strategy.NAIVE: 5,
    }
    return summarized(
        min(
            candidates.values(),
            key=lambda plan: (plan.estimated_cost, preference[plan.strategy]),
        )
    )


def trace_plan(tracer, plan: Plan) -> None:
    """Emit the ``plan`` event for ``plan`` into ``tracer``."""
    # θ is traced only when it can change the execution, so θ = 1.0
    # traces stay byte-identical to the exact path's goldens.
    extra = {"theta": plan.theta} if plan.theta > 1.0 else {}
    tracer.event(
        "plan",
        strategy=plan.strategy.value,
        reason=plan.reason,
        estimated_cost=plan.estimated_cost,
        k=plan.k,
        **extra,
    )


def execute(
    plan: Plan,
    sources: Sequence[GradedSource],
    *,
    tracer=None,
    executor=None,
    kernel=None,  # inert; bench/layers.py is its only reader
) -> TopKResult:
    """Run a plan produced by :func:`plan_top_k` over the same sources.

    ``tracer`` (an optional
    :class:`~repro.observability.tracer.QueryTracer`) is forwarded to the
    chosen algorithm, which emits its phase spans and per-access events.
    ``executor`` (an optional
    :class:`~repro.parallel.ParallelAccessExecutor`) overlaps each
    round's independent subsystem accesses; results are byte-identical
    to serial execution.
    """
    # plan.k is 0 only over an empty database; every algorithm clamps a
    # valid k to the database size itself and answers it with nothing
    k = max(plan.k, 1)
    if plan.strategy is Strategy.NAIVE:
        return naive_top_k(
            sources,
            plan.scoring,
            k,
            tracer=tracer,
            executor=executor,
        )
    if plan.strategy is Strategy.DISJUNCTION:
        return disjunction_top_k(sources, k, tracer=tracer, executor=executor)
    if plan.strategy is Strategy.FAGIN:
        return fagin_top_k(
            sources,
            plan.scoring,
            k,
            tracer=tracer,
            executor=executor,
        )
    if plan.strategy is Strategy.THRESHOLD:
        return threshold_top_k(
            sources,
            plan.scoring,
            k,
            theta=plan.theta,
            tracer=tracer,
            executor=executor,
        )
    if plan.strategy is Strategy.NRA:
        return nra_top_k(
            sources,
            plan.scoring,
            k,
            theta=plan.theta,
            tracer=tracer,
            executor=executor,
        )
    if plan.strategy is Strategy.BOOLEAN_FIRST:
        if plan.boolean_index is None:
            raise PlanError("Boolean-first plan lacks a boolean_index")
        return boolean_first_top_k(
            sources,
            plan.scoring,
            k,
            boolean_index=plan.boolean_index,
            tracer=tracer,
            executor=executor,
        )
    raise PlanError(f"unknown strategy {plan.strategy!r}")


def top_k(
    sources: Sequence[GradedSource],
    scoring=MIN,
    k: int = 10,
    *,
    prefer: Optional[Strategy] = None,
    theta: float = 1.0,
    tracer=None,
    executor=None,
) -> TopKResult:
    """Plan and execute in one call — the library's main entry point."""
    plan = plan_top_k(sources, scoring, k, prefer=prefer, theta=theta)
    if tracer is not None:
        trace_plan(tracer, plan)
    return execute(plan, sources, tracer=tracer, executor=executor)
