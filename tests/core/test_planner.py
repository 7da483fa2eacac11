"""The planner: strategy selection and cost rationales."""

import pytest

from repro.core.fagin import fagin_top_k
from repro.core.naive import grade_everything, naive_top_k
from repro.core.planner import Strategy, execute, plan_top_k, top_k
from repro.core.sources import ArraySource, SortedOnlySource, sources_from_columns
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k
from repro.errors import PlanError
from repro.middleware.relational import BooleanSource
from repro.scoring import conorms, means, tnorms
from repro.scoring.base import FunctionScoring
from repro.workloads.graded_lists import boolean_column, independent


def fuzzy_sources(n=400, m=2, seed=2):
    return sources_from_columns(independent(n, m, seed=seed))


def test_max_rule_picks_disjunction():
    plan = plan_top_k(fuzzy_sources(), conorms.MAX, 10)
    assert plan.strategy is Strategy.DISJUNCTION
    assert plan.estimated_cost == 20


def test_min_rule_picks_a_sublinear_strategy():
    plan = plan_top_k(fuzzy_sources(), tnorms.MIN, 10)
    assert plan.strategy in (Strategy.THRESHOLD, Strategy.FAGIN, Strategy.NRA)
    assert plan.estimated_cost < 2 * 400


def test_selective_boolean_conjunct_picks_boolean_first():
    crisp = boolean_column(400, 0.02, seed=3)
    fuzzy = {k: v[0] for k, v in independent(400, 1, seed=3).items()}
    sources = [BooleanSource(crisp, "artist"), ArraySource(fuzzy, "color")]
    plan = plan_top_k(sources, tnorms.MIN, 10)
    assert plan.strategy is Strategy.BOOLEAN_FIRST
    assert plan.boolean_index == 0


def test_unselective_boolean_conjunct_is_not_chosen():
    crisp = boolean_column(400, 0.95, seed=3)
    fuzzy = {k: v[0] for k, v in independent(400, 1, seed=3).items()}
    sources = [BooleanSource(crisp, "artist"), ArraySource(fuzzy, "color")]
    plan = plan_top_k(sources, tnorms.MIN, 10)
    assert plan.strategy is not Strategy.BOOLEAN_FIRST


def test_boolean_first_not_offered_for_mean():
    """The arithmetic mean does not annihilate at 0, so filtering on the
    Boolean conjunct first would be incorrect — the planner must know."""
    crisp = boolean_column(400, 0.02, seed=3)
    fuzzy = {k: v[0] for k, v in independent(400, 1, seed=3).items()}
    sources = [BooleanSource(crisp, "artist"), ArraySource(fuzzy, "color")]
    with pytest.raises(PlanError):
        plan_top_k(sources, means.MEAN, 10, prefer=Strategy.BOOLEAN_FIRST)


def test_sorted_only_sources_forbid_random_access_strategies():
    sources = [SortedOnlySource(s) for s in fuzzy_sources()]
    plan = plan_top_k(sources, tnorms.MIN, 10)
    assert plan.strategy in (Strategy.NRA, Strategy.NAIVE)
    with pytest.raises(PlanError):
        plan_top_k(sources, tnorms.MIN, 10, prefer=Strategy.FAGIN)


def test_non_monotone_rule_falls_back_to_naive():
    weird = FunctionScoring(lambda g: abs(g[0] - g[1]), "diff", is_monotone=False)
    plan = plan_top_k(fuzzy_sources(), weird, 10)
    assert plan.strategy is Strategy.NAIVE


def test_prefer_overrides_cost_ranking():
    plan = plan_top_k(fuzzy_sources(), tnorms.MIN, 10, prefer=Strategy.NAIVE)
    assert plan.strategy is Strategy.NAIVE


@pytest.mark.parametrize(
    "strategy",
    [Strategy.FAGIN, Strategy.THRESHOLD, Strategy.NRA, Strategy.NAIVE],
    ids=lambda s: s.value,
)
def test_every_min_strategy_executes_correctly(strategy):
    sources = fuzzy_sources(seed=17)
    plan = plan_top_k(sources, tnorms.MIN, 8, prefer=strategy)
    result = execute(plan, sources)
    expected = grade_everything(sources, tnorms.MIN).top(8)
    assert result.answers.same_grade_multiset(expected)
    assert result.algorithm == strategy.value


def test_top_k_end_to_end():
    sources = fuzzy_sources(seed=23)
    result = top_k(sources, tnorms.MIN, 5)
    expected = grade_everything(sources, tnorms.MIN).top(5)
    assert result.answers.same_grade_multiset(expected)


def test_plan_repr_mentions_strategy():
    plan = plan_top_k(fuzzy_sources(), tnorms.MIN, 10)
    assert plan.strategy.value in repr(plan)


def test_k_validation():
    with pytest.raises(ValueError):
        plan_top_k(fuzzy_sources(), tnorms.MIN, 0)


@pytest.mark.parametrize(
    "algorithm, strategy",
    [
        (fagin_top_k, Strategy.FAGIN),
        (threshold_top_k, Strategy.THRESHOLD),
        (nra_top_k, Strategy.NRA),
        (combined_top_k, None),  # the planner has no CA strategy
        (naive_top_k, Strategy.NAIVE),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_an_empty_database_answers_nothing_for_free(algorithm, strategy):
    def empty():
        return [ArraySource.from_arrays([], [], name=name) for name in "AB"]

    results = [algorithm(empty(), tnorms.MIN, 3)]
    if strategy is not None:
        results.append(top_k(empty(), tnorms.MIN, 3, prefer=strategy))
    for result in results:
        assert len(result.answers) == 0
        assert result.cost.database_access_cost == 0
    assert len(top_k(empty(), tnorms.MIN, 3).answers) == 0
