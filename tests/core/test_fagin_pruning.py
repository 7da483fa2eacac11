"""A0's random-access pruning improvement (section 4.1's remark)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fagin import FaginAlgorithm, fagin_top_k
from repro.core.graded import GradedSet
from repro.core.naive import grade_everything
from repro.core.sources import sources_from_columns
from repro.scoring import means, tnorms
from repro.workloads.graded_lists import anti_correlated, correlated, independent

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.mark.parametrize("rule", [tnorms.MIN, tnorms.PRODUCT, means.MEAN],
                         ids=lambda r: r.name)
@pytest.mark.parametrize("maker", [independent, correlated, anti_correlated],
                         ids=["independent", "correlated", "anti-correlated"])
def test_pruned_matches_oracle(rule, maker):
    table = maker(600, 2, seed=3)
    result = fagin_top_k(
        sources_from_columns(table), rule, 10, prune_random_access=True
    )
    oracle = grade_everything(sources_from_columns(table), rule).top(10)
    assert result.answers.same_grade_multiset(oracle)


def test_pruning_never_increases_cost():
    for seed in range(5):
        table = independent(1500, 2, seed=seed)
        plain = fagin_top_k(sources_from_columns(table), tnorms.MIN, 10)
        pruned = fagin_top_k(
            sources_from_columns(table), tnorms.MIN, 10, prune_random_access=True
        )
        assert pruned.database_access_cost <= plain.database_access_cost
        assert pruned.answers.same_grade_multiset(plain.answers)


def test_min_rule_prunes_most_random_accesses():
    """For min the upper bound is tight, so the improvement eliminates
    nearly all of phase 2 on independent lists."""
    table = independent(3000, 2, seed=1)
    plain = fagin_top_k(sources_from_columns(table), tnorms.MIN, 10)
    pruned = fagin_top_k(
        sources_from_columns(table), tnorms.MIN, 10, prune_random_access=True
    )
    assert pruned.cost.random_access_cost < plain.cost.random_access_cost / 4


def test_emitted_grades_are_exact():
    table = independent(800, 2, seed=6)
    pruned = fagin_top_k(
        sources_from_columns(table), tnorms.MIN, 5, prune_random_access=True
    )
    truth = grade_everything(sources_from_columns(table), tnorms.MIN)
    for item in pruned.answers:
        assert item.grade == pytest.approx(truth[item.object_id])


def test_resumable_with_pruning():
    table = independent(1200, 2, seed=7)
    algorithm = FaginAlgorithm(
        sources_from_columns(table), tnorms.MIN, prune_random_access=True
    )
    first = algorithm.next_k(6)
    second = algorithm.next_k(6)
    combined = GradedSet(first.answers.as_dict() | second.answers.as_dict())
    oracle = grade_everything(sources_from_columns(table), tnorms.MIN).top(12)
    assert combined.same_grade_multiset(oracle)
    assert not set(first.answers.objects()) & set(second.answers.objects())


@given(
    table=st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.tuples(grades, grades),
        min_size=1,
        max_size=40,
    ),
    k=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_pruned_property_matches_naive(table, k):
    expected = grade_everything(sources_from_columns(table), tnorms.MIN).top(k)
    result = fagin_top_k(
        sources_from_columns(table), tnorms.MIN, k, prune_random_access=True
    )
    assert result.answers.same_grade_multiset(expected)


@given(
    table=st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.tuples(grades, grades, grades),
        min_size=1,
        max_size=30,
    ),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_pruned_property_m3_mean(table, k):
    expected = grade_everything(sources_from_columns(table), means.MEAN).top(k)
    result = fagin_top_k(
        sources_from_columns(table), means.MEAN, k, prune_random_access=True
    )
    assert result.answers.same_grade_multiset(expected)


def test_pruning_orders_twin_ids_tied_on_their_bound():
    """Regression: ``1`` and ``"1"`` share ``str``, so two pending twins
    tied on their upper bound once fell through to comparing the raw ids
    (``TypeError``).  The probe order is bound, then ``str(id)``, both
    descending, then first seen."""
    table = {1: (0.8, 0.2), "1": (0.2, 0.8), 2: (0.5, 0.5)}
    algorithm = FaginAlgorithm(
        sources_from_columns(table), tnorms.MIN, prune_random_access=True, batch_size=1
    )
    first = algorithm.next_k(1)
    # both twins are pending with bound min(0.8, 0.5) = 0.5, which the
    # exact 0.5 of object 2 already covers: nothing is probed
    assert [(item.object_id, item.grade) for item in first.answers] == [(2, 0.5)]
    assert first.cost.random_access_cost == 0
    second = algorithm.next_k(2)
    assert [(item.object_id, item.grade) for item in second.answers] == [(1, 0.2), ("1", 0.2)]
