"""The combined algorithm (CA): correctness and the cost-ratio trade-off."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import RANDOM_EXPENSIVE
from repro.core.naive import grade_everything
from repro.core.sources import sources_from_columns
from repro.core.threshold import combined_top_k, threshold_top_k
from repro.errors import MonotonicityError
from repro.scoring import means, tnorms
from repro.scoring.base import FunctionScoring
from repro.workloads.graded_lists import anti_correlated, correlated, independent

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def oracle(table, rule, k):
    return grade_everything(sources_from_columns(table), rule).top(k)


@pytest.mark.parametrize("rule", [tnorms.MIN, tnorms.PRODUCT, means.MEAN],
                         ids=lambda r: r.name)
@pytest.mark.parametrize("maker", [independent, correlated, anti_correlated],
                         ids=["independent", "correlated", "anti-correlated"])
def test_ca_matches_oracle(rule, maker):
    table = maker(500, 2, seed=9)
    result = combined_top_k(sources_from_columns(table), rule, 10, ratio=5)
    assert result.answers.same_grade_multiset(oracle(table, rule, 10))


def test_ca_matches_oracle_m3():
    table = independent(400, 3, seed=4)
    result = combined_top_k(sources_from_columns(table), tnorms.MIN, 7, ratio=4)
    assert result.answers.same_grade_multiset(oracle(table, tnorms.MIN, 7))


def test_ca_spends_far_fewer_random_accesses_than_ta():
    table = independent(2000, 2, seed=5)
    ca = combined_top_k(sources_from_columns(table), tnorms.MIN, 10, ratio=10)
    ta = threshold_top_k(sources_from_columns(table), tnorms.MIN, 10)
    assert ca.cost.random_access_cost < ta.cost.random_access_cost / 3


def test_ca_wins_under_random_expensive_charges():
    """The point of CA: when random probes cost 10x, trading a few extra
    sorted rounds for far fewer probes wins overall."""
    table = independent(2000, 2, seed=5)
    ca = combined_top_k(sources_from_columns(table), tnorms.MIN, 10, ratio=10)
    ta = threshold_top_k(sources_from_columns(table), tnorms.MIN, 10)
    assert ca.cost.cost(RANDOM_EXPENSIVE) < ta.cost.cost(RANDOM_EXPENSIVE)


def test_ratio_validation_and_monotone_guard():
    table = independent(50, 2, seed=1)
    for ratio in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="ratio"):
            combined_top_k(sources_from_columns(table), tnorms.MIN, 5, ratio=ratio)
    with pytest.raises(ValueError):
        combined_top_k(sources_from_columns(table), tnorms.MIN, 0)
    bad = FunctionScoring(lambda g: 1 - min(g), "bad", is_monotone=False)
    with pytest.raises(MonotonicityError):
        combined_top_k(sources_from_columns(table), bad, 5)


def test_k_capped(tiny_sources):
    result = combined_top_k(tiny_sources, tnorms.MIN, 99)
    assert len(result.answers) == 3


@given(
    table=st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.tuples(grades, grades),
        min_size=1,
        max_size=40,
    ),
    k=st.integers(min_value=1, max_value=10),
    ratio=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_ca_property_matches_naive(table, k, ratio):
    expected = grade_everything(sources_from_columns(table), tnorms.MIN).top(k)
    result = combined_top_k(
        sources_from_columns(table), tnorms.MIN, k, ratio=ratio
    )
    assert result.answers.same_grade_multiset(expected)
