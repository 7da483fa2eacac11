"""The Chaudhuri–Gravano filter-condition simulation."""

import pytest

from repro.core.filter_condition import filter_condition_top_k, filter_retrieve
from repro.core.naive import grade_everything
from repro.core.sources import ArraySource, sources_from_columns
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent


def test_filter_retrieve_returns_exactly_the_threshold_set():
    source = ArraySource({"a": 0.9, "b": 0.5, "c": 0.2}, name="L")
    found = filter_retrieve(source, 0.5)
    assert found == {"a": 0.9, "b": 0.5}
    # paid for the two hits plus the probe that fell below tau
    assert source.counter.sorted_accesses == 3


def test_filter_retrieve_exhausts_short_lists():
    source = ArraySource({"a": 0.9}, name="L")
    assert filter_retrieve(source, 0.1) == {"a": 0.9}
    assert source.counter.sorted_accesses == 1


def test_matches_oracle(independent_sources):
    result = filter_condition_top_k(independent_sources, 10, initial_tau=0.6)
    expected = grade_everything(independent_sources, tnorms.MIN).top(10)
    assert result.answers.same_grade_multiset(expected)


def test_optimistic_threshold_forces_restarts():
    table = independent(300, 2, seed=6)
    eager = filter_condition_top_k(
        sources_from_columns(table), 10, initial_tau=0.99, decay=0.9
    )
    modest = filter_condition_top_k(
        sources_from_columns(table), 10, initial_tau=0.5
    )
    assert eager.restarts > 0
    assert eager.answers.same_grade_multiset(modest.answers)
    # every restart rescans, so eager pays more
    assert eager.database_access_cost > modest.database_access_cost / 2


def test_pessimistic_threshold_never_restarts(independent_sources):
    result = filter_condition_top_k(independent_sources, 10, initial_tau=0.05)
    assert result.restarts == 0


def test_fallback_at_zero_tau_always_succeeds():
    # all grades below any positive threshold: only the tau = 0 fallback
    # can produce k answers
    sources = sources_from_columns({f"o{i}": (0.1, 0.1) for i in range(20)})
    result = filter_condition_top_k(
        sources, 5, initial_tau=0.9, decay=0.5, max_restarts=3
    )
    assert len(result.answers) == 5


def test_parameter_validation(independent_sources):
    with pytest.raises(ValueError):
        filter_condition_top_k(independent_sources, 0)
    with pytest.raises(ValueError):
        filter_condition_top_k(independent_sources, 5, initial_tau=1.5)
    with pytest.raises(ValueError):
        filter_condition_top_k(independent_sources, 5, decay=1.0)
