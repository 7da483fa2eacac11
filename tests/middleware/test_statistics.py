"""Catalog statistics and filter-threshold suggestion."""

import pytest

from repro.core.filter_condition import filter_condition_top_k
from repro.core.sources import ArraySource, sources_from_columns
from repro.errors import PlanError
from repro.middleware.statistics import (
    GradeHistogram,
    collect_statistics,
    suggest_filter_threshold,
)
from repro.workloads.graded_lists import independent


def uniform_histogram(n=1000, bins=20, seed=0):
    table = independent(n, 1, seed=seed)
    source = ArraySource({k: v[0] for k, v in table.items()}, name="L")
    return GradeHistogram.from_source(source, bins)


def test_histogram_construction_validates():
    with pytest.raises(PlanError):
        GradeHistogram([])
    with pytest.raises(PlanError):
        GradeHistogram([0, 0, 0])
    empty = ArraySource({}, name="empty")
    with pytest.raises(PlanError):
        GradeHistogram.from_source(empty)


def test_survival_endpoints():
    histogram = uniform_histogram()
    assert histogram.survival(0.0) == 1.0
    assert histogram.survival(1.0) <= 0.1
    # survival is nonincreasing
    values = [histogram.survival(t / 10) for t in range(11)]
    assert values == sorted(values, reverse=True)


def test_survival_tracks_uniform_distribution():
    histogram = uniform_histogram(n=5000)
    for tau in (0.2, 0.5, 0.8):
        assert histogram.survival(tau) == pytest.approx(1 - tau, abs=0.05)


def test_quantile_inverts_survival():
    histogram = uniform_histogram(n=5000)
    for q in (0.1, 0.5, 0.9):
        tau = histogram.quantile(q)
        assert histogram.survival(tau) == pytest.approx(q, abs=0.05)
    with pytest.raises(PlanError):
        histogram.quantile(1.5)


def test_skewed_distribution():
    grades = {f"o{i}": 0.9 + 0.01 * (i % 10) for i in range(100)}
    histogram = GradeHistogram.from_source(ArraySource(grades, name="hi"))
    assert histogram.survival(0.5) == 1.0
    assert histogram.survival(0.95) < 1.0


def test_suggest_threshold_expected_yield():
    """The suggested tau should produce roughly safety*k candidates on
    independent uniform lists: N * (1 - tau)^m = safety * k."""
    n, k, m = 4000, 10, 2
    sources = sources_from_columns(independent(n, m, seed=7))
    histograms = collect_statistics(sources)
    tau = suggest_filter_threshold(histograms, k, n, safety=2.0)
    expected_tau = 1 - (2.0 * k / n) ** (1 / m)
    assert tau == pytest.approx(expected_tau, abs=0.05)


def test_suggested_threshold_avoids_restarts():
    n, k = 4000, 10
    table = independent(n, 2, seed=8)
    sources = sources_from_columns(table)
    histograms = collect_statistics(sources)
    tau = suggest_filter_threshold(histograms, k, n, safety=3.0)
    result = filter_condition_top_k(
        sources_from_columns(table), k, initial_tau=max(tau, 1e-6)
    )
    assert result.restarts == 0
    # and it over-retrieves far less than a give-up threshold would
    lazy = filter_condition_top_k(
        sources_from_columns(table), k, initial_tau=0.05
    )
    assert result.database_access_cost < lazy.database_access_cost


def test_suggest_threshold_validation():
    histogram = uniform_histogram()
    with pytest.raises(PlanError):
        suggest_filter_threshold([histogram], 0, 100)
    with pytest.raises(PlanError):
        suggest_filter_threshold([histogram], 5, 0)
    with pytest.raises(PlanError):
        suggest_filter_threshold([histogram], 5, 100, safety=0.5)
    with pytest.raises(PlanError):
        suggest_filter_threshold([], 5, 100)
