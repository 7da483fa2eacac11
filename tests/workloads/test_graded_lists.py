"""Synthetic graded-list generators."""

import statistics

import pytest

from repro.core.sources import sources_from_columns
from repro.workloads.graded_lists import (
    anti_correlated,
    boolean_column,
    correlated,
    independent,
    workload,
)


def test_independent_shape_and_determinism():
    table = independent(100, 3, seed=5)
    assert len(table) == 100
    assert all(len(v) == 3 for v in table.values())
    assert table == independent(100, 3, seed=5)
    assert table != independent(100, 3, seed=6)


def test_independent_grades_roughly_uniform():
    table = independent(2000, 1, seed=1)
    grades = [v[0] for v in table.values()]
    assert statistics.fmean(grades) == pytest.approx(0.5, abs=0.05)


def test_correlated_lists_agree():
    table = correlated(500, 2, seed=2, noise=0.05)
    diffs = [abs(a - b) for a, b in table.values()]
    assert statistics.fmean(diffs) < 0.1


def test_correlated_noise_validated():
    with pytest.raises(ValueError):
        correlated(10, 2, noise=2.0)


def test_anti_correlated_sums_are_flat():
    table = anti_correlated(500, 2, seed=3)
    sums = [sum(v) for v in table.values()]
    assert statistics.pstdev(sums) < 0.15
    assert statistics.fmean(sums) == pytest.approx(1.0, abs=0.1)


def test_boolean_column_selectivity():
    column = boolean_column(1000, 0.05, seed=4)
    assert sum(column.values()) == 50
    assert set(column.values()) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        boolean_column(100, 1.5)


def test_generated_table_columns():
    sources = sources_from_columns(independent(50, 2, seed=7))
    assert len(sources) == 2
    assert len(sources[0]) == 50


def test_workload_dispatch():
    for kind in ("independent", "correlated", "anti-correlated"):
        sources = workload(kind, 30, 2, seed=1)
        assert len(sources) == 2
    reversed_sources = workload("reversed", 21, 2)
    assert len(reversed_sources[0]) == 21


def test_workload_validation():
    with pytest.raises(ValueError):
        workload("mystery", 10, 2)
    with pytest.raises(ValueError):
        workload("reversed", 10, 3)


def test_zipf_is_heavy_tailed():
    from repro.workloads.graded_lists import zipf_skewed

    table = zipf_skewed(1000, 1, seed=5)
    grades = sorted((v[0] for v in table.values()), reverse=True)
    # the best grade is 1, the median is tiny
    assert grades[0] == pytest.approx(1.0)
    assert grades[500] < 0.01
    with pytest.raises(ValueError):
        zipf_skewed(10, 1, exponent=0.0)


def test_zipf_workload_dispatch_and_algorithms_agree():
    from repro.core.fagin import fagin_top_k
    from repro.core.naive import grade_everything
    from repro.scoring import tnorms
    from repro.workloads.graded_lists import workload

    sources = workload("zipf", 400, 2, seed=1)
    result = fagin_top_k(sources, tnorms.MIN, 5)
    expected = grade_everything(workload("zipf", 400, 2, seed=1), tnorms.MIN).top(5)
    assert result.answers.same_grade_multiset(expected)
