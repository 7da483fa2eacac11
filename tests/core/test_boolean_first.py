"""The Boolean-conjunct-first strategy (Beatles example)."""

import pytest

from repro.core.boolean_first import boolean_first_top_k
from repro.core.naive import grade_everything
from repro.core.sources import ArraySource
from repro.errors import PlanError
from repro.middleware.relational import BooleanSource
from repro.scoring import tnorms
from repro.workloads.graded_lists import boolean_column, independent


def build(n=200, selectivity=0.1, seed=4):
    crisp = boolean_column(n, selectivity, seed=seed)
    fuzzy = {name: grades[0] for name, grades in independent(n, 1, seed=seed).items()}
    return [
        BooleanSource(crisp, name="Artist=Beatles"),
        ArraySource(fuzzy, name="AlbumColor=red"),
    ]


def test_matches_oracle():
    sources = build()
    result = boolean_first_top_k(sources, tnorms.MIN, 10)
    expected = grade_everything(sources, tnorms.MIN).top(10)
    assert result.answers.same_grade_multiset(expected)


def test_cost_tracks_selectivity_not_database_size():
    for n in (200, 2000):
        sources = build(n=n, selectivity=0.05, seed=7)
        selected = sources[0].positive_count
        result = boolean_first_top_k(sources, tnorms.MIN, 10)
        # |S| + 1 sorted accesses on the Boolean list, |S| random probes
        # on the fuzzy list (m = 2).
        assert result.database_access_cost <= selected * 2 + 1 + 10


def test_nonzero_answers_all_satisfy_the_predicate():
    sources = build(selectivity=0.2)
    crisp = sources[0].as_graded_set()
    result = boolean_first_top_k(sources, tnorms.MIN, 10)
    for item in result.answers:
        if item.grade > 0:
            assert crisp[item.object_id] == 1.0


def test_pads_with_zero_grades_when_predicate_is_too_selective():
    sources = build(n=100, selectivity=0.02)  # only 2 satisfying objects
    result = boolean_first_top_k(sources, tnorms.MIN, 10)
    assert len(result.answers) == 10
    grades = sorted((i.grade for i in result.answers), reverse=True)
    assert sum(1 for g in grades if g > 0) == 2
    assert grades[2:] == [0.0] * 8


def test_zero_selectivity_returns_all_zeros():
    sources = build(n=50, selectivity=0.0)
    result = boolean_first_top_k(sources, tnorms.MIN, 5)
    assert all(i.grade == 0.0 for i in result.answers)


def test_boolean_index_validation():
    sources = build()
    with pytest.raises(PlanError):
        boolean_first_top_k(sources, tnorms.MIN, 5, boolean_index=7)


def test_boolean_index_other_position():
    sources = build()
    reordered = [sources[1], sources[0]]
    result = boolean_first_top_k(reordered, tnorms.MIN, 10, boolean_index=1)
    expected = grade_everything(reordered, tnorms.MIN).top(10)
    assert result.answers.same_grade_multiset(expected)


def test_product_rule_works_too():
    """Any rule annihilating at zero qualifies; product grades are
    1 * fuzzy = fuzzy inside S and 0 outside."""
    sources = build(selectivity=0.15)
    result = boolean_first_top_k(sources, tnorms.PRODUCT, 10)
    expected = grade_everything(sources, tnorms.PRODUCT).top(10)
    assert result.answers.same_grade_multiset(expected)
