"""Batch scoring (``combine_matrix`` / ``negate_matrix``) vs the scalar
path, across the whole rule catalog.

Two tiers of agreement (see repro/scoring/base.py):

* every rule agrees with per-row ``__call__`` to within 1e-12;
* rules declaring ``batch_exact`` are *bit-identical* — that stronger
  promise is what lets the vector kernels reproduce scalar stop
  decisions byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GradeError, ScoringError
from repro.kernels import GradeMatrix
from repro.scoring import (
    conorm_catalog,
    mean_catalog,
    negation_catalog,
    tnorm_catalog,
)
from repro.scoring.base import FunctionScoring
from repro.scoring.owa import OwaScoring, owa_mean
from repro.scoring.tnorms import MIN, PRODUCT
from repro.scoring.weighted import WeightedScoring

CATALOG = tuple(tnorm_catalog()) + tuple(conorm_catalog()) + tuple(mean_catalog())

# Non-symmetric rules exercise column order: weighted rules with uneven
# weights and OWA with a decreasing weight vector.
NON_SYMMETRIC = (
    WeightedScoring(MIN, (0.6, 0.4)),
    WeightedScoring(MIN, (0.5, 0.3, 0.2)),
    WeightedScoring(PRODUCT, (0.7, 0.2, 0.1)),
    OwaScoring((0.6, 0.3, 0.1)),
    owa_mean(2),
    owa_mean(3),
)

ALL_RULES = CATALOG + NON_SYMMETRIC

GRADE_LEVELS = (0.0, 1e-9, 0.1, 0.25, 0.5, 1 / 3, 0.75, 0.9, 1.0 - 1e-9, 1.0)


def arity_of(rule):
    """Fixed arity for weighted/OWA rules, else None (any arity)."""
    weights = getattr(rule, "weights", None)
    return len(weights) if weights is not None else None


@st.composite
def grade_matrices(draw, rule):
    m = arity_of(rule) or draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    grades = st.one_of(
        st.sampled_from(GRADE_LEVELS),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    rows = draw(st.lists(st.lists(grades, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return rows


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.name)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_combine_matrix_matches_scalar(rule, data):
    rows = data.draw(grade_matrices(rule))
    matrix = np.asarray(rows, dtype=np.float64).reshape(
        len(rows), len(rows[0]) if rows else (arity_of(rule) or 1)
    )
    batch = rule.combine_matrix(matrix)
    assert batch.shape == (len(rows),)
    for i, row in enumerate(rows):
        expected = rule(row)
        if rule.batch_exact:
            assert batch[i] == expected, (rule.name, row)
        else:
            assert batch[i] == pytest.approx(expected, abs=1e-12), (rule.name, row)


@pytest.mark.parametrize(
    "rule",
    CATALOG + (WeightedScoring(MIN, (1.0,)), owa_mean(1)),
    ids=lambda rule: rule.name,
)
def test_degenerate_single_column(rule):
    """m=1 folds nothing: the output must equal the input column."""
    column = np.asarray([[g] for g in GRADE_LEVELS])
    batch = rule.combine_matrix(column)
    for grade, got in zip(GRADE_LEVELS, batch):
        assert got == rule([grade])


def test_empty_batch_returns_empty():
    out = MIN.combine_matrix(np.empty((0, 3)))
    assert out.shape == (0,)


@pytest.mark.parametrize("rule", (MIN, owa_mean(2)), ids=lambda r: r.name)
def test_bad_shapes_rejected(rule):
    with pytest.raises(ScoringError):
        rule.combine_matrix(np.asarray([0.1, 0.2, 0.3]))  # 1-d
    with pytest.raises(ScoringError):
        rule.combine_matrix(np.zeros((2, 2, 2)))  # 3-d
    with pytest.raises(ScoringError):
        rule.combine_matrix(np.zeros((4, 0)))  # empty grade tuple


@pytest.mark.parametrize("bad", (-0.1, 1.5, float("nan"), float("inf")))
def test_out_of_range_grades_rejected(bad):
    with pytest.raises(GradeError):
        MIN.combine_matrix(np.asarray([[0.5, bad]]))


def test_rule_escaping_the_unit_interval_rejected():
    rogue = FunctionScoring(lambda grades: sum(grades), name="rogue")
    with pytest.raises(GradeError):
        rogue.combine_matrix(np.asarray([[0.9, 0.9]]))


def test_function_scoring_uses_the_exact_scalar_fallback():
    rule = FunctionScoring(lambda grades: max(grades) * 0.5, name="half-max")
    assert not rule.supports_batch
    assert rule.batch_exact  # the row loop IS the scalar path
    matrix = np.asarray([[0.2, 0.8], [1.0, 0.3], [0.0, 0.0]])
    batch = rule.combine_matrix(matrix)
    for row, got in zip(matrix.tolist(), batch):
        assert got == rule(row)


@pytest.mark.parametrize("negation", negation_catalog(), ids=lambda n: n.name)
def test_negate_matrix_matches_scalar(negation):
    values = np.asarray(GRADE_LEVELS)
    batch = negation.negate_matrix(values)
    for grade, got in zip(GRADE_LEVELS, batch):
        assert got == pytest.approx(negation(grade), abs=1e-12)
    # shape-preserving over matrices too
    square = values.reshape(2, 5)
    assert negation.negate_matrix(square).shape == (2, 5)
    with pytest.raises(GradeError):
        negation.negate_matrix(np.asarray([0.5, 1.5]))


# ---------------------------------------------------------------------------
# GradeMatrix bound helpers, including all-NaN (never-seen) rows.


def test_grade_matrix_bounds_with_all_nan_rows():
    matrix = GradeMatrix(3, capacity=2)
    matrix.set_grade("a", 0, 0.9)
    matrix.set_grade("a", 2, 0.4)
    matrix.row_of("b")  # b: no grades learned at all
    matrix.set_grade("c", 1, 0.7)
    bottoms = (0.5, 0.6, 0.3)

    lower = matrix.lower_bounds(MIN)
    upper = matrix.upper_bounds(MIN, bottoms)
    # a: known (0.9, ?, 0.4) -> lower fills 0, upper fills bottom 0.6
    assert lower[0] == MIN([0.9, 0.0, 0.4]) == 0.0
    assert upper[0] == MIN([0.9, 0.6, 0.4])
    # b: nothing known -> lower 0, upper = rule(bottoms)
    assert lower[1] == 0.0
    assert upper[1] == MIN(bottoms)
    # c: only the middle grade known
    assert lower[2] == 0.0
    assert upper[2] == MIN([0.5, 0.7, 0.3])

    complete = matrix.complete_mask()
    assert complete.tolist() == [False, False, False]
    matrix.set_grade("a", 1, 1.0)
    assert matrix.complete_mask().tolist() == [True, False, False]
    assert matrix.lower_bounds(MIN)[0] == MIN([0.9, 1.0, 0.4])


def test_grade_matrix_top_order_breaks_ties_like_graded_item():
    matrix = GradeMatrix(1)
    for object_id in ("b", "a", "c", "d"):
        matrix.row_of(object_id)
    scores = np.asarray([0.5, 0.5, 0.9, 0.5])
    order = matrix.top_order(scores)
    assert [matrix.ids[row] for row in order] == ["c", "a", "b", "d"]
