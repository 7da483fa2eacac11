"""ScoringFunction plumbing: validation, coercion, metadata."""

import pytest

from repro.errors import GradeError, ScoringError
from repro.scoring.base import (
    BinaryScoringFunction,
    FunctionScoring,
    as_scoring_function,
)
from repro.scoring.tnorms import MIN


def test_call_validates_inputs_and_output():
    clamps = FunctionScoring(lambda g: 2.0, name="bad-output")
    with pytest.raises(GradeError):
        clamps((0.5, 0.5))


def test_call_rejects_empty():
    with pytest.raises(ScoringError):
        MIN(())


def test_call_rejects_out_of_range():
    with pytest.raises(GradeError):
        MIN((1.5, 0.5))


def test_as_scoring_function_passthrough():
    assert as_scoring_function(MIN) is MIN


def test_as_scoring_function_wraps_callable():
    def my_rule(grades):
        return min(grades)

    wrapped = as_scoring_function(my_rule)
    assert isinstance(wrapped, FunctionScoring)
    assert wrapped.name == "my_rule"
    assert wrapped((0.2, 0.8)) == 0.2


def test_as_scoring_function_rejects_non_callable():
    with pytest.raises(ScoringError):
        as_scoring_function(42)


def test_function_scoring_flags():
    rule = FunctionScoring(
        lambda g: min(g), name="flags", is_monotone=False, is_strict=True,
        is_symmetric=False,
    )
    assert not rule.is_monotone
    assert rule.is_strict
    assert not rule.is_symmetric


def test_binary_scoring_requires_pair_override():
    class Incomplete(BinaryScoringFunction):
        name = "incomplete"

    with pytest.raises(NotImplementedError):
        Incomplete()((0.5, 0.5))


def test_repr_mentions_name():
    assert "min" in repr(MIN)


def test_single_argument_is_identity_for_binary_rules():
    assert MIN((0.42,)) == pytest.approx(0.42)
