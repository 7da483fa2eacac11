"""Ordered weighted averaging (OWA) operators and their Fagin–Wimmers tie.

An OWA operator (Yager) applies a weight vector to the *sorted* argument
tuple: ``OWA_w(x) = sum_j w_j * x_(j)`` where ``x_(1) >= ... >= x_(m)``.
The family spans min (w = e_m), max (w = e_1), and the arithmetic mean
(uniform w) — the same spectrum the paper's scoring-function discussion
covers.

The connection to section 5: the Fagin–Wimmers weighted version of the
*arithmetic mean* under ordered weighting Theta is itself an OWA
operator over the weight-ordered arguments, with OWA weights

    w_j = sum_{i >= j} (theta_i - theta_{i+1}) * i / i
        = c_j / j summed appropriately,

concretely: ``w_j = sum_{i=j..m} coefficient_i / i`` where
``coefficient_i = i * (theta_i - theta_{i+1})`` are the formula's convex
coefficients.  :func:`fagin_wimmers_owa_weights` computes the vector and
the test suite verifies the identity numerically — a nontrivial
consistency check between section 5 and the classical fuzzy-aggregation
literature.

Every OWA operator with nonnegative weights summing to 1 is monotone;
it is strict iff the last weight (applied to the minimum) is positive.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import WeightingError
from repro.scoring.base import ScoringFunction, _np
from repro.scoring.weighted import validate_weighting


class OwaScoring(ScoringFunction):
    """OWA operator: weights applied to the descending-sorted grades."""

    is_symmetric = True

    def __init__(self, weights: Sequence[float]) -> None:
        self.weights: Tuple[float, ...] = validate_weighting(weights)
        self.is_monotone = True
        # Strict iff the minimum's weight is positive: otherwise a 0 in
        # the smallest slot can hide while the value reaches 1.
        self.is_strict = self.weights[-1] > 0
        pretty = ", ".join(f"{w:.3g}" for w in self.weights)
        self.name = f"owa({pretty})"

    def _combine(self, grades: tuple) -> float:
        if len(grades) != len(self.weights):
            raise WeightingError(
                f"{self.name}: expected {len(self.weights)} grades, "
                f"got {len(grades)}"
            )
        ordered = sorted(grades, reverse=True)
        total = sum(w * g for w, g in zip(self.weights, ordered))
        # A convex combination of [0, 1] grades is bounded in [0, 1];
        # normalized weights can still sum to 1 + ulp, so clamp the
        # float-epsilon overshoot.
        return min(1.0, max(0.0, total))

    def _combine_matrix(self, matrix):
        if matrix.shape[1] != len(self.weights):
            raise WeightingError(
                f"{self.name}: expected {len(self.weights)} grades, "
                f"got {matrix.shape[1]}"
            )
        ordered = _np.sort(matrix, axis=1)[:, ::-1]
        total = self.weights[0] * ordered[:, 0]
        for column in range(1, matrix.shape[1]):
            total += self.weights[column] * ordered[:, column]
        # Same float-epsilon clamp as the scalar path (weights may sum
        # to 1 + ulp after normalization).
        return _np.clip(total, 0.0, 1.0)


def owa_min(m: int) -> OwaScoring:
    """The OWA vector realizing min over m arguments."""
    return OwaScoring(tuple(0.0 for _ in range(m - 1)) + (1.0,))


def owa_max(m: int) -> OwaScoring:
    """The OWA vector realizing max over m arguments."""
    return OwaScoring((1.0,) + tuple(0.0 for _ in range(m - 1)))


def owa_mean(m: int) -> OwaScoring:
    """The OWA vector realizing the arithmetic mean."""
    return OwaScoring(tuple(1.0 / m for _ in range(m)))


def fagin_wimmers_owa_weights(theta: Sequence[float]) -> Tuple[float, ...]:
    """OWA weights equal to the weighted arithmetic mean of section 5.

    For an ordered weighting ``theta_1 >= ... >= theta_m``, the
    Fagin–Wimmers weighted mean is

        sum_i c_i * mean(x_1 .. x_i),   c_i = i * (theta_i - theta_{i+1})

    (with the x's ordered by *weight*).  Expanding the means, argument
    slot j (the j-th largest weight) collects total OWA weight

        w_j = sum_{i >= j} c_i / i = sum_{i >= j} (theta_i - theta_{i+1})
            = theta_j

    — the weighted mean's OWA weights are the thetas themselves, applied
    to the weight-ordered arguments.  Returned explicitly (rather than
    just ``theta``) so the derivation is executable and testable.
    """
    ordered = validate_weighting(theta)
    if any(a < b for a, b in zip(ordered, ordered[1:])):
        raise WeightingError("theta must be an ordered weighting")
    m = len(ordered)
    coefficients = [
        (i + 1) * (ordered[i] - (ordered[i + 1] if i + 1 < m else 0.0))
        for i in range(m)
    ]
    weights = tuple(
        sum(coefficients[i] / (i + 1) for i in range(j, m)) for j in range(m)
    )
    return weights
