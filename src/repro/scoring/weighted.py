"""The Fagin–Wimmers formula for weighting subqueries (paper section 5).

Given an (unweighted, symmetric) rule ``f`` and an *ordered weighting*
``theta_1 >= ... >= theta_m >= 0`` summing to 1, the weighted rule is

    f_Theta(x_1, ..., x_m) =
        (theta_1 - theta_2) * f(x_1)
      + 2 * (theta_2 - theta_3) * f(x_1, x_2)
      + 3 * (theta_3 - theta_4) * f(x_1, x_2, x_3)
      + ...
      + m * theta_m * f(x_1, ..., x_m)

(Equation 5 of the paper).  The coefficients ``i * (theta_i - theta_{i+1})``
(with ``theta_{m+1} = 0``) are nonnegative and sum to 1, so the result is
a convex combination of prefix scores.  The formula satisfies the paper's
desiderata:

* **D1** — equal weights reduce to the unweighted rule ``f``.
* **D2** — a zero-weight argument can be dropped without changing the value.
* **D3** — the value is continuous in the weights.
* **D3'** — the family is *locally linear*: for ordered weightings
  ``Theta, Theta'`` and ``a in [0, 1]``,
  ``f_{a*Theta + (1-a)*Theta'}(X) = a * f_Theta(X) + (1-a) * f_{Theta'}(X)``.

[FW97] proves the formula is the *unique* choice satisfying D1, D2, D3',
and that monotonicity and strictness of ``f`` are inherited by
``f_Theta`` — hence Fagin's algorithm remains correct and optimal in the
weighted case (exercised by experiment E8).

For arbitrary (unordered) weightings over a *symmetric* ``f``, we sort
the (weight, grade) pairs by descending weight before applying the
formula, which is the standard reduction the paper alludes to.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import WeightingError
from repro.scoring.base import ScoringFunction, _np, as_scoring_function


def validate_weighting(weights: Sequence[float], *, tol: float = 1e-9) -> Tuple[float, ...]:
    """Validate a weighting: nonnegative entries summing to 1.

    Returns the weighting as a tuple of floats (re-normalized to remove
    floating-point drift in the sum).
    """
    values = tuple(float(w) for w in weights)
    if not values:
        raise WeightingError("weighting must be nonempty")
    if any(w < -tol for w in values):
        raise WeightingError(f"weights must be nonnegative, got {values}")
    values = tuple(max(w, 0.0) for w in values)
    total = sum(values)
    if abs(total - 1.0) > max(tol, 1e-6):
        raise WeightingError(f"weights must sum to 1, got sum {total!r}")
    return tuple(w / total for w in values)


def is_ordered(weights: Sequence[float]) -> bool:
    """True when the weighting is nonincreasing (theta_1 >= ... >= theta_m)."""
    return all(a >= b for a, b in zip(weights, weights[1:]))


def weighted_score(rule, weights: Sequence[float], grades: Sequence[float]) -> float:
    """Evaluate the Fagin–Wimmers weighted version of ``rule``.

    ``rule`` may be a :class:`ScoringFunction` or any callable over grade
    tuples.  ``weights`` need not be ordered: (weight, grade) pairs are
    sorted by descending weight first, which is valid because the paper's
    framework assumes a symmetric underlying rule.
    """
    return _fagin_wimmers(
        as_scoring_function(rule), validate_weighting(weights), grades
    )


def _fagin_wimmers(f: ScoringFunction, theta: Tuple[float, ...], grades) -> float:
    """Equation 5 over an already-validated weighting ``theta``."""
    xs = tuple(float(g) for g in grades)
    if len(theta) != len(xs):
        raise WeightingError(
            f"weighting has {len(theta)} entries but {len(xs)} grades given"
        )
    # Sort jointly by descending weight; stable so equal weights keep
    # their relative order (the formula's value does not depend on how
    # ties are ordered — the tied coefficients are zero).
    order = sorted(range(len(theta)), key=lambda i: -theta[i])
    theta_sorted = tuple(theta[i] for i in order)
    xs_sorted = tuple(xs[i] for i in order)

    total = 0.0
    m = len(theta_sorted)
    for i in range(1, m + 1):
        theta_next = theta_sorted[i] if i < m else 0.0
        coefficient = i * (theta_sorted[i - 1] - theta_next)
        if coefficient != 0.0:
            total += coefficient * f(xs_sorted[:i])
    return min(1.0, max(0.0, total))


def mixture(weighting_a: Sequence[float], weighting_b: Sequence[float], a: float) -> Tuple[float, ...]:
    """Convex combination ``a * Theta + (1 - a) * Theta'`` of two weightings."""
    if not 0.0 <= a <= 1.0:
        raise WeightingError(f"mixture coefficient must lie in [0, 1], got {a}")
    wa = validate_weighting(weighting_a)
    wb = validate_weighting(weighting_b)
    if len(wa) != len(wb):
        raise WeightingError("weightings must have the same length")
    return tuple(a * x + (1.0 - a) * y for x, y in zip(wa, wb))


class WeightedScoring(ScoringFunction):
    """A scoring function produced by weighting a base rule per [FW97].

    The instance is bound to a fixed weighting, so it can be handed to
    any top-k algorithm exactly like an unweighted rule.  Monotonicity is
    inherited from the base rule; strictness is inherited when every
    weight is positive (a zero-weight argument is dropped by D2, so its
    grade cannot be forced to 1).
    """

    is_symmetric = False

    def __init__(self, base, weights: Sequence[float]) -> None:
        self.base = as_scoring_function(base)
        self.weights = validate_weighting(weights)
        self.is_monotone = self.base.is_monotone
        self.is_strict = self.base.is_strict and all(w > 0 for w in self.weights)
        pretty = ", ".join(f"{w:.3g}" for w in self.weights)
        self.name = f"weighted[{self.base.name}]({pretty})"

    # Both paths use the weighting validated once above, so the rule is
    # bit for bit ``weighted_score(base, weights, ·)``: normalizing again
    # moves a coefficient by an ulp when the weights do not sum to 1.0.
    def _combine(self, grades: tuple) -> float:
        return _fagin_wimmers(self.base, self.weights, grades)

    def _combine_matrix(self, matrix):
        if matrix.shape[1] != len(self.weights):
            raise WeightingError(
                f"weighting has {len(self.weights)} entries but "
                f"{matrix.shape[1]} grades given"
            )
        theta = self.weights
        order = sorted(range(len(theta)), key=lambda i: -theta[i])
        theta_sorted = tuple(theta[i] for i in order)
        columns = matrix[:, order]
        total = None
        m = len(theta_sorted)
        for i in range(1, m + 1):
            theta_next = theta_sorted[i] if i < m else 0.0
            coefficient = i * (theta_sorted[i - 1] - theta_next)
            if coefficient != 0.0:
                term = coefficient * self.base.combine_matrix(columns[:, :i])
                total = term if total is None else total + term
        return _np.minimum(1.0, _np.maximum(0.0, total))


def uniform_weighting(m: int) -> Tuple[float, ...]:
    """The equal weighting (1/m, ..., 1/m) of desideratum D1."""
    if m <= 0:
        raise WeightingError(f"arity must be positive, got {m}")
    return tuple(1.0 / m for _ in range(m))
