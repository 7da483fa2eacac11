"""Mean-type scoring functions (section 3, Thole–Zimmermann–Zysno).

The paper singles out weighted and unweighted arithmetic and geometric
means as scoring functions that "perform empirically quite well" yet are
*not* triangular norms — the arithmetic mean does not even conserve the
standard propositional semantics (mean(0, 1) = 1/2, not 0).  They do
satisfy strictness and monotonicity, so the upper and lower bounds of
[Fa96] (Theorems 4.1 and 4.2) still apply — which is exactly why the
paper highlights them, and why experiment E5 runs Fagin's algorithm under
these rules.

Means are genuinely m-ary (not an iterated 2-ary rule): the mean of three
grades is not the mean of a mean, so these classes override ``_combine``
directly rather than extending :class:`BinaryScoringFunction`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import WeightingError
from repro.scoring.base import ScoringFunction, _np


def _normalized_weights(weights: Sequence[float], arity: int) -> tuple:
    values = tuple(float(w) for w in weights)
    if len(values) != arity:
        raise WeightingError(
            f"expected {arity} weights, got {len(values)}"
        )
    if any(w < 0 for w in values):
        raise WeightingError(f"weights must be nonnegative, got {values}")
    total = sum(values)
    if total <= 0:
        raise WeightingError("weights must not all be zero")
    return tuple(w / total for w in values)


class ArithmeticMean(ScoringFunction):
    """Unweighted arithmetic mean.  Strict and monotone; not a t-norm."""

    name = "mean"
    is_strict = True

    def _combine(self, grades: tuple) -> float:
        return sum(grades) / len(grades)

    def _combine_matrix(self, matrix):
        # Column-by-column fold: same additions in the same order as
        # the scalar sum(), so the result is bit-identical.
        total = matrix[:, 0].copy()
        for column in range(1, matrix.shape[1]):
            total += matrix[:, column]
        return total / matrix.shape[1]


class GeometricMean(ScoringFunction):
    """Unweighted geometric mean.  Strict and monotone; not a t-norm."""

    name = "geometric-mean"
    is_strict = True

    def _combine(self, grades: tuple) -> float:
        if any(g == 0.0 for g in grades):
            return 0.0
        return math.exp(sum(math.log(g) for g in grades) / len(grades))


class HarmonicMean(ScoringFunction):
    """Unweighted harmonic mean (0 when any grade is 0)."""

    name = "harmonic-mean"
    is_strict = True

    def _combine(self, grades: tuple) -> float:
        if any(g == 0.0 for g in grades):
            return 0.0
        return len(grades) / sum(1.0 / g for g in grades)

    def _combine_matrix(self, matrix):
        zero = (matrix == 0.0).any(axis=1)
        safe = _np.where(matrix == 0.0, 1.0, matrix)
        # 1 / a denormal grade overflows to inf and the mean to 0.0, as
        # in the scalar fold; numpy would only warn about it
        with _np.errstate(over="ignore", divide="ignore"):
            total = 1.0 / safe[:, 0]
            for column in range(1, matrix.shape[1]):
                total += 1.0 / safe[:, column]
            out = matrix.shape[1] / total
        out[zero] = 0.0
        return out


class PowerMean(ScoringFunction):
    """Power (generalized) mean with exponent ``p``.

    ``p = 1`` is arithmetic, ``p -> 0`` geometric, ``p = -1`` harmonic,
    ``p -> -inf`` min, ``p -> +inf`` max.  Strict and monotone for every
    finite p (with the 0-grade convention for p <= 0).
    """

    def __init__(self, p: float) -> None:
        if p == 0:
            raise ValueError("use GeometricMean for p = 0")
        self.p = float(p)
        self.name = f"power-mean(p={p:g})"
        self.is_strict = True

    def _combine(self, grades: tuple) -> float:
        if self.p < 0:
            # Subnormal grades would overflow g**p; mathematically the
            # negative-exponent mean tends to 0 as any grade does.
            if any(g < 1e-9 for g in grades):
                return 0.0
        total = sum(g**self.p for g in grades) / len(grades)
        return min(1.0, total ** (1.0 / self.p))


class WeightedArithmeticMean(ScoringFunction):
    """Fixed-weight arithmetic mean ``sum(theta_i * x_i)``.

    This is the one rule the paper calls "easy" to weight (section 5);
    for every other rule the Fagin–Wimmers formula of
    :mod:`repro.scoring.weighted` is needed.  A weighted mean with unequal
    weights is *not symmetric*.
    """

    is_strict = False  # strict only if every weight is positive
    is_symmetric = False

    def __init__(self, weights: Sequence[float]) -> None:
        self.weights = _normalized_weights(weights, len(tuple(weights)))
        self.is_strict = all(w > 0 for w in self.weights)
        self.name = f"weighted-mean({', '.join(f'{w:.3g}' for w in self.weights)})"

    def _combine(self, grades: tuple) -> float:
        if len(grades) != len(self.weights):
            raise WeightingError(
                f"{self.name}: expected {len(self.weights)} grades, "
                f"got {len(grades)}"
            )
        return sum(w * g for w, g in zip(self.weights, grades))

    def _combine_matrix(self, matrix):
        if matrix.shape[1] != len(self.weights):
            raise WeightingError(
                f"{self.name}: expected {len(self.weights)} grades, "
                f"got {matrix.shape[1]}"
            )
        total = self.weights[0] * matrix[:, 0]
        for column in range(1, matrix.shape[1]):
            total += self.weights[column] * matrix[:, column]
        return total


class MedianScoring(ScoringFunction):
    """Median of the grades.  Monotone but not strict for m >= 3.

    Included as a catalog member that separates monotonicity from
    strictness: Fagin's algorithm remains correct for the median, but the
    lower bound of Theorem 4.2 does not apply to it.
    """

    name = "median"
    is_strict = False

    def _combine(self, grades: tuple) -> float:
        ordered = sorted(grades)
        n = len(ordered)
        mid = n // 2
        if n % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def _combine_matrix(self, matrix):
        ordered = _np.sort(matrix, axis=1)
        n = matrix.shape[1]
        mid = n // 2
        if n % 2 == 1:
            return ordered[:, mid].copy()
        return (ordered[:, mid - 1] + ordered[:, mid]) / 2.0


MEAN = ArithmeticMean()
GEOMETRIC_MEAN = GeometricMean()
HARMONIC_MEAN = HarmonicMean()
MEDIAN = MedianScoring()

STANDARD_MEANS = (MEAN, GEOMETRIC_MEAN, HARMONIC_MEAN)


def mean_catalog(extra_powers: Optional[Sequence[float]] = None) -> tuple:
    """Representative mean-type rules for tests and benchmarks."""
    powers = tuple(extra_powers) if extra_powers is not None else (2.0, -1.0, 0.5)
    return STANDARD_MEANS + tuple(PowerMean(p) for p in powers) + (MEDIAN,)
