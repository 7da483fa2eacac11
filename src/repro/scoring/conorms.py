"""Triangular co-norms: scoring functions for fuzzy disjunction (section 3).

A *triangular co-norm* satisfies monotonicity, commutativity, and
associativity like a t-norm, but with the dual boundary conditions
(V-conservation): ``s(1, 1) = 1`` and ``s(x, 0) = s(0, x) = x``.

Following Alsina [Al85], every t-norm ``t`` induces its dual co-norm
``s(a, b) = 1 - t(1 - a, 1 - b)``; :class:`DualConorm` implements exactly
that construction, and the module also provides the common co-norms in
closed form.  De Morgan duality between a norm and its co-norm (with the
standard negation) is verified by the property suite.

Co-norms are monotone but *not* strict in the paper's sense (``s`` hits 1
as soon as one argument is 1), which is precisely why the lower bound of
Theorem 4.2 does not apply to disjunction and the cheap ``m * k``
algorithm of section 4.1 exists (see :mod:`repro.core.disjunction`).
"""

from __future__ import annotations

from repro.scoring.base import BinaryScoringFunction, _np
from repro.scoring.tnorms import (
    DrasticTNorm,
    EinsteinTNorm,
    HamacherTNorm,
    LukasiewiczTNorm,
    MinimumTNorm,
    ProductTNorm,
    YagerTNorm,
)


class MaximumConorm(BinaryScoringFunction):
    """Zadeh's standard disjunction rule: ``s(a, b) = max(a, b)``."""

    name = "max"
    is_strict = False

    def pair(self, a: float, b: float) -> float:
        return a if a >= b else b

    def pair_matrix(self, a, b):
        # not np.maximum, which picks b on a tie of 0.0 and -0.0
        return _np.where(a >= b, a, b)


class ProbabilisticSumConorm(BinaryScoringFunction):
    """Dual of the product norm: ``s(a, b) = a + b - a*b``."""

    name = "probabilistic-sum"
    is_strict = False

    def pair(self, a: float, b: float) -> float:
        return a + b - a * b

    def pair_matrix(self, a, b):
        return a + b - a * b


class BoundedSumConorm(BinaryScoringFunction):
    """Dual of Lukasiewicz: ``s(a, b) = min(1, a + b)``."""

    name = "bounded-sum"
    is_strict = False

    def pair(self, a: float, b: float) -> float:
        return min(1.0, a + b)

    def pair_matrix(self, a, b):
        return _np.minimum(1.0, a + b)


class DrasticConorm(BinaryScoringFunction):
    """The largest co-norm: ``s(a,b) = b if a == 0, a if b == 0, else 1``."""

    name = "drastic-conorm"
    is_strict = False

    def pair(self, a: float, b: float) -> float:
        if a == 0.0:
            return b
        if b == 0.0:
            return a
        return 1.0

    def pair_matrix(self, a, b):
        return _np.where(a == 0.0, b, _np.where(b == 0.0, a, 1.0))


class DualConorm(BinaryScoringFunction):
    """The co-norm dual to a given t-norm: ``s(a,b) = 1 - t(1-a, 1-b)``.

    This is the generic Alsina construction; it lets any member of the
    parametric t-norm families act as a disjunction rule.
    """

    is_strict = False

    def __init__(self, tnorm: BinaryScoringFunction) -> None:
        self._tnorm = tnorm
        self.name = f"dual({tnorm.name})"
        inner = tnorm.pair_matrix
        if inner is not None:
            # Instance-level vectorized form, exact because the norm's is.
            self.pair_matrix = lambda a, b: 1.0 - inner(1.0 - a, 1.0 - b)

    def pair(self, a: float, b: float) -> float:
        return 1.0 - self._tnorm.pair(1.0 - a, 1.0 - b)


#: Singleton instances for the parameter-free co-norms.
MAX = MaximumConorm()
PROBABILISTIC_SUM = ProbabilisticSumConorm()
BOUNDED_SUM = BoundedSumConorm()
DRASTIC_CONORM = DrasticConorm()

STANDARD_CONORMS = (MAX, PROBABILISTIC_SUM, BOUNDED_SUM, DRASTIC_CONORM)

#: (t-norm, closed-form co-norm) De Morgan pairs used by the property suite.
DE_MORGAN_PAIRS = (
    (MinimumTNorm(), MAX),
    (ProductTNorm(), PROBABILISTIC_SUM),
    (LukasiewiczTNorm(), BOUNDED_SUM),
    (DrasticTNorm(), DRASTIC_CONORM),
)


def conorm_catalog() -> tuple:
    """Representative co-norm catalog, mirroring the t-norm catalog."""
    return STANDARD_CONORMS + (
        DualConorm(HamacherTNorm(0.5)),
        DualConorm(EinsteinTNorm()),
        DualConorm(YagerTNorm(2.0)),
    )
