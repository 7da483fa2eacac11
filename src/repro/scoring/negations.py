"""Negation rules for fuzzy complement (section 3).

The paper uses Zadeh's standard negation ``n(x) = 1 - x`` and notes
(following Bonissone and Decker) that "suitable" negation functions make
De Morgan's laws hold between a t-norm and its co-norm.  A *strong
negation* is a strictly decreasing involution with ``n(0) = 1`` and
``n(1) = 0``; the Sugeno and Yager families below are the classical
parametric examples.
"""

from __future__ import annotations

import numpy as _np

from repro.errors import GradeError
from repro.grades import validate_grade


class Negation:
    """A fuzzy negation: decreasing, ``n(0) = 1``, ``n(1) = 0``."""

    name = "negation"

    #: True when the native ``_negate_matrix`` override is bit-identical
    #: to the scalar rule (same IEEE operations) — the flag
    #: :class:`~repro.scoring.base.ScoringFunction` carries for rules.
    _batch_exact: bool = False

    def __call__(self, grade: float) -> float:
        return validate_grade(self._negate(validate_grade(grade)))

    def _negate(self, grade: float) -> float:
        raise NotImplementedError

    @property
    def supports_batch(self) -> bool:
        """True when the family has a native array rule."""
        return type(self)._negate_matrix is not Negation._negate_matrix

    @property
    def batch_exact(self) -> bool:
        """True when ``negate_matrix`` is bit-identical to per-element
        ``__call__`` (trivially so for the scalar-loop fallback)."""
        return not self.supports_batch or self._batch_exact

    def negate_matrix(self, grades):
        """Batch form of ``__call__`` over a float64 array of any shape.

        Families with closed-form array rules override ``_negate_matrix``;
        the base implementation loops the scalar rule, so every negation
        supports the API.
        """
        values = _np.asarray(grades, dtype=_np.float64)
        if values.size and (
            not _np.isfinite(values).all()
            or values.min() < 0.0
            or values.max() > 1.0
        ):
            raise GradeError(f"{self.name}: batch grades must lie in [0, 1]")
        result = _np.asarray(self._negate_matrix(values), dtype=_np.float64)
        if result.size and (
            not _np.isfinite(result).all()
            or result.min() < 0.0
            or result.max() > 1.0
        ):
            raise GradeError(f"{self.name}: negation left [0, 1]")
        return result

    def _negate_matrix(self, values):
        negate = self._negate
        flat = values.reshape(-1).tolist()
        out = _np.fromiter(
            (negate(v) for v in flat), dtype=_np.float64, count=len(flat)
        )
        return out.reshape(values.shape)

    def is_involution(self, samples: int = 101, tol: float = 1e-9) -> bool:
        """Empirically check ``n(n(x)) == x`` on an even grid."""
        for i in range(samples):
            x = i / (samples - 1)
            if abs(self(self(x)) - x) > tol:
                return False
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StandardNegation(Negation):
    """Zadeh's rule: ``n(x) = 1 - x``.  A strong negation."""

    name = "standard"
    _batch_exact = True

    def _negate(self, grade: float) -> float:
        return 1.0 - grade

    def _negate_matrix(self, values):
        return 1.0 - values


class SugenoNegation(Negation):
    """Sugeno family: ``n(x) = (1 - x) / (1 + lam * x)`` with ``lam > -1``.

    ``lam = 0`` recovers the standard negation.  Every member is a strong
    negation (an involution).
    """

    _batch_exact = True

    def __init__(self, lam: float = 0.0) -> None:
        if lam <= -1.0:
            raise ValueError(f"Sugeno parameter must be > -1, got {lam}")
        self.lam = float(lam)
        self.name = f"sugeno(lambda={lam:g})"

    def _negate(self, grade: float) -> float:
        return (1.0 - grade) / (1.0 + self.lam * grade)

    def _negate_matrix(self, values):
        return (1.0 - values) / (1.0 + self.lam * values)


class YagerNegation(Negation):
    """Yager family: ``n(x) = (1 - x^w)^(1/w)`` with ``w > 0``.

    ``w = 1`` recovers the standard negation.  The array rule goes
    through numpy's ``**``, which is not ulp-identical to Python's, so
    the family is not batch-exact.
    """

    def __init__(self, w: float = 1.0) -> None:
        if w <= 0:
            raise ValueError(f"Yager negation parameter must be > 0, got {w}")
        self.w = float(w)
        self.name = f"yager-neg(w={w:g})"

    def _negate(self, grade: float) -> float:
        return (1.0 - grade**self.w) ** (1.0 / self.w)

    def _negate_matrix(self, values):
        return _np.maximum(0.0, 1.0 - values**self.w) ** (1.0 / self.w)


STANDARD = StandardNegation()


def negation_catalog() -> tuple:
    """Representative negations for the property suite."""
    return (
        STANDARD,
        SugenoNegation(0.5),
        SugenoNegation(2.0),
        SugenoNegation(-0.5),
        YagerNegation(2.0),
        YagerNegation(0.5),
    )
