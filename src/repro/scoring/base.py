"""Scoring-function abstractions (paper section 3).

An *m-ary scoring function* maps ``[0, 1]^m`` to ``[0, 1]``; it combines
the grades an object earned under the subqueries into the object's overall
grade under the full query.  The paper cares about two structural
properties of scoring functions, because they are exactly what its
algorithmic theorems need:

* **Monotonicity** — ``t(x1..xm) <= t(x1'..xm')`` whenever ``xi <= xi'``
  for every i.  Required for the upper bound (Theorem 4.1): Fagin's
  algorithm is correct precisely for monotone scoring functions.
* **Strictness** — ``t(x1..xm) = 1`` iff every ``xi = 1``.  Required for
  the matching lower bound (Theorem 4.2).

:class:`ScoringFunction` is the base class for every rule in the catalog.
Subclasses implement :meth:`_combine` over a nonempty tuple of grades;
the base class handles validation and exposes the property flags.
:class:`BinaryScoringFunction` adds iteration, turning an associative
2-ary rule into an m-ary rule the way the paper describes ("in practice an
m-ary conjunction is almost always evaluated by using an associative
2-ary function that is iterated").

Batch evaluation
----------------
:meth:`ScoringFunction.combine_matrix` scores a whole ``[n, m]`` grade
matrix at once — one row per object, one column per subquery — and is
the scoring half of the bounds state (:class:`repro.kernels.GradeMatrix`)
and of TA's threshold.  It is bit-identical to per-row ``__call__``, by
construction: the base implementation loops :meth:`_combine` row by
row, and a rule may override :meth:`_combine_matrix` (or
:meth:`BinaryScoringFunction.pair_matrix`) with native numpy code only
when that code folds the same IEEE-754 operations in the same order as
its scalar rule.  A native batch form is bit-exact or absent: rules
whose scalar path goes through ``math.pow``/``math.log`` (Yager, Frank,
the geometric and power means, ...) cannot match numpy's SIMD
transcendentals ulp for ulp, so they keep the row loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import reduce
from typing import Callable, Sequence

import numpy as _np

from repro.grades import validate_grade
from repro.errors import GradeError, ScoringError


class ScoringFunction(ABC):
    """A rule assigning an overall grade to a tuple of subquery grades.

    Following [FW97], a scoring function here accepts tuples of *any*
    positive arity unless the subclass restricts it.  The class carries
    metadata used by the algorithms and the property-based test suite:

    ``name``
        Short identifier used in reports and benchmarks.
    ``is_monotone`` / ``is_strict``
        Declared structural properties.  The declared flags are verified
        empirically by :mod:`repro.scoring.properties` in the test suite.
    """

    #: Human-readable identifier; subclasses override.
    name: str = "scoring"
    #: Declared monotonicity (checked by the property suite).
    is_monotone: bool = True
    #: Declared strictness (checked by the property suite).
    is_strict: bool = False
    #: True when the rule is invariant under argument permutation.
    is_symmetric: bool = True

    def __call__(self, grades: Sequence[float]) -> float:
        values = tuple(validate_grade(g) for g in grades)
        if not values:
            raise ScoringError(f"{self.name}: cannot score an empty grade tuple")
        return validate_grade(self._combine(values))

    @abstractmethod
    def _combine(self, grades: tuple) -> float:
        """Combine a validated, nonempty tuple of grades."""

    def combine_matrix(self, grades):
        """Batch form of ``__call__``: score an ``[n, m]`` grade matrix.

        Each row is one object's grade tuple; the result is a float64
        array of n overall grades.  Validation mirrors the scalar path:
        every input cell and every output grade must be a finite number
        in [0, 1] (:class:`GradeError` otherwise), and an empty grade
        tuple (m == 0) raises :class:`ScoringError`.
        """
        matrix = _np.asarray(grades, dtype=_np.float64)
        if matrix.ndim != 2:
            raise ScoringError(
                f"{self.name}: combine_matrix expects an [n, m] matrix, "
                f"got shape {matrix.shape}"
            )
        n, m = matrix.shape
        if m == 0:
            raise ScoringError(f"{self.name}: cannot score an empty grade tuple")
        if n == 0:
            return _np.empty(0, dtype=_np.float64)
        # NaN fails both comparisons and ±inf one, so this is also the
        # finiteness check
        if not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
            raise GradeError(
                f"{self.name}: batch grades must lie in [0, 1] and be finite"
            )
        result = _np.asarray(self._combine_matrix(matrix), dtype=_np.float64)
        if not (result.min() >= 0.0 and result.max() <= 1.0):
            raise GradeError(
                f"{self.name}: rule produced grades outside [0, 1]"
            )
        return result

    def _combine_matrix(self, matrix):
        """Combine a validated ``[n, m]`` float64 matrix row by row.

        Override hook for native vectorized rules, which must be
        bit-identical to ``_combine`` per row.  The base version is the
        scalar fallback: it calls ``_combine`` per row, so it is always
        available and exact.
        """
        combine = self._combine
        rows = matrix.tolist()
        return _np.fromiter(
            (combine(tuple(row)) for row in rows),
            dtype=_np.float64,
            count=len(rows),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class BinaryScoringFunction(ScoringFunction):
    """An associative 2-ary rule extended to m arguments by iteration.

    Subclasses implement :meth:`pair`; ``_combine`` left-folds it, which
    is well-defined for associative rules (all t-norms and t-co-norms).
    Subclasses whose pair is elementwise arithmetic implement
    :meth:`pair_matrix` over float64 arrays with the same operations;
    ``_combine_matrix`` then left-folds it column by column, mirroring
    the scalar fold op for op.
    """

    def pair(self, a: float, b: float) -> float:
        """Combine exactly two grades."""
        raise NotImplementedError

    def _combine(self, grades: tuple) -> float:
        return reduce(self.pair, grades)

    # Subclasses (or instances) set ``pair_matrix`` to the vectorized
    # pairwise rule: (ndarray[n], ndarray[n]) -> ndarray[n].
    pair_matrix: "Callable" = None

    def _combine_matrix(self, matrix):
        pair_matrix = getattr(self, "pair_matrix", None)
        if pair_matrix is None:
            return super()._combine_matrix(matrix)
        if matrix.shape[1] == 1:
            return matrix[:, 0].copy()
        accumulated = matrix[:, 0]
        for column in range(1, matrix.shape[1]):
            accumulated = pair_matrix(accumulated, matrix[:, column])
        return accumulated


class FunctionScoring(ScoringFunction):
    """Adapter wrapping a plain callable as a scoring function.

    Used for user-defined scoring functions in the middleware engine
    (Garlic's "option 2": allow arbitrary user rules, then guard
    monotonicity at run time — see :mod:`repro.middleware.monotonicity`).
    """

    def __init__(
        self,
        func: Callable[[Sequence[float]], float],
        name: str = "user",
        *,
        is_monotone: bool = True,
        is_strict: bool = False,
        is_symmetric: bool = True,
    ) -> None:
        self._func = func
        self.name = name
        self.is_monotone = is_monotone
        self.is_strict = is_strict
        self.is_symmetric = is_symmetric

    def _combine(self, grades: tuple) -> float:
        return self._func(grades)


def left_sum(values) -> float:
    """``0.0 + v0 + v1 + ...``, added left to right.

    The scalar form of every sum a batch form folds column by column
    from ``0.0`` (``sum()`` compensates its rounding on Python >= 3.12,
    and ``0.0 + -0.0`` is ``0.0``, so both forms give a signed zero
    alike)."""
    total = 0.0
    for value in values:
        total += value
    return total


def as_scoring_function(rule) -> ScoringFunction:
    """Coerce ``rule`` (a ScoringFunction or a callable) to a ScoringFunction."""
    if isinstance(rule, ScoringFunction):
        return rule
    if callable(rule):
        return FunctionScoring(rule, name=getattr(rule, "__name__", "user"))
    raise ScoringError(f"cannot interpret {rule!r} as a scoring function")
