"""Triangular norms: scoring functions for fuzzy conjunction (section 3).

A *triangular norm* (t-norm) is a 2-ary scoring function ``t`` satisfying

* A-conservation: ``t(0, 0) = 0`` and ``t(x, 1) = t(1, x) = x``,
* monotonicity, commutativity, and associativity.

Every rule here is strict and monotone, so Theorems 4.1/4.2 apply to all
of them.  The catalog covers the norms the paper's references discuss
(Schweizer–Sklar, Dubois–Prade, Mizumoto, Bonissone–Decker): Zadeh's min,
the product norm, the Lukasiewicz (bounded-difference) norm, the drastic
norm, and the Hamacher, Einstein, Yager, and Frank parametric families.

All axioms are verified empirically by ``repro.scoring.properties`` in
the test suite, not merely asserted.
"""

from __future__ import annotations

import math

from repro.scoring.base import BinaryScoringFunction, _np


class MinimumTNorm(BinaryScoringFunction):
    """Zadeh's standard conjunction rule: ``t(a, b) = min(a, b)``.

    By Theorem 3.1 (Yager; Dubois–Prade) this is the *unique* monotone
    scoring function for conjunction that preserves logical equivalence of
    positive queries.
    """

    name = "min"
    is_strict = True

    def pair(self, a: float, b: float) -> float:
        return a if a <= b else b

    def pair_matrix(self, a, b):
        return _np.minimum(a, b)


class ProductTNorm(BinaryScoringFunction):
    """The probabilistic (independence) conjunction: ``t(a, b) = a * b``."""

    name = "product"
    is_strict = True

    def pair(self, a: float, b: float) -> float:
        return a * b

    def pair_matrix(self, a, b):
        return a * b


class LukasiewiczTNorm(BinaryScoringFunction):
    """Bounded difference: ``t(a, b) = max(0, a + b - 1)``.

    Strict in the paper's sense (value 1 only at all-ones), although it
    is not strictly increasing — a different property the paper's
    theorems do not require.
    """

    name = "lukasiewicz"
    is_strict = True

    def pair(self, a: float, b: float) -> float:
        return max(0.0, a + b - 1.0)

    def pair_matrix(self, a, b):
        return _np.maximum(0.0, a + b - 1.0)


class DrasticTNorm(BinaryScoringFunction):
    """The drastic t-norm: the smallest t-norm.

    ``t(a, b) = a`` if ``b == 1``, ``b`` if ``a == 1``, else 0.
    """

    name = "drastic"
    is_strict = True

    def pair(self, a: float, b: float) -> float:
        if b == 1.0:
            return a
        if a == 1.0:
            return b
        return 0.0

    def pair_matrix(self, a, b):
        return _np.where(b == 1.0, a, _np.where(a == 1.0, b, 0.0))


class HamacherTNorm(BinaryScoringFunction):
    """Hamacher family: ``t(a,b) = ab / (p + (1-p)(a + b - ab))``, p >= 0.

    ``p = 1`` recovers the product norm; ``p = 2`` is the Einstein norm's
    Hamacher-parameter sibling.
    """

    def __init__(self, p: float = 1.0) -> None:
        if p < 0:
            raise ValueError(f"Hamacher parameter must be >= 0, got {p}")
        self.p = float(p)
        self.name = f"hamacher(p={p:g})"
        self.is_strict = True

    def pair(self, a: float, b: float) -> float:
        denom = self.p + (1.0 - self.p) * (a + b - a * b)
        if denom == 0.0:
            # Only possible at p == 0 with a == b == 0.
            return 0.0
        return (a * b) / denom

    def pair_matrix(self, a, b):
        denom = self.p + (1.0 - self.p) * (a + b - a * b)
        with _np.errstate(divide="ignore", invalid="ignore"):
            out = (a * b) / denom
        return _np.where(denom == 0.0, 0.0, out)


class EinsteinTNorm(BinaryScoringFunction):
    """Einstein product: ``t(a,b) = ab / (1 + (1-a)(1-b))``."""

    name = "einstein"
    is_strict = True

    def pair(self, a: float, b: float) -> float:
        return (a * b) / (1.0 + (1.0 - a) * (1.0 - b))

    def pair_matrix(self, a, b):
        return (a * b) / (1.0 + (1.0 - a) * (1.0 - b))


class YagerTNorm(BinaryScoringFunction):
    """Yager family: ``t(a,b) = max(0, 1 - ((1-a)^w + (1-b)^w)^(1/w))``.

    ``w -> inf`` approaches min; ``w = 1`` is Lukasiewicz.
    """

    def __init__(self, w: float = 2.0) -> None:
        if w <= 0:
            raise ValueError(f"Yager parameter must be > 0, got {w}")
        self.w = float(w)
        self.name = f"yager(w={w:g})"
        self.is_strict = True

    def pair(self, a: float, b: float) -> float:
        s = (1.0 - a) ** self.w + (1.0 - b) ** self.w
        return max(0.0, 1.0 - s ** (1.0 / self.w))


class FrankTNorm(BinaryScoringFunction):
    """Frank family: ``t(a,b) = log_s(1 + (s^a - 1)(s^b - 1)/(s - 1))``.

    Defined for ``s > 0, s != 1``; the limits s -> 0, 1, inf give min,
    product, and Lukasiewicz respectively.
    """

    def __init__(self, s: float = math.e) -> None:
        if s <= 0 or s == 1.0:
            raise ValueError(f"Frank parameter must be > 0 and != 1, got {s}")
        self.s = float(s)
        self.name = f"frank(s={s:g})"
        self.is_strict = True

    def pair(self, a: float, b: float) -> float:
        s = self.s
        value = 1.0 + (s**a - 1.0) * (s**b - 1.0) / (s - 1.0)
        # Guard tiny negative drift from floating point before the log.
        value = max(value, 1e-300)
        return min(1.0, max(0.0, math.log(value, s)))


class SchweizerSklarTNorm(BinaryScoringFunction):
    """Schweizer–Sklar family: ``t(a,b) = (max(0, a^p + b^p - 1))^(1/p)``.

    Defined here for ``p > 0``; ``p = 1`` is Lukasiewicz and the limit
    ``p -> 0`` is the product norm.
    """

    def __init__(self, p: float = 1.0) -> None:
        if p <= 0:
            raise ValueError(f"Schweizer–Sklar parameter must be > 0, got {p}")
        self.p = float(p)
        self.name = f"schweizer-sklar(p={p:g})"
        self.is_strict = True

    def pair(self, a: float, b: float) -> float:
        # The boundary condition t(a, 1) = a is exact; evaluating the
        # formula there loses tiny a to floating-point cancellation.
        if b == 1.0:
            return a
        if a == 1.0:
            return b
        base = a**self.p + b**self.p - 1.0
        if base <= 0.0:
            return 0.0
        return base ** (1.0 / self.p)


#: Singleton instances for the parameter-free norms.
MIN = MinimumTNorm()
PRODUCT = ProductTNorm()
LUKASIEWICZ = LukasiewiczTNorm()
DRASTIC = DrasticTNorm()
EINSTEIN = EinsteinTNorm()

#: The full parameter-free catalog, used by tests and benchmarks.
STANDARD_TNORMS = (MIN, PRODUCT, LUKASIEWICZ, DRASTIC, EINSTEIN)


def tnorm_catalog() -> tuple:
    """Return a representative catalog including parametric family members."""
    return STANDARD_TNORMS + (
        HamacherTNorm(0.5),
        HamacherTNorm(2.0),
        YagerTNorm(2.0),
        YagerTNorm(5.0),
        FrankTNorm(2.0),
        FrankTNorm(10.0),
        SchweizerSklarTNorm(2.0),
    )
