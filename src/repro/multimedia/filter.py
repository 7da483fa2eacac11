"""The distance-bounding filter strategy of Eq. 2 (section 2.1).

"They associate with each (long) color feature vector x a short (say,
dimension 3) color vector x^ that, intuitively, 'summarizes' x.  They
then give a simple-to-compute distance measure d^ ... and show that
d(x, y) >= d^(x^, y^).  Thus ... x^ is being used as a 'filter' to
eliminate from consideration objects where d^ is too large."

Our short vector is the histogram's **average color** — the 3-vector
``x^ = C^T x`` where C is the (k, 3) palette matrix — exactly the
"dimension 3" summary of [HSE+95].  The provable bound is the projection
(Schur-complement) bound: for Eq. 1's distance with positive definite
similarity matrix A and z = x - y with summary s = C^T z,

    d(x, y)^2 = z^T A z >= min{ w^T A w : C^T w = s }
              = s^T (C^T A^{-1} C)^{-1} s =: d^(x^, y^)^2   (Eq. 2)

(the actual z satisfies the constraint, so it cannot beat the
constrained minimum; the minimum has the closed form above by Lagrange
multipliers).  W = (C^T A^{-1} C)^{-1} is a fixed 3x3 matrix computed
once, so each d^ costs a 3-vector quadratic form — the "simple-to-
compute distance measure" of the paper.  This is the same derivation
[HSE+95] use for their average-color bound.

The filter therefore has **no false dismissals**: any object pruned
because ``d^ > D_k`` (the current k-th best true distance) provably
cannot enter the top k.  In floating point the *computed* d^ can exceed
the *computed* d by a few ulps where the bound is tight (difference
vectors in the span of ``A^{-1} C``), so pruning errs toward refining
by :data:`PRUNE_SLACK`, as the VA-file does with its ``EPS``.
Experiment E7 measures the pruning rate and verifies the
zero-false-dismissal guarantee against a linear scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.multimedia.histogram import Palette, QuadraticFormDistance


#: How far a computed bound must clear the k-th best computed distance D
#: before its object is pruned: ``bound > D + PRUNE_SLACK * (1 + D)``.
#: Rounding in both numbers is relative to the distance at ordinary
#: scales and absolute — histogram entries are at most 1 — when the
#: difference vector nearly cancels, hence the mixed form.  The measured
#: excess of d^ over d on tight instances (rgb-cube and hue-wheel
#: palettes x Laplacian, identity and ridged QBIC matrices, difference
#: scales 1e-12..1) stays below 1e-10 relative and 1e-14 absolute.
PRUNE_SLACK = 1e-9


@dataclass
class FilterSearchResult:
    """k-NN result plus the filter's work statistics."""

    neighbors: List[Tuple[object, float]]
    full_evaluations: int
    pruned: int

    @property
    def pruning_rate(self) -> float:
        total = self.full_evaluations + self.pruned
        return self.pruned / total if total else 0.0


class DistanceBoundingFilter:
    """Filter-and-refine k-NN over histograms via the Eq. 2 lower bound."""

    def __init__(self, palette: Palette, distance: QuadraticFormDistance) -> None:
        if distance.k != palette.k:
            raise IndexError_(
                f"palette has {palette.k} colors but distance expects {distance.k}"
            )
        if distance.min_eigenvalue < 1e-10:
            raise IndexError_(
                "the projection bound needs a positive definite similarity "
                f"matrix (min eigenvalue {distance.min_eigenvalue:.3g}); "
                "add a ridge (see similarity.qbic_similarity(ridge=...))"
            )
        self.palette = palette
        self.distance = distance
        # W = (C^T A^{-1} C)^{-1}, the fixed 3x3 form of the projection
        # bound; valid because A is positive definite.
        centers = palette.centers
        a_inv = np.linalg.inv(distance.matrix)
        gram = centers.T @ a_inv @ centers
        self._bound_form = np.linalg.inv(gram)

    def summarize(self, histogram: np.ndarray) -> np.ndarray:
        """The short (3-dim) average-color vector x^ = C^T x."""
        return np.asarray(histogram, dtype=float) @ self.palette.centers

    def lower_bound(self, short_x: np.ndarray, short_y: np.ndarray) -> float:
        """d^(x^, y^): a provable lower bound on d(x, y)."""
        s = np.asarray(short_x, dtype=float) - np.asarray(short_y, dtype=float)
        return float(np.sqrt(max(0.0, s @ self._bound_form @ s)))

    def search(
        self,
        corpus: Dict[object, np.ndarray],
        target: np.ndarray,
        k: int,
    ) -> FilterSearchResult:
        """The k nearest histograms to ``target`` by Eq. 1 distance.

        Strategy: compute the cheap d^ for every object, visit objects
        in increasing d^ order, maintain the k-th best true distance
        D_k, and stop as soon as the next d^ clears D_k by
        :data:`PRUNE_SLACK` — every remaining object is pruned with
        certainty (d >= d^ > D_k, in computed values too).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not corpus:
            return FilterSearchResult([], 0, 0)
        target = np.asarray(target, dtype=float)
        target_short = self.summarize(target)

        bounded = sorted(
            (
                (self.lower_bound(self.summarize(hist), target_short), obj)
                for obj, hist in corpus.items()
            ),
            key=lambda pair: (pair[0], str(pair[1])),
        )

        best: List[Tuple[float, str, object]] = []
        evaluations = 0
        cutoff = float("inf")
        pruned = 0
        for index, (bound, obj) in enumerate(bounded):
            if len(best) >= k and bound > cutoff + PRUNE_SLACK * (1.0 + cutoff):
                pruned = len(bounded) - index
                break
            true_distance = self.distance(corpus[obj], target)
            evaluations += 1
            best.append((true_distance, str(obj), obj))
            best.sort()
            if len(best) > k:
                best.pop()
            if len(best) >= k:
                cutoff = best[-1][0]

        neighbors = [(obj, dist) for dist, _, obj in best]
        return FilterSearchResult(neighbors, evaluations, pruned)


def linear_scan_knn(
    corpus: Dict[object, np.ndarray],
    target: np.ndarray,
    k: int,
    distance: QuadraticFormDistance,
) -> List[Tuple[object, float]]:
    """Reference k-NN by evaluating Eq. 1 on every object (no filter)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    target = np.asarray(target, dtype=float)
    scored = sorted(
        ((distance(hist, target), str(obj), obj) for obj, hist in corpus.items())
    )
    return [(obj, dist) for dist, _, obj in scored[:k]]
