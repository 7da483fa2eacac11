"""Color histograms and the quadratic-form distance of Eq. 1 (section 2).

"Each object has a k-element color histogram (typical values of k are
64, 100, or 256).  Let x and y be two k-dimensional vectors that
represent the color histograms of two objects.  The color distance
between the two objects is taken to be ... sqrt((x - y)^T A (x - y))
where A is a (symmetric) matrix whose (i, j)th entry describes the
similarity between color i and color j."  (Ioka's method, implemented in
QBIC.)

A :class:`Palette` fixes the k bin colors; :func:`color_histogram`
assigns each pixel of a raster to its nearest bin and normalizes; and
:class:`QuadraticFormDistance` evaluates Eq. 1 against a similarity
matrix from :mod:`repro.multimedia.similarity`.  A Cholesky factor is
precomputed so each distance costs one matrix-vector product — still the
"computationally expensive" operation the paper discusses, which the
distance-bounding filter (Eq. 2) and the pairwise-precomputation cache
both exist to avoid.
"""

from __future__ import annotations


import numpy as np

from repro.errors import IndexError_


class Palette:
    """The k reference colors defining histogram bins.

    ``centers`` is a (k, 3) float array of RGB bin colors in [0, 1].
    """

    def __init__(self, centers: np.ndarray) -> None:
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise IndexError_(f"palette centers must be (k, 3), got {centers.shape}")
        if centers.shape[0] < 2:
            raise IndexError_("a palette needs at least 2 colors")
        self.centers = centers

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def rgb_cube(cls, bins_per_channel: int = 4) -> "Palette":
        """A b^3-color palette on the RGB lattice (b=4 gives the paper's
        typical k=64)."""
        if bins_per_channel < 2:
            raise IndexError_("need at least 2 bins per channel")
        levels = (np.arange(bins_per_channel) + 0.5) / bins_per_channel
        grid = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
        return cls(grid.reshape(-1, 3))

    @classmethod
    def hue_wheel(cls, k: int = 100, *, gray_levels: int = 4) -> "Palette":
        """A k-color palette: (k - gray_levels) saturated hues + grays.

        Supports the paper's non-cube sizes (k = 100, 256).
        """
        hues = k - gray_levels
        if hues < 2:
            raise IndexError_(f"k={k} too small for {gray_levels} gray levels")
        angles = np.linspace(0.0, 1.0, hues, endpoint=False)
        colors = np.array([_hsv_to_rgb(h, 1.0, 1.0) for h in angles])
        grays = np.linspace(0.1, 0.9, gray_levels)[:, None] * np.ones((1, 3))
        return cls(np.vstack([colors, grays]))

    def assign(self, pixels: np.ndarray) -> np.ndarray:
        """Nearest-bin index for each pixel of an (n, 3) array."""
        # (n, k) squared distances via the expansion trick.
        dots = pixels @ self.centers.T
        d2 = (
            np.sum(pixels**2, axis=1)[:, None]
            - 2 * dots
            + np.sum(self.centers**2, axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)


def _hsv_to_rgb(h: float, s: float, v: float) -> tuple:
    """Minimal HSV -> RGB (h in [0,1))."""
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


def color_histogram(raster: np.ndarray, palette: Palette) -> np.ndarray:
    """The normalized k-bin color histogram of an RGB raster.

    ``raster`` has shape (h, w, 3); the result sums to 1 (a distribution
    over palette bins), the form Eq. 1 expects.
    """
    raster = np.asarray(raster, dtype=float)
    if raster.ndim != 3 or raster.shape[2] != 3:
        raise IndexError_(f"raster must be (h, w, 3), got {raster.shape}")
    pixels = raster.reshape(-1, 3)
    bins = palette.assign(pixels)
    histogram = np.bincount(bins, minlength=palette.k).astype(float)
    return histogram / histogram.sum()


def solid_color_histogram(color, palette: Palette) -> np.ndarray:
    """The histogram of a solid-color image (a delta at one bin).

    Used to turn a named query color ('red') into a target histogram.
    """
    pixel = np.asarray(color, dtype=float).reshape(1, 3)
    histogram = np.zeros(palette.k)
    histogram[palette.assign(pixel)[0]] = 1.0
    return histogram


class QuadraticFormDistance:
    """Eq. 1: ``d(x, y) = sqrt((x - y)^T A (x - y))``.

    ``A`` must be symmetric positive semidefinite (guaranteed by the
    constructions in :mod:`repro.multimedia.similarity`); a square root
    factor ``R`` with ``A = R^T R`` is precomputed so each evaluation is
    one (k,) @ (k, k) product plus a norm.
    """

    def __init__(self, similarity: np.ndarray) -> None:
        similarity = np.asarray(similarity, dtype=float)
        if similarity.ndim != 2 or similarity.shape[0] != similarity.shape[1]:
            raise IndexError_(f"similarity matrix must be square, got {similarity.shape}")
        if not np.allclose(similarity, similarity.T, atol=1e-10):
            raise IndexError_("similarity matrix must be symmetric")
        self.matrix = similarity
        eigenvalues, eigenvectors = np.linalg.eigh(similarity)
        if eigenvalues.min() < -1e-8:
            raise IndexError_(
                "similarity matrix must be positive semidefinite "
                f"(min eigenvalue {eigenvalues.min():.3g})"
            )
        clipped = np.clip(eigenvalues, 0.0, None)
        self._factor = (eigenvectors * np.sqrt(clipped)) @ eigenvectors.T
        #: Smallest eigenvalue of A; the distance-bounding filter's
        #: lower-bound constant depends on it.
        self.min_eigenvalue = float(clipped.min())

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        if z.shape != (self.k,):
            raise IndexError_(
                f"histograms must be length-{self.k} vectors, got {z.shape}"
            )
        return float(np.linalg.norm(self._factor @ z))

    def pairwise(self, histograms: np.ndarray) -> np.ndarray:
        """All-pairs distance matrix for an (n, k) histogram stack.

        Used by the precomputation strategy of section 2.1: computed
        once, then queried at zero per-query cost.
        """
        transformed = np.asarray(histograms, dtype=float) @ self._factor.T
        sq = np.sum(transformed**2, axis=1)
        d2 = sq[:, None] - 2 * transformed @ transformed.T + sq[None, :]
        return np.sqrt(np.clip(d2, 0.0, None))


def distance_to_grade(distance, scale: float = 1.0):
    """Map a distance to a grade in [0, 1] via ``exp(-d / scale)``.

    Monotone decreasing with d, grade 1 iff d = 0 — the natural bridge
    from "closeness of color" to the graded sets of section 3.  A scalar
    distance gives a float; an array gives the array of grades, each bit
    for bit the scalar result (the same elementwise operations), so a
    bulk probe grades exactly as one probe at a time does.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    grades = np.exp(-np.maximum(0.0, distance) / scale)
    return float(grades) if np.ndim(grades) == 0 else grades
