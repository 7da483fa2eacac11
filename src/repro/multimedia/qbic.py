"""A QBIC-style multimedia subsystem (sections 2 and 4).

"An example of a nontraditional subsystem that Garlic accesses is QBIC,
which can search for images by various visual characteristics such as
color, shape, and texture."

:class:`QbicSubsystem` holds a corpus of synthetic images and evaluates
three attribute families of atomic queries:

* ``Color = target`` — target is a named color ("red"), an RGB triple, a
  k-bin histogram, or another :class:`SyntheticImage` ("images whose
  colors are close to that of image I").  Grades come from the Eq. 1
  quadratic-form histogram distance via ``exp(-d / scale)``.
* ``Shape = target`` — target is a kind name ("round", "square",
  "triangle", "rectangle") or a boundary polygon; an image's distance is
  its best shape's distance under the configured method (turning
  function by default).
* ``Texture = target`` — target is a named texture ("coarse", "smooth",
  "contrasty", "directional") or a 3-feature vector.

All features are extracted once at construction; binding an atomic query
ranks the corpus and exposes it as a standard
:class:`~repro.core.sources.GradedSource`, so the middleware's top-k
algorithms drive QBIC exactly like any other subsystem.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.core.query import Atomic
from repro.core.sources import ArraySource, GradedSource
from repro.errors import PlanError
from repro.middleware.interface import Subsystem
from repro.multimedia.histogram import (
    Palette,
    QuadraticFormDistance,
    color_histogram,
    distance_to_grade,
    solid_color_histogram,
)
from repro.multimedia.images import NAMED_COLORS, ShapeSpec, SyntheticImage
from repro.multimedia.shape import SHAPE_DISTANCES
from repro.multimedia.similarity import laplacian_similarity
from repro.multimedia.texture import NAMED_TEXTURES, texture_distance, texture_features

#: Query-name aliases for reference shapes ('round' is the paper's term).
SHAPE_ALIASES: Dict[str, str] = {
    "round": "circle",
    "circle": "circle",
    "square": "square",
    "rectangle": "rectangle",
    "triangle": "triangle",
    "ellipse": "ellipse",
}


def reference_boundary(kind: str, samples: int = 64) -> np.ndarray:
    """The canonical boundary polygon for a named shape query."""
    try:
        resolved = SHAPE_ALIASES[kind]
    except KeyError:
        raise PlanError(
            f"unknown shape name {kind!r}; use one of {sorted(SHAPE_ALIASES)}"
        ) from None
    spec = ShapeSpec(
        kind=resolved, center=(0.5, 0.5), size=0.5, color=(0.5, 0.5, 0.5), aspect=0.6
    )
    return spec.boundary(samples)


class QbicSubsystem(Subsystem):
    """Content-based image search over a synthetic corpus."""

    def __init__(
        self,
        name: str,
        images: Sequence[SyntheticImage],
        *,
        palette: Optional[Palette] = None,
        similarity: Optional[np.ndarray] = None,
        resolution: int = 32,
        color_scale: float = 0.25,
        shape_method: str = "turning",
        shape_scale: float = 0.5,
        texture_scale: float = 0.4,
        boundary_samples: int = 64,
    ) -> None:
        super().__init__(name)
        if shape_method not in SHAPE_DISTANCES:
            raise PlanError(
                f"unknown shape method {shape_method!r}; "
                f"use one of {sorted(SHAPE_DISTANCES)}"
            )
        self.palette = palette if palette is not None else Palette.rgb_cube(4)
        matrix = (
            similarity
            if similarity is not None
            else laplacian_similarity(self.palette)
        )
        self.distance = QuadraticFormDistance(matrix)
        self.resolution = resolution
        self.color_scale = color_scale
        self.shape_method = shape_method
        self.shape_scale = shape_scale
        self.texture_scale = texture_scale
        self.boundary_samples = boundary_samples

        self._images: Dict[str, SyntheticImage] = {}
        self._histograms: Dict[str, np.ndarray] = {}
        self._boundaries: Dict[str, List[np.ndarray]] = {}
        self._textures: Dict[str, np.ndarray] = {}
        for image in images:
            if image.image_id in self._images:
                raise PlanError(f"duplicate image id {image.image_id!r}")
            raster = image.rasterize(resolution)
            self._images[image.image_id] = image
            self._histograms[image.image_id] = color_histogram(raster, self.palette)
            self._boundaries[image.image_id] = [
                shape.boundary(boundary_samples) for shape in image.shapes
            ]
            self._textures[image.image_id] = texture_features(raster)

    # ------------------------------------------------------------------
    def attributes(self) -> FrozenSet[str]:
        return frozenset({"Color", "Shape", "Texture"})

    def image_ids(self) -> FrozenSet[str]:
        return frozenset(self._images)

    def histogram_of(self, image_id: str) -> np.ndarray:
        return self._histograms[image_id].copy()

    def __len__(self) -> int:
        return len(self._images)

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _color_target_histogram(self, target) -> np.ndarray:
        if isinstance(target, SyntheticImage):
            if target.image_id in self._histograms:
                return self._histograms[target.image_id]
            return color_histogram(target.rasterize(self.resolution), self.palette)
        if isinstance(target, str):
            if target in self._histograms:  # "similar to image I" by id
                return self._histograms[target]
            if target in NAMED_COLORS:
                return solid_color_histogram(NAMED_COLORS[target], self.palette)
            raise PlanError(
                f"unknown color target {target!r}: not a named color or image id"
            )
        array = np.asarray(target, dtype=float)
        if array.shape == (3,):
            return solid_color_histogram(array, self.palette)
        if array.shape == (self.palette.k,):
            return array
        raise PlanError(
            f"color target must be a name, image, RGB triple, or "
            f"{self.palette.k}-bin histogram; got shape {array.shape}"
        )

    def _shape_target_boundary(self, target) -> np.ndarray:
        if isinstance(target, str):
            return reference_boundary(target, self.boundary_samples)
        array = np.asarray(target, dtype=float)
        if array.ndim == 2 and array.shape[1] == 2:
            return array
        raise PlanError(
            f"shape target must be a name or (n, 2) polygon; got {array.shape}"
        )

    def _texture_target_features(self, target) -> np.ndarray:
        if isinstance(target, str):
            try:
                return NAMED_TEXTURES[target]
            except KeyError:
                raise PlanError(
                    f"unknown texture name {target!r}; "
                    f"use one of {sorted(NAMED_TEXTURES)}"
                ) from None
        array = np.asarray(target, dtype=float)
        if array.shape == (3,):
            return array
        raise PlanError(
            f"texture target must be a name or 3-feature vector; got {array.shape}"
        )

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _bind(self, atom: Atomic) -> GradedSource:
        if atom.attribute == "Color":
            target = self._color_target_histogram(atom.target)
            grades = {
                image_id: distance_to_grade(
                    self.distance(histogram, target), self.color_scale
                )
                for image_id, histogram in self._histograms.items()
            }
        elif atom.attribute == "Shape":
            reference = self._shape_target_boundary(atom.target)
            shape_distance = SHAPE_DISTANCES[self.shape_method]
            grades = {}
            for image_id, boundaries in self._boundaries.items():
                if not boundaries:
                    grades[image_id] = 0.0
                    continue
                best = min(
                    shape_distance(boundary, reference) for boundary in boundaries
                )
                grades[image_id] = distance_to_grade(best, self.shape_scale)
        elif atom.attribute == "Texture":
            target = self._texture_target_features(atom.target)
            grades = {
                image_id: distance_to_grade(
                    texture_distance(features, target), self.texture_scale
                )
                for image_id, features in self._textures.items()
            }
        else:  # pragma: no cover - Subsystem.bind checks support first
            raise PlanError(f"QBIC does not handle attribute {atom.attribute!r}")
        return ArraySource(grades, name=f"{self.name}:{atom}")
