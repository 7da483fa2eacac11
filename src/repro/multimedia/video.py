"""Synthetic video clips and video similarity (the paper's other medium).

"As hardware becomes more powerful ... it is increasingly possible to
make use of multimedia data, such as images and video."  The survey's
examples are all images; this module supplies the video half so the
middleware can grade a fourth atomic-query family.

A :class:`VideoClip` is a short sequence of synthetic frames produced by
animating a :class:`~repro.multimedia.images.SyntheticImage` (shapes
drift along per-shape velocities).  Features:

* **color signature** — the mean frame histogram (what a QBIC-style
  system stores per clip);
* **motion energy** — mean absolute inter-frame luminance change,
  normalized to [0, 1] (a still clip scores 0);

Distances combine signature distance (Eq. 1) and motion difference; the
:class:`VideoSubsystem` exposes ``MotionEnergy = <level>`` and
``ClipColor = <color or clip id>`` atomic queries through the standard
middleware interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
from repro.multimedia.images import (
    NAMED_COLORS,
    ImageGenerator,
    ShapeSpec,
    SyntheticImage,
)
from repro.multimedia.similarity import laplacian_similarity
from repro.multimedia.texture import to_grayscale


@dataclass(frozen=True)
class VideoClip:
    """A short clip: a base scene plus per-shape velocities.

    ``velocities`` holds one (dx, dy) canvas-units-per-frame vector per
    shape of the base image; frames are rendered by translating each
    shape along its velocity (wrapping at the canvas edge).
    """

    clip_id: str
    base: SyntheticImage
    velocities: Tuple[Tuple[float, float], ...]
    frame_count: int = 8

    def __post_init__(self) -> None:
        if len(self.velocities) != len(self.base.shapes):
            raise PlanError(
                f"clip {self.clip_id!r}: {len(self.base.shapes)} shapes but "
                f"{len(self.velocities)} velocities"
            )
        if self.frame_count < 2:
            raise PlanError("a clip needs at least 2 frames")

    def frame(self, index: int) -> SyntheticImage:
        """The scene at frame ``index`` (shapes translated, wrapped)."""
        moved = []
        for shape, (dx, dy) in zip(self.base.shapes, self.velocities):
            cx = (shape.center[0] + dx * index) % 1.0
            cy = (shape.center[1] + dy * index) % 1.0
            moved.append(
                ShapeSpec(
                    kind=shape.kind,
                    center=(cx, cy),
                    size=shape.size,
                    color=shape.color,
                    rotation=shape.rotation,
                    aspect=shape.aspect,
                )
            )
        return SyntheticImage(
            f"{self.clip_id}[{index}]", self.base.background, tuple(moved)
        )

    def frames(self, resolution: int = 24) -> List[np.ndarray]:
        """Rasterize every frame."""
        return [self.frame(i).rasterize(resolution) for i in range(self.frame_count)]


def color_signature(
    clip: VideoClip, palette: Palette, resolution: int = 24
) -> np.ndarray:
    """Mean frame histogram — the clip's stored color signature."""
    histograms = [
        color_histogram(raster, palette) for raster in clip.frames(resolution)
    ]
    return np.mean(histograms, axis=0)


def motion_energy(clip: VideoClip, resolution: int = 24) -> float:
    """Mean absolute inter-frame luminance change, squashed to [0, 1]."""
    rasters = clip.frames(resolution)
    changes = [
        float(np.abs(to_grayscale(a) - to_grayscale(b)).mean())
        for a, b in zip(rasters, rasters[1:])
    ]
    raw = sum(changes) / len(changes)
    # Typical raw values are small (a moving shape touches few pixels);
    # 1 - exp(-x/s) maps stillness to 0 and saturates smoothly.  The
    # scale is tuned so a mid-size shape at moderate speed lands mid-range.
    return 1.0 - math.exp(-raw / 0.02)


class VideoGenerator:
    """Seeded generator of clips with controllable motion."""

    def __init__(self, seed: int = 0) -> None:
        self._images = ImageGenerator(seed)
        import random

        self._rng = random.Random(seed + 101)

    def clip(
        self,
        clip_id: str,
        *,
        speed: float = 0.05,
        still: bool = False,
        theme: Optional[str] = None,
    ) -> VideoClip:
        base = (
            self._images.themed(clip_id, theme)
            if theme is not None
            else self._images.random_image(clip_id)
        )
        velocities = tuple(
            (0.0, 0.0)
            if still
            else (
                self._rng.uniform(-speed, speed),
                self._rng.uniform(-speed, speed),
            )
            for _ in base.shapes
        )
        return VideoClip(clip_id, base, velocities)

    def corpus(
        self,
        count: int,
        *,
        still_fraction: float = 0.25,
        theme: Optional[str] = None,
        themed_fraction: float = 0.0,
        prefix: str = "clip",
    ) -> List[VideoClip]:
        clips = []
        still_count = int(count * still_fraction)
        themed_count = int(count * themed_fraction)
        for i in range(count):
            clips.append(
                self.clip(
                    f"{prefix}{i}",
                    still=i < still_count,
                    theme=theme if i >= still_count and i < still_count + themed_count else None,
                    speed=self._rng.uniform(0.02, 0.12),
                )
            )
        return clips


#: Named motion levels for atomic queries (MotionEnergy='still' etc.).
NAMED_MOTION: Dict[str, float] = {
    "still": 0.0,
    "slow": 0.3,
    "medium": 0.6,
    "fast": 0.9,
}


class VideoSubsystem(Subsystem):
    """Content-based video search: clip color and motion queries."""

    def __init__(
        self,
        name: str,
        clips: Sequence[VideoClip],
        *,
        palette: Optional[Palette] = None,
        resolution: int = 24,
        color_scale: float = 0.25,
        motion_scale: float = 0.25,
    ) -> None:
        super().__init__(name)
        self.palette = palette if palette is not None else Palette.rgb_cube(4)
        self.distance = QuadraticFormDistance(laplacian_similarity(self.palette))
        self.color_scale = color_scale
        self.motion_scale = motion_scale
        self._signatures: Dict[str, np.ndarray] = {}
        self._motion: Dict[str, float] = {}
        for clip in clips:
            if clip.clip_id in self._signatures:
                raise PlanError(f"duplicate clip id {clip.clip_id!r}")
            self._signatures[clip.clip_id] = color_signature(
                clip, self.palette, resolution
            )
            self._motion[clip.clip_id] = motion_energy(clip, resolution)

    def attributes(self) -> FrozenSet[str]:
        return frozenset({"ClipColor", "MotionEnergy"})

    def __len__(self) -> int:
        return len(self._signatures)

    def motion_of(self, clip_id: str) -> float:
        return self._motion[clip_id]

    def _color_target(self, target) -> np.ndarray:
        if isinstance(target, str):
            if target in self._signatures:
                return self._signatures[target]
            if target in NAMED_COLORS:
                return solid_color_histogram(NAMED_COLORS[target], self.palette)
            raise PlanError(
                f"unknown clip color target {target!r}: not a color or clip id"
            )
        array = np.asarray(target, dtype=float)
        if array.shape == (3,):
            return solid_color_histogram(array, self.palette)
        if array.shape == (self.palette.k,):
            return array
        raise PlanError(f"bad clip color target shape {array.shape}")

    def _motion_target(self, target) -> float:
        if isinstance(target, str):
            try:
                return NAMED_MOTION[target]
            except KeyError:
                raise PlanError(
                    f"unknown motion level {target!r}; "
                    f"use one of {sorted(NAMED_MOTION)}"
                ) from None
        value = float(target)
        if not 0.0 <= value <= 1.0:
            raise PlanError(f"motion target must lie in [0, 1], got {value}")
        return value

    def _bind(self, atom: Atomic) -> GradedSource:
        if atom.attribute == "ClipColor":
            target = self._color_target(atom.target)
            grades = {
                clip_id: distance_to_grade(
                    self.distance(signature, target), self.color_scale
                )
                for clip_id, signature in self._signatures.items()
            }
        elif atom.attribute == "MotionEnergy":
            target = self._motion_target(atom.target)
            grades = {
                clip_id: distance_to_grade(
                    abs(energy - target), self.motion_scale
                )
                for clip_id, energy in self._motion.items()
            }
        else:  # pragma: no cover - Subsystem.bind checks support first
            raise PlanError(f"video subsystem cannot grade {atom.attribute!r}")
        return ArraySource(grades, name=f"{self.name}:{atom}")
