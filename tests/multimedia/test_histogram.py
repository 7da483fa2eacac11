"""Color histograms and the Eq. 1 quadratic-form distance."""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.multimedia.histogram import (
    Palette,
    QuadraticFormDistance,
    color_histogram,
    distance_to_grade,
    solid_color_histogram,
)
from repro.multimedia.images import ImageGenerator
from repro.multimedia.similarity import identity_similarity, laplacian_similarity


def test_rgb_cube_palette_size():
    assert Palette.rgb_cube(4).k == 64
    assert Palette.rgb_cube(5).k == 125


def test_hue_wheel_palette_arbitrary_k():
    assert Palette.hue_wheel(100).k == 100
    assert Palette.hue_wheel(256).k == 256


def test_palette_validation():
    with pytest.raises(IndexError_):
        Palette(np.zeros((3, 2)))
    with pytest.raises(IndexError_):
        Palette.rgb_cube(1)


def test_assign_picks_nearest_center():
    palette = Palette(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    pixels = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.95]])
    assert list(palette.assign(pixels)) == [0, 1]


def test_histogram_sums_to_one_and_has_k_bins():
    palette = Palette.rgb_cube(4)
    raster = ImageGenerator(0).random_image("x").rasterize(32)
    histogram = color_histogram(raster, palette)
    assert histogram.shape == (64,)
    assert histogram.sum() == pytest.approx(1.0)
    assert (histogram >= 0).all()


def test_histogram_of_solid_image_is_a_delta():
    palette = Palette.rgb_cube(4)
    raster = np.full((8, 8, 3), 0.9)
    histogram = color_histogram(raster, palette)
    assert np.count_nonzero(histogram) == 1


def test_solid_color_histogram_matches_rasterized_solid():
    palette = Palette.rgb_cube(4)
    direct = solid_color_histogram((0.9, 0.1, 0.1), palette)
    via_raster = color_histogram(np.full((4, 4, 3), (0.9, 0.1, 0.1)), palette)
    assert np.allclose(direct, via_raster)


def test_histogram_validates_raster_shape():
    with pytest.raises(IndexError_):
        color_histogram(np.zeros((4, 4)), Palette.rgb_cube(4))


# ----------------------------------------------------------------------
# QuadraticFormDistance (Eq. 1)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def palette():
    return Palette.rgb_cube(3)  # k = 27, fast


@pytest.fixture(scope="module")
def qf(palette):
    return QuadraticFormDistance(laplacian_similarity(palette))


def random_histograms(palette, count, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.random((count, palette.k))
    return raw / raw.sum(axis=1, keepdims=True)


def test_distance_is_zero_on_identical(qf, palette):
    x = random_histograms(palette, 1)[0]
    assert qf(x, x) == pytest.approx(0.0, abs=1e-9)


def test_distance_is_symmetric(qf, palette):
    x, y = random_histograms(palette, 2, seed=1)
    assert qf(x, y) == pytest.approx(qf(y, x))


def test_triangle_inequality(qf, palette):
    x, y, z = random_histograms(palette, 3, seed=2)
    assert qf(x, z) <= qf(x, y) + qf(y, z) + 1e-9


def test_identity_similarity_gives_euclidean(palette):
    qf = QuadraticFormDistance(identity_similarity(palette))
    x, y = random_histograms(palette, 2, seed=3)
    assert qf(x, y) == pytest.approx(float(np.linalg.norm(x - y)))


def test_cross_bin_coupling_shrinks_distances(palette):
    """Similar colors in different bins: A-coupled distance <= Euclidean
    (the 'red is close to pink' effect)."""
    coupled = QuadraticFormDistance(laplacian_similarity(palette, alpha=2.0))
    plain = QuadraticFormDistance(identity_similarity(palette))
    for x, y in zip(
        random_histograms(palette, 5, seed=4), random_histograms(palette, 5, seed=5)
    ):
        assert coupled(x, y) <= plain(x, y) + 1e-9


def test_pairwise_matches_individual(qf, palette):
    hists = random_histograms(palette, 6, seed=6)
    matrix = qf.pairwise(hists)
    assert matrix.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            assert matrix[i, j] == pytest.approx(qf(hists[i], hists[j]), abs=1e-9)


def test_distance_validates_shape(qf):
    with pytest.raises(IndexError_):
        qf(np.zeros(5), np.zeros(5))


def test_asymmetric_matrix_rejected():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(IndexError_):
        QuadraticFormDistance(bad)


def test_indefinite_matrix_rejected():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(IndexError_):
        QuadraticFormDistance(bad)


# ----------------------------------------------------------------------
# distance_to_grade
# ----------------------------------------------------------------------
def test_grade_bridge_properties():
    assert distance_to_grade(0.0) == 1.0
    assert distance_to_grade(1.0, scale=1.0) == pytest.approx(np.exp(-1))
    assert distance_to_grade(0.5) > distance_to_grade(1.0)
    with pytest.raises(ValueError):
        distance_to_grade(1.0, scale=0.0)
    with pytest.raises(ValueError):
        distance_to_grade(np.ones(3), scale=-1.0)


def test_grade_bridge_array_form_is_the_scalar_form_elementwise():
    rng = np.random.default_rng(11)
    distances = np.concatenate(
        [rng.random(2000) * 4, [0.0, -0.0, -1.0, 5e-324, 1e-300, 700.0, 1e4]]
    )
    for scale in (1.0, 0.3, 2.5):
        grades = distance_to_grade(distances, scale)
        assert isinstance(grades, np.ndarray) and grades.shape == distances.shape
        one_at_a_time = [distance_to_grade(float(d), scale) for d in distances]
        assert all(type(g) is float for g in one_at_a_time)
        assert grades.tobytes() == np.asarray(one_at_a_time).tobytes()
    assert distance_to_grade(-1.0) == 1.0
