"""The Eq. 2 distance-bounding filter: soundness and effectiveness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.multimedia.filter import (
    DistanceBoundingFilter,
    linear_scan_knn,
)
from repro.multimedia.histogram import Palette, QuadraticFormDistance
from repro.multimedia.images import ImageGenerator
from repro.multimedia.similarity import laplacian_similarity, qbic_similarity
from repro.workloads.image_corpus import corpus_histograms


@pytest.fixture(scope="module")
def setup():
    palette = Palette.rgb_cube(4)
    distance = QuadraticFormDistance(laplacian_similarity(palette))
    filt = DistanceBoundingFilter(palette, distance)
    corpus = ImageGenerator(11).corpus(80, themed_fraction=0.3)
    histograms = corpus_histograms(corpus, palette)
    return palette, distance, filt, histograms


def random_histograms(k, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((count, k))
    return raw / raw.sum(axis=1, keepdims=True)


def test_short_vector_is_three_dimensional(setup):
    palette, _, filt, histograms = setup
    short = filt.summarize(next(iter(histograms.values())))
    assert short.shape == (3,)


def test_lower_bound_never_exceeds_true_distance_on_corpus(setup):
    """Eq. 2: d^(x^, y^) <= d(x, y), with no exceptions."""
    _, distance, filt, histograms = setup
    items = list(histograms.values())[:25]
    shorts = [filt.summarize(h) for h in items]
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            true = distance(items[i], items[j])
            bound = filt.lower_bound(shorts[i], shorts[j])
            assert bound <= true + 1e-9


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_lower_bound_holds_on_random_histograms(seed):
    palette = Palette.rgb_cube(3)
    distance = QuadraticFormDistance(laplacian_similarity(palette))
    filt = DistanceBoundingFilter(palette, distance)
    x, y = random_histograms(palette.k, 2, seed)
    bound = filt.lower_bound(filt.summarize(x), filt.summarize(y))
    assert bound <= distance(x, y) + 1e-9


def test_bound_holds_for_ridged_qbic_matrix():
    palette = Palette.rgb_cube(3)
    distance = QuadraticFormDistance(qbic_similarity(palette, ridge=1e-4))
    filt = DistanceBoundingFilter(palette, distance)
    for seed in range(5):
        x, y = random_histograms(palette.k, 2, seed)
        assert filt.lower_bound(
            filt.summarize(x), filt.summarize(y)
        ) <= distance(x, y) + 1e-9


def test_singular_similarity_rejected():
    palette = Palette.rgb_cube(3)
    distance = QuadraticFormDistance(qbic_similarity(palette))  # PSD, singular
    if distance.min_eigenvalue < 1e-10:
        with pytest.raises(IndexError_):
            DistanceBoundingFilter(palette, distance)


def test_search_matches_linear_scan_exactly(setup):
    """No false dismissals: the filtered result equals the full scan's."""
    _, distance, filt, histograms = setup
    target = next(iter(histograms.values()))
    filtered = filt.search(histograms, target, 10)
    scan = linear_scan_knn(histograms, target, 10, distance)
    assert sorted(d for _, d in filtered.neighbors) == pytest.approx(
        sorted(d for _, d in scan)
    )


def tight_pair(palette, similarity, seed):
    """A two-object corpus built to expose a false dismissal in computed
    values.  ``x`` differs from the target by a vector in the span of
    ``A^{-1} C``, where Eq. 2 is tight, so rounding can put its computed
    bound a few ulps *above* its computed distance.  ``y`` has a
    marginally smaller bound (visited first) plus a component in the
    null space of ``C^T`` — invisible to the bound — bisected so that
    ``d(x) < d(y) < d^(x)`` whenever that window is open: a filter that
    prunes on a bare ``d^ > D_k`` then returns ``y`` for k = 1, the
    linear scan ``x``.
    """
    distance = QuadraticFormDistance(similarity)
    filt = DistanceBoundingFilter(palette, distance)
    centers = palette.centers
    rng = np.random.default_rng(seed)
    target = rng.random(palette.k)
    target /= target.sum()
    tight = 0.01 * np.linalg.solve(similarity, centers @ rng.normal(size=3))
    hidden = np.linalg.svd(centers.T)[2][-1]
    x = target + tight
    x_distance = distance(x, target)
    x_bound = filt.lower_bound(filt.summarize(x), filt.summarize(target))
    low, high = 0.0, 1e-3
    for _ in range(200):
        y = target + tight * (1 - 1e-9) + 0.5 * (low + high) * hidden
        y_distance = distance(y, target)
        if y_distance <= x_distance:
            low = 0.5 * (low + high)
        elif y_distance >= x_bound:
            high = 0.5 * (low + high)
        else:
            break
    return distance, filt, target, {"x": x, "y": y}


def test_search_has_no_false_dismissal_in_computed_values():
    """Where the window opens — the computed bound of ``x`` exceeds its
    computed distance and ``y`` sits in between (seed 0 and about two
    seeds in five on OpenBLAS) — pruning on a bare ``bound > cutoff``
    dismisses the true nearest neighbour."""
    palette = Palette.rgb_cube(4)
    similarity = laplacian_similarity(palette)
    witnesses = 0
    for seed in range(40):
        distance, filt, target, corpus = tight_pair(palette, similarity, seed)
        x_bound = filt.lower_bound(
            filt.summarize(corpus["x"]), filt.summarize(target)
        )
        if not distance(corpus["x"], target) < distance(corpus["y"], target) < x_bound:
            continue
        witnesses += 1
        scan = linear_scan_knn(corpus, target, 1, distance)
        assert scan[0][0] == "x"
        assert filt.search(corpus, target, 1).neighbors == scan, seed
    assert witnesses > 0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    matrix=st.sampled_from(("laplacian", "ridged-qbic", "identity")),
    wheel=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_search_equals_linear_scan_on_tight_corpora(seed, matrix, wheel):
    palette = Palette.hue_wheel(24) if wheel else Palette.rgb_cube(4)
    similarity = {
        "laplacian": laplacian_similarity,
        "ridged-qbic": lambda p: qbic_similarity(p, ridge=1e-6),
        "identity": lambda p: np.eye(p.k),
    }[matrix](palette)
    distance, filt, target, corpus = tight_pair(palette, similarity, seed)
    for k in (1, 2):
        assert filt.search(corpus, target, k).neighbors == linear_scan_knn(
            corpus, target, k, distance
        )


def test_search_prunes_a_meaningful_fraction(setup):
    """With a concentrated target (a query color with planted near
    matches), the k-th distance is small and the bound prunes most of
    the corpus; the guarantee itself is exercised separately above."""
    palette, _, filt, histograms = setup
    from repro.multimedia.histogram import solid_color_histogram

    target = solid_color_histogram((0.9, 0.1, 0.1), palette)
    result = filt.search(histograms, target, 5)
    assert result.pruned > 0
    assert result.full_evaluations + result.pruned == len(histograms)
    assert result.pruning_rate > 0.2


def test_search_handles_small_k_and_empty_corpus(setup):
    _, _, filt, histograms = setup
    target = next(iter(histograms.values()))
    assert len(filt.search(histograms, target, 1).neighbors) == 1
    assert filt.search({}, target, 3).neighbors == []
    with pytest.raises(ValueError):
        filt.search(histograms, target, 0)


def test_mismatched_palette_and_distance_rejected():
    palette = Palette.rgb_cube(3)
    other = Palette.rgb_cube(4)
    distance = QuadraticFormDistance(laplacian_similarity(other))
    with pytest.raises(IndexError_):
        DistanceBoundingFilter(palette, distance)


def test_linear_scan_validates_k(setup):
    _, distance, _, histograms = setup
    with pytest.raises(ValueError):
        linear_scan_knn(histograms, next(iter(histograms.values())), 0, distance)
