"""The public API surface: every advertised name resolves and works."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.scoring",
    "repro.middleware",
    "repro.multimedia",
    "repro.index",
    "repro.sql",
    "repro.workloads",
    "repro.harness",
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_readme_quickstart_snippet_runs():
    from repro import ArraySource, fagin_top_k, scoring

    color = ArraySource({"a": 0.9, "b": 0.6, "c": 0.3}, name="Color=red")
    shape = ArraySource({"a": 0.5, "b": 0.8, "c": 0.4}, name="Shape=round")
    result = fagin_top_k([color, shape], scoring.MIN, k=2)
    answers = {item.object_id: item.grade for item in result.answers}
    assert answers == {"b": 0.6, "a": 0.5}


def test_three_subsystem_conjunction():
    """Relational + QBIC + video, one query — the full Garlic picture."""
    from repro.core.query import Atomic
    from repro.middleware.engine import MiddlewareEngine
    from repro.middleware.relational import RelationalSubsystem
    from repro.multimedia.qbic import QbicSubsystem
    from repro.multimedia.video import VideoGenerator, VideoSubsystem
    from repro.workloads.image_corpus import mixed_corpus

    n = 25
    images = mixed_corpus(n, seed=1)
    clips = VideoGenerator(2).corpus(n, still_fraction=0.4, prefix="obj")
    # unify object ids: objN for everything
    from repro.multimedia.images import SyntheticImage

    images = [
        SyntheticImage(f"obj{i}", img.background, img.shapes)
        for i, img in enumerate(images)
    ]
    rows = {f"obj{i}": {"Category": "promo" if i % 2 else "stock"} for i in range(n)}

    engine = MiddlewareEngine()
    engine.register(RelationalSubsystem("meta", rows))
    engine.register(QbicSubsystem("qbic", images))
    engine.register(VideoSubsystem("video", clips))

    query = (
        Atomic("Category", "promo")
        & Atomic("Color", "red")
        & Atomic("MotionEnergy", "still")
    )
    result = engine.top_k(query, 5)
    assert len(result.answers) == 5
    # nonzero answers satisfy the crisp predicate
    for item in result.answers:
        if item.grade > 0:
            assert rows[item.object_id]["Category"] == "promo"
