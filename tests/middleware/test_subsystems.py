"""Subsystem protocol, list/grader subsystems, binding cache."""

import pytest

from repro.core.query import Atomic
from repro.errors import PlanError
from repro.middleware.list_subsystem import GraderSubsystem, ListSubsystem


def make_list_subsystem():
    subsystem = ListSubsystem("colors")
    subsystem.add_list("Color", "red", {"a": 0.9, "b": 0.2})
    subsystem.add_list("Color", "blue", {"a": 0.1, "b": 0.8})
    return subsystem


def test_attributes_and_supports():
    subsystem = make_list_subsystem()
    assert subsystem.attributes() == frozenset({"Color"})
    assert subsystem.supports(Atomic("Color", "red"))
    assert not subsystem.supports(Atomic("Color", "green"))  # no stored list
    assert not subsystem.supports(Atomic("Shape", "round"))


def test_bind_returns_ranked_list():
    subsystem = make_list_subsystem()
    source = subsystem.bind(Atomic("Color", "red"))
    cursor = source.cursor()
    assert cursor.next().object_id == "a"
    assert len(source) == 2


def test_bind_is_cached_per_atom():
    subsystem = make_list_subsystem()
    atom = Atomic("Color", "red")
    first = subsystem.bind(atom)
    second = subsystem.bind(atom)
    assert first is second  # same counter keeps accumulating
    other = subsystem.bind(Atomic("Color", "blue"))
    assert other is not first


def test_bind_unsupported_raises():
    subsystem = make_list_subsystem()
    with pytest.raises(PlanError):
        subsystem.bind(Atomic("Shape", "round"))


def test_grader_subsystem_grades_on_demand():
    objects = {"a": 10.0, "b": 20.0, "c": 15.0}
    subsystem = GraderSubsystem(
        "numbers",
        objects,
        {"Near": lambda target, value: max(0.0, 1.0 - abs(value - target) / 20.0)},
    )
    source = subsystem.bind(Atomic("Near", 15.0))
    cursor = source.cursor()
    best = cursor.next()
    assert best.object_id == "c"
    assert best.grade == pytest.approx(1.0)
    assert subsystem.object_count() == 3


def test_grader_subsystem_validates_grades():
    subsystem = GraderSubsystem(
        "broken", {"a": 1.0}, {"Bad": lambda target, value: 2.0}
    )
    from repro.errors import GradeError

    with pytest.raises(GradeError):
        subsystem.bind(Atomic("Bad", 0))


def test_unbind_invalidates_the_cached_binding():
    # Regression: bind() used to cache forever with no escape hatch, so
    # a binding that accumulated unwanted state (stale data, a tripped
    # breaker) could never be rebuilt.
    subsystem = make_list_subsystem()
    atom = Atomic("Color", "red")
    first = subsystem.bind(atom)
    assert subsystem.unbind(atom)
    assert subsystem.bind(atom) is not first
    assert not subsystem.unbind(Atomic("Color", "blue"))  # never bound


def test_invalidate_drops_every_binding():
    subsystem = make_list_subsystem()
    red, blue = Atomic("Color", "red"), Atomic("Color", "blue")
    first_red, first_blue = subsystem.bind(red), subsystem.bind(blue)
    assert subsystem.invalidate() == 2
    assert subsystem.bind(red) is not first_red
    assert subsystem.bind(blue) is not first_blue
    assert subsystem.invalidate() == 2


def test_repr_mentions_name_and_attributes():
    assert "colors" in repr(make_list_subsystem())


def test_every_subsystem_binds_a_columnar_source():
    # a bare in-RAM binding is an ArraySource (or a kNN stream): columnar,
    # so TA reads a conjunction of them in its bulk round
    import numpy as np

    from repro.core.sources import ArraySource
    from repro.index import KnnSubsystem
    from repro.middleware.relational import BooleanSource, RelationalSubsystem
    from repro.multimedia.images import ImageGenerator
    from repro.multimedia.qbic import QbicSubsystem
    from repro.multimedia.video import VideoGenerator, VideoSubsystem

    ids = ["a", "b", "c"]
    grader = GraderSubsystem(
        "graded", {i: n / 4 for n, i in enumerate(ids)}, {"Near": lambda target, value: value}
    )
    relational = RelationalSubsystem(
        "rdbms", {"a": {"Artist": "Beatles"}, "b": {"Artist": "Kinks"}}
    )
    qbic = QbicSubsystem("qbic", ImageGenerator(1).corpus(4))
    video = VideoSubsystem("video", VideoGenerator(2).corpus(4))
    bindings = [
        (make_list_subsystem(), Atomic("Color", "red")),
        (grader, Atomic("Near", 0)),
        (relational, Atomic("Artist", "Beatles")),
        (qbic, Atomic("Color", "red")),
        (qbic, Atomic("Shape", "round")),
        (qbic, Atomic("Texture", "smooth")),
        (video, Atomic("ClipColor", "red")),
        (video, Atomic("MotionEnergy", "still")),
        (KnnSubsystem("knn", ids, np.eye(3), index="vafile"), Atomic("Near", "sunset")),
    ]
    for subsystem, atom in bindings:
        source = subsystem.bind(atom)
        assert source.supports_columnar, (subsystem.name, atom)
    boolean = relational.bind(Atomic("Artist", "Beatles"))
    assert isinstance(boolean, BooleanSource) and isinstance(boolean, ArraySource)
    assert boolean.positive_count == 1
