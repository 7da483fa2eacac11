"""Complex objects: containment, shared sub-objects, promoted sources."""

import pytest

from repro.core.sources import ArraySource
from repro.errors import IdMappingError
from repro.middleware.complex_objects import Containment, PromotedSource


def photo_source():
    return ArraySource(
        {"p1": 0.9, "p2": 0.7, "p3": 0.5, "p4": 0.3, "p5": 0.1},
        name="AdPhotos:red",
    )


def containment():
    # ad2 and ad3 share photo p4 (the section-4.2 complication).
    return Containment({"ad1": ["p1", "p5"], "ad2": ["p2", "p4"], "ad3": ["p3", "p4"]})


def test_containment_navigation():
    c = containment()
    assert c.children_of("ad1") == ("p1", "p5")
    assert set(c.parents_of("p4")) == {"ad2", "ad3"}
    assert c.parents_of("orphan") == ()
    assert c.parents() == {"ad1", "ad2", "ad3"}
    assert c.shared_children() == {"p4"}
    assert len(c) == 3


def test_empty_parent_rejected():
    with pytest.raises(IdMappingError):
        Containment({"ad": []})


def test_unknown_parent_raises():
    with pytest.raises(IdMappingError):
        containment().children_of("nope")


def test_promoted_sorted_access_is_sorted_and_correct():
    promoted = PromotedSource(photo_source(), containment())
    cursor = promoted.cursor()
    items = [cursor.next() for _ in range(3)]
    # ad1 best photo 0.9, ad2 best 0.7, ad3 best 0.5
    assert [(i.object_id, i.grade) for i in items] == [
        ("ad1", 0.9),
        ("ad2", 0.7),
        ("ad3", 0.5),
    ]
    assert cursor.next() is None


def test_promoted_random_access_is_max_over_children():
    promoted = PromotedSource(photo_source(), containment())
    assert promoted.random_access("ad1") == 0.9
    assert promoted.random_access("ad3") == 0.5
    with pytest.raises(IdMappingError):
        promoted.random_access("nope")


def test_shared_child_counts_for_both_parents():
    photos = ArraySource({"p1": 0.8, "shared": 0.9}, name="photos")
    c = Containment({"adA": ["p1", "shared"], "adB": ["shared"]})
    promoted = PromotedSource(photos, c)
    cursor = promoted.cursor()
    first, second = cursor.next(), cursor.next()
    # 'shared' streams first (0.9) and reveals BOTH parents at 0.9 ...
    assert {first.object_id, second.object_id} == {"adA", "adB"}
    assert first.grade == second.grade == 0.9


def test_child_level_accounting_reflects_repository_load():
    photos = photo_source()
    promoted = PromotedSource(photos, containment())
    cursor = promoted.cursor()
    cursor.next()  # delivering ad1 requires only photo p1
    assert photos.counter.sorted_accesses == 1
    cursor.next()  # ad2 <- p2
    assert photos.counter.sorted_accesses == 2
    promoted.random_access("ad1")  # probes p1 and p5
    assert photos.counter.random_accesses == 2


def test_promoted_own_counter_counts_parent_level():
    promoted = PromotedSource(photo_source(), containment())
    cursor = promoted.cursor()
    cursor.next()
    promoted.random_access("ad2")
    assert promoted.counter.snapshot() == (1, 1)


def test_promoted_len_is_parent_count():
    assert len(PromotedSource(photo_source(), containment())) == 3
