"""Randomized properties of ID mapping and containment."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.sources import ArraySource
from repro.errors import IdMappingError
from repro.middleware.complex_objects import Containment, PromotedSource
from repro.middleware.idmap import IdMapping, MappedSource

ids = st.integers(min_value=0, max_value=10_000)
grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(pairs=st.dictionaries(ids, ids.map(lambda i: f"local-{i}"), max_size=30))
@settings(max_examples=50, deadline=None)
def test_mapping_round_trips_every_id(pairs):
    # dictionaries guarantee unique keys; values may collide -> either a
    # valid bijection or a loud IdMappingError, never silence.
    try:
        mapping = IdMapping(pairs)
    except IdMappingError:
        assert len(set(pairs.values())) < len(pairs)
        return
    for global_id, local_id in pairs.items():
        assert mapping.to_local(global_id) == local_id
        assert mapping.to_global(local_id) == global_id


@given(
    grades_by_local=st.dictionaries(
        ids.map(lambda i: f"l{i}"), grades, min_size=1, max_size=25
    )
)
@settings(max_examples=40, deadline=None)
def test_mapped_source_preserves_ranking(grades_by_local):
    source = ArraySource(grades_by_local, name="local")
    mapping = IdMapping({f"g-{local}": local for local in grades_by_local})
    mapped = MappedSource(source, mapping)
    cursor = mapped.cursor()
    delivered = []
    while True:
        item = cursor.next()
        if item is None:
            break
        delivered.append(item)
    assert len(delivered) == len(grades_by_local)
    observed = [item.grade for item in delivered]
    assert observed == sorted(observed, reverse=True)
    for item in delivered:
        local = mapping.to_local(item.object_id)
        assert item.grade == pytest.approx(grades_by_local[local])


@given(
    children_per_parent=st.dictionaries(
        st.integers(min_value=0, max_value=20).map(lambda i: f"ad{i}"),
        st.lists(
            st.integers(min_value=0, max_value=15).map(lambda i: f"p{i}"),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_promotion_grades_are_max_over_children(children_per_parent, seed):
    import random

    rng = random.Random(seed)
    child_ids = sorted({c for kids in children_per_parent.values() for c in kids})
    child_grades = {c: rng.random() for c in child_ids}
    containment = Containment(children_per_parent)
    promoted = PromotedSource(ArraySource(child_grades, name="kids"), containment)
    cursor = promoted.cursor()
    delivered = {}
    while True:
        item = cursor.next()
        if item is None:
            break
        delivered[item.object_id] = item.grade
    assert set(delivered) == set(children_per_parent)
    for parent, kids in children_per_parent.items():
        assert delivered[parent] == pytest.approx(
            max(child_grades[c] for c in kids)
        )
