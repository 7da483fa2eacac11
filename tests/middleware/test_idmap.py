"""Object-ID mapping: bijection enforcement and re-keyed sources."""

import pytest

from repro.core.sources import ArraySource
from repro.errors import IdMappingError
from repro.middleware.idmap import IdMapping, MappedSource


def test_bijection_accepted():
    mapping = IdMapping({"g1": "local-a", "g2": "local-b"})
    assert mapping.to_local("g1") == "local-a"
    assert mapping.to_global("local-b") == "g2"
    assert len(mapping) == 2


def test_non_one_to_one_rejected():
    """Section 4.2: 'Garlic has to be sure that the mapping is
    one-to-one.'"""
    with pytest.raises(IdMappingError):
        IdMapping({"g1": "shared", "g2": "shared"})


def test_unknown_ids_raise():
    mapping = IdMapping({"g1": "local-a"})
    with pytest.raises(IdMappingError):
        mapping.to_local("unknown")
    with pytest.raises(IdMappingError):
        mapping.to_global("unknown")


def test_identity_mapping():
    mapping = IdMapping.identity(["a", "b"])
    assert mapping.to_local("a") == "a"
    assert mapping.covers(["a", "b"])
    assert not mapping.covers(["c"])


def test_mapped_source_translates_both_directions():
    inner = ArraySource({"local-a": 0.9, "local-b": 0.4}, name="inner")
    mapping = IdMapping({"g1": "local-a", "g2": "local-b"})
    mapped = MappedSource(inner, mapping)
    cursor = mapped.cursor()
    assert cursor.next().object_id == "g1"
    assert mapped.random_access("g2") == 0.4
    assert len(mapped) == 2


def test_mapped_source_shares_the_counter():
    inner = ArraySource({"local-a": 0.9}, name="inner")
    mapped = MappedSource(inner, IdMapping({"g1": "local-a"}))
    mapped.cursor().next()
    mapped.random_access("g1")
    assert inner.counter.snapshot() == (1, 1)


def test_mapped_source_preserves_boolean_metadata():
    from repro.middleware.relational import BooleanSource

    inner = BooleanSource({"local-a": 1.0, "local-b": 0.0}, name="crisp")
    mapped = MappedSource(inner, IdMapping({"g1": "local-a", "g2": "local-b"}))
    assert mapped.is_boolean
    assert mapped.positive_count == 1
