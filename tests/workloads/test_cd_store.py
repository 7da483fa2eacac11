"""The CD-store workload and engine builder."""

import pytest

from repro.core.query import Atomic
from repro.workloads.cd_store import build_store, generate_catalog


def test_catalog_shape_and_determinism():
    catalog = generate_catalog(200, seed=1)
    assert len(catalog) == 200
    assert len({album.album_id for album in catalog}) == 200
    again = generate_catalog(200, seed=1)
    assert [a.album_id for a in again] == [a.album_id for a in catalog]


def test_beatles_fraction_controls_selectivity():
    catalog = generate_catalog(400, seed=2, beatles_fraction=0.1)
    beatles = [a for a in catalog if a.artist == "Beatles"]
    assert len(beatles) == 40
    with pytest.raises(ValueError):
        generate_catalog(10, beatles_fraction=2.0)


def test_prices_and_years_in_range():
    for album in generate_catalog(100, seed=3):
        assert 1955 <= album.year <= 1998
        assert 5.0 <= album.price <= 25.0
        assert all(0.0 <= c <= 1.0 for c in album.cover_color)


def test_engine_answers_the_papers_query():
    catalog = generate_catalog(300, seed=4)
    engine = build_store(catalog)
    query = Atomic("Artist", "Beatles") & Atomic("AlbumColor", "red")
    result = engine.top_k(query, 5)
    beatles_ids = {a.album_id for a in catalog if a.artist == "Beatles"}
    for item in result.answers:
        if item.grade > 0:
            assert item.object_id in beatles_ids


def test_engine_color_lists_are_graded_by_closeness():
    catalog = generate_catalog(100, seed=5)
    engine = build_store(catalog)
    source = engine.bind(Atomic("AlbumColor", "red"))
    by_id = {a.album_id: a for a in catalog}
    graded = source.as_graded_set()
    items = list(graded)
    # the best-ranked album is redder than the worst-ranked one
    reddest = by_id[items[0].object_id].cover_color
    least = by_id[items[-1].object_id].cover_color
    assert reddest[0] - max(reddest[1], reddest[2]) > least[0] - max(
        least[1], least[2]
    ) - 0.5


def test_custom_query_colors():
    engine = build_store(generate_catalog(50, seed=6), query_colors=("purple",))
    assert engine.bind(Atomic("AlbumColor", "purple"))
    from repro.errors import PlanError

    with pytest.raises(PlanError):
        engine.bind(Atomic("AlbumColor", "red"))


def test_a_two_atom_ta_over_the_store_never_enters_the_per_row_loop(monkeypatch):
    # the store's bindings are columnar, so TA's round gathers their
    # probe grades by code and charges them after the stop; it never
    # takes the charged per-row probes a wrapped binding gets
    from repro.core.planner import Strategy
    from repro.core.sources import GradedSource

    engine = build_store(generate_catalog(600, seed=6))
    probes = []
    probe = GradedSource.random_access_many

    def spy(self, object_ids):
        probes.append(self.name)
        return probe(self, object_ids)

    monkeypatch.setattr(GradedSource, "random_access_many", spy)
    query = Atomic("AlbumColor", "red") & Atomic("AlbumColor", "blue")
    result = engine.top_k(query, 10, prefer=Strategy.THRESHOLD)
    assert result.algorithm == "threshold-ta"
    assert result.sorted_depth > 0
    assert result.cost.random_access_cost > 0
    assert probes == []
