"""Invalidation: a mutated source is never answered from the cache.

Three invalidation paths, each ending in a verified-fresh re-answer:

* the explicit hooks — ``engine.invalidate()`` wholesale and per-atom
  (the contract after mutating a subsystem's data);
* reconfiguration — ``configure_storage`` / ``configure_resilience``
  rebuild every binding, so entries pinned to the old bindings die;
* the fingerprint path — a memmap entry revalidates against the
  on-disk manifest at probe time, so a rebuilt directory reads as
  stale even when the engine was never told.
"""

import os

from repro.core.planner import Strategy
from repro.core.query import Atomic
from repro.storage.memmap import MANIFEST_NAME

from tests.cache.helpers import answer_pairs, conjunction, engine_from_table
from tests.cache.test_cache_matrix import M, make_table

QUERY = conjunction(M)


def filled_engine(**kwargs):
    engine = engine_from_table(make_table(), M, **kwargs)
    cache = engine.configure_cache()
    fill = engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
    return engine, cache, fill


def test_wholesale_invalidate_forces_a_fresh_run():
    engine, cache, fill = filled_engine()
    assert (engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
            .extras["cache"]["tier"]) == "exact"
    engine.invalidate()
    assert cache.stats()["entries"] == 0
    assert cache.stats()["invalidations"] == 1
    refill = engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
    assert "cache" not in refill.extras
    assert answer_pairs(refill) == answer_pairs(fill)


def test_per_atom_invalidate_only_drops_touching_entries():
    engine, cache, _ = filled_engine()
    other = Atomic("c1", "x")  # single-atom query: a second entry
    engine.top_k(other, k=5, prefer=Strategy.NRA)
    assert cache.stats()["entries"] == 2

    engine.invalidate(Atomic("c0", "x"))
    # The conjunction touches c0 and dies; the c1-only entry survives.
    assert cache.stats()["entries"] == 1
    assert (engine.top_k(other, k=5, prefer=Strategy.NRA)
            .extras["cache"]["tier"]) == "exact"
    assert "cache" not in engine.top_k(QUERY, k=10, prefer=Strategy.NRA).extras


def test_storage_reconfiguration_clears_the_cache():
    engine, cache, fill = filled_engine()
    engine.configure_storage("array", shards=2)
    assert cache.stats()["entries"] == 0
    refill = engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
    assert "cache" not in refill.extras
    assert answer_pairs(refill) == answer_pairs(fill)


def test_memmap_manifest_change_reads_as_stale(tmp_path):
    engine, cache, fill = filled_engine(
        backend="memmap", directory=str(tmp_path)
    )
    assert (engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
            .extras["cache"]["tier"]) == "exact"

    # Rebuild-in-place: same bindings, but the on-disk manifest moved.
    # The fingerprint recorded at fill time no longer matches, so the
    # probe evicts instead of serving.
    for directory, _, files in os.walk(tmp_path):
        if MANIFEST_NAME in files:
            manifest = os.path.join(directory, MANIFEST_NAME)
            stamp = os.stat(manifest).st_mtime_ns + 10_000_000
            os.utime(manifest, ns=(stamp, stamp))

    result, status = engine.cache_probe(QUERY, 10, prefer=Strategy.NRA)
    assert result is None and status == "stale"
    assert cache.stats()["stale"] >= 1
    assert cache.stats()["entries"] == 0

    refill = engine.top_k(QUERY, k=10, prefer=Strategy.NRA)
    assert "cache" not in refill.extras
    assert answer_pairs(refill) == answer_pairs(fill)


def test_engine_close_drops_entries():
    engine, cache, _ = filled_engine()
    engine.close()
    assert cache.stats()["entries"] == 0
