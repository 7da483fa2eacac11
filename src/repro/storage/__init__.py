"""Physical storage backends behind the :class:`GradedSource` seam.

The paper's access model (sorted access + random access, section 4) is
deliberately abstract about the physical layer; this package provides
the out-of-core and scatter-gather implementations ROADMAP item 3 calls
for, behind the exact same seam the in-RAM backends use:

* :class:`~repro.storage.memmap.MemmapSource` — numpy-memmap columnar
  graded lists on disk (build/open/verify tooling in the same module);
* :class:`~repro.storage.sharded.ShardedSource` — one logical list over
  K physical shards with an exact K-way grade-order merge and
  hash-routed random access by id (by stored object code in TA's bulk
  round), per-shard accounting rolled up exactly.

:func:`build_sources` is the one place a ``(backend, shards,
directory)`` layout is built: :func:`repro.core.sources.sources_from_columns`
and the engine's bind-time relocation both call it.  It scatters all m
columns with one :func:`hash_router` assignment, so every column
partitions identically.  Conformance bar for everything here:
answers, tie-breaks, charged access counts, and traces byte-identical
across backends, shard counts, and worker counts.  No backend fans out
on its own: a sharded list refills and probes its shards serially on
whichever thread reads it, and the only concurrency is the algorithms'
cross-list fan-out (:mod:`repro.parallel`).
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as _np

from repro.core.graded import ObjectId
from repro.core.sources import (
    BACKEND_CHOICES,
    ArraySource,
    GradedSource,
    iter_wrapper_chain,
)
from repro.errors import AccessError
from repro.storage.memmap import (
    MemmapSource,
    build_memmap,
    build_synthetic_memmap,
    open_memmap,
    verify_memmap,
)
from repro.storage.sharded import ShardedSource, hash_router

__all__ = [
    "BACKEND_CHOICES",
    "MemmapSource",
    "ShardedSource",
    "build_memmap",
    "build_sources",
    "build_synthetic_memmap",
    "describe_source_storage",
    "hash_router",
    "open_memmap",
    "verify_memmap",
]


def _safe_subdir(label: str, index: int) -> str:
    """A filesystem-safe per-column directory name.

    Labels come from query atoms and may contain quotes, spaces, or
    separators; the column index keeps sanitized names unique.
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in label
    )
    return f"{index:02d}-{cleaned}" if cleaned else f"{index:02d}-col"


def build_sources(
    object_ids: Sequence[ObjectId],
    grades,
    labels: Sequence[str],
    *,
    backend: str = "array",
    shards: int = 1,
    directory: Optional[str] = None,
) -> List[GradedSource]:
    """Build one source per column of an ``(n, m)`` grade array.

    The one place a physical layout is decided: ``backend`` picks
    :class:`~repro.core.sources.ArraySource` or
    :class:`~repro.storage.memmap.MemmapSource` columns, and
    ``shards > 1`` scatters every column with *one*
    :func:`hash_router` assignment (so cross-column probes always route
    to the same shard index) behind a
    :class:`~repro.storage.sharded.ShardedSource` per column.  Row ``i``
    of ``grades`` holds ``object_ids[i]``'s grade in every column.

    Memmap columns are written under
    ``<directory>/<NN-label>[/shard<i>]``; when ``directory`` is
    omitted a temporary directory is created and owned by the returned
    sources — it lives exactly as long as they do.
    """
    if backend not in BACKEND_CHOICES:
        raise AccessError(
            f"unknown source backend {backend!r}; use "
            + ", ".join(BACKEND_CHOICES)
        )
    if shards < 1:
        raise AccessError(f"shards must be >= 1, got {shards}")
    ids = list(object_ids)
    matrix = _np.asarray(grades, dtype=_np.float64)
    if matrix.shape != (len(ids), len(labels)):
        raise AccessError(
            f"expected a ({len(ids)}, {len(labels)}) grade array, got shape "
            f"{matrix.shape}"
        )
    owned = None
    if backend == "memmap" and directory is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-storage-")
        directory = owned.name
    router = hash_router(shards)
    if shards == 1:
        parts = [(ids, slice(None))]
    else:
        # one assignment for every column: cross-column probes (the
        # algorithms' random-access phase) always route alike
        rows_by_shard: List[List[int]] = [[] for _ in range(shards)]
        for row, object_id in enumerate(ids):
            rows_by_shard[router(object_id)].append(row)
        parts = [
            ([ids[row] for row in rows], _np.asarray(rows, dtype=_np.intp))
            for rows in rows_by_shard
        ]

    def build(part, column: int, name: str, subdir: str) -> GradedSource:
        part_ids, rows = part
        values = matrix[rows, column]
        if backend == "memmap":
            return build_memmap(
                os.path.join(directory, subdir), part_ids, values, name=name
            )
        return ArraySource.from_arrays(part_ids, values, name=name)

    sources: List[GradedSource] = []
    for column, label in enumerate(labels):
        subdir = _safe_subdir(label, column)
        if shards == 1:
            sources.append(build(parts[0], column, label, subdir))
            continue
        shard_sources = [
            build(part, column, f"{label}.s{shard}", os.path.join(subdir, f"shard{shard}"))
            for shard, part in enumerate(parts)
        ]
        sources.append(ShardedSource(shard_sources, name=label, router=router))
    if owned is not None:
        for source in sources:
            source._owned_tmpdir = owned
    return sources


def describe_source_storage(source: GradedSource) -> Dict[str, object]:
    """Physical-storage summary of a (possibly wrapped) source.

    Walks the wrapper chain to the innermost backend and reports its
    kind, size, and — for sharded sources — the shard layout.  Consumed
    by the planner's plan summary and EXPLAIN's storage section.
    """
    chain = list(iter_wrapper_chain(source))
    inner = chain[-1]
    summary: Dict[str, object] = {
        "source": source.name,
        "backend": type(inner).__name__,
        "n": len(inner),
    }
    if isinstance(inner, ShardedSource):
        summary["shards"] = inner.shard_count
        summary["shard_backends"] = sorted(
            {type(shard).__name__ for shard in inner.shards}
        )
        summary["routed"] = inner._router is not None
    if isinstance(inner, MemmapSource):
        summary["directory"] = inner.directory
    index_stats = getattr(inner, "index_stats", None)
    if index_stats is not None:
        summary["index"] = index_stats()["index"]
    return summary
