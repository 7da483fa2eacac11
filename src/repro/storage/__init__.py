"""Physical storage backends behind the :class:`GradedSource` seam.

The paper's access model (sorted access + random access, section 4) is
deliberately abstract about the physical layer; this package provides
the out-of-core and scatter-gather implementations ROADMAP item 3 calls
for, behind the exact same seam the in-RAM backends use:

* :class:`~repro.storage.memmap.MemmapSource` — numpy-memmap columnar
  graded lists on disk (build/open/verify tooling in the same module);
* :class:`~repro.storage.sharded.ShardedSource` — one logical list over
  K physical shards with an exact K-way grade-order merge and
  hash-routed random access, per-shard accounting rolled up exactly.

:func:`build_column_sources` is the factory behind
:func:`repro.core.sources.sources_from_columns` ``backend=``/``shards=``
selection; it shares one hash assignment across all m columns so every
column partitions identically.  Conformance bar for everything here:
answers, tie-breaks, charged access counts, and traces byte-identical
across backends, shard counts, and worker counts.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as _np

from repro.core.graded import ObjectId
from repro.core.sources import (
    BACKEND_CHOICES,
    ArraySource,
    GradedSource,
    ListSource,
    iter_wrapper_chain,
)
from repro.errors import AccessError, GradeError, StorageError
from repro.storage.memmap import (
    MemmapSource,
    build_from_items,
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
    "build_column_sources",
    "build_from_items",
    "build_memmap",
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


def _build_backend_source(
    object_ids: Sequence[ObjectId],
    grades,
    name: str,
    *,
    backend: str,
    directory: Optional[str],
    subdir: str,
) -> GradedSource:
    """One physical source of the chosen backend over parallel columns."""
    if backend == "array":
        return ArraySource.from_arrays(list(object_ids), grades, name=name)
    if backend == "list":
        values = grades.tolist() if hasattr(grades, "tolist") else list(grades)
        return ListSource(dict(zip(object_ids, values)), name=name)
    if backend == "memmap":
        if directory is None:
            raise StorageError(
                "the memmap backend needs a directory to build into"
            )
        return build_memmap(
            os.path.join(directory, subdir), object_ids, grades, name=name
        )
    raise AccessError(
        f"unknown source backend {backend!r}; use " + ", ".join(BACKEND_CHOICES)
    )


def build_column_sources(
    grades_by_object: Mapping[ObjectId, Sequence[float]],
    labels: Sequence[str],
    *,
    backend: str = "array",
    shards: int = 1,
    directory: Optional[str] = None,
) -> List[GradedSource]:
    """Build one source per grade column on the chosen physical backend.

    The storage-aware sibling of the array/list paths in
    :func:`repro.core.sources.sources_from_columns` (which delegates
    here exactly when ``backend='memmap'`` or ``shards > 1``).  With
    ``shards > 1`` every column is hash-partitioned with the *same*
    router and assignment, then wrapped in a
    :class:`~repro.storage.sharded.ShardedSource` per column.

    ``directory`` roots the on-disk layout for the memmap backend
    (``<directory>/<column>/[shard<i>/]``); when omitted a temporary
    directory is created and owned by the returned sources — it lives
    exactly as long as they do.
    """
    if backend not in BACKEND_CHOICES:
        raise AccessError(
            f"unknown source backend {backend!r}; use "
            + ", ".join(BACKEND_CHOICES)
        )
    if shards < 1:
        raise AccessError(f"shards must be >= 1, got {shards}")
    m = len(labels)
    if m == 0:
        return []
    objects = list(grades_by_object.keys())
    try:
        matrix = _np.asarray(
            [grades_by_object[obj] for obj in objects], dtype=_np.float64
        )
    except (TypeError, ValueError) as exc:
        raise GradeError(f"grades must be real numbers: {exc}") from exc
    owned = None
    if backend == "memmap" and directory is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-storage-")
        directory = owned.name

    sources: List[GradedSource] = []
    if shards == 1:
        for index, label in enumerate(labels):
            sources.append(
                _build_backend_source(
                    objects,
                    matrix[:, index] if objects else _np.empty(0),
                    label,
                    backend=backend,
                    directory=directory,
                    subdir=_safe_subdir(label, index),
                )
            )
    else:
        # One assignment for all columns: every column scatters the same
        # object to the same shard index, so cross-column joins (the
        # algorithms' random-access phase) always route consistently.
        router = hash_router(shards)
        ids_by_shard: List[List[ObjectId]] = [[] for _ in range(shards)]
        rows_by_shard: List[List[int]] = [[] for _ in range(shards)]
        for row, object_id in enumerate(objects):
            shard = router(object_id)
            ids_by_shard[shard].append(object_id)
            rows_by_shard[shard].append(row)
        row_index = [
            _np.asarray(rows, dtype=_np.intp) for rows in rows_by_shard
        ]
        for index, label in enumerate(labels):
            shard_sources = [
                _build_backend_source(
                    ids_by_shard[shard],
                    matrix[row_index[shard], index]
                    if objects
                    else _np.empty(0),
                    f"{label}.s{shard}",
                    backend=backend,
                    directory=directory,
                    subdir=os.path.join(
                        _safe_subdir(label, index), f"shard{shard}"
                    ),
                )
                for shard in range(shards)
            ]
            sources.append(
                ShardedSource(shard_sources, name=label, router=router)
            )
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
