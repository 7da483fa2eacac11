"""Build one graded column through the storage builder, for tests."""

import numpy as np

from repro.storage import ShardedSource, build_sources, hash_router


def column_source(
    column, *, name="col", backend="array", shards=1, directory=None, merge_block=None
):
    """``column`` (``{id: grade}``) as one source built by
    :func:`repro.storage.build_sources`.

    With ``merge_block`` the built shards are re-wrapped in a
    :class:`ShardedSource` merging that many items per shard and round
    — one shard, routed by ``hash_router(1)``, when ``shards`` is 1.
    """
    ids = list(column)
    grades = np.array([column[i] for i in ids], dtype=np.float64).reshape(-1, 1)
    (source,) = build_sources(
        ids, grades, [name], backend=backend, shards=shards, directory=directory
    )
    if merge_block is None:
        return source
    if isinstance(source, ShardedSource):
        return ShardedSource(
            source.shards, name=name, router=source._router, merge_block=merge_block
        )
    return ShardedSource(
        [source], name=name, router=hash_router(1), merge_block=merge_block
    )
