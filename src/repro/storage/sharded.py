"""Scatter-gather graded lists: K physical shards behind one source.

ROADMAP item 3's path to distribution: a :class:`ShardedSource` is a
:class:`~repro.core.sources.GradedSource` whose objects are
hash-partitioned across K physical shard sources (any backend — list,
array, memmap, even nested sharded).  Fagin–Lotem–Naor's optimality
results hold over the *abstract* sorted/random access model, so as long
as the merged cursor preserves exact grade order and exact accounting,
every algorithm keeps its guarantees while the physical layer changes
underneath.

Sorted access is an exact K-way grade-order merge.  Rather than a
per-item heap, the merge is columnar and batched: each shard's sorted
prefix is *peeked* (free, side-effect-free) into a per-shard buffer of
at least ``merge_block`` items, and one
:func:`~repro.kernels.merge_sorted_shard_blocks` lexsort — the same
``(-grade, str(id))`` key every ordering in the repo uses — merges the
buffers.  The merged prefix is only committed up to the *emit
threshold*: the smallest last-buffered key among shards that still have
unpeeked items, since any deeper position could still be preempted by
an unseen item.  The threshold shard's whole buffer commits each round,
so every round makes at least ``merge_block`` progress.  Committed
positions record their owning shard, which is what rolls charged sorted
accesses down to per-shard counters exactly.

Random access hash-routes to the owning shard in O(1) via the
partitioner's router (:func:`hash_router` — crc32, not Python's
randomized ``hash``); sources assembled from pre-existing shards
without a router fall back to probing shards in order.  Charges land on
the sharded source's own counter (the one algorithms and
:class:`~repro.core.cost.CostReport` see), and are *attributed* to the
owning shard's counter through the
:meth:`~repro.core.sources.GradedSource._attribute_random` hook, so::

    sum(shard.counter) == sharded.counter      (per access mode)

holds at every instant — the invariant the storage conformance suite
checks, and what EXPLAIN's shard breakdown reports.

``prefetch_sorted`` extends the merged prefix ahead of consumption and
is the scatter-gather parallelism hook: shard refills are fanned out on
a :class:`~repro.parallel.ParallelAccessExecutor` (each refill is a
pure read; buffer mutation happens on the coordinating thread after the
fan-out joins), so a memmap-backed shard set faults its pages in
concurrently.  Implicit refills during consumption run serial — they
can be triggered from inside another fan-out's worker thread, where
nesting on the same pool could deadlock.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.graded import GradedItem, GradedSet, ObjectId
from repro.core.sources import GradedSource, _fast_item
from repro.errors import AccessError, UnknownObjectError
from repro.kernels import merge_sorted_shard_blocks
from repro.parallel import fan_out, raise_first_error

#: default per-shard buffer target for one merge round
DEFAULT_MERGE_BLOCK = 1024


def hash_router(shard_count: int) -> Callable[[ObjectId], int]:
    """Deterministic object→shard routing: ``crc32(str(id)) % K``.

    crc32 (not Python's ``hash``, which is randomized per process for
    strings) makes the placement stable across processes and sessions,
    so a partition written to disk today routes identically tomorrow.
    """
    if shard_count < 1:
        raise AccessError(f"shard_count must be >= 1, got {shard_count}")

    def route(object_id: ObjectId) -> int:
        return zlib.crc32(str(object_id).encode("utf-8")) % shard_count

    route.shard_count = shard_count
    return route


class ShardedSource(GradedSource):
    """One logical graded list scattered over K physical shards.

    ``shards`` are sources over *disjoint* object sets that together
    form the logical list; ``router`` (optional) maps an object id to
    its owning shard index for O(1) random access.  Use
    :meth:`partition` to build both consistently from one graded
    collection.

    The source is columnar (``supports_columnar``): the merged prefix
    lives in growing id/grade/shard columns, so the vector kernels read
    it exactly as they read an :class:`~repro.core.sources.ArraySource`.
    Shards of any backend work — the merge peeks them through their own
    free bulk paths.
    """

    supports_columnar = True

    def __init__(
        self,
        shards: Sequence[GradedSource],
        name: str = "sharded",
        *,
        router: Optional[Callable[[ObjectId], int]] = None,
        merge_block: int = DEFAULT_MERGE_BLOCK,
    ) -> None:
        if not shards:
            raise AccessError("ShardedSource requires at least one shard")
        if merge_block < 1:
            raise AccessError(f"merge_block must be >= 1, got {merge_block}")
        super().__init__(name)
        self._shards: List[GradedSource] = list(shards)
        self._router = router
        self._merge_block = merge_block
        self.supports_random_access = all(
            shard.supports_random_access for shard in self._shards
        )
        self.is_boolean = all(shard.is_boolean for shard in self._shards)
        self._total = sum(len(shard) for shard in self._shards)
        # merged prefix: parallel columns in canonical global order
        self._m_ids: List[ObjectId] = []
        self._m_grades = _np.empty(max(merge_block, 16), dtype=_np.float64)
        self._m_shard = _np.empty(max(merge_block, 16), dtype=_np.intp)
        self._m_count = 0
        # per-shard peek state: buffered-but-uncommitted prefix tails
        count = len(self._shards)
        self._peeked = [0] * count
        self._buf_ids: List[List[ObjectId]] = [[] for _ in range(count)]
        self._buf_strs: List[Optional[object]] = [None] * count
        self._buf_grades: List[Optional[object]] = [None] * count
        self._no_more = [len(shard) == 0 for shard in self._shards]
        self._done = self._total == 0

    # -- introspection ---------------------------------------------------------
    @property
    def shards(self) -> Tuple[GradedSource, ...]:
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard size and attributed access tallies (for EXPLAIN and
        trace shard breakdowns)."""
        return [
            {
                "shard": shard.name,
                "n": len(shard),
                "sorted": shard.counter.sorted_accesses,
                "random": shard.counter.random_accesses,
            }
            for shard in self._shards
        ]

    def close(self) -> None:
        """Close every physical shard that exposes ``close()``.

        Memmap shards release their mapped columns; in-RAM shards have
        nothing to release.  Idempotent, like the shard closes it
        forwards to.
        """
        for shard in self._shards:
            closer = getattr(shard, "close", None)
            if callable(closer):
                closer()

    # -- construction ----------------------------------------------------------
    @classmethod
    def partition(
        cls,
        items: Union[GradedSet, Mapping[ObjectId, float], Iterable[Tuple[ObjectId, float]]],
        shard_count: int,
        *,
        name: str = "sharded",
        backend: str = "array",
        directory: Optional[str] = None,
        merge_block: int = DEFAULT_MERGE_BLOCK,
    ) -> "ShardedSource":
        """Hash-partition one graded collection into ``shard_count``
        shards of the chosen backend and wrap them.

        The router used to scatter is the router kept for random-access
        gather, so the two can never disagree.  ``backend='memmap'``
        writes each shard under ``directory`` (required in that case).
        """
        from repro.storage import _build_backend_source

        if isinstance(items, GradedSet):
            mapping: Dict[ObjectId, float] = items.as_dict()
        elif isinstance(items, Mapping):
            mapping = dict(items)
        else:
            mapping = dict(items)
        router = hash_router(shard_count)
        ids_by_shard: List[List[ObjectId]] = [[] for _ in range(shard_count)]
        grades_by_shard: List[List[float]] = [[] for _ in range(shard_count)]
        for object_id, grade in mapping.items():
            shard = router(object_id)
            ids_by_shard[shard].append(object_id)
            grades_by_shard[shard].append(grade)
        shards = [
            _build_backend_source(
                ids_by_shard[index],
                grades_by_shard[index],
                f"{name}.s{index}",
                backend=backend,
                directory=None if directory is None else directory,
                subdir=f"shard{index}",
            )
            for index in range(shard_count)
        ]
        return cls(shards, name=name, router=router, merge_block=merge_block)

    # -- K-way merge -----------------------------------------------------------
    def _fetch_shard(self, index: int, want: int):
        """Peek the next ``want`` unbuffered items of one shard (pure)."""
        shard = self._shards[index]
        position = self._peeked[index]
        shard.prefetch_sorted(position + want)
        hook = getattr(shard, "_columns_range", None)
        if hook is not None:
            ids, grades = hook(position, want)
            grades = _np.asarray(grades, dtype=_np.float64)
        else:
            items = shard._peek_range(position, want)
            ids = [item.object_id for item in items]
            grades = _np.asarray(
                [item.grade for item in items], dtype=_np.float64
            )
        strs = _np.asarray([str(object_id) for object_id in ids]) if ids else None
        return ids, strs, grades

    def _merge_round(self, executor=None) -> None:
        """Refill shard buffers (optionally fanned out) and commit the
        provably-final merged prefix."""
        if self._done:
            return
        block = self._merge_block
        needy = [
            index
            for index in range(len(self._shards))
            if not self._no_more[index] and len(self._buf_ids[index]) < block
        ]
        if needy:
            wants = [block - len(self._buf_ids[index]) for index in needy]
            outcomes = fan_out(
                executor,
                [
                    (lambda i=index, w=want: self._fetch_shard(i, w))
                    for index, want in zip(needy, wants)
                ],
            )
            raise_first_error(outcomes)
            for index, want, outcome in zip(needy, wants, outcomes):
                ids, strs, grades = outcome.value
                if ids:
                    self._peeked[index] += len(ids)
                    if self._buf_ids[index]:
                        self._buf_ids[index].extend(ids)
                        self._buf_strs[index] = _np.concatenate(
                            [self._buf_strs[index], strs]
                        )
                        self._buf_grades[index] = _np.concatenate(
                            [self._buf_grades[index], grades]
                        )
                    else:
                        self._buf_ids[index] = list(ids)
                        self._buf_strs[index] = strs
                        self._buf_grades[index] = grades
                if len(ids) < want:
                    self._no_more[index] = True

        participating = [
            index for index in range(len(self._shards)) if self._buf_ids[index]
        ]
        if not participating:
            self._done = True
            return
        merged_ids, merged_grades, block_of = merge_sorted_shard_blocks(
            [self._buf_ids[index] for index in participating],
            [self._buf_strs[index] for index in participating],
            [self._buf_grades[index] for index in participating],
        )
        shard_of = _np.asarray(participating, dtype=_np.intp)[block_of]
        # Emit threshold: the smallest last-buffered key among shards
        # with unpeeked items — anything at or above it is final.
        active = [index for index in participating if not self._no_more[index]]
        if active:
            threshold_shard = min(
                active,
                key=lambda index: (
                    -float(self._buf_grades[index][-1]),
                    str(self._buf_strs[index][-1]),
                ),
            )
            positions = _np.nonzero(shard_of == threshold_shard)[0]
            cutoff = int(positions[-1]) + 1
        else:
            cutoff = len(merged_ids)
        self._append_merged(
            merged_ids[:cutoff], merged_grades[:cutoff], shard_of[:cutoff]
        )
        taken = _np.bincount(shard_of[:cutoff], minlength=len(self._shards))
        for index in participating:
            consumed = int(taken[index])
            if consumed:
                # Committed entries are exactly the buffer's prefix:
                # within a shard the canonical key strictly increases.
                self._buf_ids[index] = self._buf_ids[index][consumed:]
                self._buf_strs[index] = self._buf_strs[index][consumed:]
                self._buf_grades[index] = self._buf_grades[index][consumed:]
        if not active and not any(self._buf_ids):
            self._done = True

    def _append_merged(self, ids: List[ObjectId], grades, shard_of) -> None:
        added = len(ids)
        if not added:
            return
        needed = self._m_count + added
        capacity = self._m_grades.shape[0]
        if needed > capacity:
            new_capacity = max(needed, capacity * 2)
            grown_grades = _np.empty(new_capacity, dtype=_np.float64)
            grown_grades[: self._m_count] = self._m_grades[: self._m_count]
            self._m_grades = grown_grades
            grown_shard = _np.empty(new_capacity, dtype=_np.intp)
            grown_shard[: self._m_count] = self._m_shard[: self._m_count]
            self._m_shard = grown_shard
        self._m_grades[self._m_count : needed] = grades
        self._m_shard[self._m_count : needed] = shard_of
        self._m_ids.extend(ids)
        self._m_count = needed

    def _extend_merged(self, depth: int, executor=None) -> None:
        while self._m_count < depth and not self._done:
            self._merge_round(executor)

    # -- sorted access ---------------------------------------------------------
    def _item_at(self, index: int) -> Optional[GradedItem]:
        if index < 0 or index >= self._total:
            return None
        self._extend_merged(index + 1)
        return _fast_item(self._m_ids[index], float(self._m_grades[index]))

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        self._extend_merged(start + count)
        stop = min(start + count, self._m_count)
        if start >= stop:
            return []
        grades = self._m_grades[start:stop].tolist()
        return [
            _fast_item(object_id, grade)
            for object_id, grade in zip(self._m_ids[start:stop], grades)
        ]

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        # Peeks only grow the internal merge cache (the BatchedSource
        # precedent: cache growth is not a side effect callers observe).
        return self._items_range(start, count)

    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        self._extend_merged(start + count)
        stop = min(start + count, self._m_count)
        if start >= stop:
            return [], _np.empty(0)
        return self._m_ids[start:stop], self._m_grades[start:stop]

    # -- random access ---------------------------------------------------------
    def _route(self, object_id: ObjectId) -> Optional[int]:
        if self._router is None:
            return None
        shard = self._router(object_id)
        if not 0 <= shard < len(self._shards):
            raise AccessError(
                f"source {self.name!r}: router sent {object_id!r} to shard "
                f"{shard}, which does not exist"
            )
        return shard

    def _find_owner(self, object_id: ObjectId) -> Optional[int]:
        """Owning shard index by (free) probing, routerless fallback."""
        for index, shard in enumerate(self._shards):
            try:
                shard._grade_of(object_id)
            except UnknownObjectError:
                continue
            return index
        return None

    def _grade_of(self, object_id: ObjectId) -> float:
        shard = self._route(object_id)
        if shard is not None:
            try:
                return self._shards[shard]._grade_of(object_id)
            except UnknownObjectError:
                pass
        else:
            owner = self._find_owner(object_id)
            if owner is not None:
                return self._shards[owner]._grade_of(object_id)
        raise UnknownObjectError(
            f"source {self.name!r} holds no object {object_id!r}"
        )

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        ids = list(object_ids)
        if self._router is None:
            return {object_id: self._grade_of(object_id) for object_id in ids}
        by_shard: Dict[int, List[ObjectId]] = {}
        for object_id in ids:
            by_shard.setdefault(self._route(object_id), []).append(object_id)
        gathered: Dict[ObjectId, float] = {}
        for shard, members in by_shard.items():
            try:
                gathered.update(self._shards[shard]._grades_of_many(members))
            except UnknownObjectError:
                # re-probe one by one so the error names the missing id
                # with the logical source's name, not the shard's
                for object_id in members:
                    gathered[object_id] = self._grade_of(object_id)
        # request order, like every other backend's bulk form
        return {object_id: gathered[object_id] for object_id in ids}

    # -- accounting attribution ------------------------------------------------
    def _attribute_sorted(self, start: int, count: int) -> None:
        self._extend_merged(start + count)
        stop = min(start + count, self._m_count)
        if start >= stop:
            return
        taken = _np.bincount(
            self._m_shard[start:stop], minlength=len(self._shards)
        )
        for index, consumed in enumerate(taken.tolist()):
            if consumed:
                self._shards[index].counter.record_sorted(consumed)

    def _attribute_random(self, object_ids: Sequence[ObjectId]) -> None:
        counts: Dict[int, int] = {}
        for object_id in object_ids:
            shard = self._route(object_id)
            if shard is None:
                shard = self._find_owner(object_id)
            if shard is not None:
                counts[shard] = counts.get(shard, 0) + 1
        for shard, probes in counts.items():
            self._shards[shard].counter.record_random(probes)

    # -- hints -----------------------------------------------------------------
    def prefetch_sorted(self, depth: int, *, executor=None) -> None:
        """Extend the merged prefix to ``depth``, fanning per-shard
        refills (and each shard's own prefetch) out on ``executor``.

        This is the scatter-gather parallel path: refills are pure reads
        joined before any buffer mutation, so it is safe under a real
        thread pool — but only when driven from the coordinating thread
        (nested fan-outs on one pool can deadlock, hence implicit
        refills during consumption stay serial).
        """
        self._extend_merged(min(depth, self._total), executor)

    # -- conveniences ----------------------------------------------------------
    def __len__(self) -> int:
        return self._total
