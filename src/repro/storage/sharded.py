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
:func:`~repro.kernels.merge_sorted_shard_blocks` — the same
``(-grade, str(id))`` key every ordering in the repo uses — merges the
buffers.  The merged prefix is only committed up to the *emit
threshold*: the smallest last-buffered key among shards that still have
unpeeked items, since any deeper position could still be preempted by
an unseen item.  The threshold shard's whole buffer commits each round,
so every round makes at least ``merge_block`` progress.  Committed
positions record their owning shard, which is what rolls consumed sorted
accesses down to per-shard counters exactly (``_consume``).

Random access hash-routes to the owning shard in O(1) via the router
the columns were scattered with (:func:`hash_router` — crc32, not Python's
randomized ``hash``); sources assembled from pre-existing shards
without a router fall back to probing shards in order.  Charges land on
the sharded source's own counter (the one algorithms and
:class:`~repro.core.cost.CostReport` see), and are *attributed* to the
owning shard's counter through the
:meth:`~repro.core.sources.GradedSource._attribute_random` hook, so::

    sum(shard.counter) == sharded.counter      (per access mode)

holds at every instant — the invariant the storage conformance suite
checks, and what EXPLAIN's shard breakdown reports.

TA's bulk round goes by object code instead.  When every shard is a
memmap (which stores its codes: code = lookup row), the sharded source's code
is the shard's offset plus the shard's code, so one ``searchsorted``
over the K+1 offsets names each code's shard.  The merge carries the
codes next to the ids, a window of the merged list is a slice of them,
a random probe is one gather per shard, and probe attribution is a
``bincount`` over the owning shards: no router runs in that round.
Lists partitioned alike (equal shard fingerprints, in shard order)
share their codes; any other set codes ids per run and routes them as
above.  The router is consulted only by id: a router that disagrees
with where an object actually lies makes id-shaped random access
report it unknown, while the coded round reads it from the shard that
holds it.

Shard refills run serially, on whichever thread reads the source.  The
algorithms' cross-list fan-out may read different lists on different
threads, but never nests a fan-out inside one list; concurrent queries
reading the *same* list serialize on its merge lock.
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, WrapperSource
from repro.errors import AccessError, UnknownObjectError
from repro.kernels import ColumnCodes, merge_sorted_shard_blocks

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
    its owning shard index for O(1) random access.
    :func:`repro.storage.build_sources` builds both consistently from
    graded columns.

    The merged prefix lives in growing id/grade/shard columns, so the
    algorithms read it exactly as they read an
    :class:`~repro.core.sources.ArraySource`.  Shards of any backend
    work — the merge peeks them through their own free bulk paths.  The
    source is columnar (``supports_columnar``) unless a shard is a
    wrapper: over columnar sets TA gathers probe grades ahead of
    charging, which a wrapper's side effects (faults, retries, tracing)
    must not see, so a wrapped shard makes TA probe row by row, charged.
    """

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
        self.supports_columnar = not any(
            isinstance(shard, WrapperSource) for shard in self._shards
        )
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
        self._buf_grades: List[Optional[object]] = [None] * count
        self._no_more = [len(shard) == 0 for shard in self._shards]
        self._done = self._total == 0
        # concurrent queries may read one binding from several threads
        self._merge_lock = threading.Lock()
        # Stored codes, one column per shard: None unless every shard is
        # a single stored column (a memmap)
        stored = [shard._stored_codes() for shard in self._shards]
        self._stored: Optional[ColumnCodes] = None
        self._m_codes = None
        if all(codes is not None and len(codes.columns) == 1 for codes in stored):
            self._stored = ColumnCodes(
                sum((codes.fingerprint for codes in stored), ()),
                [codes.columns[0] for codes in stored],
            )
            self._m_codes = _np.empty(self._m_grades.shape[0], dtype=_np.int32)

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

    # -- K-way merge -----------------------------------------------------------
    def _merge_round(self) -> None:
        """Refill shard buffers and commit the provably-final merged
        prefix."""
        if self._done:
            return
        block = self._merge_block
        for index, shard in enumerate(self._shards):
            want = block - len(self._buf_ids[index])
            if self._no_more[index] or want <= 0:
                continue
            # a peek: free and side-effect-free on the shard
            ids, grades = shard._columns_range(self._peeked[index], want)
            if ids:
                self._peeked[index] += len(ids)
                if self._buf_ids[index]:
                    self._buf_ids[index].extend(ids)
                    self._buf_grades[index] = _np.concatenate(
                        [self._buf_grades[index], grades]
                    )
                else:
                    self._buf_ids[index] = list(ids)
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
                    str(self._buf_ids[index][-1]),
                ),
            )
            positions = _np.nonzero(shard_of == threshold_shard)[0]
            cutoff = int(positions[-1]) + 1
        else:
            cutoff = len(merged_ids)
        taken = _np.bincount(shard_of[:cutoff], minlength=len(self._shards))
        self._append_merged(
            merged_ids[:cutoff], merged_grades[:cutoff], shard_of[:cutoff], taken
        )
        for index in participating:
            consumed = int(taken[index])
            if consumed:
                # Committed entries are exactly the buffer's prefix:
                # within a shard the canonical key strictly increases.
                self._buf_ids[index] = self._buf_ids[index][consumed:]
                self._buf_grades[index] = self._buf_grades[index][consumed:]
        if not active and not any(self._buf_ids):
            self._done = True

    def _append_merged(self, ids: List[ObjectId], grades, shard_of, taken) -> None:
        """Commit merged positions: ``taken[s]`` of them from shard ``s``,
        each the next of that shard's buffered prefix."""
        added = len(ids)
        if not added:
            return
        needed = self._m_count + added
        capacity = self._m_grades.shape[0]
        if needed > capacity:
            new_capacity = max(needed, capacity * 2)
            self._m_grades = _grown(self._m_grades, self._m_count, new_capacity)
            self._m_shard = _grown(self._m_shard, self._m_count, new_capacity)
            if self._m_codes is not None:
                self._m_codes = _grown(self._m_codes, self._m_count, new_capacity)
        self._m_grades[self._m_count : needed] = grades
        self._m_shard[self._m_count : needed] = shard_of
        if self._m_codes is not None:
            codes = self._m_codes[self._m_count : needed]
            for index, count in enumerate(taken.tolist()):
                if count:
                    shard = self._shards[index]
                    start = self._peeked[index] - len(self._buf_ids[index])
                    shard_codes, _ = shard._codes_range(shard._stored_codes(), start, count)
                    codes[shard_of == index] = shard_codes + self._stored.offsets[index]
        self._m_ids.extend(ids)
        self._m_count = needed

    def _extend_merged(self, depth: int) -> None:
        while self._m_count < depth and not self._done:
            self._merge_round()

    # -- sorted access ---------------------------------------------------------
    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        # Reads only grow the internal merge cache, which no caller
        # observes: the merged prefix is the same whoever extends it.
        with self._merge_lock:
            self._extend_merged(start + count)
            stop = min(start + count, self._m_count)
            if start >= stop:
                return [], _np.empty(0)
            return self._m_ids[start:stop], self._m_grades[start:stop]

    def _codes_range(self, codes, start: int, count: int):
        if not self._owns_codes(codes):
            return super()._codes_range(codes, start, count)
        with self._merge_lock:
            self._extend_merged(start + count)
            stop = min(start + count, self._m_count)
            if start >= stop:
                return _np.empty(0, dtype=_np.int32), _np.empty(0)
            return self._m_codes[start:stop], self._m_grades[start:stop]

    def _consume(self, start: int, count: int) -> None:
        """Attribute the delivered positions to their owning shards."""
        if count:
            taken = _np.bincount(
                self._m_shard[start : start + count], minlength=len(self._shards)
            )
            for index, consumed in enumerate(taken.tolist()):
                if consumed:
                    self._shards[index].counter.record_sorted(consumed)

    # -- random access ---------------------------------------------------------
    def _stored_codes(self) -> Optional[ColumnCodes]:
        return self._stored

    def _grades_of_codes(self, codes, coded):
        if not self._owns_codes(codes):
            return super()._grades_of_codes(codes, coded)
        owners = self._stored.owners(coded)
        grades = _np.empty(len(coded))
        for index, shard in enumerate(self._shards):
            positions = _np.flatnonzero(owners == index)
            if positions.size:
                grades[positions] = shard._grades_of_codes(
                    shard._stored_codes(), coded[positions] - self._stored.offsets[index]
                )
        return grades

    def _record_random_probes(self, codes, coded) -> None:
        if not self._owns_codes(codes):
            return super()._record_random_probes(codes, coded)
        if len(coded):
            self.counter.record_random(len(coded))
            self._tally_random(self._stored.owners(coded))

    def _owners(self, ids: List[ObjectId]):
        """The owning shard of each id (an intp array): the router's
        pick, or, without a router, the first shard that holds it (-1
        when none does)."""
        if self._router is None:
            return _np.array([self._probe_owner(object_id) for object_id in ids], dtype=_np.intp)
        owners = _np.fromiter(map(self._router, ids), dtype=_np.intp, count=len(ids))
        bad = (owners < 0) | (owners >= len(self._shards))
        if bad.any():
            first = int(bad.argmax())
            raise AccessError(
                f"source {self.name!r}: router sent {ids[first]!r} to shard "
                f"{int(owners[first])}, which does not exist"
            )
        return owners

    def _probe_owner(self, object_id: ObjectId) -> int:
        for index, shard in enumerate(self._shards):
            try:
                shard._grades_of_many([object_id])
            except UnknownObjectError:
                continue
            return index
        return -1

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        ids = list(object_ids)
        owners = self._owners(ids)
        grades = _np.empty(len(ids))
        try:
            if (owners < 0).any():
                raise UnknownObjectError()
            for index, shard in enumerate(self._shards):
                positions = _np.flatnonzero(owners == index)
                if positions.size:
                    grades[positions] = shard._grades_of_many(
                        [ids[position] for position in positions.tolist()]
                    )
        except UnknownObjectError:
            # Name the first missing id in request order, under the
            # logical source's name rather than a shard's.
            for object_id, index in zip(ids, owners.tolist()):
                try:
                    if index >= 0:
                        self._shards[index]._grades_of_many([object_id])
                        continue
                except UnknownObjectError:
                    pass
                raise UnknownObjectError(
                    f"source {self.name!r} holds no object {object_id!r}"
                ) from None
        return grades

    # -- accounting attribution ------------------------------------------------
    def _attribute_random(self, object_ids: Sequence[ObjectId]) -> None:
        self._tally_random(self._owners(list(object_ids)))

    def _tally_random(self, owners) -> None:
        """Attribute one random probe per entry of ``owners`` (shard
        indexes; -1, an unowned id, attributes nowhere)."""
        taken = _np.bincount(owners[owners >= 0], minlength=len(self._shards))
        for index, probes in enumerate(taken.tolist()):
            if probes:
                self._shards[index].counter.record_random(probes)

    # -- conveniences ----------------------------------------------------------
    def __len__(self) -> int:
        return self._total


def _grown(column, count: int, capacity: int):
    """A ``capacity``-long copy of ``column``'s first ``count`` entries."""
    grown = _np.empty(capacity, dtype=column.dtype)
    grown[:count] = column[:count]
    return grown
