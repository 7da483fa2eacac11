"""Semantic top-k result cache.

Production traffic is dominated by repeated and near-duplicate ranked
queries, and the paper's graded model makes reuse principled: the top k
answers under a monotone rule are a *prefix* of the top k' answers for
any k' >= k (exact grades plus the repo's canonical total order — grade
descending, then ``str(object_id)`` ascending — make the ranking
algorithm-independent).  :class:`QueryCache` exploits that in three
tiers:

1. **Exact hit** — a query whose normalized plan and effective k match a
   cached fill replays the stored result: answers, cost report,
   algorithm, and sorted depth byte-identical to the cold run that
   filled the entry, while charging the repositories *zero* actual
   accesses.
2. **Prefix answering** — ``k < k'`` slices the cached top-k'.  The
   entry's certified tau (the k'-th grade recorded at fill time) bounds
   every non-member, so the slice is provably *a* correct top k: its
   grade multiset equals the oracle's exactly.  Which object represents
   a grade tied at the boundary follows the cached run — the paper
   permits arbitrary choice among equals, and cold runs at different k
   exercise that freedom too.  The served cost report is all-zero
   because nothing was touched.
3. **θ-approximate repeats** — a θ > 1 fill's result is stored under
   its own extended key together with its
   :class:`~repro.core.result.ApproximationCertificate`, and a later
   request at the *same k* whose requested θ' is at least the recorded
   *achieved* ratio replays it (the certificate proves the cached
   answers already meet the θ' guarantee).  Same-k only: a prefix of a
   θ-certified set is *not* θ-certified (a strong answer inside the
   prefix proves nothing about the weakly-bounded answers sliced off).
   Exact (θ = 1) entries, by contrast, serve *any* requested θ' through
   the tiers above — exact answers trivially satisfy every θ ≥ 1.

A request deeper than every cached fill is an ordinary miss: it runs
cold — byte-identical to a cache-off run — and its deeper fill replaces
the entry, so the entry then serves both depths.  Continuing a ranking
*within* one query is the cursor's job
(:class:`~repro.core.sources.SortedCursor`), not the cache's.

**Keying.**  Entries are keyed on a normalized plan: the query AST with
children of symmetric connectives (And/Or under a symmetric rule,
Scored over a symmetric scoring function) put into canonical order, the
scoring-rule identity (class + parameter-bearing name), the fuzzy
semantics, and the preferred strategy.  ``A & B`` and ``B & A`` share an
entry under min; a :class:`~repro.core.query.Weighted` query never
reorders (Fagin–Wimmers weights are positional).

**Invalidation.**  Each entry pins its source bindings by identity
(innermost source of each wrapper chain) plus a physical detail
fingerprint — for memmap-backed sources the manifest's mtime and size,
for sharded sources the per-shard details.  A probe revalidates before
serving; any mismatch (engine ``invalidate()``, storage reconfiguration,
a rebuilt memmap directory) evicts the entry and reports ``"stale"``,
never a stale answer.  :meth:`QueryCache.invalidate` is the explicit
hook, per atom or wholesale.

Thread safety: a single lock guards the entry map and counters; entries
are immutable once stored and replaced wholesale, so readers never see
a torn entry.  Concurrent misses on one key fill independently and race
to store (deepest k wins); the duplicate work is bounded by the number
of racing threads and surfaced in the ``fill_races`` counter.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cost import AccessCounter, CostReport
from repro.core.graded import GradedSet
from repro.core.query import And, Atomic, Not, Or, Query, Scored, Weighted
from repro.core.result import TopKResult
from repro.core.sources import GradedSource, iter_wrapper_chain
from repro.scoring.base import FunctionScoring
from repro.scoring.zadeh import FuzzySemantics

__all__ = [
    "QueryCache",
    "CacheEntry",
    "SourceFingerprint",
    "plan_key",
    "key_digest",
    "fingerprint",
]


# ----------------------------------------------------------------------
# Plan normalization
# ----------------------------------------------------------------------
def _rule_identity(rule) -> Tuple:
    """A hashable identity for a scoring rule.

    Catalog rules carry parameter-bearing names (``weighted[min](0.7,
    0.3)`` embeds its weights; ``owa[...]`` likewise), so class + name
    identifies them.  User-defined :class:`FunctionScoring` rules fall
    back to object identity: two distinct instances never alias — the
    safe direction for a cache — at the price of a miss when the same
    lambda is re-wrapped.
    """
    if isinstance(rule, FunctionScoring):
        return ("function", rule.name, id(rule))
    return (type(rule).__qualname__, rule.name)


def _child_keys(children, semantics, symmetric: bool) -> Tuple:
    keys = [_node_key(child, semantics) for child in children]
    if symmetric:
        # Canonical atom order: any total order works as long as it is
        # deterministic; repr of the (fully hashable) key tuples is.
        keys.sort(key=repr)
    return tuple(keys)


def _node_key(node: Query, semantics: FuzzySemantics) -> Tuple:
    if isinstance(node, Atomic):
        return ("atom", node.attribute, node._target_key())
    if isinstance(node, Not):
        return ("not", _node_key(node.child, semantics))
    if isinstance(node, And):
        return ("and",) + _child_keys(
            node.children, semantics, semantics.conjunction.is_symmetric
        )
    if isinstance(node, Or):
        return ("or",) + _child_keys(
            node.children, semantics, semantics.disjunction.is_symmetric
        )
    if isinstance(node, Scored):
        return ("scored", _rule_identity(node.scoring)) + _child_keys(
            node.children,
            semantics,
            getattr(node.scoring, "is_symmetric", False),
        )
    if isinstance(node, Weighted):
        # Weights are positional (Fagin–Wimmers): never reorder.
        return (
            "weighted",
            _rule_identity(node.base),
            tuple(node.weights),
        ) + _child_keys(node.children, semantics, False)
    return ("opaque", type(node).__qualname__, repr(node))


def plan_key(
    query: Query, semantics: FuzzySemantics, prefer=None
) -> Tuple:
    """The normalized-plan cache key for a query.

    Kernel choice, worker count, and storage backend are deliberately
    *not* part of the key: the conformance suites prove answers, costs,
    and traces byte-identical across all of them, so results cached
    under one configuration are valid under every other.
    """
    return (
        "v1",
        semantics.name,
        _rule_identity(semantics.conjunction),
        _rule_identity(semantics.disjunction),
        prefer.value if prefer is not None else None,
        _node_key(query, semantics),
    )


def key_digest(key: Tuple) -> str:
    """A short, process-independent digest of a cache key for traces.

    ``repr`` of the key is deterministic (strings, numbers, bytes —
    never ``hash()``, which PYTHONHASHSEED randomizes), so the digest is
    byte-stable across runs and safe to embed in golden traces.
    """
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# Source fingerprints
# ----------------------------------------------------------------------
def _innermost(source: GradedSource) -> GradedSource:
    node = source
    for node in iter_wrapper_chain(source):
        pass
    return node


def _detail_of(node) -> Tuple:
    directory = getattr(node, "directory", None)
    if directory is not None:
        # Memmap-backed: revalidate against the on-disk manifest, so a
        # rebuilt directory (new mtime or size) invalidates entries even
        # when the binding object is reused.
        from repro.storage.memmap import MANIFEST_NAME

        manifest = os.path.join(directory, MANIFEST_NAME)
        try:
            stat = os.stat(manifest)
        except OSError:
            return ("memmap", manifest, "missing", 0)
        return ("memmap", manifest, stat.st_mtime_ns, stat.st_size)
    shards = getattr(node, "shards", None)
    if shards is not None:
        return ("sharded", tuple(_detail_of(shard) for shard in shards))
    return ("object", len(node))


class SourceFingerprint:
    """Identity + physical detail of one bound source at fill time.

    ``anchor`` is a strong reference to the innermost source of the
    binding's wrapper chain: holding it pins the object alive, so an
    identity match can never be an ``id()`` reuse after garbage
    collection.  Engine-side invalidation (``invalidate()``, storage or
    resilience reconfiguration) rebuilds bindings, the anchor no longer
    matches, and the entry reads as stale.
    """

    __slots__ = ("anchor", "detail")

    def __init__(self, anchor: GradedSource, detail: Tuple) -> None:
        self.anchor = anchor
        self.detail = detail

    def matches(self, source: GradedSource) -> bool:
        innermost = _innermost(source)
        if innermost is not self.anchor:
            return False
        return _detail_of(innermost) == self.detail


def fingerprint(source: GradedSource) -> SourceFingerprint:
    innermost = _innermost(source)
    return SourceFingerprint(innermost, _detail_of(innermost))


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
class CacheEntry:
    """One cached fill: the certified answers and the fill run's cost.

    Immutable after construction; the cache replaces entries wholesale,
    so concurrent readers can use an entry without holding the cache
    lock.
    """

    __slots__ = (
        "key",
        "digest",
        "atom_set",
        "fingerprints",
        "k",
        "n",
        "answers",
        "tau",
        "algorithm",
        "sorted_depth",
        "cost",
        "certificate",
        "grades_exact",
    )

    def __init__(
        self,
        *,
        key: Tuple,
        fingerprints: Sequence[Tuple[Atomic, SourceFingerprint]],
        k: int,
        n: int,
        answers: Tuple[Tuple[object, float], ...],
        algorithm: str,
        sorted_depth: int,
        cost: Dict[str, Tuple[int, int]],
        certificate=None,
        grades_exact: bool = True,
    ) -> None:
        self.key = key
        self.digest = key_digest(key)
        self.fingerprints = tuple(fingerprints)
        self.atom_set = frozenset(atom for atom, _ in self.fingerprints)
        self.k = k
        self.n = n
        self.answers = answers
        #: certified threshold: every object outside the cached top k'
        #: grades at or below the k'-th grade — the bound that makes
        #: prefix answers provably exact.
        self.tau = answers[-1][1] if answers else 1.0
        self.algorithm = algorithm
        self.sorted_depth = sorted_depth
        self.cost = cost
        #: the fill run's ApproximationCertificate for θ-tier entries;
        #: None for exact entries.
        self.certificate = certificate
        self.grades_exact = grades_exact

    def cost_report(self) -> CostReport:
        """A fresh CostReport equal to the fill run's (never aliased)."""
        return CostReport(
            {
                name: AccessCounter(sorted_accesses, random_accesses)
                for name, (sorted_accesses, random_accesses) in self.cost.items()
            }
        )

    def zero_cost_report(self) -> CostReport:
        """All-zero tallies over the same sources (a prefix hit touches
        nothing)."""
        return CostReport({name: AccessCounter() for name in self.cost})


def _entry_for(
    key: Tuple, atoms, sources, result: TopKResult, certificate=None
) -> CacheEntry:
    """The entry recording ``result``, fingerprinting its bound sources."""
    return CacheEntry(
        key=key,
        fingerprints=[
            (atom, fingerprint(source)) for atom, source in zip(atoms, sources)
        ],
        k=len(result.answers),
        n=len(sources[0]) if sources else 0,
        answers=tuple((item.object_id, item.grade) for item in result.answers),
        algorithm=result.algorithm,
        sorted_depth=result.sorted_depth,
        cost={
            name: (counter.sorted_accesses, counter.random_accesses)
            for name, counter in result.cost.per_source.items()
        },
        certificate=certificate,
        grades_exact=result.grades_exact,
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class QueryCache:
    """Thread-safe LRU cache of certified top-k fills.

    ``stats()`` exposes probe-level counters: ``hits`` (exact, prefix
    and θ), ``theta_hits``, ``misses``, ``stale`` (entry found but its
    source fingerprints no longer match — evicted, never served), ``fills``,
    ``fill_races`` (a concurrent fill already stored an entry at least
    as deep; the late result was discarded), ``evictions`` (LRU), and
    ``invalidations``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.theta_hits = 0
        self.misses = 0
        self.stale = 0
        self.fills = 0
        self.fill_races = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                # Always 0; bench/layers.py is its only reader.
                "warm_hits": 0,
                "theta_hits": self.theta_hits,
                "misses": self.misses,
                "stale": self.stale,
                "fills": self.fills,
                "fill_races": self.fill_races,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    # -- lookup --------------------------------------------------------
    def _validated(self, key: Tuple, atoms, sources) -> Optional[CacheEntry]:
        """The entry for ``key`` if its fingerprints still hold, else
        None (the entry is evicted and counted stale)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        current = dict(zip(atoms, sources))
        for atom, stored in entry.fingerprints:
            source = current.get(atom)
            if source is None or not stored.matches(source):
                with self._lock:
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                    self.stale += 1
                return None
        return entry

    def probe(
        self, key: Tuple, k: int, atoms, sources, *, tracer=None, theta: float = 1.0
    ) -> Tuple[Optional[TopKResult], str]:
        """Tier-1/2 (and, for θ > 1, θ-tier) lookup: ``(result, status)``.

        ``status`` is ``"exact"`` or ``"prefix"`` with a served result,
        ``"miss"`` (no entry, or the entry is too shallow), or
        ``"stale"`` (entry evicted after a fingerprint mismatch).  A
        served result is freshly built on every call; callers may mutate
        it freely.

        ``theta`` is the request's approximation knob.  Exact entries
        serve any θ (an exact answer satisfies every θ ≥ 1), so the
        tier-1/2 lookup runs first regardless; only when it misses and
        ``theta > 1.0`` is the same-k θ-certified entry considered, and
        it serves (status ``"theta"``) exactly when its recorded
        *achieved* ratio is ≤ the requested θ.  A θ = 1.0 probe never
        touches θ entries, so exact traffic is byte-identical to a
        cache that never stored one.
        """
        with self._lock:
            present = key in self._entries
        entry = self._validated(key, atoms, sources)
        if entry is not None:
            k_eff = min(k, entry.n)
            if k_eff <= entry.k:
                tier = "exact" if k_eff == entry.k else "prefix"
                with self._lock:
                    if self._entries.get(key) is entry:
                        self._entries.move_to_end(key)
                    self.hits += 1
                result = self._served(entry, k_eff, tier)
                if tracer is not None:
                    tracer.event(
                        "cache",
                        tier=tier,
                        key=entry.digest,
                        k=k_eff,
                        k_cached=entry.k,
                        tau=entry.tau,
                    )
                return result, tier
        if theta > 1.0:
            served = self._probe_theta(
                key, k, atoms, sources, theta, tracer=tracer
            )
            if served is not None:
                return served, "theta"
        with self._lock:
            self.misses += 1
        return None, "stale" if (present and entry is None) else "miss"

    @staticmethod
    def _theta_key(key: Tuple, k_eff: int) -> Tuple:
        """The extended key a θ-certified fill at effective k lives under.

        θ entries are same-k only (slicing a θ-certified set is unsound),
        so the effective k is part of the key; the base plan key stays
        untouched — exact entries and θ entries never collide.
        """
        return key + ("theta", k_eff)

    def _probe_theta(
        self, key: Tuple, k: int, atoms, sources, theta: float, *, tracer=None
    ) -> Optional[TopKResult]:
        n = len(sources[0]) if sources else 0
        theta_key = self._theta_key(key, min(k, n) if n else k)
        entry = self._validated(theta_key, atoms, sources)
        if entry is None or entry.certificate is None:
            return None
        # Serve only when the recorded proof covers the request: every
        # cached answer is certified within ``achieved`` of anything
        # excluded, so any θ' >= achieved is satisfied.  An infinite
        # achieved ratio never qualifies.
        if not entry.certificate.achieved <= theta:
            return None
        with self._lock:
            if self._entries.get(theta_key) is entry:
                self._entries.move_to_end(theta_key)
            self.hits += 1
            self.theta_hits += 1
        result = self._served_theta(entry, theta)
        if tracer is not None:
            tracer.event(
                "cache",
                tier="theta",
                key=entry.digest,
                k=entry.k,
                k_cached=entry.k,
                tau=entry.tau,
                theta=theta,
                achieved=entry.certificate.achieved,
            )
        return result

    def _served_theta(self, entry: CacheEntry, theta: float) -> TopKResult:
        from dataclasses import replace

        certificate = replace(
            entry.certificate,
            theta=theta,
            intervals=(
                dict(entry.certificate.intervals)
                if entry.certificate.intervals is not None
                else None
            ),
        )
        result = TopKResult(
            answers=GradedSet(dict(entry.answers)),
            cost=entry.cost_report(),
            algorithm=entry.algorithm,
            sorted_depth=entry.sorted_depth,
            grades_exact=entry.grades_exact,
            approximation=certificate,
        )
        result.extras["cache"] = {
            "tier": "theta",
            "key": entry.digest,
            "k_cached": entry.k,
            "tau": entry.tau,
            "theta": theta,
            "achieved": entry.certificate.achieved,
        }
        return result

    def _served(self, entry: CacheEntry, k_eff: int, tier: str) -> TopKResult:
        if tier == "exact":
            answers = GradedSet(dict(entry.answers))
            cost = entry.cost_report()
        else:
            answers = GradedSet(dict(entry.answers[:k_eff]))
            cost = entry.zero_cost_report()
        result = TopKResult(
            answers=answers,
            cost=cost,
            algorithm=entry.algorithm,
            sorted_depth=entry.sorted_depth if tier == "exact" else 0,
            grades_exact=True,
        )
        result.extras["cache"] = {
            "tier": tier,
            "key": entry.digest,
            "k_cached": entry.k,
            "tau": entry.tau,
        }
        return result

    # -- fill ----------------------------------------------------------
    def store(
        self,
        key: Tuple,
        atoms,
        sources,
        result: TopKResult,
    ) -> bool:
        """Record a finished run.  Returns True when an entry was stored.

        Clean exact-grade results (no certificate) fill the exact/prefix
        entry for their plan key.  Clean θ-certified results fill a
        *θ entry* under the extended same-k key — answers, certificate,
        and cost.  Degraded runs, anytime stops, and uncertified inexact
        results are never cached.  False means a concurrent fill already
        stored something at least as good (counted ``fill_races``) or
        the result is not cacheable.
        """
        if result.degraded is not None:
            return False
        certificate = result.approximation
        if certificate is not None:
            if certificate.anytime:
                return False
            return self._store_theta(key, atoms, sources, result, certificate)
        if not result.grades_exact:
            return False
        entry = _entry_for(key, atoms, sources, result)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.k >= entry.k:
                self.fill_races += 1
                return False
            self._insert(key, entry)
        return True

    def _store_theta(
        self, key: Tuple, atoms, sources, result: TopKResult, certificate
    ) -> bool:
        """Record a clean θ-certified fill under its same-k extended key.

        A concurrent fill with a *tighter* achieved ratio wins (it can
        serve strictly more future θ' requests); an unprovable
        (infinite-ratio) certificate is never stored.
        """
        if not certificate.achieved < float("inf"):
            return False
        theta_key = self._theta_key(key, len(result.answers))
        entry = _entry_for(theta_key, atoms, sources, result, certificate)
        with self._lock:
            existing = self._entries.get(theta_key)
            if (
                existing is not None
                and existing.certificate is not None
                and existing.certificate.achieved <= certificate.achieved
            ):
                self.fill_races += 1
                return False
            self._insert(theta_key, entry)
        return True

    def _insert(self, key: Tuple, entry: CacheEntry) -> None:
        """Store ``entry`` as most recently used and evict LRU overflow.
        The caller holds the lock."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.fills += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- invalidation --------------------------------------------------
    def invalidate(self, atom: Optional[Atomic] = None) -> int:
        """Drop every entry touching ``atom`` (or all entries).  Returns
        the number of entries dropped."""
        with self._lock:
            if atom is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [
                    key
                    for key, entry in self._entries.items()
                    if atom in entry.atom_set
                ]
                for key in doomed:
                    del self._entries[key]
                dropped = len(doomed)
            self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        self.invalidate()
