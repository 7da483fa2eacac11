"""The Garlic-style middleware engine (section 4).

:class:`MiddlewareEngine` is the integration point the paper describes:
"a single Garlic query can access data in a number of different
subsystems", and "Garlic has to piece together information from both
subsystems in order to answer the query."

The engine:

1. holds registered :class:`~repro.middleware.interface.Subsystem`
   instances, each optionally behind an
   :class:`~repro.middleware.idmap.IdMapping` (section 4.2's object-ID
   correspondence problem);
2. binds each atomic query of a query AST to the (unique) subsystem that
   supports it, yielding one ranked list per atom;
3. compiles the Boolean structure into a single m-ary scoring function
   (:func:`repro.core.evaluation.compile_query`), passing user-defined
   rules through the monotonicity guard;
4. delegates strategy choice to the planner (the Boolean-conjunct-first
   rule, the m*k disjunction algorithm, A0/TA/NRA) and executes.

The engine answers *ranked* queries ("give me the top 10"), returning a
:class:`~repro.core.result.TopKResult`; :meth:`MiddlewareEngine.open_query`
returns a resumable handle for fetching the next batch — the "continue
where we left off" feature of algorithm A0.

**Resilience.**  Real subsystems fail, so the engine can wrap every
binding in the resilience stack: a
:class:`~repro.middleware.faults.FaultInjectingSource` (for chaos
testing, when a fault profile is configured) innermost, the ID mapping
in the middle, and a
:class:`~repro.middleware.resilience.ResilientSource` (retry with
backoff, deadline budgets, circuit breakers) outermost — outermost so
the planner's ``random_access_available`` probe sees breaker state and
plans around a known-bad subsystem up front.  Wrapped bindings are
cached per atom, so breaker state persists across queries the way a
long-lived connection pool's health does; :meth:`MiddlewareEngine.invalidate`
is the reset.  When anything was injected or retried, the query result
carries a per-source report in ``result.extras["resilience"]``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple, Union

from repro.core.evaluation import compile_query
from repro.core.fagin import FaginAlgorithm
from repro.core.planner import Strategy, execute, plan_top_k
from repro.core.query import Atomic, Query, Scored
from repro.core.result import TopKResult
from repro.core.sources import GradedSource
from repro.errors import PlanError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.idmap import IdMapping, MappedSource
from repro.middleware.interface import Subsystem
from repro.middleware.monotonicity import ensure_monotone
from repro.middleware.resilience import (
    ResiliencePolicy,
    ResilientSource,
    VirtualClock,
    guard_deadline,
    resilience_report,
)
from repro.parallel import ParallelAccessExecutor
from repro.scoring.base import FunctionScoring
from repro.scoring.zadeh import ZADEH, FuzzySemantics

#: Either one setting for every subsystem, or a per-subsystem-name map
#: (the key ``"*"`` supplies the default for unlisted subsystems).
PerSubsystem = Union[None, ResiliencePolicy, Dict[str, ResiliencePolicy]]
PerSubsystemFaults = Union[None, FaultProfile, Dict[str, FaultProfile]]


def _emit_shard_breakdown(sources, tracer) -> None:
    """Emit one ``shard_breakdown`` trace event per sharded binding.

    Only sources whose wrapper chain bottoms out in a composite backend
    (duck-typed by ``shard_stats``) emit anything, so traces of
    non-sharded runs — including every golden trace — are unchanged.
    The per-shard tallies are the attributed counters, which are
    deterministic across worker counts.
    """
    from repro.core.sources import iter_wrapper_chain

    for source in sources:
        for node in iter_wrapper_chain(source):
            stats = getattr(node, "shard_stats", None)
            if stats is not None:
                tracer.event(
                    "shard_breakdown", source=source.name, shards=stats()
                )
                break


def _emit_index_breakdown(sources, tracer) -> None:
    """Emit index-work trace events for index-backed bindings.

    Only sources exposing the duck-typed ``index_stats`` hook (the
    :class:`~repro.index.source.KnnSource` adapter, anywhere in the
    wrapper chain) emit anything, so traces of non-index runs —
    including every golden trace — are unchanged.  Each hit emits one
    ``index_breakdown`` event plus ``index.node_accesses`` /
    ``index.distance_evals`` samples; the counters are read through the
    stats lock, so concurrent probes never yield a torn pair.
    """
    from repro.core.sources import iter_wrapper_chain

    for source in sources:
        for node in iter_wrapper_chain(source):
            stats = getattr(node, "index_stats", None)
            if stats is not None:
                info = stats()
                tracer.event("index_breakdown", source=source.name, **info)
                tracer.sample(
                    "index.node_accesses", float(info["node_accesses"])
                )
                tracer.sample(
                    "index.distance_evals", float(info["distance_evals"])
                )
                break


def _for_subsystem(setting, name: str):
    """Resolve a global-or-per-subsystem setting for one subsystem."""
    if setting is None or not isinstance(setting, dict):
        return setting
    return setting.get(name, setting.get("*"))


class MiddlewareEngine:
    """Integrates subsystems and evaluates fuzzy queries over them."""

    def __init__(
        self,
        semantics: FuzzySemantics = ZADEH,
        *,
        resilience: PerSubsystem = None,
        fault_profile: PerSubsystemFaults = None,
        clock=None,
    ) -> None:
        self.semantics = semantics
        self._subsystems: List[Subsystem] = []
        self._mappings: Dict[str, IdMapping] = {}
        self._resilience: PerSubsystem = resilience
        self._fault_profile: PerSubsystemFaults = fault_profile
        self._clock = clock if clock is not None else VirtualClock()
        #: per-atom cache of fully wrapped bindings (fault injector,
        #: mapping, resilience), so breaker/fault state persists across
        #: queries on the same atom.  Guarded by ``_bind_lock`` so
        #: concurrent queries binding the same atom share one wrapper
        #: stack (one breaker, one fault schedule) instead of racing to
        #: build duplicates.
        self._wrapped: Dict[Atomic, GradedSource] = {}
        self._bind_lock = threading.Lock()
        #: session-level QueryTracer set by configure_observability; when
        #: None (the default) nothing observability-related runs.
        self._tracer = None
        #: session-level ParallelAccessExecutor set by
        #: configure_parallelism; None means the classic serial path.
        self._executor: Optional[ParallelAccessExecutor] = None
        #: session-level θ-approximation knob set by
        #: configure_approximation; 1.0 (the default) runs exact.
        self._theta: float = 1.0
        #: session-level semantic result cache set by configure_cache;
        #: None (the default) keeps every query cold.
        self._cache = None
        #: session-level storage relocation set by configure_storage;
        #: backend None with shards 1 keeps subsystems' native sources.
        self._storage_backend: Optional[str] = None
        self._storage_shards: int = 1
        self._storage_directory: Optional[str] = None
        self._storage_tmp = None
        self._storage_seq = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def configure_observability(self, tracer=None, *, metrics=None):
        """Install (or clear) a session-level query tracer.

        ``tracer`` is a
        :class:`~repro.observability.tracer.QueryTracer`; passing only
        ``metrics`` (a
        :class:`~repro.observability.metrics.MetricsRegistry`) builds a
        tracer around it.  Every subsequent :meth:`top_k` runs under the
        tracer — a ``query`` span wrapping plan choice and execution,
        resilience observers attached to every wrapped binding — until
        this is called again with no arguments.  Returns the installed
        tracer (or None when cleared).
        """
        if tracer is None and metrics is not None:
            from repro.observability.tracer import QueryTracer

            tracer = QueryTracer(metrics=metrics)
        self._tracer = tracer
        return tracer

    @property
    def tracer(self):
        """The session-level tracer, or None when observability is off."""
        return self._tracer

    # ------------------------------------------------------------------
    # Parallelism
    # ------------------------------------------------------------------
    def configure_parallelism(
        self, max_workers: Optional[int] = None
    ) -> Optional[ParallelAccessExecutor]:
        """Install (or clear) the session-level access executor.

        ``max_workers > 1`` makes every subsequent query fan its rounds'
        independent subsystem accesses across that many threads (answers,
        costs, and traces stay byte-identical to serial — see
        :mod:`repro.parallel`).  ``max_workers=1`` installs the explicit
        serial executor; ``None`` (or no argument) clears parallelism and
        releases the worker threads.  Returns the installed executor.
        """
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if max_workers is not None:
            self._executor = ParallelAccessExecutor(max_workers)
        return self._executor

    @property
    def executor(self) -> Optional[ParallelAccessExecutor]:
        """The session-level access executor, or None for serial."""
        return self._executor

    @property
    def kernel(self) -> None:
        # Inert; bench/layers.py is its only reader.
        return None

    # ------------------------------------------------------------------
    # Approximation
    # ------------------------------------------------------------------
    def configure_approximation(self, theta: float = 1.0) -> float:
        """Install the session-level θ-approximation knob.

        ``theta >= 1.0`` is the Fagin–Lotem–Naor approximation factor:
        TA and NRA stop as soon as every reported grade is provably
        within a factor θ of anything excluded, and attach an
        :class:`~repro.core.result.ApproximationCertificate` with the
        achieved ratio (see :mod:`repro.core.threshold`).  ``1.0`` (the
        default) restores exact answers — decision-for-decision
        identical to an engine that never heard of θ.  Per-query
        ``top_k(theta=...)`` overrides this session setting.  Returns
        the installed value.
        """
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1.0, got {theta}")
        self._theta = float(theta)
        return self._theta

    @property
    def theta(self) -> float:
        """The session-level θ-approximation factor (1.0 = exact)."""
        return self._theta

    # ------------------------------------------------------------------
    # Result caching
    # ------------------------------------------------------------------
    def configure_cache(self, enabled: bool = True, *, max_entries: int = 256, cache=None):
        """Install (or clear) the session-level semantic result cache.

        With a cache installed, every :meth:`top_k` first probes for a
        reusable certified answer — an exact hit, a prefix of a deeper
        cached run, or a qualifying θ-certified repeat — and records
        clean exact or θ-certified results for future reuse; see
        :mod:`repro.cache` for the tier and invalidation contracts.
        ``cache`` accepts a pre-built :class:`~repro.cache.QueryCache`
        (e.g. shared across engines) — positionally or by keyword;
        ``enabled=False`` clears it.  Returns the installed cache (or
        None when cleared).
        """
        from repro.cache import QueryCache

        if cache is None and isinstance(enabled, QueryCache):
            # configure_cache(QueryCache(...)) — an empty cache has
            # len() 0 and would otherwise read as enabled=False.
            enabled, cache = True, enabled
        if cache is not None:
            self._cache = cache
        elif enabled:
            self._cache = QueryCache(max_entries=max_entries)
        else:
            self._cache = None
        return self._cache

    @property
    def cache(self):
        """The session-level result cache, or None when caching is off."""
        return self._cache

    def _resolve_cache(self, cache):
        """Resolve one query's cache override: False bypasses, None uses
        the session cache, and an explicit QueryCache wins outright."""
        if cache is None or cache is True:
            return self._cache
        if cache is False:
            return None
        return cache

    @property
    def clock(self):
        """The engine clock (resilience, faults, deadline guards)."""
        return self._clock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every resource the engine session holds.

        Shuts down the configured
        :class:`~repro.parallel.ParallelAccessExecutor` (worker
        threads), closes storage handles on relocated bindings (memmap
        columns, shard handles — anything in a wrapper chain exposing
        ``close()``), drops the wrapped-binding cache, and removes the
        engine-owned temporary storage directory.  Idempotent; the
        engine remains usable afterwards (the next query rebuilds its
        bindings), but callers should treat a closed engine as done.
        ``with MiddlewareEngine(...) as engine:`` calls this on exit,
        and the CLI calls it on teardown.
        """
        from repro.core.sources import iter_wrapper_chain

        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._cache is not None:
            self._cache.clear()
        with self._bind_lock:
            wrapped = list(self._wrapped.values())
            self._wrapped.clear()
        for source in wrapped:
            for node in iter_wrapper_chain(source):
                closer = getattr(node, "close", None)
                if callable(closer):
                    closer()
        if self._storage_tmp is not None:
            self._storage_tmp.cleanup()
            self._storage_tmp = None

    def __enter__(self) -> "MiddlewareEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _executor_for(self, max_workers: Optional[int], executor=None):
        """Resolve one query's executor: explicit, per-query, or session.

        Returns ``(executor, transient)``; a transient executor was built
        for this query alone and must be shut down when the query ends.
        An explicitly passed ``executor`` (e.g. the query service's
        fair-share view over a shared pool) is never shut down here.
        """
        if executor is not None:
            return executor, False
        if max_workers is None:
            return self._executor, False
        return ParallelAccessExecutor(max_workers), True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def configure_storage(
        self,
        backend: Optional[str] = None,
        *,
        shards: int = 1,
        directory: Optional[str] = None,
    ) -> None:
        """Relocate every binding onto a physical storage backend.

        ``backend`` is one of :data:`~repro.core.sources.BACKEND_CHOICES`
        (``array``/``list``/``memmap``); ``shards > 1`` hash-partitions
        each binding into that many shards of the chosen backend behind
        a :class:`~repro.storage.sharded.ShardedSource`.  The CLI's
        ``--backend``/``--shards`` flags land here.  Relocation happens
        at bind time: the subsystem's native source is materialized once
        (accounting-free) into the chosen backend, preserving its name
        and protocol flags, so answers, costs, and traces are
        byte-identical — only the physical layer changes.  ``directory``
        roots on-disk backends; a memmap relocation without one uses a
        temporary directory owned by the engine.

        Calling with no arguments clears the relocation.  The wrapped-
        binding cache is cleared either way, so the next bind of each
        atom rebuilds; breaker and fault state is discarded
        (:meth:`configure_resilience` semantics).
        """
        from repro.core.sources import BACKEND_CHOICES

        if backend is not None and backend not in BACKEND_CHOICES:
            raise PlanError(
                f"unknown storage backend {backend!r}; use "
                + ", ".join(BACKEND_CHOICES)
            )
        if shards < 1:
            raise PlanError(f"shards must be >= 1, got {shards}")
        self._storage_backend = backend
        self._storage_shards = shards
        self._storage_directory = directory
        with self._bind_lock:
            self._wrapped.clear()
        # Rebinding changes every fingerprint anchor, so cached results
        # would all read as stale anyway — drop them eagerly.
        if self._cache is not None:
            self._cache.clear()

    def _relocate_storage(self, source: GradedSource) -> GradedSource:
        """Rebuild one native binding on the configured backend."""
        backend = self._storage_backend
        shards = self._storage_shards
        if backend is None and shards <= 1:
            return source
        import os

        from repro.core.sources import ArraySource, ListSource
        from repro.storage import ShardedSource, build_from_items

        effective = backend if backend is not None else "array"
        mapping = source.as_graded_set()
        directory = self._storage_directory
        if effective == "memmap":
            if directory is None:
                if self._storage_tmp is None:
                    import tempfile

                    self._storage_tmp = tempfile.TemporaryDirectory(
                        prefix="repro-engine-storage-"
                    )
                directory = self._storage_tmp.name
            self._storage_seq += 1
            cleaned = "".join(
                ch if ch.isalnum() or ch in "._-" else "_"
                for ch in source.name
            )
            directory = os.path.join(
                directory, f"{self._storage_seq:03d}-{cleaned or 'atom'}"
            )
        if shards > 1:
            relocated: GradedSource = ShardedSource.partition(
                mapping,
                shards,
                name=source.name,
                backend=effective,
                directory=directory,
            )
        elif effective == "list":
            relocated = ListSource(mapping, name=source.name)
        elif effective == "memmap":
            relocated = build_from_items(directory, mapping, name=source.name)
        else:
            relocated = ArraySource(mapping, name=source.name)
        # The physical move must not change the protocol surface the
        # planner and algorithms read off the binding.
        relocated.is_boolean = source.is_boolean
        relocated.supports_random_access = source.supports_random_access
        positive = getattr(source, "positive_count", None)
        if positive is not None:
            relocated.positive_count = positive
        return relocated

    def register(
        self, subsystem: Subsystem, id_mapping: Optional[IdMapping] = None
    ) -> None:
        """Add a subsystem, optionally with its global<->local ID mapping."""
        if any(existing.name == subsystem.name for existing in self._subsystems):
            raise PlanError(f"a subsystem named {subsystem.name!r} is already registered")
        self._subsystems.append(subsystem)
        if id_mapping is not None:
            self._mappings[subsystem.name] = id_mapping

    @property
    def subsystems(self) -> Tuple[Subsystem, ...]:
        return tuple(self._subsystems)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def subsystem_for(self, atom: Atomic) -> Subsystem:
        """The unique subsystem supporting an atomic query."""
        supporting = [s for s in self._subsystems if s.supports(atom)]
        if not supporting:
            raise PlanError(f"no registered subsystem supports {atom}")
        if len(supporting) > 1:
            names = [s.name for s in supporting]
            raise PlanError(
                f"ambiguous atomic query {atom}: supported by {names}; "
                "register disjoint attribute sets or query a specific subsystem"
            )
        return supporting[0]

    def bind(self, atom: Atomic) -> GradedSource:
        """The fully wrapped ranked list for one atom (cached per atom).

        Wrapping order is fault injector (innermost, it stands in for
        the unreliable repository itself), then the global-ID mapping,
        then the resilience wrapper (outermost, so retries cover the
        whole chain and the planner sees live breaker state).

        Thread-safe: concurrent queries binding the same atom are
        serialized by the bind lock, so they always share one wrapper
        stack (and therefore one circuit breaker and one fault
        schedule).
        """
        cached = self._wrapped.get(atom)
        if cached is not None:
            return cached
        with self._bind_lock:
            cached = self._wrapped.get(atom)
            if cached is not None:
                return cached
            subsystem = self.subsystem_for(atom)
            source = self._relocate_storage(subsystem.bind(atom))
            profile = _for_subsystem(self._fault_profile, subsystem.name)
            if profile is not None:
                source = FaultInjectingSource(source, profile, clock=self._clock)
            mapping = self._mappings.get(subsystem.name)
            if mapping is not None:
                source = MappedSource(source, mapping)
            policy = _for_subsystem(self._resilience, subsystem.name)
            if policy is not None:
                source = ResilientSource(source, policy, clock=self._clock)
            self._wrapped[atom] = source
            return source

    def configure_resilience(
        self,
        resilience: PerSubsystem = None,
        *,
        fault_profile: PerSubsystemFaults = None,
        clock=None,
    ) -> None:
        """Replace the resilience/fault configuration.

        Both settings are replaced wholesale (pass the previous value to
        keep it), and the wrapped-binding cache is cleared so the next
        bind of each atom rebuilds its wrapper stack — existing breaker
        and fault state is discarded.
        """
        self._resilience = resilience
        self._fault_profile = fault_profile
        if clock is not None:
            self._clock = clock
        with self._bind_lock:
            self._wrapped.clear()
        if self._cache is not None:
            self._cache.clear()

    def invalidate(self, atom: Optional[Atomic] = None) -> None:
        """Drop cached bindings (one atom, or everything).

        Clears the engine's wrapper cache and the owning subsystems'
        binding caches, so the next use rebuilds from the repository —
        the reset after underlying data changed or a subsystem recovered
        from the failures that tripped its breakers.
        """
        # Subsystem caches are cleared under the bind lock too: a binder
        # holding the lock may be inside ``subsystem.bind`` right now,
        # and yanking its cache entry mid-build would hand it a KeyError.
        if atom is not None:
            with self._bind_lock:
                self._wrapped.pop(atom, None)
                for subsystem in self._subsystems:
                    if subsystem.supports(atom):
                        subsystem.unbind(atom)
            if self._cache is not None:
                self._cache.invalidate(atom)
            return
        with self._bind_lock:
            self._wrapped.clear()
            for subsystem in self._subsystems:
                subsystem.invalidate()
        if self._cache is not None:
            self._cache.invalidate()

    def bind_all(self, query: Query) -> List[GradedSource]:
        """Ranked lists for each distinct atom of a query, in atom order."""
        atoms = query.atoms()
        if len(set(atoms)) != len(atoms):
            raise PlanError(
                "queries must not repeat an atomic subquery: "
                f"{[str(a) for a in atoms]}"
            )
        return [self.bind(atom) for atom in atoms]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _compile(self, query: Query):
        compiled = compile_query(query, self.semantics)
        self._guard_user_rules(query)
        return compiled

    def _guard_user_rules(self, query: Query) -> None:
        """Run the monotonicity guard over user-defined Scored rules."""
        if isinstance(query, Scored) and isinstance(query.scoring, FunctionScoring):
            ensure_monotone(query.scoring, len(query.children))
        for child in getattr(query, "children", ()):
            self._guard_user_rules(child)
        child = getattr(query, "child", None)
        if child is not None:
            self._guard_user_rules(child)

    def top_k(
        self,
        query: Query,
        k: int,
        *,
        prefer: Optional[Strategy] = None,
        tracer=None,
        max_workers: Optional[int] = None,
        executor=None,
        deadline: Optional[float] = None,
        cache=None,
        theta: Optional[float] = None,
    ) -> TopKResult:
        """The top k answers to a query, with their grades and cost.

        ``tracer`` overrides the session tracer installed by
        :meth:`configure_observability` for this one query; with neither,
        the query runs with zero instrumentation overhead.
        ``max_workers`` likewise overrides the session parallelism
        (:meth:`configure_parallelism`) for this one query.
        ``executor`` passes an explicit
        :class:`~repro.parallel.ParallelAccessExecutor` (or fair-share
        view) to run under — the query service's shared-pool hook; it is
        not shut down by the engine.

        ``deadline`` is an end-to-end budget in seconds, measured on the
        engine clock from this call's start: every binding is wrapped in
        a per-query :class:`~repro.middleware.resilience.DeadlineGuard`,
        so once the budget is spent the next charged access degrades the
        run into a partial-bound
        :class:`~repro.core.result.DegradedResult` (never more than one
        access round past the deadline) instead of hanging.  With
        ``deadline=None`` (the default) nothing is wrapped and the path
        is byte-identical to before.

        ``cache`` overrides the session cache
        (:meth:`configure_cache`) for this one query: ``False`` bypasses
        it, an explicit :class:`~repro.cache.QueryCache` substitutes it,
        and ``None`` (the default) uses the session setting.  A
        cache-served result carries ``result.extras["cache"]`` naming
        the reuse tier; a cache-enabled *miss* runs — and traces —
        exactly like a cold query, then records its result.

        ``theta`` overrides the session θ-approximation knob
        (:meth:`configure_approximation`) for this one query; ``None``
        (the default) uses the session setting.  θ > 1 runs may stop
        early and carry an
        :class:`~repro.core.result.ApproximationCertificate`; a cache
        probe under θ > 1 may also be served by a θ-certified entry
        whose recorded achieved ratio qualifies.
        """
        tracer = tracer if tracer is not None else self._tracer
        theta = float(theta) if theta is not None else self._theta
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1.0, got {theta}")
        cache = self._resolve_cache(cache)
        sources = self.bind_all(query)
        compiled = self._compile(query)
        cache_ctx = None
        if cache is not None:
            from repro.cache import plan_key

            atoms = query.atoms()
            key = plan_key(query, self.semantics, prefer)
            served, _status = cache.probe(
                key, k, atoms, sources, tracer=tracer, theta=theta
            )
            if served is not None:
                return served
            cache_ctx = (cache, key, atoms)
        executor, transient = self._executor_for(max_workers, executor)
        if deadline is not None:
            sources = guard_deadline(
                sources, self._clock.now() + deadline, clock=self._clock
            )
        try:
            if tracer is None:
                plan = plan_top_k(sources, compiled, k, prefer=prefer, theta=theta)
                result = self._execute_guarded(
                    plan,
                    sources,
                    deadline,
                    executor=executor,
                    cache_ctx=cache_ctx,
                )
            else:
                from repro.observability.tracer import attach_resilience_observers

                attach_resilience_observers(sources, tracer)
                with tracer.phase("query", query=str(query), k=k):
                    plan = plan_top_k(
                        sources, compiled, k, prefer=prefer, theta=theta
                    )
                    # θ is traced only when it can change the execution,
                    # keeping θ = 1.0 traces byte-identical to goldens.
                    extra = {"theta": theta} if theta > 1.0 else {}
                    tracer.event(
                        "plan",
                        strategy=plan.strategy.value,
                        reason=plan.reason,
                        estimated_cost=plan.estimated_cost,
                        k=plan.k,
                        **extra,
                    )
                    result = self._execute_guarded(
                        plan,
                        sources,
                        deadline,
                        tracer=tracer,
                        executor=executor,
                        cache_ctx=cache_ctx,
                    )
                    _emit_shard_breakdown(sources, tracer)
                    _emit_index_breakdown(sources, tracer)
        finally:
            if transient and executor is not None:
                executor.shutdown()
        report = resilience_report(sources)
        if report:
            result.extras["resilience"] = report
        return result

    def cache_probe(
        self, query: Query, k: int, *, prefer=None, tracer=None, theta=None
    ) -> Tuple[Optional[TopKResult], str]:
        """Probe the result cache without executing anything.

        Returns ``(result, status)`` — a tier-1/2 (exact/prefix) served
        result with its status, or ``(None, status)`` for
        ``"miss"``/``"stale"``/``"off"``.  The query service calls this
        at admission so hits skip the queue entirely; misses need a real
        execution slot and are left to :meth:`top_k`.  ``theta`` mirrors
        :meth:`top_k`'s knob: a θ > 1 probe may also be served by a
        qualifying θ-certified entry.
        """
        cache = self._cache
        if cache is None:
            return None, "off"
        from repro.cache import plan_key

        theta = float(theta) if theta is not None else self._theta
        sources = self.bind_all(query)
        return cache.probe(
            plan_key(query, self.semantics, prefer),
            k,
            query.atoms(),
            sources,
            tracer=tracer if tracer is not None else self._tracer,
            theta=theta,
        )

    def _execute_guarded(
        self,
        plan,
        sources,
        deadline,
        *,
        tracer=None,
        executor=None,
        cache_ctx=None,
    ) -> TopKResult:
        """Execute a plan, with caching and deadline degradation.

        ``cache_ctx`` (``(cache, key, atoms)``, set only on a cache
        miss) routes the run through the result cache: every clean
        exact or θ-certified result is recorded for future reuse
        (:meth:`~repro.cache.QueryCache.store`).  The fill path adds no
        trace events and changes no accesses, so a cache-enabled miss
        stays byte-identical to a cold run.
        """
        result = self._run_plan(
            plan, sources, deadline, tracer=tracer, executor=executor
        )
        if cache_ctx is not None:
            cache, key, atoms = cache_ctx
            cache.store(key, atoms, sources, result)
        return result

    def _run_plan(
        self,
        plan,
        sources,
        deadline,
        *,
        tracer=None,
        executor=None,
    ) -> TopKResult:
        """Execute a plan; under a deadline, degrade instead of raising.

        TA/NRA/A0 already turn ``DEGRADABLE_ACCESS_ERRORS`` into
        partial-bound results mid-run; the strategies without their own
        degradation path (naive, disjunction, Boolean-first) would let a
        blown deadline escape as an exception.  Under a deadline this
        wrapper catches those and synthesizes an empty partial-bounds
        :class:`~repro.core.result.DegradedResult`, so *every* strategy
        honors the "late queries degrade, never hang or crash" contract.
        Without a deadline the behaviour is exactly as before.
        """
        if deadline is None:
            return execute(plan, sources, tracer=tracer, executor=executor)
        from repro.core.cost import CostMeter
        from repro.core.graded import GradedSet
        from repro.core.result import DegradedResult
        from repro.core.threshold import DEGRADABLE_ACCESS_ERRORS

        meter = CostMeter(sources)
        try:
            return execute(plan, sources, tracer=tracer, executor=executor)
        except DEGRADABLE_ACCESS_ERRORS as error:
            degraded = DegradedResult(
                failed_sources={
                    source.name: str(error) for source in sources
                },
                fallback="partial-bounds",
                complete=False,
                bounds={},
            )
            if tracer is not None:
                tracer.event(
                    "degraded", fallback=degraded.fallback, reason=str(error)
                )
            return TopKResult(
                answers=GradedSet({}),
                cost=meter.report(),
                algorithm=plan.strategy.value,
                grades_exact=False,
                degraded=degraded,
            )

    def explain(self, query: Query, k: int):
        """The plan the engine would execute, without running it."""
        sources = self.bind_all(query)
        compiled = self._compile(query)
        return plan_top_k(sources, compiled, k, theta=self._theta)

    def explain_report(self, query: Query, k: int, *, run: bool = False):
        """The full EXPLAIN view of a query: plan, atoms, optionally actuals.

        With ``run=False`` (the default) nothing is executed — the report
        covers the chosen plan and per-atom statistics.  With ``run=True``
        the query executes under a throwaway tracer and the report also
        carries the actual cost, the actual/estimated ratio, and the
        per-phase access breakdown.
        """
        from repro.observability.explain import explain_report
        from repro.observability.tracer import QueryTracer

        sources = self.bind_all(query)
        compiled = self._compile(query)
        plan = plan_top_k(sources, compiled, k, theta=self._theta)
        if not run:
            return explain_report(str(query), plan, sources)
        tracer = QueryTracer()
        result = execute(plan, sources, tracer=tracer)
        return explain_report(
            str(query), plan, sources, result=result, tracer=tracer
        )

    def open_query(self, query: Query, *, tracer=None) -> "QueryHandle":
        """A resumable handle: fetch the top k, then the next k, etc."""
        tracer = tracer if tracer is not None else self._tracer
        sources = self.bind_all(query)
        compiled = self._compile(query)
        return QueryHandle(
            FaginAlgorithm(
                sources,
                compiled,
                tracer=tracer,
                executor=self._executor,
            ),
            sources,
        )

    def lookup_row(self, object_id) -> Dict[str, object]:
        """Merge the relational attributes known for one object.

        Every registered subsystem exposing rows (the relational ones)
        contributes its columns; subsystems that do not know the object
        are skipped.  Used by the SQL front end to hydrate projections.
        """
        merged: Dict[str, object] = {}
        for subsystem in self._subsystems:
            row_getter = getattr(subsystem, "row", None)
            if row_getter is None:
                continue
            try:
                merged.update(row_getter(object_id))
            except KeyError:
                continue
        return merged


class QueryHandle:
    """Incremental consumption of one ranked query ("get the next 10").

    Wraps a resumable :class:`~repro.core.fagin.FaginAlgorithm`; each
    :meth:`fetch` continues where the previous one left off, as
    section 4.1 promises.
    """

    def __init__(
        self,
        algorithm: FaginAlgorithm,
        sources: Optional[List[GradedSource]] = None,
    ) -> None:
        self._algorithm = algorithm
        self._sources = sources if sources is not None else list(algorithm.sources)
        self.fetched = 0

    def fetch(self, k: int = 10) -> TopKResult:
        result = self._algorithm.next_k(k)
        self.fetched += len(result.answers)
        report = resilience_report(self._sources)
        if report:
            result.extras["resilience"] = report
        return result
