"""`QueryService`: a concurrent, multi-tenant front end over one engine.

The paper's cost model assumes one query owns the engine; production
means thousands of concurrent queries over shared subsystems.  This
module layers the serving discipline over
:class:`~repro.middleware.engine.MiddlewareEngine`:

* a **worker pool** executing admitted queries concurrently (the engine
  is safe for concurrent ``top_k``: bindings are built under a lock and
  shared, a sharded binding locks its lazy merge, and algorithms keep
  all per-query state locally);
* **admission control** — a bounded queue with explicit
  :class:`~repro.errors.AdmissionError` rejection, per-tenant
  token-bucket quotas, and per-tenant max-inflight caps (see
  :mod:`repro.service.admission`);
* **priority-aware shedding** — under saturation the lowest-priority
  *queued* request is shed (:class:`~repro.errors.ShedError`) to make
  room for higher-priority arrivals; running work is never shed;
* **deadline propagation** — a request's end-to-end deadline starts at
  admission, keeps ticking through the queue, and is handed to the
  engine as a :class:`~repro.middleware.resilience.DeadlineGuard`
  budget, so a late query returns a partial-bound
  :class:`~repro.core.result.DegradedResult` within one access round
  of its deadline instead of hanging;
* **one access pool** — queries fan out on the engine's session
  executor (:meth:`~repro.middleware.engine.MiddlewareEngine.
  configure_parallelism`), shared by every worker; the service owns
  no pool of its own;
* **observability** — admission/shed/degradation counters, queue-depth
  and inflight gauges, and queue-wait/latency histograms in a
  :class:`~repro.observability.metrics.MetricsRegistry`, plus optional
  per-request :class:`~repro.observability.tracer.QueryTracer` traces.

The service does not replace the engine's session tracer — run it over
an engine *without* one (a shared session tracer would interleave phase
spans across worker threads); ask for per-request traces instead via
``trace_requests`` or ``submit(..., trace=True)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.core.result import TopKResult
from repro.errors import AdmissionError, ReproError, ShedError
from repro.middleware.resilience import MonotonicClock
from repro.observability.metrics import MetricsRegistry
from repro.service.admission import AdmissionQueue, TenantPolicy, TenantTable

#: ticket lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
SHED = "shed"
REJECTED = "rejected"


@dataclass(frozen=True)
class ServiceConfig:
    """Operating parameters of one :class:`QueryService`.

    ``workers``
        Query worker threads (concurrent queries in execution).
    ``queue_depth``
        Bound on the admission queue; beyond it arrivals shed
        lower-priority queued work or are rejected.
    ``default_deadline``
        End-to-end seconds granted to requests that do not bring their
        own deadline (None = no deadline).
    ``default_tenant`` / ``tenants``
        Quota policy applied to unlisted tenants, and per-tenant
        overrides.
    ``trace_requests``
        Attach a fresh :class:`~repro.observability.tracer.QueryTracer`
        to every request (read it off ``ticket.trace``).
    """

    workers: int = 4
    queue_depth: int = 64
    default_deadline: Optional[float] = None
    default_tenant: TenantPolicy = TenantPolicy()
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    trace_requests: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class QueryTicket:
    """Handle for one submitted query: status, timings, and the result.

    ``result()`` blocks until the query finishes and either returns the
    :class:`~repro.core.result.TopKResult` (possibly carrying a
    ``degraded`` report) or raises the stored error
    (:class:`~repro.errors.ShedError` for shed work, the original
    exception for failed work).  A ticket built with its ``result`` (an
    admission-time cache hit) is born done and shares one set event
    instead of allocating its own.
    """

    _born_done = threading.Event()
    _born_done.set()

    def __init__(
        self,
        query,
        k: int,
        *,
        tenant: str,
        priority: int,
        seq: int,
        prefer=None,
        theta: float = 1.0,
        deadline_at: Optional[float] = None,
        submitted_at: float = 0.0,
        trace=None,
        result: Optional[TopKResult] = None,
    ) -> None:
        self.query = query
        self.k = k
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.prefer = prefer
        self.theta = theta
        self.deadline_at = deadline_at
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.status = QUEUED
        #: per-request QueryTracer when tracing was requested
        self.trace = trace
        self._event = threading.Event() if result is None else self._born_done
        self._result = result
        self._error: Optional[BaseException] = None
        if result is not None:
            # Born complete (a cache hit): it never runs or waits.
            self.started_at = self.finished_at = submitted_at
            self.status = DONE

    # -- completion (service-side) --------------------------------------------
    def _complete(self, result: TopKResult) -> None:
        self._result = result
        self.status = DONE
        self._event.set()

    def _fail(self, error: BaseException, status: str = FAILED) -> None:
        self._error = error
        self.status = status
        self._event.set()

    # -- caller-side -----------------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until finished (or timeout); True when finished."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> TopKResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query (tenant={self.tenant!r}, seq={self.seq}) still "
                f"{self.status} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def __repr__(self) -> str:
        return (
            f"<QueryTicket seq={self.seq} tenant={self.tenant!r} "
            f"priority={self.priority} {self.status}>"
        )


class QueryService:
    """Thread-pool query front end with admission control and shedding.

    Parameters
    ----------
    engine:
        The :class:`~repro.middleware.engine.MiddlewareEngine` to serve.
        The service shares its bindings (and therefore breaker and
        fault state) and its session access executor across all
        queries; closing the service leaves both to the engine.
    config:
        A :class:`ServiceConfig`; defaults are modest and safe.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        to emit into; one is created when omitted (``service.metrics``).
    clock:
        Deadline/quota clock.  Defaults to the engine clock when that
        is a :class:`~repro.middleware.resilience.MonotonicClock`
        (production), else to a fresh ``MonotonicClock`` — pass the
        engine's :class:`~repro.middleware.resilience.VirtualClock`
        explicitly for deterministic tests.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        clock=None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if clock is None:
            engine_clock = getattr(engine, "clock", None)
            clock = (
                engine_clock
                if isinstance(engine_clock, MonotonicClock)
                else MonotonicClock()
            )
        self.clock = clock
        self._queue = AdmissionQueue(self.config.queue_depth)
        self._tenants = TenantTable(
            self.config.default_tenant, self.config.tenants, clock
        )
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._hit_meters: Dict[tuple, tuple] = {}
        self._closing = False
        self._closed = False
        self._close_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query,
        k: int,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline: Optional[float] = None,
        prefer=None,
        theta: Optional[float] = None,
        trace: Optional[bool] = None,
    ) -> QueryTicket:
        """Admit one query for execution; returns its ticket.

        Raises :class:`~repro.errors.AdmissionError` (with a machine-
        readable ``reason``) when the request cannot be taken on:
        ``"closed"`` after :meth:`close`, ``"inflight"`` at the tenant's
        max-inflight cap, ``"quota"`` on an empty token bucket, and
        ``"queue-full"`` when the queue is saturated with equal-or-
        higher-priority work.  ``deadline`` (seconds, measured from this
        call on the service clock) overrides the config default; the
        budget includes queue wait.  ``theta`` (≥ 1.0) requests a
        θ-approximate answer with a certificate (see
        :class:`~repro.core.result.ApproximationCertificate`); it
        defaults to the engine's session θ
        (:meth:`~repro.middleware.engine.MiddlewareEngine.configure_approximation`).
        θ also composes with deadlines: a deadline that fires mid-query
        yields the current best-k with a certified bound rather than a
        bare partial.

        With a result cache on the engine
        (:meth:`~repro.middleware.engine.MiddlewareEngine.configure_cache`),
        the cache is consulted right here at admission: an exact or
        prefix hit completes the ticket immediately — no queue slot, no
        tenant quota, no worker — and counts ``service.cache.hit``.
        Misses go through normal admission and execution.
        """
        self._count("service.submitted", tenant=tenant)
        theta = float(theta) if theta is not None else self.engine.theta
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1.0, got {theta}")
        if self._closing:
            self._count("service.rejected", tenant=tenant, reason="closed")
            raise AdmissionError(
                "query service is closed to new work", reason="closed"
            )
        served = self._probe_cache(
            query,
            k,
            tenant=tenant,
            priority=priority,
            prefer=prefer,
            theta=theta,
            trace=trace,
        )
        if served is not None:
            return served
        state = self._tenants.state(tenant)
        ok, reason = state.try_reserve()
        if not ok:
            self._count("service.rejected", tenant=tenant, reason=reason)
            raise AdmissionError(
                f"tenant {tenant!r} over its {reason} limit", reason=reason
            )
        now = self.clock.now()
        budget = deadline if deadline is not None else self.config.default_deadline
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        ticket = QueryTicket(
            query,
            k,
            tenant=tenant,
            priority=priority,
            seq=seq,
            prefer=prefer,
            theta=theta,
            deadline_at=(now + budget) if budget is not None else None,
            submitted_at=now,
            trace=self._make_trace(trace),
        )
        admitted, victim = self._queue.offer(ticket)
        if not admitted:
            state.release(refund_token=True)
            self._count("service.rejected", tenant=tenant, reason="queue-full")
            raise AdmissionError(
                f"admission queue full ({self.config.queue_depth} queued, "
                "no lower-priority work to shed)",
                reason="queue-full",
            )
        if victim is not None:
            self._shed(victim)
        self._count("service.admitted", tenant=tenant)
        self._gauge_queue_depth()
        self._tenant_gauge(tenant)
        return ticket

    def query(
        self,
        query,
        k: int,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline: Optional[float] = None,
        prefer=None,
        theta: Optional[float] = None,
        trace: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> TopKResult:
        """Synchronous convenience: submit and wait for the result."""
        ticket = self.submit(
            query,
            k,
            tenant=tenant,
            priority=priority,
            deadline=deadline,
            prefer=prefer,
            theta=theta,
            trace=trace,
        )
        return ticket.result(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently queued (admitted, not yet running)."""
        return len(self._queue)

    def inflight(self, tenant: str = "default") -> int:
        """One tenant's queued-plus-running query count."""
        return self._tenants.inflight(tenant)

    def stats(self) -> Dict[str, int]:
        """Aggregate service counters (across tenants), for dashboards."""
        return {
            name.rsplit(".", 1)[1]: self.metrics.counter_total(name)
            for name in (
                "service.submitted",
                "service.admitted",
                "service.rejected",
                "service.shed",
                "service.completed",
                "service.degraded",
                "service.expired",
                "service.failed",
            )
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work and wind the workers down.

        ``drain=True`` (default) lets already-queued work run to
        completion; ``drain=False`` fails queued tickets with
        :class:`~repro.errors.AdmissionError` (reason ``"closed"``)
        immediately.  Running queries always finish either way — the
        no-shed-running guarantee extends through shutdown.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closing = True
            if not drain:
                for ticket in self._queue.drain():
                    self._finish_tenant(ticket)
                    self._count(
                        "service.rejected", tenant=ticket.tenant, reason="closed"
                    )
                    ticket._fail(
                        AdmissionError(
                            "query service closed before execution",
                            reason="closed",
                        ),
                        status=REJECTED,
                    )
            self._queue.wake_all()
            for worker in self._workers:
                worker.join(timeout)
            self._closed = True

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _probe_cache(
        self, query, k, *, tenant, priority, prefer, theta, trace
    ) -> Optional[QueryTicket]:
        """Serve an admission-time cache hit, or None to admit normally.

        Only the zero-execution tiers (exact/prefix, plus θ-certified
        replays when the request tolerates them) short-circuit here.
        Binding or planning errors are swallowed: the normal submission
        path will surface them with proper accounting.
        """
        if getattr(self.engine, "cache", None) is None:
            return None
        trace_obj = self._make_trace(trace)
        try:
            result, status = self.engine.cache_probe(
                query, k, prefer=prefer, theta=theta, tracer=trace_obj
            )
        except ReproError:
            return None
        if result is None:
            self._count("service.cache.miss", tenant=tenant)
            if status == "stale":
                self._count("service.cache.stale", tenant=tenant)
            return None
        hit, admitted, completed, latency = self._hit_instruments(tenant, status)
        hit.inc()
        now = self.clock.now()
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        ticket = QueryTicket(
            query,
            k,
            tenant=tenant,
            priority=priority,
            seq=seq,
            prefer=prefer,
            theta=theta,
            submitted_at=now,
            trace=trace_obj,
            result=result,
        )
        admitted.inc()
        completed.inc()
        latency.observe(0.0)
        return ticket

    def _hit_instruments(self, tenant: str, tier: str) -> tuple:
        """The hit counter of ``tier`` and the admitted and completed
        counters and latency histogram of ``tenant``, looked up once per
        (tenant, tier)."""
        instruments = self._hit_meters.get((tenant, tier))
        if instruments is None:
            metrics = self.metrics
            instruments = self._hit_meters[(tenant, tier)] = (
                metrics.counter("service.cache.hit", tenant=tenant, tier=tier),
                metrics.counter("service.admitted", tenant=tenant),
                metrics.counter("service.completed", tenant=tenant),
                metrics.histogram("service.latency_seconds", tenant=tenant),
            )
        return instruments

    def _make_trace(self, trace: Optional[bool]):
        wanted = self.config.trace_requests if trace is None else trace
        if not wanted:
            return None
        from repro.observability.tracer import QueryTracer

        return QueryTracer()

    def _count(self, name: str, **labels) -> None:
        self.metrics.counter(name, **labels).inc()

    def _gauge_queue_depth(self) -> None:
        self.metrics.gauge("service.queue_depth").set(len(self._queue))

    def _tenant_gauge(self, tenant: str) -> None:
        self.metrics.gauge("service.inflight", tenant=tenant).set(
            self._tenants.inflight(tenant)
        )

    def _finish_tenant(self, ticket: QueryTicket) -> None:
        self._tenants.state(ticket.tenant).release()
        self._tenant_gauge(ticket.tenant)

    def _shed(self, ticket: QueryTicket) -> None:
        """Fail one queued ticket that was evicted to make room."""
        self._finish_tenant(ticket)
        self._count("service.shed", tenant=ticket.tenant)
        ticket._fail(
            ShedError(
                f"shed from the admission queue (priority {ticket.priority}) "
                "to admit higher-priority work"
            ),
            status=SHED,
        )

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.take(timeout=0.05)
            if ticket is None:
                if self._closing and len(self._queue) == 0:
                    return
                continue
            try:
                self._run_ticket(ticket)
            except BaseException as error:  # noqa: BLE001 - never kill a worker
                if not ticket.done():
                    ticket._fail(error)
                self._finish_tenant(ticket)

    def _run_ticket(self, ticket: QueryTicket) -> None:
        now = self.clock.now()
        ticket.started_at = now
        ticket.status = RUNNING
        self._gauge_queue_depth()
        self.metrics.histogram(
            "service.queue_wait_seconds", tenant=ticket.tenant
        ).observe(now - ticket.submitted_at)
        remaining: Optional[float] = None
        if ticket.deadline_at is not None:
            remaining = ticket.deadline_at - now
            if remaining <= 0:
                # Spent its whole budget queueing: degrade without
                # touching the engine (zero accesses, empty partial).
                self._count("service.expired", tenant=ticket.tenant)
                self._count("service.degraded", tenant=ticket.tenant)
                result = self._expired_result(ticket)
                self._conclude(ticket, result)
                return
        try:
            result = self.engine.top_k(
                ticket.query,
                ticket.k,
                prefer=ticket.prefer,
                theta=ticket.theta,
                tracer=ticket.trace,
                deadline=remaining,
            )
        except ReproError as error:
            self._count("service.failed", tenant=ticket.tenant)
            ticket.finished_at = self.clock.now()
            ticket._fail(error)
            self._finish_tenant(ticket)
            return
        if result.degraded is not None:
            self._count("service.degraded", tenant=ticket.tenant)
        cache_info = result.extras.get("cache")
        if cache_info is not None:
            # Served from the result cache at execution time — e.g.
            # filled between admission and here.
            self._count(
                "service.cache.served",
                tenant=ticket.tenant,
                tier=cache_info["tier"],
            )
        self._conclude(ticket, result)

    def _conclude(self, ticket: QueryTicket, result: TopKResult) -> None:
        ticket.finished_at = self.clock.now()
        self._count("service.completed", tenant=ticket.tenant)
        self.metrics.histogram(
            "service.latency_seconds", tenant=ticket.tenant
        ).observe(ticket.finished_at - ticket.submitted_at)
        ticket._complete(result)
        self._finish_tenant(ticket)

    def _expired_result(self, ticket: QueryTicket) -> TopKResult:
        from repro.core.cost import CostReport
        from repro.core.graded import GradedSet
        from repro.core.result import DegradedResult

        return TopKResult(
            answers=GradedSet({}),
            cost=CostReport(),
            algorithm="none",
            grades_exact=False,
            degraded=DegradedResult(
                failed_sources={},
                fallback="deadline-expired",
                complete=False,
                bounds={},
            ),
        )

    def __repr__(self) -> str:
        return (
            f"<QueryService workers={self.config.workers} "
            f"queue={len(self._queue)}/{self.config.queue_depth} "
            f"{'closed' if self._closed else 'open'}>"
        )
