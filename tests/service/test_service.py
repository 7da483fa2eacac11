"""QueryService: lifecycle, admission outcomes, deadlines, metrics."""

import pytest

from repro.errors import AdmissionError, ShedError
from repro.middleware.resilience import VirtualClock
from repro.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    TenantPolicy,
)

from tests.service.helpers import QUERY, build_engine, build_gated_engine


@pytest.fixture()
def engine():
    engine = build_engine()
    yield engine
    engine.close()


def test_submit_result_matches_direct_engine_answer(engine):
    expected = engine.top_k(QUERY, 5)
    with QueryService(engine) as service:
        ticket = service.submit(QUERY, 5)
        result = ticket.result(timeout=10)
    assert ticket.status == "done"
    assert [(i.object_id, i.grade) for i in result.answers] == [
        (i.object_id, i.grade) for i in expected.answers
    ]
    assert result.algorithm == expected.algorithm


def test_sync_query_convenience(engine):
    expected = engine.top_k(QUERY, 3)
    with QueryService(engine) as service:
        result = service.query(QUERY, 3, timeout=10)
    assert [i.object_id for i in result.answers] == [
        i.object_id for i in expected.answers
    ]


def test_ticket_exposes_lifecycle_metadata(engine):
    with QueryService(engine) as service:
        ticket = service.submit(QUERY, 2, tenant="gold", priority=3)
        ticket.result(timeout=10)
    assert isinstance(ticket, QueryTicket)
    assert ticket.tenant == "gold"
    assert ticket.priority == 3
    assert ticket.finished_at is not None
    assert ticket.finished_at >= ticket.started_at >= ticket.submitted_at
    assert "gold" in repr(ticket)


def test_quota_rejection_reason_and_refill(engine):
    clock = VirtualClock()
    config = ServiceConfig(
        tenants={"metered": TenantPolicy(rate=1.0, burst=1.0)}
    )
    with QueryService(engine, config, clock=clock) as service:
        service.query(QUERY, 2, tenant="metered", timeout=10)
        with pytest.raises(AdmissionError) as caught:
            service.submit(QUERY, 2, tenant="metered")
        assert caught.value.reason == "quota"
        clock.sleep(1.0)  # bucket refills at 1 token/s
        service.query(QUERY, 2, tenant="metered", timeout=10)
        assert service.metrics.counter_total("service.rejected") == 1


def test_inflight_cap_rejection():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(
        workers=2,
        tenants={"capped": TenantPolicy(max_inflight=1)},
    )
    try:
        with QueryService(engine, config) as service:
            first = service.submit(atom, 3, tenant="capped")
            assert gate.started.wait(timeout=10)  # first is RUNNING
            with pytest.raises(AdmissionError) as caught:
                service.submit(atom, 3, tenant="capped")
            assert caught.value.reason == "inflight"
            gate.open()
            first.result(timeout=10)
            # Slot freed: the tenant can submit again.
            service.query(atom, 3, tenant="capped", timeout=10)
    finally:
        engine.close()


def test_queue_full_rejects_equal_priority():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(workers=1, queue_depth=1)
    try:
        with QueryService(engine, config) as service:
            running = service.submit(atom, 3)
            assert gate.started.wait(timeout=10)
            queued = service.submit(atom, 3)  # fills the queue
            with pytest.raises(AdmissionError) as caught:
                service.submit(atom, 3)  # same priority: refused
            assert caught.value.reason == "queue-full"
            gate.open()
            assert running.result(timeout=10).answers
            assert queued.result(timeout=10).answers
    finally:
        engine.close()


def test_higher_priority_sheds_queued_lower_priority():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(workers=1, queue_depth=1)
    try:
        with QueryService(engine, config) as service:
            running = service.submit(atom, 3, priority=0)
            assert gate.started.wait(timeout=10)
            victim = service.submit(atom, 3, priority=0)  # queued
            vip = service.submit(atom, 3, priority=5)  # sheds the victim
            assert victim.status == "shed"
            with pytest.raises(ShedError) as caught:
                victim.result(timeout=1)
            assert caught.value.reason == "shed"
            # The RUNNING query was never touched.
            assert running.status == "running"
            gate.open()
            assert running.result(timeout=10).answers
            assert vip.result(timeout=10).answers
            assert service.metrics.counter_total("service.shed") == 1
    finally:
        engine.close()


def test_never_sheds_running_work():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(workers=1, queue_depth=1)
    try:
        with QueryService(engine, config) as service:
            running = service.submit(atom, 3, priority=0)
            assert gate.started.wait(timeout=10)
            # Queue is empty; a flood of high-priority arrivals fills it
            # and then gets refused — the running low-priority query is
            # not a shedding candidate.
            service.submit(atom, 3, priority=9)
            with pytest.raises(AdmissionError):
                service.submit(atom, 3, priority=9)
            assert running.status == "running"
            gate.open()
            assert running.result(timeout=10).answers
    finally:
        engine.close()


def test_deadline_expired_in_queue_degrades_without_running(engine):
    clock = VirtualClock()
    with QueryService(engine, clock=clock) as service:
        # A zero budget is already spent when a worker picks it up.
        result = service.query(QUERY, 5, deadline=0.0, timeout=10)
    assert result.degraded is not None
    assert result.degraded.fallback == "deadline-expired"
    assert not result.degraded.complete
    assert len(result.answers) == 0
    assert result.cost.database_access_cost == 0
    assert service.metrics.counter_total("service.expired") == 1
    assert service.metrics.counter_total("service.degraded") == 1


def test_default_deadline_from_config(engine):
    clock = VirtualClock()
    config = ServiceConfig(default_deadline=0.0)
    with QueryService(engine, config, clock=clock) as service:
        assert service.query(QUERY, 5, timeout=10).degraded is not None
        # An explicit per-request deadline overrides the default.
        assert service.query(QUERY, 5, deadline=60.0, timeout=10).degraded is None


def test_submit_after_close_rejected(engine):
    service = QueryService(engine)
    service.close()
    with pytest.raises(AdmissionError) as caught:
        service.submit(QUERY, 5)
    assert caught.value.reason == "closed"
    service.close()  # idempotent


def test_close_drains_queued_work_by_default():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(workers=1, queue_depth=4)
    try:
        service = QueryService(engine, config)
        running = service.submit(atom, 3)
        assert gate.started.wait(timeout=10)
        queued = [service.submit(atom, 3) for _ in range(3)]
        gate.open()
        service.close()  # drain=True
        assert running.result(timeout=0).answers
        for ticket in queued:
            assert ticket.result(timeout=0).answers
    finally:
        engine.close()


def test_close_without_drain_fails_queued_not_running():
    engine, gate, atom = build_gated_engine()
    config = ServiceConfig(workers=1, queue_depth=4)
    try:
        service = QueryService(engine, config)
        running = service.submit(atom, 3)
        assert gate.started.wait(timeout=10)
        queued = [service.submit(atom, 3) for _ in range(3)]
        gate.open()
        service.close(drain=False)
        # The running query still finished; queued work was refused.
        assert running.result(timeout=0).answers
        for ticket in queued:
            if ticket.status == "rejected":
                with pytest.raises(AdmissionError):
                    ticket.result(timeout=0)
    finally:
        engine.close()


def test_result_timeout_raises_timeout_error():
    engine, gate, atom = build_gated_engine()
    try:
        with QueryService(engine, ServiceConfig(workers=1)) as service:
            ticket = service.submit(atom, 3)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
            gate.open()
            assert ticket.result(timeout=10).answers
    finally:
        engine.close()


def test_metrics_counters_and_gauges(engine):
    with QueryService(engine) as service:
        for _ in range(4):
            service.query(QUERY, 3, tenant="a", timeout=10)
        service.query(QUERY, 3, tenant="b", timeout=10)
        stats = service.stats()
    assert stats["submitted"] == 5
    assert stats["admitted"] == 5
    assert stats["completed"] == 5
    assert stats["rejected"] == stats["shed"] == stats["failed"] == 0
    rendered = service.metrics.as_dict()
    assert rendered["counters"]["service.completed{tenant=a}"] == 4
    assert rendered["counters"]["service.completed{tenant=b}"] == 1
    assert rendered["gauges"]["service.queue_depth"] == 0
    assert rendered["gauges"]["service.inflight{tenant=a}"] == 0
    latency = rendered["histograms"]["service.latency_seconds{tenant=a}"]
    assert latency["count"] == 4
    wait = rendered["histograms"]["service.queue_wait_seconds{tenant=a}"]
    assert wait["count"] == 4


def test_per_request_trace(engine):
    with QueryService(engine) as service:
        traced = service.submit(QUERY, 3, trace=True)
        plain = service.submit(QUERY, 3)
        traced.result(timeout=10)
        plain.result(timeout=10)
    assert traced.trace is not None
    assert traced.trace.events, "trace should have recorded the query"
    assert plain.trace is None


def test_trace_requests_config_default(engine):
    with QueryService(engine, ServiceConfig(trace_requests=True)) as service:
        ticket = service.submit(QUERY, 3)
        ticket.result(timeout=10)
        opt_out = service.submit(QUERY, 3, trace=False)
        opt_out.result(timeout=10)
    assert ticket.trace is not None
    assert opt_out.trace is None


def test_config_validation(engine):
    with pytest.raises(ValueError):
        ServiceConfig(workers=0)
    # θ is the engine's knob; the service validates it per request
    with QueryService(engine) as service:
        with pytest.raises(ValueError):
            service.submit(QUERY, 3, theta=0.5)


def test_requests_default_to_the_engine_theta(engine):
    engine.configure_approximation(1.5)
    expected = engine.top_k(QUERY, 5)
    assert expected.approximation is not None
    with QueryService(engine) as service:
        result = service.query(QUERY, 5, timeout=10)
        exact = service.query(QUERY, 5, theta=1.0, timeout=10)
    assert result.approximation is not None
    assert result.approximation.theta == 1.5
    assert result.cost == expected.cost
    assert [(i.object_id, i.grade) for i in result.answers] == [
        (i.object_id, i.grade) for i in expected.answers
    ]
    assert exact.approximation is None


def test_failed_query_surfaces_original_error(engine):
    from repro.core.query import Atomic

    with QueryService(engine) as service:
        ticket = service.submit(Atomic("NoSuch", "thing"), 3)
        with pytest.raises(Exception):
            ticket.result(timeout=10)
    assert ticket.status == "failed"
    assert service.metrics.counter_total("service.failed") == 1


def test_service_fans_out_on_the_engine_pool(engine):
    """Every service worker fans out on the engine's one session pool;
    closing the service leaves that pool to the engine, and closing the
    engine releases it."""
    import threading

    def answers(result):
        return [(i.object_id, i.grade) for i in result.answers]

    def pool_threads():
        # single-thunk fan-outs run inline on the calling thread
        return {t for t in threads if t.name.startswith("repro-access")}

    expected = answers(engine.top_k(QUERY, 5))
    pool = engine.configure_parallelism(2)
    threads = set()
    pool.before_access = lambda index: threads.add(threading.current_thread())
    with QueryService(engine, ServiceConfig(workers=3)) as service:
        tickets = [service.submit(QUERY, 5) for _ in range(12)]
        for ticket in tickets:
            assert answers(ticket.result(timeout=10)) == expected
    assert 1 <= len(pool_threads()) <= 2
    assert engine.executor is pool
    workers = pool._pool
    assert workers is not None  # still running after the service closed
    assert answers(engine.top_k(QUERY, 5)) == expected
    assert pool._pool is workers  # the same pool, not a new one
    engine.close()
    assert engine.executor is None
    assert pool._pool is None  # worker threads released


def test_service_repr(engine):
    service = QueryService(engine)
    assert "open" in repr(service)
    service.close()
    assert "closed" in repr(service)
