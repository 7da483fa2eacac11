"""Index physical work in traces and EXPLAIN, and IndexStats under threads."""

import threading

from repro.core.query import Atomic
from repro.index import IndexStats
from repro.observability import MetricsRegistry, QueryTracer, render_trace_explain
from repro.workloads.image_corpus import build_image_database


def traced_run(knn_index="vafile"):
    engine = build_image_database(80, seed=0, knn_index=knn_index)
    try:
        tracer = engine.configure_observability(
            QueryTracer(metrics=MetricsRegistry())
        )
        result = engine.top_k(Atomic("Near", "sunset"), 5)
        return result, tracer
    finally:
        engine.close()


def test_tracer_carries_index_breakdown_and_samples():
    _, tracer = traced_run()
    breakdowns = [
        event
        for event in tracer.events
        if event.get("type") == "event"
        and event.get("name") == "index_breakdown"
    ]
    assert breakdowns, "no index_breakdown event in the trace"
    attrs = breakdowns[0]["attrs"]
    assert attrs["index"] == "vafile"
    assert attrs["source"].startswith("Near=")
    assert attrs["n"] == 80
    assert attrs["node_accesses"] > 0
    assert attrs["distance_evals"] > 0
    nodes = tracer.samples("index.node_accesses")
    evals = tracer.samples("index.distance_evals")
    assert nodes and nodes[-1][1] == float(attrs["node_accesses"])
    assert evals and evals[-1][1] == float(attrs["distance_evals"])


def test_explain_renders_accesses_by_index():
    _, tracer = traced_run()
    rendered = render_trace_explain(tracer)
    assert "accesses by index:" in rendered
    assert "vafile over n=80" in rendered


def test_untraced_and_scanless_runs_stay_clean():
    # No knn subsystem -> no index section in the rendered EXPLAIN.
    engine = build_image_database(40, seed=0)
    try:
        tracer = engine.configure_observability(
            QueryTracer(metrics=MetricsRegistry())
        )
        engine.top_k(Atomic("Category", "product"), 3)
        assert "accesses by index:" not in render_trace_explain(tracer)
    finally:
        engine.close()


def test_index_stats_counts_are_exact_under_threads():
    stats = IndexStats()
    threads, per_thread = 8, 2500

    def hammer():
        for _ in range(per_thread):
            stats.record_nodes()
            stats.record_distances(2)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert stats.snapshot() == (
        threads * per_thread,
        2 * threads * per_thread,
    )
    stats.reset()
    assert stats.snapshot() == (0, 0)


def index_lines(engine, statements):
    """The EXPLAIN "accesses by index" lines of ``statements`` run in
    order through one session tracer, as ``repro sql --explain`` does."""
    from repro.sql.compiler import execute

    tracer = engine.configure_observability(QueryTracer(metrics=MetricsRegistry()))
    for statement in statements:
        execute(statement, engine)
    lines = render_trace_explain(tracer).splitlines()
    start = lines.index("accesses by index:") + 1
    return [line for line in lines[start:] if line.startswith("  Near=")]


def test_a_traced_query_reports_its_own_index_work():
    """Each query's breakdown counts the index work done during that
    query only, not the shared index's lifetime totals: a repeat that
    reuses its binding scans nothing, and a later query reports what it
    reports alone in a fresh engine."""
    sunset = "SELECT * FROM images WHERE Near = 'sunset' AND Color = 'red' STOP AFTER 3"
    dawn = "SELECT * FROM images WHERE Near = 'dawn' AND Color = 'red' STOP AFTER 3"
    engine = build_image_database(300, seed=0, knn_index="vafile")
    fresh = build_image_database(300, seed=0, knn_index="vafile")
    try:
        first, repeat, later = index_lines(engine, [sunset, sunset, dawn])
        (alone,) = index_lines(fresh, [dawn])
    finally:
        engine.close()
        fresh.close()
    assert "node accesses 300," in first
    assert "node accesses 0," in repeat
    assert later == alone
