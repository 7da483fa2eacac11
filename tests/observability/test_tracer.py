"""QueryTracer unit behaviour: events, spans, samples, serialization."""

import json

import pytest

from repro.errors import TraceError
from repro.observability import MetricsRegistry, QueryTracer, validate_trace


def test_steps_are_contiguous_and_zero_based():
    tracer = QueryTracer()
    with tracer.phase("p"):
        tracer.record_sorted("L", "a", 0.5, position=1)
        tracer.record_random("L", "b", 0.25)
        tracer.sample("x", 1.0)
        tracer.event("note")
    steps = [event["step"] for event in tracer.events]
    assert steps == list(range(len(tracer.events)))
    validate_trace(tracer.as_dict())


def test_events_carry_innermost_phase():
    tracer = QueryTracer()
    with tracer.phase("outer"):
        tracer.record_sorted("L", "a", 0.5)
        with tracer.phase("inner"):
            tracer.record_random("L", "a", 0.5)
        tracer.record_sorted("L", "b", 0.4)
    by_type = {e["type"]: e for e in tracer.events if e["type"] in ("sorted", "random")}
    assert by_type["random"]["phase"] == "inner"
    assert by_type["sorted"]["phase"] == "outer"
    assert tracer.current_phase is None


def test_no_clock_means_no_timestamps():
    tracer = QueryTracer()
    with tracer.phase("p"):
        pass
    assert all("seconds" not in event for event in tracer.events)


def test_injected_clock_measures_phase_seconds():
    ticks = iter([10.0, 12.5])
    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics, clock=lambda: next(ticks))
    with tracer.phase("p"):
        pass
    end = tracer.events[-1]
    assert end["type"] == "phase_end"
    assert end["seconds"] == pytest.approx(2.5)
    histogram = metrics.histogram("phase.seconds", phase="p")
    assert histogram.count == 1
    assert histogram.total == pytest.approx(2.5)


def test_samples_feed_metrics_series():
    metrics = MetricsRegistry()
    tracer = QueryTracer(metrics=metrics)
    tracer.sample("tau", 0.9)
    tracer.sample("tau", 0.7)
    series = metrics.series("tau")
    assert series.values == [0.9, 0.7]
    assert tracer.samples("tau") == [(0, 0.9), (1, 0.7)]


def test_retract_takes_back_sorted_records_and_renumbers_what_follows():
    # the run as if L2's two records had never been made
    def run(refused):
        tracer = QueryTracer(metrics=MetricsRegistry())
        withdrawn = []
        with tracer.phase("ta"):
            tracer.record_sorted("L1", "a", 0.9, position=1)
            withdrawn.append(tracer.record_sorted("L2", "b", 0.8, position=1))
            tracer.sample("ta.tau", 0.8)
            withdrawn.append(tracer.record_sorted("L2", "c", 0.7, position=2))
            tracer.record_random("L1", "b", 0.5)
            tracer.sample("ta.tau", 0.7)
            if refused:
                tracer.retract(withdrawn)
            tracer.event("degraded")
        return tracer

    tracer, clean = run(True), run(False)
    assert [e["type"] for e in tracer.events].count("sorted") == 1
    validate_trace(tracer.as_dict())
    assert tracer.access_counts() == {"L1": (1, 1)}
    assert tracer.samples("ta.tau") == [(2, 0.8), (4, 0.7)]
    assert tracer.metrics.series("ta.tau").snapshot() == [(2, 0.8), (4, 0.7)]
    assert tracer.metrics.counter_total("accesses.sorted") == 1
    assert tracer.metrics.counter_total("accesses.random") == 1
    assert tracer.step == len(tracer.events) == len(clean.events) - 2
    tracer.retract([])
    assert tracer.step == len(tracer.events)


def test_access_counts_tally_per_source():
    tracer = QueryTracer()
    tracer.record_sorted("A", "x", 0.5)
    tracer.record_sorted("A", "y", 0.4)
    tracer.record_random("B", "x", 0.3)
    assert tracer.access_counts() == {"A": (2, 0), "B": (0, 1)}


def test_to_json_is_deterministic_and_round_trips():
    def record():
        tracer = QueryTracer()
        with tracer.phase("p", k=2):
            tracer.record_sorted("L", "a", 0.5, position=1)
            tracer.sample("tau", 0.5)
        return tracer

    first, second = record().to_json(), record().to_json()
    assert first == second
    assert first.endswith("\n")
    validate_trace(json.loads(first))


# ---------------------------------------------------------- schema guards


def test_validate_rejects_wrong_version():
    with pytest.raises(TraceError, match="version"):
        validate_trace({"version": 999, "events": []})


def test_validate_rejects_non_contiguous_steps():
    payload = {"version": 1, "events": [{"step": 5, "type": "event", "name": "x"}]}
    with pytest.raises(TraceError, match="contiguous"):
        validate_trace(payload)


def test_validate_rejects_unknown_event_type():
    payload = {"version": 1, "events": [{"step": 0, "type": "mystery"}]}
    with pytest.raises(TraceError, match="unknown type"):
        validate_trace(payload)


def test_validate_rejects_out_of_range_grade():
    payload = {
        "version": 1,
        "events": [
            {"step": 0, "type": "sorted", "source": "L", "object": "a", "grade": 1.5}
        ],
    }
    with pytest.raises(TraceError, match="outside"):
        validate_trace(payload)


def test_validate_rejects_missing_access_fields():
    payload = {
        "version": 1,
        "events": [{"step": 0, "type": "random", "object": "a", "grade": 0.5}],
    }
    with pytest.raises(TraceError, match="source"):
        validate_trace(payload)


def test_validate_rejects_unbalanced_phases():
    payload = {
        "version": 1,
        "events": [{"step": 0, "type": "phase_start", "phase": "p"}],
    }
    with pytest.raises(TraceError, match="unclosed"):
        validate_trace(payload)
    payload = {
        "version": 1,
        "events": [
            {"step": 0, "type": "phase_start", "phase": "p"},
            {"step": 1, "type": "phase_end", "phase": "q"},
        ],
    }
    with pytest.raises(TraceError, match="does not match"):
        validate_trace(payload)
