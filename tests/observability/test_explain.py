"""EXPLAIN: source statistics, report rendering, engine and CLI paths."""

import filecmp
import json
import random

import pytest

from repro.cli import main
from repro.core.query import Atomic
from repro.core.sources import ArraySource
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem
from repro.middleware.relational import BooleanSource, RelationalSubsystem
from repro.observability import QueryTracer, validate_trace
from repro.observability.explain import describe_sources, phase_breakdown
from repro.scoring import tnorms

N = 60


def build_engine():
    rng = random.Random(5)
    rows = {
        f"g{i}": {"Artist": "Beatles" if i % 6 == 0 else "Other"} for i in range(N)
    }
    engine = MiddlewareEngine()
    engine.register(RelationalSubsystem("rdbms", rows))
    colors = ListSubsystem("qbic")
    colors.add_list("Color", "red", {f"g{i}": rng.random() for i in range(N)})
    engine.register(colors)
    return engine


COLOR = Atomic("Color", "red")
ARTIST = Atomic("Artist", "Beatles")


# ------------------------------------------------------- building blocks


def test_describe_sources_reports_stats_and_chain():
    fuzzy = ArraySource({"a": 0.5, "b": 0.2}, name="Color")
    crisp = BooleanSource({"a": 1.0, "b": 0.0}, name="Artist")
    fuzzy_stats, crisp_stats = describe_sources([fuzzy, crisp])
    assert fuzzy_stats.name == "Color"
    assert fuzzy_stats.size == 2
    assert not fuzzy_stats.is_boolean
    assert fuzzy_stats.wrappers == ("ArraySource",)
    assert crisp_stats.is_boolean
    assert crisp_stats.positive_count == 1
    assert "boolean, 1 positive" in crisp_stats.describe()


def test_phase_breakdown_groups_accesses():
    tracer = QueryTracer()
    with tracer.phase("scan"):
        tracer.record_sorted("L", "a", 0.9)
        tracer.record_sorted("L", "b", 0.7)
    with tracer.phase("fill"):
        tracer.record_random("M", "a", 0.4)
    tracer.record_sorted("L", "c", 0.5)  # outside any phase
    assert phase_breakdown(tracer.events) == {
        "scan": {"sorted": 2, "random": 0},
        "fill": {"sorted": 0, "random": 1},
        "-": {"sorted": 1, "random": 0},
    }


# ------------------------------------------------------------ engine API


def test_explain_report_without_run_executes_nothing():
    engine = build_engine()
    report = engine.explain_report(COLOR & ARTIST, 4)
    assert report.executed is None
    for source in engine.bind_all(COLOR & ARTIST):
        assert source.counter.sorted_accesses == 0
        assert source.counter.random_accesses == 0
    text = report.render()
    assert "plan:" in text and "atoms:" in text
    assert "executed:" not in text


def test_explain_report_with_run_carries_actuals():
    engine = build_engine()
    report = engine.explain_report(COLOR & ARTIST, 4, run=True)
    assert report.executed is not None
    assert report.executed["cost"] == (
        report.executed["sorted"] + report.executed["random"]
    )
    assert report.phases, "a run must produce a per-phase breakdown"
    text = report.render()
    assert "executed: cost" in text
    assert "phases:" in text


def test_explain_matches_executed_strategy():
    engine = build_engine()
    plan = engine.explain(COLOR & ARTIST, 4)
    result = engine.top_k(COLOR & ARTIST, 4)
    assert result.algorithm is not None
    assert plan.k == 4


def test_session_tracer_records_engine_queries():
    engine = build_engine()
    tracer = engine.configure_observability(QueryTracer())
    engine.top_k(COLOR & ARTIST, 3)
    validate_trace(tracer.as_dict())
    phases = [e["phase"] for e in tracer.events if e["type"] == "phase_start"]
    assert phases[0] == "query"
    plans = [
        e for e in tracer.events if e["type"] == "event" and e["name"] == "plan"
    ]
    assert len(plans) == 1
    assert plans[0]["attrs"]["k"] == 3
    counts = tracer.access_counts()
    assert sum(s + r for s, r in counts.values()) > 0


# --------------------------------------------------------------- CLI path


SQL = "SELECT * FROM albums WHERE AlbumColor = 'red' STOP AFTER 4"


def run_cli(tmp_path, name):
    out = tmp_path / name
    code = main(
        ["sql", "--size", "200", SQL, "--explain", "--trace-out", str(out)]
    )
    assert code == 0
    return out


def test_cli_explain_prints_report(capsys, tmp_path):
    run_cli(tmp_path, "t.json")
    output = capsys.readouterr().out
    assert "plan:" in output
    assert "accesses" in output or "sorted" in output


def test_cli_trace_out_is_schema_valid_and_deterministic(capsys, tmp_path):
    first = run_cli(tmp_path, "first.json")
    second = run_cli(tmp_path, "second.json")
    capsys.readouterr()
    validate_trace(json.loads(first.read_text(encoding="utf-8")))
    assert filecmp.cmp(first, second, shallow=False), (
        "two identical CLI runs must write byte-identical traces"
    )
