"""Command-line interface: ``python -m repro <command>``.

The closest thing a library gets to the paper's "user interface"
concern (section 6): an SQL shell over a demo database, a guided demo,
and the experiment reproduction suite.

Commands
--------
``demo``
    A compact tour: build the CD store, run the Beatles query, show the
    plan and the costs.
``sql [--database {cds,images}] [--size N] [QUERY]``
    Execute one SQL statement (or start an interactive shell when no
    query is given) against a generated demo database.
``experiments [--quick]``
    Regenerate the E1–E18 tables (EXPERIMENTS.md's numbers).
``serve-demo``
    Run a multi-tenant :class:`~repro.service.QueryService` workload
    over the CD store and print the admission/latency summary — the
    serving-layer tour (deadlines, quotas, shedding).

``demo`` and ``sql`` accept ``--fault-profile`` (inject subsystem
failures: a preset like ``flaky`` or ``key=value`` pairs, see
:mod:`repro.middleware.faults`) and ``--retry-policy`` (retry/breaker
settings, see :mod:`repro.middleware.resilience`).  Giving a fault
profile turns the default resilience policy on, so the demo survives
its own chaos; add ``--retry-policy`` to tune it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.query import Atomic
from repro.errors import ReproError
from repro.index.source import INDEX_KINDS
from repro.middleware.engine import MiddlewareEngine
from repro.sql.compiler import execute as execute_sql


def _build_database(
    kind: str, size: int, knn_index: Optional[str] = None
) -> MiddlewareEngine:
    if kind == "cds":
        if knn_index is not None:
            raise ReproError(
                "--index needs the feature-vector corpus; use it with "
                "'--database images'"
            )
        from repro.workloads.cd_store import build_store, generate_catalog

        return build_store(generate_catalog(size, seed=0))
    if kind == "images":
        from repro.workloads.image_corpus import build_image_database

        return build_image_database(size, seed=0, knn_index=knn_index)
    raise ReproError(f"unknown demo database {kind!r}; use 'cds' or 'images'")


def _apply_observability(engine: MiddlewareEngine, args: argparse.Namespace):
    """Install a session tracer when --explain / --trace-out asked for one."""
    if not getattr(args, "explain", False) and not getattr(args, "trace_out", None):
        return None
    from repro.observability import MetricsRegistry, QueryTracer

    return engine.configure_observability(QueryTracer(metrics=MetricsRegistry()))


def _finish_observability(tracer, args: argparse.Namespace) -> None:
    """Print the EXPLAIN view and/or write the trace file after a run."""
    if tracer is None:
        return
    from repro.observability import render_trace_explain, validate_trace

    if getattr(args, "explain", False):
        print(render_trace_explain(tracer))
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        validate_trace(tracer.as_dict())
        with open(trace_out, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_json())
        print(f"trace written: {trace_out} ({len(tracer.events)} events)")


def _apply_parallelism(engine: MiddlewareEngine, args: argparse.Namespace) -> None:
    """Wire --max-workers into the engine, if given."""
    max_workers = getattr(args, "max_workers", None)
    if max_workers is not None:
        engine.configure_parallelism(max_workers)


def _apply_storage(engine: MiddlewareEngine, args: argparse.Namespace) -> None:
    """Wire --backend / --shards / --storage-dir into the engine."""
    backend = getattr(args, "backend", None)
    shards = getattr(args, "shards", None)
    directory = getattr(args, "storage_dir", None)
    if backend is None and (shards is None or shards <= 1):
        return
    engine.configure_storage(
        backend, shards=shards if shards else 1, directory=directory
    )


def _apply_cache(engine: MiddlewareEngine, args: argparse.Namespace) -> None:
    """Wire --cache into the engine, if given."""
    if getattr(args, "cache", False):
        engine.configure_cache()


def _apply_theta(engine: MiddlewareEngine, args: argparse.Namespace) -> None:
    """Wire --theta into the engine, if given."""
    theta = getattr(args, "theta", None)
    if theta is not None:
        engine.configure_approximation(theta)


def _apply_resilience(engine: MiddlewareEngine, args: argparse.Namespace) -> None:
    """Wire --fault-profile / --retry-policy into the engine, if given."""
    fault_spec = getattr(args, "fault_profile", None)
    retry_spec = getattr(args, "retry_policy", None)
    if not fault_spec and not retry_spec:
        return
    from repro.middleware.faults import FaultProfile
    from repro.middleware.resilience import ResiliencePolicy

    profile = FaultProfile.parse(fault_spec) if fault_spec else None
    if retry_spec:
        policy = ResiliencePolicy.parse(retry_spec)
    else:
        # Injecting faults without any resilience would just crash the
        # demo; default the policy on so degradation can be watched.
        policy = ResiliencePolicy() if profile is not None else None
    engine.configure_resilience(policy, fault_profile=profile)


def _print_result(result) -> None:
    print(f"algorithm: {result.algorithm}   "
          f"cost: {result.database_access_cost} accesses "
          f"(sorted {result.cost.sorted_access_cost}, "
          f"random {result.cost.random_access_cost})")
    degraded = getattr(result, "degraded", None)
    if degraded is not None:
        failed = "; ".join(
            f"{name}: {reason}"
            for name, reason in sorted(degraded.failed_sources.items())
        )
        status = "answers still exact" if degraded.complete else "partial answers"
        print(f"degraded: fell back to {degraded.fallback} ({status})")
        print(f"  failures: {failed}")
    certificate = getattr(result, "approximation", None)
    if certificate is not None:
        kind = "anytime" if certificate.anytime else "theta-stop"
        achieved = (
            "unbounded" if certificate.achieved == float("inf")
            else f"{certificate.achieved:.4f}"
        )
        print(f"approximation: {kind} certificate — requested "
              f"theta={certificate.theta:g}, certified ratio {achieved}")
    cache_info = result.extras.get("cache")
    if cache_info:
        print(f"cache: {cache_info['tier']} "
              f"(k'={cache_info['k_cached']}, tau={cache_info['tau']:.4f})")
    resilience = result.extras.get("resilience")
    if resilience:
        for name, entry in sorted(resilience.items()):
            parts = [f"retries={entry.get('retries', 0)}"]
            if "sorted_circuit" in entry:
                parts.append(
                    f"circuits sorted={entry['sorted_circuit']} "
                    f"random={entry['random_circuit']}"
                )
            injected = entry.get("injected")
            if injected:
                shaped = ", ".join(f"{kind}={n}" for kind, n in injected.items() if n)
                parts.append(f"injected [{shaped or 'none'}]")
            print(f"  resilience {name}: " + "  ".join(parts))
    rows = result.extras.get("rows")
    if rows:
        for row in rows:
            attributes = ", ".join(
                f"{name}={value!r}"
                for name, value in row.items()
                if name not in ("object_id", "grade")
            )
            print(f"  {row['object_id']}: {row['grade']:.4f}  {attributes}")
        return
    for item in result.answers:
        print(f"  {item.object_id}: {item.grade:.4f}")


def cmd_demo(args: argparse.Namespace) -> int:
    """The guided tour: the Beatles query with plan and costs."""
    engine = _build_database("cds", 2000)
    try:
        _apply_resilience(engine, args)
        _apply_storage(engine, args)
        _apply_parallelism(engine, args)
        _apply_cache(engine, args)
        _apply_theta(engine, args)
        tracer = _apply_observability(engine, args)
        query = Atomic("Artist", "Beatles") & Atomic("AlbumColor", "red")
        print(f"query: {query}")
        plan = engine.explain(query, args.k)
        print(f"plan:  {plan.strategy.value} — {plan.reason} "
              f"(estimated cost {plan.estimated_cost:.0f})")
        _print_result(engine.top_k(query, args.k))
        _finish_observability(tracer, args)
        print("\ntry the SQL shell:  python -m repro sql")
        return 0
    finally:
        engine.close()


def cmd_sql(args: argparse.Namespace) -> int:
    """One-shot statement or interactive shell over a demo database."""
    engine = _build_database(
        args.database, args.size, knn_index=getattr(args, "index", None)
    )
    try:
        _apply_resilience(engine, args)
        _apply_storage(engine, args)
        _apply_parallelism(engine, args)
        _apply_cache(engine, args)
        _apply_theta(engine, args)
        tracer = _apply_observability(engine, args)
        if args.query:
            code = _run_statement(engine, " ".join(args.query), args.k)
            _finish_observability(tracer, args)
            return code
        print(f"repro SQL shell over the {args.database!r} demo database "
              f"({args.size} objects).")
        print("example: SELECT * FROM albums WHERE Artist = 'Beatles' "
              "AND AlbumColor = 'red' STOP AFTER 5")
        print("empty line or Ctrl-D exits.")
        while True:
            try:
                line = input("fuzzy> ").strip()
            except EOFError:
                print()
                _finish_observability(tracer, args)
                return 0
            if not line:
                _finish_observability(tracer, args)
                return 0
            _run_statement(engine, line, args.k)
    finally:
        engine.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive a QueryService workload and print the serving summary."""
    from repro.middleware.resilience import MonotonicClock
    from repro.service import (
        AdmissionError,
        QueryService,
        ServiceConfig,
        TenantPolicy,
    )

    engine = _build_database("cds", args.size)
    try:
        _apply_resilience(engine, args)
        _apply_storage(engine, args)
        _apply_cache(engine, args)
        query = Atomic("Artist", "Beatles") & Atomic("AlbumColor", "red")
        config = ServiceConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            default_deadline=args.deadline,
            access_workers=args.max_workers or 1,
            default_theta=getattr(args, "theta", None) or 1.0,
            tenants={
                "bronze": TenantPolicy(rate=50.0, burst=8.0, max_inflight=8),
            },
        )
        print(f"serving {args.requests} requests across 2 tenants "
              f"({config.workers} workers, queue depth "
              f"{config.queue_depth}, deadline {args.deadline}s)")
        with QueryService(engine, config, clock=MonotonicClock()) as service:
            tickets = []
            for index in range(args.requests):
                tenant = "gold" if index % 3 == 0 else "bronze"
                priority = 1 if tenant == "gold" else 0
                try:
                    tickets.append(
                        service.submit(query, args.k, tenant=tenant,
                                       priority=priority)
                    )
                except AdmissionError as error:
                    print(f"  rejected ({error.reason}): request {index} "
                          f"from {tenant}")
            for ticket in tickets:
                try:
                    ticket.result(timeout=30)
                except AdmissionError:
                    pass
            stats = service.stats()
        print("summary: " + "  ".join(
            f"{name}={value}" for name, value in stats.items()))
        latency = service.metrics.histogram(
            "service.latency_seconds", tenant="gold").as_dict()
        if latency["count"]:
            print(f"gold latency: mean "
                  f"{latency['sum'] / latency['count'] * 1e3:.2f}ms over "
                  f"{latency['count']} queries")
        return 0
    finally:
        engine.close()


def _run_statement(engine: MiddlewareEngine, text: str, default_k: int) -> int:
    try:
        result = execute_sql(text, engine, default_k=default_k)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_result(result)
    return 0


def _experiments_inline(quick: bool) -> int:
    """A fast subset of the experiment suite (the full sweep lives in
    examples/reproduce_paper.py)."""
    from repro.harness import (
        e1_cost_vs_n,
        e4_disjunction,
        e9_adversary,
        e10_uniqueness,
    )
    from repro.harness.reporting import format_table

    suite = (
        ("E1", lambda: e1_cost_vs_n(ns=(1000, 2000, 4000), seeds=(0,))),
        ("E4", lambda: e4_disjunction(ns=(1000, 4000), ms=(2,))),
        ("E9", lambda: e9_adversary(ns=(1000, 2000, 4000))),
        ("E10", lambda: e10_uniqueness()),
    )
    for title, runner in suite:
        result = runner()
        print(f"\n== {title} ==")
        print(format_table(result.headers, result.rows))
        for note in result.notes:
            print(f"  * {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy top-k queries for multimedia middleware "
        "(Fagin, PODS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_resilience_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--fault-profile", metavar="SPEC", default=None,
            help="inject subsystem faults: preset (none, flaky, slow, "
            "no-random, dying) and/or key=value pairs, e.g. "
            "'flaky,seed=7' or 'transient=0.3,kill-after=500'",
        )
        command.add_argument(
            "--retry-policy", metavar="SPEC", default=None,
            help="resilience settings as key=value pairs, e.g. "
            "'attempts=6,base=0.01,threshold=3,recovery=10'",
        )
        command.add_argument(
            "--explain", action="store_true",
            help="after executing, print the EXPLAIN view derived from "
            "the access trace (plan, per-source and per-phase accesses)",
        )
        command.add_argument(
            "--trace-out", metavar="FILE", default=None,
            help="write the query's access timeline as deterministic "
            "JSON to FILE (validated against the trace schema)",
        )
        command.add_argument(
            "--max-workers", metavar="N", type=int, default=None,
            help="fan each algorithm round's subsystem accesses across "
            "N threads (1 = serial; answers, costs, and traces are "
            "identical either way)",
        )
        command.add_argument(
            "--backend", choices=("list", "array", "memmap"), default=None,
            help="physical storage for every ranked list: in-RAM "
            "'list'/'array' or out-of-core 'memmap' columns; answers, "
            "costs, and traces are identical across backends",
        )
        command.add_argument(
            "--shards", metavar="K", type=int, default=None,
            help="hash-partition every ranked list into K shards of the "
            "chosen backend behind an exact merged cursor (default: "
            "unsharded; results are identical for any K)",
        )
        command.add_argument(
            "--storage-dir", metavar="DIR", default=None,
            help="directory for on-disk backends (default: a temporary "
            "directory owned by the session)",
        )
        command.add_argument(
            "--cache", action="store_true",
            help="enable the semantic result cache: repeated or "
            "contained (smaller-k) queries are served from certified "
            "cached answers with zero repository accesses; a deeper-k "
            "query runs cold and replaces the cached run",
        )
        command.add_argument(
            "--theta", metavar="T", type=float, default=None,
            help="Fagin-Lotem-Naor approximation factor (>= 1.0): TA "
            "and NRA may stop early once every answer is provably "
            "within a factor T of optimal, and the result carries a "
            "certified achieved ratio (default: 1.0, exact; with "
            "--theta 1.0 answers, costs, and traces are byte-identical "
            "to omitting the flag)",
        )

    demo = sub.add_parser("demo", help="guided tour of the Beatles query")
    demo.add_argument("-k", type=int, default=5, help="answers to return")
    add_resilience_options(demo)
    demo.set_defaults(func=cmd_demo)

    sql = sub.add_parser("sql", help="SQL shell / one-shot statement")
    sql.add_argument("query", nargs="*", help="statement (omit for a shell)")
    sql.add_argument(
        "--database", choices=("cds", "images"), default="cds",
        help="demo database to query",
    )
    sql.add_argument("--size", type=int, default=1000, help="database size")
    sql.add_argument(
        "--index", choices=INDEX_KINDS, default=None,
        help="register a kNN subsystem over the images feature corpus "
        "('Near' atoms stream neighbors from the chosen index: linear "
        "scan, VA-file, or R-tree; answers are byte-identical across "
        "kinds, only the physical work differs)",
    )
    sql.add_argument("-k", type=int, default=10, help="default STOP AFTER")
    add_resilience_options(sql)
    sql.set_defaults(func=cmd_sql)

    experiments = sub.add_parser(
        "experiments", help="regenerate the experiment tables"
    )
    experiments.add_argument("--quick", action="store_true")
    experiments.set_defaults(func=lambda args: _experiments_inline(args.quick))

    serve = sub.add_parser(
        "serve-demo",
        help="run a multi-tenant QueryService workload over the CD store",
    )
    serve.add_argument("-k", type=int, default=5, help="answers per query")
    serve.add_argument("--size", type=int, default=1000, help="database size")
    serve.add_argument(
        "--requests", type=int, default=60, help="requests to submit"
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="query worker threads"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32, help="admission queue bound"
    )
    serve.add_argument(
        "--deadline", type=float, default=5.0,
        help="end-to-end deadline per request in seconds",
    )
    add_resilience_options(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
