"""The traced run: per-layer metrics, measured from outside the program.

Three instruments, none of which runs in a measured run:

1. stage spans around the public calls a query goes through
   (``parse`` -> ``compile_statement`` -> ``bind_all`` -> ``plan_top_k``
   -> ``execute``), per op, plus a replay of the median access pattern
   against the bound sources;
2. one pass under ``cProfile``, self time bucketed by module into the
   layers of :data:`LAYERS` (C/numpy/stdlib callees are charged to the
   layer of the repo function that called them);
3. the program's own public counters (plans, results, index stats,
   shard stats, cache stats, service tickets).

Every pass does a fixed amount of work (one cycle), so every count of
this run repeats exactly; ``--seconds`` only bounds the closed loop on
``svc-zipf``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.evaluation import compile_query
from repro.core.planner import Strategy, execute as execute_plan, plan_top_k
from repro.core.query import Atomic
from repro.core.sources import iter_wrapper_chain
from repro.kernels import resolve_kernel
from repro.observability.tracer import QueryTracer
from repro.sql.compiler import compile_statement
from repro.sql.parser import parse

from measure import run_cycle, run_cycles
from workloads import (
    Op,
    Oracle,
    Session,
    Workload,
    fresh_workdir,
    remove_workroot,
)

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: layer -> prefixes of ``<module path under src/repro/>:<function>``; the
#: first match wins.  ``core/evaluation`` is split by function: compiling a
#: query is planning, but the closure it returns grades one object per call
#: while the algorithm runs, which is scoring work.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sql", ("sql/",)),
    (
        "planner",
        (
            "core/planner", "core/query", "middleware/optimizer",
            "core/evaluation.py:compile_query", "core/evaluation.py:_structural_flags",
        ),  # fmt: skip
    ),
    ("engine", ("middleware/",)),
    (
        "algo",
        (
            "core/threshold", "core/fagin", "core/naive", "core/boolean_first",
            "core/disjunction", "core/filter_condition", "core/result",
            "core/graded", "core/cost", "kernels",
        ),  # fmt: skip
    ),
    ("scoring", ("scoring/", "core/evaluation")),
    ("sources", ("core/sources", "core/batching")),
    ("storage", ("storage/",)),
    ("index", ("index/", "multimedia/")),
    ("cache", ("cache.py",)),
    ("service", ("service/", "parallel")),
    ("observability", ("observability/",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS) + ("other",)

PER_LAYER_UNITS: Dict[str, str] = {
    "sql.parse_ms": "ms",
    "sql.compile_ms": "ms",
    "engine.bind_ms": "ms",
    "engine.cold_bind_s": "s",
    "planner.plan_ms": "ms",
    "algo.execute_ms": "ms",
    "engine.overhead_ms": "ms",
    "sources.sorted_us_per_item": "us",
    "sources.random_us_per_probe": "us",
    **{
        f"{layer}.{stat}": unit
        for layer in LAYER_NAMES
        for stat, unit in (("self_s", "s"), ("self_share", "frac"), ("calls", "count"))
    },
    "profile.overhead_x": "x",
    "planner.strategy_ta_frac": "frac",
    "planner.strategy_nra_frac": "frac",
    "planner.est_over_actual": "x",
    "algo.sorted_depth_per_query": "count",
    "algo.kernel_vector_frac": "frac",
    "parallel.workers2_speedup_x": "x",
    "observability.tracer_on_overhead_x": "x",
    "observability.events_per_query": "count",
    "storage.build_s": "s",
    "storage.verify_s": "s",
    "storage.bytes_on_disk": "B",
    "storage.shard_skew": "x",
    "index.build_s": "s",
    "index.node_accesses_per_query": "count",
    "index.distance_evals_per_query": "count",
    "index.distance_evals_per_result": "count",
    "cache.hit_rate": "frac",
    "cache.warm_hit_rate": "frac",
    "cache.stale_per_1k": "count",
    "cache.evictions_per_1k": "count",
    "cache.fill_races_per_1k": "count",
    "cache.probe_us": "us",
    "service.submit_us": "us",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.worker_busy_frac": "frac",
    "service.clients2_speedup_x": "x",
    "service.invalidate_ms": "ms",
    "service.shed": "count",
    "service.rejected": "count",
    "service.degraded": "count",
}


# ----------------------------------------------------------------------
# Instrument 1: stage spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: (name, start, end, parent, op id) per span."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, Optional[str], int]] = []

    @contextmanager
    def span(self, name: str, op_id: int, parent: Optional[str] = "op"):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, started, time.perf_counter(), parent, op_id))

    def median_ms(self, name: str) -> float:
        return 1e3 * statistics.median(
            end - start for row, start, end, _p, _o in self.rows if row == name
        )

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, row)) for row in self.rows], handle)


#: stage metric -> the span it is the median of
STAGES = {
    "sql.parse_ms": "sql.parse",
    "sql.compile_ms": "sql.compile",
    "engine.bind_ms": "engine.bind",
    "planner.plan_ms": "planner.plan",
    "algo.execute_ms": "algo.execute",
}


def _prefer(op: Op) -> Optional[Strategy]:
    return Strategy.NRA if op.plan.nra else None


def direct(session: Session, op: Op, **top_k_options):
    """``repro.sql.compiler.execute`` spelled out, cache bypassed, so a
    repeated plan is executed again and not served."""
    statement = parse(op.sql)
    return session.engine.top_k(
        compile_statement(statement),
        statement.stop_after,
        prefer=_prefer(op),
        cache=False,
        **top_k_options,
    )


def staged(session: Session, op: Op, op_id: int, spans: Spans):
    """One query, stage by stage, through the same public calls
    ``MiddlewareEngine.top_k`` makes; returns (plan, sources, result)."""
    engine = session.engine
    with spans.span("op", op_id, None):
        with spans.span("sql.parse", op_id):
            statement = parse(op.sql)
        with spans.span("sql.compile", op_id):
            query = compile_statement(statement)
        with spans.span("engine.bind", op_id):
            sources = engine.bind_all(query)
        with spans.span("planner.plan", op_id):
            scoring = compile_query(query, engine.semantics)
            plan = plan_top_k(
                sources, scoring, statement.stop_after, prefer=_prefer(op)
            )
        with spans.span("algo.execute", op_id):
            result = execute_plan(plan, sources, kernel=engine.kernel)
    return plan, sources, result


def replay_sources(sources, depth: int, probes: int) -> Tuple[float, float]:
    """(us per sorted item, us per random probe) of the bound sources when
    ``depth`` items are read in batches of 128 and ``probes`` objects, taken
    from the next list's prefix as TA does, are probed."""
    delivered, sorted_s, items = [], 0.0, 0
    for source in sources:
        cursor, ids = source.cursor(), []
        started = time.perf_counter()
        while len(ids) < depth:
            batch, _grades = cursor.next_batch_columns(min(128, depth - len(ids)))
            if not batch:
                break
            ids.extend(batch)
        sorted_s += time.perf_counter() - started
        items += len(ids)
        delivered.append(ids)
    random_s, probed = 0.0, 0
    for index, source in enumerate(sources):
        wanted = delivered[(index + 1) % len(sources)][:probes]
        started = time.perf_counter()
        source.random_access_many(wanted)
        random_s += time.perf_counter() - started
        probed += len(wanted)
    return (
        1e6 * sorted_s / items if items else 0.0,
        1e6 * random_s / probed if probed else 0.0,
    )


# ----------------------------------------------------------------------
# Instrument 2: cProfile, bucketed by layer
# ----------------------------------------------------------------------
#: leaf helpers every layer calls; charged to the calling layer like C code
SHARED_LEAVES = ("grades.py", "errors.py")


def layer_of(func: Tuple[str, int, str]) -> Optional[str]:
    """The layer of a profiled function (file, line, name); None for code
    outside the repo and the benchmark (C, numpy, stdlib) and for the
    repo's shared leaf helpers, all of which are charged to their callers."""
    filename, _line, name = func
    if filename.startswith(REPRO_DIR):
        module = filename[len(REPRO_DIR) :]
        if module in SHARED_LEAVES:
            return None
        for layer, prefixes in LAYERS:
            if f"{module}:{name}".startswith(prefixes):
                return layer
        return "other"
    if filename.startswith(BENCH_DIR):
        return "other"
    return None


def layer_profile(profile: cProfile.Profile) -> Dict[str, List[float]]:
    """{layer: [self seconds, calls]} from one profile.

    A repo function's self time and calls go to its own layer.  An
    outside function's self time goes, edge by edge, to the layer of the
    caller; through outside callers the walk goes on upwards, split by
    the cumulative time of their own callers.  Calls made from repo code
    into outside code count for the calling layer, so every count is a
    whole number that repeats exactly.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    owner = {func: layer_of(func) for func in stats}
    totals = {layer: [0.0, 0] for layer in LAYER_NAMES}
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func) -> Dict[str, float]:
        """Which layers an outside function works for, as fractions."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cuts recursion cycles
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[3] for edge in callers.values())
        if weight > 0:
            mixed: Dict[str, float] = {}
            for caller, edge in callers.items():
                for layer, share in shares(caller).items():
                    mixed[layer] = mixed.get(layer, 0.0) + share * edge[3] / weight
            memo[func] = mixed
        return memo[func]

    for func, (_cc, calls, self_s, _ct, callers) in stats.items():
        if owner[func] is not None:
            totals[owner[func]][0] += self_s
            totals[owner[func]][1] += calls
            continue
        if not callers:
            totals["other"][0] += self_s
        for caller, (edge_calls, _cc, edge_self_s, _ect) in callers.items():
            for layer, share in shares(caller).items():
                totals[layer][0] += edge_self_s * share
            if owner.get(caller) is not None:
                totals[owner[caller]][1] += edge_calls
    return totals


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _timed_pass(run, ops) -> Tuple[List[float], list]:
    """(seconds, result) of ``run(op)`` for every op."""
    seconds, results = [], []
    for op in ops:
        started = time.perf_counter()
        results.append(run(op))
        seconds.append(time.perf_counter() - started)
    return seconds, results


def _percentile_ms(seconds: List[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


class Tracer:
    """State of one traced run: the session, the metric values so far."""

    def __init__(self, workload: Workload, session: Session, seed: int) -> None:
        self.workload = workload
        self.session = session
        self.seed = seed
        self.values = {name: 0.0 for name in PER_LAYER_UNITS}
        self.spans = Spans()
        self.failures: List[str] = []
        self.attempted = 0
        self._pass = 0
        self._cycle_s = 0.0  # svc-zipf: median wall time of a closed-loop cycle

    def ops(self) -> List[Op]:
        """One cycle of the workload's stream; every pass of ``knn-vafile``
        gets a cycle of its own, so no target repeats.  On ``svc-zipf``:
        every plan of the pool once, which is the miss path of each."""
        workload = self.workload
        if self.session.service is not None:
            return [Op(plan, 10) for plan in workload.plans()]
        self._pass += 1
        return workload.streams(self.seed, self._pass)[0]

    def run(self, op: Op, **top_k_options):
        result = direct(self.session, op, **top_k_options)
        self.workload.after_op(self.session, op)
        return result

    # -- passes ----------------------------------------------------------
    def baseline(self, oracle: Oracle) -> List[float]:
        """Untraced pass: the reference timing, the oracle check and the
        counters a result carries."""
        knn = self.session.knn
        before = knn.index.stats.snapshot() if knn is not None else (0, 0)
        ops = self.ops()
        seconds, results = _timed_pass(self.run, ops)
        if knn is not None:
            nodes, evals = (
                now - then for now, then in zip(knn.index.stats.snapshot(), before)
            )
            answers = sum(len(r.answers) for r in results)
            self.values["index.node_accesses_per_query"] = nodes / len(ops)
            self.values["index.distance_evals_per_query"] = evals / len(ops)
            self.values["index.distance_evals_per_result"] = evals / answers
        self.attempted = len(ops)
        for op, result in zip(ops, results):
            problem = oracle.check(op, result.answers.as_dict(), result.grades_exact)
            if problem is not None:
                self.failures.append(problem)
        algorithms = [r.algorithm for r in results]
        self.values["planner.strategy_ta_frac"] = algorithms.count(
            Strategy.THRESHOLD.value
        ) / len(ops)
        self.values["planner.strategy_nra_frac"] = algorithms.count(
            Strategy.NRA.value
        ) / len(ops)
        self.values["algo.sorted_depth_per_query"] = statistics.mean(
            r.sorted_depth for r in results
        )
        self._replay(ops, results)
        return seconds

    def _replay(self, ops, results) -> None:
        arity = [len(op.plan.columns) + op.plan.near for op in ops]
        depth = statistics.median(
            r.cost.sorted_access_cost // m for r, m in zip(results, arity)
        )
        probes = statistics.median(
            r.cost.random_access_cost // m for r, m in zip(results, arity)
        )
        op = next(op for op, m in zip(ops, arity) if m > 1)
        sources = self.session.engine.bind_all(compile_statement(parse(op.sql)))
        sorted_us, random_us = replay_sources(sources, int(depth), int(probes))
        self.workload.after_op(self.session, op)
        self.values["sources.sorted_us_per_item"] = sorted_us
        self.values["sources.random_us_per_probe"] = random_us

    def stages(self, baseline_seconds: List[float]) -> None:
        ratios, vector = [], 0
        ops = self.ops()
        for op_id, op in enumerate(ops):
            plan, sources, result = staged(self.session, op, op_id, self.spans)
            self.workload.after_op(self.session, op)
            ratios.append(plan.estimated_cost / max(result.database_access_cost, 1))
            vector += resolve_kernel(None, sources, plan.scoring) == "vector"
        for metric, span in STAGES.items():
            self.values[metric] = self.spans.median_ms(span)
        self.values["engine.overhead_ms"] = 1e3 * statistics.median(
            baseline_seconds
        ) - sum(self.values[metric] for metric in STAGES)
        self.values["planner.est_over_actual"] = statistics.median(ratios)
        self.values["algo.kernel_vector_frac"] = vector / len(ops)

    def record_profile(self, profile, profiled_s: float, reference_s: float) -> None:
        totals = layer_profile(profile)
        whole = sum(self_s for self_s, _calls in totals.values())
        for layer, (self_s, calls) in totals.items():
            self.values[f"{layer}.self_s"] = self_s
            self.values[f"{layer}.self_share"] = self_s / whole
            self.values[f"{layer}.calls"] = calls
        self.values["profile.overhead_x"] = profiled_s / reference_s

    def profile_pass(self, baseline_seconds: List[float]) -> None:
        profile = cProfile.Profile()
        with profile:
            seconds, _results = _timed_pass(self.run, self.ops())
        self.record_profile(profile, sum(seconds), sum(baseline_seconds))

    def tracer_overhead(self, baseline_seconds: List[float]) -> None:
        """A third of a pass with a fresh ``QueryTracer`` per query."""
        ops = self.ops()[::3]
        events, seconds = 0, 0.0
        for op in ops:
            tracer = QueryTracer()
            started = time.perf_counter()
            self.run(op, tracer=tracer)
            seconds += time.perf_counter() - started
            events += len(tracer.events)
        self.values["observability.tracer_on_overhead_x"] = seconds / sum(
            baseline_seconds[::3]
        )
        self.values["observability.events_per_query"] = events / len(ops)

    def parallel_speedup(self, baseline_seconds: List[float]) -> None:
        engine = self.session.engine
        engine.configure_parallelism(2)
        try:
            seconds, _results = _timed_pass(self.run, self.ops())
        finally:
            engine.configure_parallelism(None)
        self.values["parallel.workers2_speedup_x"] = sum(baseline_seconds) / sum(
            seconds
        )

    def storage(self) -> None:
        session = self.session
        for stage in ("storage.build_s", "storage.verify_s", "index.build_s",
                      "engine.cold_bind_s"):  # fmt: skip
            self.values[stage] = session.stages.get(stage, 0.0)
        self.values["storage.bytes_on_disk"] = session.bytes_on_disk
        skews = []
        for column in self.workload.columns:
            for node in iter_wrapper_chain(session.engine.bind(Atomic(column, "x"))):
                if hasattr(node, "shard_stats"):
                    loads = [s["sorted"] + s["random"] for s in node.shard_stats()]
                    if sum(loads):
                        skews.append(max(loads) / statistics.mean(loads))
        if skews:
            self.values["storage.shard_skew"] = statistics.mean(skews)

    # -- svc-zipf: the closed loop ---------------------------------------
    def service_loop(self, seconds: float) -> None:
        """Warm cycle, then cycles with every ticket's timestamps kept."""
        workload, session = self.workload, self.session
        cache = session.engine.cache
        submits, invalidates, tickets, walls, before = [], [], [], [], {}

        def request(cycle: int, position: int, op: Op) -> None:
            if op.invalidate is not None:
                started = time.perf_counter()
                session.engine.invalidate(Atomic(op.invalidate, "x"))
                if cycle:
                    invalidates.append(time.perf_counter() - started)
            started = time.perf_counter()
            ticket = workload.submit(session, op)
            submitted = time.perf_counter() - started
            ticket.result()
            if cycle:
                submits.append(submitted)
                tickets.append(
                    (ticket.submitted_at, ticket.started_at, ticket.finished_at)
                )

        @contextmanager
        def timed_cycle(cycle: int):
            if cycle == 1:  # the warm cycle's counts end here
                before.update(cache.stats())
            started = time.perf_counter()
            yield
            if cycle:
                walls.append(time.perf_counter() - started)

        run_cycles(workload, self.seed, seconds, request, around=timed_cycle)
        delta = {name: count - before[name] for name, count in cache.stats().items()}
        requests = len(tickets)
        wall = sum(walls)
        self._cycle_s = statistics.median(walls)
        executed = [t for t in tickets if t[2] > t[0]]
        self.values["cache.hit_rate"] = delta["hits"] / requests
        self.values["cache.warm_hit_rate"] = delta["warm_hits"] / requests
        for counter in ("stale", "evictions", "fill_races"):
            self.values[f"cache.{counter}_per_1k"] = 1e3 * delta[counter] / requests
        self.values["service.submit_us"] = 1e6 * statistics.median(submits)
        waits = [started - submitted for submitted, started, _f in executed]
        runs = [finished - started for _s, started, finished in executed]
        self.values["service.queue_wait_p50_ms"] = _percentile_ms(waits, 50)
        self.values["service.queue_wait_p90_ms"] = _percentile_ms(waits, 90)
        self.values["service.execute_p50_ms"] = _percentile_ms(runs, 50)
        self.values["service.worker_busy_frac"] = sum(runs) / (workload.WORKERS * wall)
        self.values["service.invalidate_ms"] = _percentile_ms(invalidates, 50)
        stats = session.service.stats()
        for counter in ("shed", "rejected", "degraded"):
            self.values[f"service.{counter}"] = stats[counter]

    def cache_probe(self) -> None:
        """``engine.cache_probe`` on a key that was just filled."""
        engine = self.session.engine
        statement = parse(Op(self.workload.plans()[1], 10).sql)
        query = compile_statement(statement)
        engine.top_k(query, statement.stop_after)
        seconds = []
        for _ in range(200):
            started = time.perf_counter()
            served, _status = engine.cache_probe(query, statement.stop_after)
            seconds.append(time.perf_counter() - started)
        if served is None:
            self.failures.append("cache_probe missed a key that was just filled")
        self.values["cache.probe_us"] = 1e6 * statistics.median(seconds)

    def profile_client(self) -> None:
        """One more cycle with the client under the profiler (a profile
        covers one thread, so the workers' side is not in it)."""
        profile = cProfile.Profile()
        started = time.perf_counter()
        run_cycle(
            self.workload.streams(self.seed, 1), 1, self._run_op,
            around=lambda _cycle: profile,
        )  # fmt: skip
        self.record_profile(profile, time.perf_counter() - started, self._cycle_s)

    def clients2_speedup(self) -> None:
        """One cycle sent by two clients at once: the requests per second
        they get together, over what the one client of the loop got."""
        streams = self.workload.streams(self.seed, 1, clients=2)
        started = time.perf_counter()
        run_cycle(streams, 1, self._run_op)
        per_second = sum(map(len, streams)) / (time.perf_counter() - started)
        self.values["service.clients2_speedup_x"] = per_second / (
            len(streams[0]) / self._cycle_s
        )

    def _run_op(self, cycle: int, position: int, op: Op) -> None:
        self.workload.run_op(self.session, op)


def trace_run(
    workload: Workload, seed: int, seconds: float, workroot: str, spans_out=None
) -> dict:
    """One traced run; returns the driver's result object (as a dict).
    ``spans_out`` names a file the stage spans are written to at the end."""
    data = workload.generate(seed)
    session = workload.setup(data, fresh_workdir(workroot, "setup"))
    tracer = Tracer(workload, session, seed)
    try:
        resolve = session.knn.resolve_target if session.knn is not None else None
        if session.service is not None:
            tracer.service_loop(seconds / 4)
            tracer.cache_probe()
            tracer.profile_client()
            tracer.clients2_speedup()
        baseline = tracer.baseline(Oracle(data, resolve))
        tracer.stages(baseline)
        if session.service is None:
            tracer.profile_pass(baseline)
        tracer.tracer_overhead(baseline)
        if workload.name == "lists-ta":
            tracer.parallel_speedup(baseline)
        tracer.storage()
    finally:
        session.close()
        remove_workroot(workroot)
    if spans_out:
        tracer.spans.dump(spans_out)
    for line in tracer.failures[:10]:
        print(f"# FAILED {line}")
    return {
        "correct": not tracer.failures,
        "attempted": tracer.attempted,
        "failed": len(tracer.failures),
        "metrics": {
            name: {"value": tracer.values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
