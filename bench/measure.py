"""The measured run: end-to-end metrics, tracing off.

A run = generate (untimed) -> set up several times (the median is
``setup_s``) -> one discarded warm cycle -> whole cycles of the same
seeded op stream until ``--seconds`` have passed -> oracle check of
every answer (untimed, after peak RSS was read).

The sandbox this benchmark is run in flips, every few seconds, into a
state in which everything takes 20-25% longer; statistics pooled over
all samples follow that mix from run to run.  Every workload has one
closed-loop client, so an op does the same work at the same position of
every cycle, and the timing metrics are built from each op's *best*
time over the cycles, the estimator ``timeit`` uses.  That hides
interference, and would hide periodic pauses of the program itself, of
which these workloads have none (no background work).
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from workloads import (
    Data,
    Op,
    Oracle,
    Workload,
    fresh_workdir,
    remove_workroot,
)

#: set-up is repeated until it was timed this often and for this long
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "sorted_accesses_per_query": "count",
    "random_accesses_per_query": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    """One completed op: what the oracle and the metrics need of it."""

    cycle: int
    position: int
    op: Op
    seconds: float
    answers: Dict[str, float]
    grades_exact: bool
    degraded: bool
    sorted_accesses: int
    random_accesses: int


def charged_accesses(result) -> Tuple[int, int]:
    """(sorted, random) accesses this op actually charged the sources.

    A cache-served result reports its fill run's cost, so the cache tier
    decides: exact/prefix hits touch nothing, a warm start pays only the
    marginal accesses past the cached depth.
    """
    cache = result.extras.get("cache")
    if cache is None:
        return result.cost.sorted_access_cost, result.cost.random_access_cost
    if cache["tier"] == "warm":
        return cache["marginal_sorted"], cache["marginal_random"]
    return 0, 0


def timed_setups(workload: Workload, data: Data, workroot: str):
    """Set up repeatedly; returns (last session, seconds of each set-up)."""
    session, seconds = None, []
    while len(seconds) < SETUP_MIN_REPEATS or (
        sum(seconds) < SETUP_MIN_SECONDS and len(seconds) < SETUP_MAX_REPEATS
    ):
        if session is not None:
            session.close()
        workdir = fresh_workdir(workroot, "setup")
        started = time.perf_counter()
        session = workload.setup(data, workdir)
        seconds.append(time.perf_counter() - started)
    return session, seconds


def run_cycle(
    streams: List[List[Op]],
    cycle: int,
    request: Callable[[int, int, Op], None],
    around=lambda cycle: nullcontext(),
) -> None:
    """One closed-loop cycle: each client calls ``request(cycle, position,
    op)`` for the next op of its stream when the previous call returned.
    One client runs in this thread, several in threads of their own;
    ``around(cycle)`` wraps a client's whole cycle.
    """

    def client_loop(stream: List[Op]) -> None:
        with around(cycle):
            for position, op in enumerate(stream):
                request(cycle, position, op)

    if len(streams) == 1:
        client_loop(streams[0])
        return
    failures: List[BaseException] = []

    def guarded(stream: List[Op]) -> None:
        try:
            client_loop(stream)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    threads = [threading.Thread(target=guarded, args=(s,)) for s in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def run_cycles(
    workload: Workload,
    seed: int,
    seconds: float,
    request: Callable[[int, int, Op], None],
    around=lambda cycle: nullcontext(),
) -> int:
    """Cycle 0 (warm, to be discarded) and then whole cycles until
    ``seconds`` of wall time were spent in them; returns how many."""
    cycle, spent = 0, 0.0
    while cycle <= 1 or spent < seconds:
        streams = workload.streams(seed, cycle)
        started = time.perf_counter()
        run_cycle(streams, cycle, request, around)
        if cycle:
            spent += time.perf_counter() - started
        cycle += 1
    return cycle - 1  # cycles are numbered from 1, so this is their count


def quiet_timing(samples: List[Sample]) -> Tuple[float, float, float]:
    """(p50 ms, p90 ms, ops per second) of one cycle with the sandbox's
    slow spells taken out: from each position's best time over the cycles
    (see the module docstring)."""
    best: Dict[int, float] = {}
    for s in samples:
        best[s.position] = min(best.get(s.position, s.seconds), s.seconds)
    seconds = np.asarray(list(best.values()))
    return (
        1e3 * float(np.percentile(seconds, 50)),
        1e3 * float(np.percentile(seconds, 90)),
        len(seconds) / float(seconds.sum()),
    )


def measure(workload: Workload, seed: int, seconds: float, workroot: str) -> dict:
    """One measured run; returns the driver's result object (as a dict)."""
    data = workload.generate(seed)
    session, setup_seconds = timed_setups(workload, data, workroot)
    samples: List[Sample] = []
    errors: List[str] = []

    def request(cycle: int, position: int, op: Op) -> None:
        started = time.perf_counter()
        try:
            result = workload.run_op(session, op)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            if cycle:
                errors.append(f"{op.sql}: {traceback.format_exc(limit=3)}")
            return
        elapsed = time.perf_counter() - started
        workload.after_op(session, op)
        if cycle:  # cycle 0 is the warm one
            sample = Sample(
                cycle, position, op, elapsed,
                result.answers.as_dict(), result.grades_exact,
                result.degraded is not None, *charged_accesses(result),
            )  # fmt: skip
            samples.append(sample)

    try:
        cycles = run_cycles(workload, seed, seconds, request)
        attempted = len(samples) + len(errors)  # completed + raised
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        resolve = session.knn.resolve_target if session.knn is not None else None
        oracle = Oracle(data, resolve)
        for sample in samples:
            problem = "degraded result" if sample.degraded else oracle.check(
                sample.op, sample.answers, sample.grades_exact
            )
            if problem is not None:
                errors.append(problem)
    finally:
        session.close()
        remove_workroot(workroot)
    for line in errors[:10]:
        print(f"# FAILED {line}")
    if not samples:
        raise SystemExit(f"{workload.name}: no op completed")

    p50_ms, p90_ms, per_second = quiet_timing(samples)
    # Access counts: one whole cycle; every cycle charges the same.
    counted = [s for s in samples if s.cycle == 1]
    print(
        f"# {workload.name} seed={seed}: {cycles} cycles, {len(samples)} timed ops, "
        f"{len(setup_seconds)} set-ups "
        f"{[round(s, 4) for s in setup_seconds]}"
    )
    values = {
        "setup_s": statistics.median(setup_seconds),
        "query_p50_ms": p50_ms,
        "query_p90_ms": p90_ms,
        "queries_per_s": per_second,
        "sorted_accesses_per_query": sum(s.sorted_accesses for s in counted)
        / len(counted),
        "random_accesses_per_query": sum(s.random_accesses for s in counted)
        / len(counted),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }
