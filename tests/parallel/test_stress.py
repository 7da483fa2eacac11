"""Concurrency stress: faults + fuzzed interleavings, exactness, no hang.

Each iteration builds a seeded database, wraps every source in the
chaos stack (FaultInjectingSource under ResilientSource, retries deep
enough to outlast any failure streak), and runs TA / A0 / NRA with a
parallel executor whose ``before_access`` hook injects seeded jitter —
randomizing which worker wins each race on every iteration.  The
assertion is the resilience layer's theorem, now under concurrency:
answers match the fault-free oracle's grade multiset exactly, and the
run terminates (pytest-timeout in CI, plus ``faulthandler_timeout`` so
a wedged run dumps every thread's stack before dying).

50 seeded iterations are the acceptance floor; the whole sweep stays
fast because the virtual clock absorbs latency spikes and backoff.
"""

import random
import threading
import time

import pytest

from repro.core.fagin import fagin_top_k
from repro.core.naive import grade_everything
from repro.core.sources import sources_from_columns
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import (
    ResiliencePolicy,
    ResilientSource,
    RetryPolicy,
    VirtualClock,
)
from repro.observability import QueryTracer, attach_resilience_observers
from repro.parallel import ParallelAccessExecutor
from repro.scoring import tnorms
from tests.per_row import per_row

pytestmark = pytest.mark.timeout(120)

N = 36
M = 3
K = 7
WORKERS = 4

#: faults on every front, but streaks capped below the retry budget, so
#: exactness is a theorem, not a likelihood
PROFILE_KW = dict(
    transient_rate=0.3,
    max_consecutive=2,
    latency_rate=0.2,
    latency=0.05,
)
POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=4, base_delay=0.01, deadline=None),
    failure_threshold=50,  # streaks of 2 never trip it
)


def build_table(seed):
    rng = random.Random(seed)
    levels = [round(i / 8, 3) for i in range(9)]
    return {
        f"o{i:02d}": tuple(rng.choice(levels) for _ in range(M))
        for i in range(N)
    }


def chaos_sources(table, seed):
    clock = VirtualClock()
    sources = []
    for inner in per_row(sources_from_columns(table)):
        faulty = FaultInjectingSource(
            inner, FaultProfile(seed=seed, **PROFILE_KW), clock=clock
        )
        sources.append(ResilientSource(faulty, POLICY, clock=clock))
    return sources


def jitter_hook(seed):
    """Seeded per-fan-out jitter: shuffles worker interleavings without
    ever blocking on a partner (tiny real sleeps, no barriers — a
    barrier with more parties than workers would deadlock by design)."""
    rng = random.Random(seed)
    lock = threading.Lock()

    def hook(index):
        with lock:
            delay = rng.random() * 0.002
        time.sleep(delay)

    return hook


ALGORITHMS = (
    ("ta", threshold_top_k),
    ("a0", fagin_top_k),
    ("nra", nra_top_k),
)


@pytest.mark.parametrize("seed", range(50))
def test_parallel_chaos_is_exact_and_terminates(seed):
    table = build_table(seed)
    expected = grade_everything(
        sources_from_columns(table), tnorms.MIN
    ).top(K)
    algorithm_name, runner = ALGORITHMS[seed % len(ALGORITHMS)]
    with ParallelAccessExecutor(
        WORKERS, before_access=jitter_hook(seed)
    ) as executor:
        result = runner(
            chaos_sources(table, seed), tnorms.MIN, K, executor=executor
        )
    assert result.answers.same_grade_multiset(expected), (
        f"{algorithm_name} lost exactness under chaos (seed={seed}): "
        f"{result.answers.as_dict()} != {expected.as_dict()}"
    )
    assert result.degraded is None  # retries absorbed every fault


@pytest.mark.parametrize("seed", range(6))
def test_parallel_chaos_run_is_repeatable(seed):
    """Same seed, same faults, same answers — concurrency included."""

    def run():
        with ParallelAccessExecutor(
            WORKERS, before_access=jitter_hook(seed)
        ) as executor:
            result = threshold_top_k(
                chaos_sources(build_table(seed), seed),
                tnorms.MIN,
                K,
                executor=executor,
            )
        return list(result.answers.as_dict().items())

    assert run() == run()


def test_resilience_events_are_traced_in_submission_order():
    """Workers that finish in opposite orders write one trace: the
    retries and failures a worker's access raises reach the tracer on
    the coordinating thread, in submission order."""

    def delayed(slow):
        def hook(index):
            if index == slow:
                time.sleep(0.005)

        return hook

    traces = []
    for slow in (0, 1):
        sources = chaos_sources(build_table(3), 3)
        tracer = QueryTracer()
        attach_resilience_observers(sources, tracer)
        with ParallelAccessExecutor(2, before_access=delayed(slow)) as executor:
            threshold_top_k(
                sources, tnorms.MIN, K, batch_size=1, tracer=tracer, executor=executor
            )
        traces.append(tracer.to_json())
    assert '"resilience"' in traces[0]
    assert traces[0] == traces[1]


def test_fuzzed_hook_failures_do_not_hang_the_fan_out():
    """A hook that raises mid-round surfaces as an access error (here on
    sources without degradation support), never as a deadlock."""
    table = build_table(99)
    calls = {"n": 0}
    lock = threading.Lock()

    def flaky_hook(index):
        with lock:
            calls["n"] += 1
            if calls["n"] % 7 == 0:
                raise RuntimeError("fuzzed hook failure")

    with ParallelAccessExecutor(WORKERS, before_access=flaky_hook) as executor:
        with pytest.raises(RuntimeError):
            threshold_top_k(
                per_row(sources_from_columns(table)),
                tnorms.MIN,
                K,
                executor=executor,
            )
