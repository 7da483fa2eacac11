"""Deadline bookkeeping must never read the wall clock.

The audit outcome (and its regression pin): every deadline, backoff,
breaker-recovery, and token-refill computation in the resilience and
service layers goes through an injected clock —
:class:`~repro.middleware.resilience.MonotonicClock` (``time.monotonic``)
in production, :class:`~repro.middleware.resilience.VirtualClock` in
tests.  ``time.time()`` is wall clock: it jumps on NTP steps and DST,
which turns deadline math into a lottery.  The AST scan below fails if
anyone reintroduces it (a plain text grep would false-positive on the
docstrings that *document* this invariant).
"""

import ast
import pathlib

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent


def wall_clock_calls(path):
    """All ``time.time(...)`` call sites in one file, as line numbers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            hits.append(node.lineno)
    return hits


def test_no_wall_clock_calls_anywhere_in_src():
    offenders = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        hits = wall_clock_calls(path)
        if hits:
            offenders[str(path.relative_to(SRC_ROOT))] = hits
    assert not offenders, (
        "time.time() is wall clock and must not drive deadline/backoff "
        f"math — use the injected clock (MonotonicClock): {offenders}"
    )


def test_monotonic_clock_uses_time_monotonic(monkeypatch):
    """MonotonicClock must follow time.monotonic, not time.time."""
    import time as time_module

    from repro.middleware.resilience import MonotonicClock

    monkeypatch.setattr(time_module, "monotonic", lambda: 123.25)
    monkeypatch.setattr(
        time_module,
        "time",
        lambda: (_ for _ in ()).throw(AssertionError("wall clock read")),
    )
    assert MonotonicClock().now() == 123.25


def test_deadline_budget_ignores_wall_clock_jumps(monkeypatch):
    """A retry deadline keeps honest time across a wall-clock step.

    The wall clock jumps backwards an hour mid-operation; the monotonic
    deadline still expires on schedule.
    """
    import random
    import time as time_module

    from repro.core.graded import GradedSet
    from repro.core.sources import ArraySource
    from repro.errors import DeadlineExceededError, TransientAccessError
    from repro.middleware.resilience import (
        MonotonicClock,
        ResiliencePolicy,
        ResilientSource,
        RetryPolicy,
    )

    ticks = {"now": 1000.0}
    monkeypatch.setattr(time_module, "monotonic", lambda: ticks["now"])

    def fake_sleep(seconds):
        ticks["now"] += seconds
        # Simulate an NTP step: the wall clock lurches backwards.  If
        # any deadline math consulted it, the budget would "grow".
        monkeypatch.setattr(time_module, "time", lambda: ticks["now"] - 3600.0)

    monkeypatch.setattr(time_module, "sleep", fake_sleep)

    class AlwaysTransient(ArraySource):
        def _grades_of_many(self, object_ids):
            raise TransientAccessError("flaky forever")

    inner = AlwaysTransient(
        GradedSet({f"x{i}": random.Random(0).random() for i in range(5)}),
        name="flaky",
    )
    policy = ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=50, base_delay=0.2, jitter=0.0, deadline=1.0
        ),
        failure_threshold=1000,
    )
    source = ResilientSource(inner, policy, clock=MonotonicClock())
    try:
        source.random_access("x0")
    except (DeadlineExceededError, TransientAccessError):
        pass  # bounded either by the deadline or by attempts
    # The operation ended within ~the budget: the monotonic clock only
    # moved by the backoff sleeps actually taken, wall-clock jump or not.
    assert ticks["now"] - 1000.0 < 5.0, "deadline math leaked wall time"
