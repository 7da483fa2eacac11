"""Fault tolerance for subsystem access: retries, breakers, deadlines.

The middleware of section 4 integrates *autonomous* subsystems — remote,
independently administered, independently failing.  The paper's access
model (sorted and random access) says nothing about what happens when an
access fails; a production middleware must decide.  This module supplies
the standard answers:

* :class:`RetryPolicy` — exponential backoff with jitter and an optional
  per-operation deadline budget;
* :class:`CircuitBreaker` — after repeated failures, stop contacting the
  subsystem and fail fast (:class:`~repro.errors.CircuitOpenError`)
  until a recovery window elapses, then probe again (half-open);
* :class:`ResilientSource` — a :class:`~repro.core.sources.GradedSource`
  wrapper applying both, with *separate* circuits for sorted and random
  access: the follow-up NRA work (Fagin–Lotem–Naor) exists precisely
  because random access can be unavailable while sorted access works,
  and the degradation machinery in :mod:`repro.core.threshold` exploits
  exactly that asymmetry.

Only :class:`~repro.errors.TransientAccessError` is retried.  Protocol
errors (:class:`~repro.errors.UnknownObjectError`,
:class:`~repro.errors.UnsupportedAccessError`) pass through untouched —
retrying a wrong question does not make it right.

* :class:`DeadlineGuard` — a per-query wrapper enforcing an *absolute*
  end-to-end deadline over a shared binding: once the clock passes it,
  every further charged access raises
  :class:`~repro.errors.DeadlineExceededError`, which the algorithms'
  degradation machinery turns into a partial-bound
  :class:`~repro.core.result.DegradedResult` instead of a hang.  The
  query service propagates request deadlines through this wrapper.

Time is injectable: every component takes a ``clock`` with ``now()`` and
``sleep(seconds)``.  The default :class:`VirtualClock` advances virtually
(no real sleeping), which keeps deterministic tests and benchmarks fast;
pass :class:`MonotonicClock` to wait in real time against live
subsystems.

Deadline arithmetic in this module is **never** wall-clock: real time
always means ``time.monotonic()`` (via :class:`MonotonicClock`), so an
NTP step or daylight-saving jump can neither spuriously expire a budget
nor extend one indefinitely.  ``time.time()`` must not appear here —
a regression test pins that invariant.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, WrapperSource, iter_wrapper_chain
from repro.parallel import deliver
from repro.errors import (
    AccessError,
    CircuitOpenError,
    DeadlineExceededError,
    TransientAccessError,
)


class VirtualClock:
    """A clock whose sleeps advance virtual time instantly.

    Deterministic and fast: backoff schedules, deadlines, and breaker
    recovery windows all behave exactly as in real time, without the
    wall-clock wait.  The default clock throughout the resilience layer.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            with self._lock:
                self._now += seconds


class MonotonicClock:
    """Real time: ``time.monotonic`` and ``time.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


def _parse_spec(text: str, aliases: Dict[str, str], what: str) -> Dict[str, str]:
    """Parse ``key=value,key=value`` option strings for the CLI."""
    options: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise AccessError(
                f"bad {what} option {part!r}: expected key=value "
                f"(known keys: {sorted(aliases)})"
            )
        key, _, value = part.partition("=")
        key = key.strip().lower().replace("_", "-")
        if key not in aliases:
            raise AccessError(
                f"unknown {what} option {key!r} (known: {sorted(aliases)})"
            )
        options[aliases[key]] = value.strip()
    return options


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, capped, under a deadline budget.

    Attempt ``i`` (0-based) that fails transiently sleeps
    ``min(base_delay * multiplier**i, max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` — the
    standard "equal jitter" defence against retry synchronization across
    clients.  ``deadline`` bounds one logical operation *including* its
    retries and backoff sleeps; when the clock passes it, the operation
    raises :class:`~repro.errors.DeadlineExceededError`.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AccessError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise AccessError(f"jitter must lie in [0, 1], got {self.jitter}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retrying after the ``attempt``-th failure (0-based)."""
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Build from a CLI spec like ``attempts=6,base=0.01,deadline=2``."""
        aliases = {
            "attempts": "max_attempts",
            "max-attempts": "max_attempts",
            "base": "base_delay",
            "base-delay": "base_delay",
            "multiplier": "multiplier",
            "max-delay": "max_delay",
            "jitter": "jitter",
            "deadline": "deadline",
            "seed": "seed",
        }
        options = _parse_spec(text, aliases, "retry policy")
        kwargs: Dict[str, object] = {}
        for name, value in options.items():
            if name in ("max_attempts", "seed"):
                kwargs[name] = int(value)
            else:
                kwargs[name] = float(value)
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-subsystem policy: how to retry and when to trip the breaker."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 5
    recovery_time: float = 30.0

    @classmethod
    def parse(cls, text: str) -> "ResiliencePolicy":
        """Build from a CLI spec; retry keys plus ``threshold``/``recovery``."""
        aliases = {"threshold": "failure_threshold", "recovery": "recovery_time"}
        own: Dict[str, str] = {}
        retry_parts: List[str] = []
        for part in text.split(","):
            key = part.partition("=")[0].strip().lower().replace("_", "-")
            if key in aliases:
                own.update(_parse_spec(part, aliases, "resilience policy"))
            elif part.strip():
                retry_parts.append(part)
        return cls(
            retry=RetryPolicy.parse(",".join(retry_parts)),
            failure_threshold=int(own.get("failure_threshold", 5)),
            recovery_time=float(own.get("recovery_time", 30.0)),
        )


class CircuitBreaker:
    """Classic three-state breaker: closed, open, half-open.

    ``failure_threshold`` consecutive failures trip the circuit; while
    open, :meth:`allow` is False (callers should raise
    :class:`~repro.errors.CircuitOpenError` without touching the
    subsystem).  Once ``recovery_time`` has elapsed the breaker is
    half-open: one trial call is allowed, and its outcome either closes
    the circuit or re-opens it for another recovery window.

    State transitions are serialized by an internal lock, so concurrent
    failure reports from a parallel fan-out never lose a count or
    double-trip the breaker.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock=None,
    ) -> None:
        if failure_threshold < 1:
            raise AccessError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.clock = clock if clock is not None else VirtualClock()
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        #: lifetime count of trips to the open state (observability)
        self.opens = 0

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self.clock.now() - self._opened_at >= self.recovery_time:
            return self.HALF_OPEN
        return self.OPEN

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """Whether a call may proceed (half-open admits the trial call)."""
        return self.state != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> bool:
        """Record one failure; True when this report tripped the breaker."""
        with self._lock:
            if self._opened_at is not None:
                # The half-open trial failed: re-open for a fresh window.
                self._opened_at = self.clock.now()
                self.opens += 1
                return True
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self.clock.now()
                self.opens += 1
                return True
            return False

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} failures={self._failures}>"


@dataclass
class ResilienceStats:
    """Observable tallies of one :class:`ResilientSource`'s behaviour."""

    failures: int = 0
    retries: int = 0
    exhausted: int = 0
    rejections: int = 0
    deadline_exceeded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "failures": self.failures,
            "retries": self.retries,
            "exhausted": self.exhausted,
            "rejections": self.rejections,
            "deadline_exceeded": self.deadline_exceeded,
        }


class ResilientSource(WrapperSource):
    """Retry + circuit-breaking wrapper over one subsystem's ranked list.

    Every charged access (sorted deliveries and random probes) runs
    through :meth:`_call`: transient failures are retried under the
    policy's backoff until they succeed, the attempts run out, or the
    access kind's circuit breaker opens.  Sorted and random access have
    *independent* breakers, so a repository whose random probes died
    keeps serving its sorted stream — the planner and the running
    algorithms then degrade to NRA-style sorted-only processing.

    Accounting is untouched: the wrapped source's counter is shared, and
    a failed attempt charges nothing (the subsystem never answered), so
    a retried-then-successful run costs exactly what a fault-free run
    costs under the paper's uniform measure.

    Peeks bypass the machinery entirely — they are the algorithms' free,
    side-effect-free planning reads, and must stay free of breaker state.

    The wrapper is thread-safe: stats tallies and backoff jitter draws
    hold a per-source lock, and the breakers serialize their own state,
    so concurrent accesses from a parallel fan-out never lose a count.
    """

    def __init__(
        self,
        inner: GradedSource,
        policy: Optional[ResiliencePolicy] = None,
        *,
        clock=None,
    ) -> None:
        super().__init__(inner, f"resilient({inner.name})")
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = random.Random(self.policy.retry.seed)
        #: serializes stats tallies and jitter draws across worker threads
        self._lock = threading.RLock()
        self.sorted_breaker = CircuitBreaker(
            self.policy.failure_threshold, self.policy.recovery_time, self.clock
        )
        self.random_breaker = CircuitBreaker(
            self.policy.failure_threshold, self.policy.recovery_time, self.clock
        )
        self.stats = ResilienceStats()
        #: optional ``observe(kind, detail)`` callback, notified with the
        #: same kind strings as the :class:`ResilienceStats` field names
        #: ("failures", "retries", "exhausted", "rejections",
        #: "deadline_exceeded") plus "circuit_open" when a breaker trips.
        #: The observability layer attaches one per resilient node; when
        #: None (the default) nothing extra runs on the access path.  An
        #: access made by a parallel fan-out's worker notifies it on the
        #: coordinating thread, in submission order (``deliver``).
        self.observer: Optional[Callable[[str, str], None]] = None

    def _notify(self, kind: str, detail: str) -> None:
        if self.observer is not None:
            deliver(self.observer, kind, detail)

    def _record_failure(self, breaker: CircuitBreaker, describe: str) -> None:
        """Record a failure, announcing a breaker that newly tripped."""
        if breaker.record_failure():
            self._notify("circuit_open", describe)

    def _tally(self, kind: str, describe: str) -> None:
        """Bump one stats field under the lock and notify the observer."""
        with self._lock:
            setattr(self.stats, kind, getattr(self.stats, kind) + 1)
        self._notify(kind, describe)

    # -- retry core ------------------------------------------------------------
    def _call(self, breaker: CircuitBreaker, operation: Callable, describe: str):
        retry = self.policy.retry
        started = self.clock.now()
        attempt = 0
        while True:
            if not breaker.allow():
                self._tally("rejections", describe)
                raise CircuitOpenError(
                    f"circuit open for {describe} on {self._inner.name!r} "
                    f"(recovers after {self.policy.recovery_time:g}s)"
                )
            if (
                retry.deadline is not None
                and self.clock.now() - started > retry.deadline
            ):
                self._tally("deadline_exceeded", describe)
                self._record_failure(breaker, describe)
                raise DeadlineExceededError(
                    f"{describe} on {self._inner.name!r} exceeded its "
                    f"{retry.deadline:g}s deadline budget"
                )
            try:
                result = operation()
            except TransientAccessError:
                self._record_failure(breaker, describe)
                self._tally("failures", describe)
                attempt += 1
                if attempt >= retry.max_attempts:
                    self._tally("exhausted", describe)
                    raise
                self._tally("retries", describe)
                with self._lock:
                    delay = retry.backoff(attempt - 1, self._rng)
                self.clock.sleep(delay)
            else:
                breaker.record_success()
                return result

    def random_access_available(self) -> bool:
        """Whether random probes are currently worth attempting."""
        return self.supports_random_access and self.random_breaker.allow()

    # -- access hooks ----------------------------------------------------------
    def _consume(self, start: int, count: int) -> None:
        self._call(
            self.sorted_breaker,
            lambda: self._inner._consume(start, count),
            "sorted access",
        )

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        return self._call(
            self.random_breaker,
            lambda: self._inner._grades_of_many(object_ids),
            "random access",
        )


class DeadlineGuard(WrapperSource):
    """Per-query end-to-end deadline enforcement over one binding.

    Wraps a (possibly shared, cached) source for the duration of a
    single query: every *charged* access first checks the query's
    absolute deadline against the injected clock and raises
    :class:`~repro.errors.DeadlineExceededError` once it has passed.
    The error is one of the algorithms' ``DEGRADABLE_ACCESS_ERRORS``,
    so an in-flight TA/NRA/A0 run freezes the late stream's bounds and
    returns a partial-bound
    :class:`~repro.core.result.DegradedResult` instead of hanging —
    and because the check sits *before* the access, an admitted query
    can overshoot its deadline by at most one access round (one bulk
    batch), never unboundedly.

    Peeks stay free and unguarded (they are the planner's and the
    algorithms' side-effect-free lookahead), the wrapped source's
    counter and name are shared so accounting, planning, and resilience
    reports are unchanged, and the guard holds **no** state of its own
    beyond the deadline — it is cheap to build per query and safe to
    discard, while breaker/fault state lives in the shared inner chain.
    """

    _copies_positive_count = True

    def __init__(
        self, inner: GradedSource, deadline_at: float, *, clock=None
    ) -> None:
        super().__init__(inner)
        self.deadline_at = float(deadline_at)
        self.clock = clock if clock is not None else MonotonicClock()

    def expired(self) -> bool:
        """Whether the query deadline has already passed."""
        return self.clock.now() >= self.deadline_at

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.deadline_at - self.clock.now()

    def _check(self, describe: str) -> None:
        if self.expired():
            raise DeadlineExceededError(
                f"{describe} on {self._inner.name!r} refused: query "
                f"deadline passed {-self.remaining():.3f}s ago"
            )

    def random_access_available(self) -> bool:
        return self._inner.random_access_available()

    # -- charged access hooks (guarded) ---------------------------------------
    def _consume(self, start: int, count: int) -> None:
        self._check("sorted access")
        self._inner._consume(start, count)

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        self._check("random access")
        return self._inner._grades_of_many(object_ids)


def guard_deadline(
    sources: Sequence[GradedSource], deadline_at: Optional[float], *, clock=None
) -> List[GradedSource]:
    """Wrap every source in a :class:`DeadlineGuard` sharing one deadline.

    ``deadline_at=None`` returns the sources untouched — the zero-cost
    no-deadline path.
    """
    if deadline_at is None:
        return list(sources)
    return [
        DeadlineGuard(source, deadline_at, clock=clock) for source in sources
    ]


def resilience_report(sources: Iterable[GradedSource]) -> Dict[str, Dict[str, object]]:
    """Per-source resilience observability, walking wrapper chains.

    For every source whose chain contains a :class:`ResilientSource`
    (retry/breaker tallies, circuit states) or a fault injector (its
    ``injected`` tallies, duck-typed so this module never imports the
    test-side :mod:`repro.middleware.faults`), one entry keyed by the
    outermost source name.  Sources with nothing to report are omitted,
    so a fault-free run carries no extra baggage.
    """
    report: Dict[str, Dict[str, object]] = {}
    for source in sources:
        entry: Dict[str, object] = {}
        for node in iter_wrapper_chain(source):
            if isinstance(node, ResilientSource):
                entry.update(node.stats.as_dict())
                entry["sorted_circuit"] = node.sorted_breaker.state
                entry["random_circuit"] = node.random_breaker.state
                entry["circuit_opens"] = (
                    node.sorted_breaker.opens + node.random_breaker.opens
                )
            injected = getattr(node, "injected", None)
            if injected is not None and hasattr(injected, "as_dict"):
                entry["injected"] = injected.as_dict()
        if entry:
            report[source.name] = entry
    return report
