"""Deterministic fault injection for subsystem access (chaos harness).

The resilience layer (:mod:`repro.middleware.resilience`) claims that
retries, circuit breakers, and NRA degradation keep top-k queries
correct when subsystems misbehave.  :class:`FaultInjectingSource` is the
instrument that makes the claim testable: it wraps any
:class:`~repro.core.sources.GradedSource` and injects, from a *seeded*
schedule, the four failure shapes a remote repository exhibits:

* **transient errors** — an access raises
  :class:`~repro.errors.TransientAccessError` and would succeed if
  retried (each thread's failure streak on a source is capped by
  ``max_consecutive``, so a retry policy with more attempts than the
  cap always gets through, whatever other threads draw meanwhile);
* **latency spikes** — an access stalls the injected clock before
  answering, exercising deadline budgets;
* **permanent random-access death** — after ``break_random_after``
  served probes, every random access fails forever while the sorted
  stream keeps working (the regime NRA was invented for);
* **total source death** — after ``kill_after`` served accesses, every
  access fails forever.

Faults hit only *charged* accesses (sorted deliveries and random
probes).  Peeks pass through untouched: they are the algorithms' free
lookahead, and a repository that has not been asked to ship anything
has nothing to fail.  A faulted access charges nothing — the subsystem
never answered — so a retried-to-success run's uniform cost equals the
fault-free cost.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, WrapperSource
from repro.errors import AccessError, TransientAccessError
from repro.middleware.resilience import VirtualClock

#: Named CLI shorthands for ``FaultProfile.parse``.
PRESETS: Dict[str, Dict[str, object]] = {
    "none": {},
    "flaky": {"transient_rate": 0.3},
    "slow": {"latency_rate": 0.2, "latency": 0.5},
    "no-random": {"transient_rate": 0.1, "break_random_after": 0},
    "dying": {"transient_rate": 0.1, "kill_after": 500},
}


@dataclass(frozen=True)
class FaultProfile:
    """Seeded description of how a subsystem misbehaves.

    ``transient_rate`` is the per-access probability of a retryable
    failure; ``max_consecutive`` caps how many times in a row the
    injector may fail, which is what makes "retries enabled implies the
    fault-free answer" a theorem rather than a likelihood.  The
    permanent modes count *served* accesses, so ``break_random_after=0``
    means random access never worked at all.
    """

    transient_rate: float = 0.0
    max_consecutive: int = 2
    latency_rate: float = 0.0
    latency: float = 0.0
    break_random_after: Optional[int] = None
    kill_after: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise AccessError(f"{name} must lie in [0, 1], got {rate}")
        if self.max_consecutive < 0:
            raise AccessError(
                f"max_consecutive must be >= 0, got {self.max_consecutive}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultProfile":
        """Build from a CLI spec: a preset name, ``key=value`` pairs, or
        a preset refined by pairs (``flaky,seed=3``)."""
        aliases = {
            "transient": "transient_rate",
            "transient-rate": "transient_rate",
            "max-consecutive": "max_consecutive",
            "latency-rate": "latency_rate",
            "latency": "latency",
            "break-random-after": "break_random_after",
            "kill-after": "kill_after",
            "seed": "seed",
        }
        kwargs: Dict[str, object] = {}
        pairs: List[str] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                if part.lower() not in PRESETS:
                    raise AccessError(
                        f"unknown fault preset {part!r} "
                        f"(known: {sorted(PRESETS)})"
                    )
                kwargs.update(PRESETS[part.lower()])
            else:
                pairs.append(part)
        for part in pairs:
            key, _, value = part.partition("=")
            key = key.strip().lower().replace("_", "-")
            if key not in aliases:
                raise AccessError(
                    f"unknown fault option {key!r} (known: {sorted(aliases)})"
                )
            name = aliases[key]
            if name in ("max_consecutive", "break_random_after", "kill_after", "seed"):
                kwargs[name] = int(value)
            else:
                kwargs[name] = float(value)
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class FaultStats:
    """Tallies of what a :class:`FaultInjectingSource` actually injected."""

    transients: int = 0
    latency_spikes: int = 0
    random_refusals: int = 0
    dead_refusals: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "transients": self.transients,
            "latency_spikes": self.latency_spikes,
            "random_refusals": self.random_refusals,
            "dead_refusals": self.dead_refusals,
        }


class FaultInjectingSource(WrapperSource):
    """A graded source that misbehaves on a deterministic schedule.

    The schedule is a function of ``(profile.seed, inner.name)`` (via a
    CRC, not Python's salted ``hash``), so two runs over the same data
    see the same faults — across processes, which is what lets the E20
    benchmark and the property tests reproduce failures exactly.

    Each injector holds a per-source lock across every charged access
    (dice roll, inner call, and served tallies together), so the fault
    schedule consumes its RNG stream in access order even when a
    parallel fan-out issues accesses to *different* sources from
    different threads — per-source determinism is what the stress suite
    relies on.
    """

    def __init__(
        self,
        inner: GradedSource,
        profile: FaultProfile,
        *,
        clock=None,
    ) -> None:
        super().__init__(inner, f"faulty({inner.name})")
        self.profile = profile
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = random.Random(
            profile.seed ^ zlib.crc32(inner.name.encode("utf-8"))
        )
        #: held across each charged access: schedule + tallies together
        self._lock = threading.Lock()
        self.injected = FaultStats()
        #: charged accesses served so far (sorted deliveries + probes)
        self.served = 0
        #: random probes served so far
        self.random_served = 0
        #: the current failure streak, per thread: a query's retries
        #: run in its own thread, and a neighbour's draws must not use
        #: up the cap that guarantees them success
        self._streak = threading.local()

    # -- the schedule ----------------------------------------------------------
    def _maybe_fail(self, kind: str, count: int = 1) -> None:
        """Roll the dice for one access serving ``count`` objects.

        The permanent limits are prospective: a bulk request that would
        cross ``kill_after``/``break_random_after`` fails whole (batches
        are atomic — a repository that dies mid-response delivers
        nothing usable), so deaths quantize to batch boundaries and a
        subsystem never over-serves its budget through bulk access.
        """
        profile = self.profile
        if (
            profile.kill_after is not None
            and self.served + count > profile.kill_after
        ):
            self.injected.dead_refusals += 1
            raise TransientAccessError(
                f"subsystem {self._inner.name!r} is dead "
                f"(served {self.served} accesses)"
            )
        if (
            kind == "random"
            and profile.break_random_after is not None
            and self.random_served + count > profile.break_random_after
        ):
            self.injected.random_refusals += 1
            raise TransientAccessError(
                f"random access on {self._inner.name!r} is permanently down "
                f"(served {self.random_served} probes)"
            )
        if profile.latency_rate and self._rng.random() < profile.latency_rate:
            self.injected.latency_spikes += 1
            self.clock.sleep(profile.latency)
        streak = getattr(self._streak, "count", 0)
        if (
            profile.transient_rate
            and streak < profile.max_consecutive
            and self._rng.random() < profile.transient_rate
        ):
            self._streak.count = streak + 1
            self.injected.transients += 1
            raise TransientAccessError(
                f"transient failure on {self._inner.name!r} ({kind} access)"
            )
        self._streak.count = 0

    # -- charged access hooks --------------------------------------------------
    # Each holds the per-source lock for the whole access — a subsystem
    # serves one request at a time, and the seeded schedule stays in
    # access order under concurrent fan-outs from other sources.
    def _consume(self, start: int, count: int) -> None:
        with self._lock:
            # Roll for the true batch size (short at the end of the list)
            # so a final short batch is not refused for items it would
            # not ship; an empty read at the end still asks once.
            self._maybe_fail("sorted", max(count, 1))
            self._inner._consume(start, count)
            self.served += count

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        with self._lock:
            self._maybe_fail("random", max(len(object_ids), 1))
            grades = self._inner._grades_of_many(object_ids)
            self.served += len(grades)
            self.random_served += len(grades)
            return grades
