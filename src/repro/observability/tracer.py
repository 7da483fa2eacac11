"""Structured access tracing: the query → phase → access timeline.

:class:`QueryTracer` records a flat, step-numbered event list.  Event
types:

``phase_start`` / ``phase_end``
    A span: the engine's ``query`` span, then each algorithm phase
    (``sorted-phase``, ``random-phase``, ``ta``, ``nra`` …).  Spans
    nest; every other event carries the innermost open phase name.
``sorted`` / ``random``
    One database access, in the paper's sense: the list (source name),
    the object id, the grade obtained, and — for sorted access — the
    1-based position in the list.  Algorithms emit these at *logical*
    access time (when they process an item), so the timeline shows the
    access order the paper's algorithm descriptions define, independent
    of the bulk-draining call pattern underneath.
``sample``
    A named numeric observation tied to the current step — the TA
    threshold τ, NRA's bound gap, buffer depths.  Samples also land in
    the metrics registry's step-indexed series, which is what the
    τ-vs-step experiment plots.
``event``
    Anything else (the chosen plan, a degradation, a retry).

Determinism: the tracer has no clock unless one is injected, events are
appended in program order, and :meth:`QueryTracer.to_json` serializes
with sorted keys — identical runs produce byte-identical timelines (the
golden-trace tests pin this down).

Zero overhead when off: every instrumented call site guards with
``if tracer is not None``; no wrapper, no no-op dispatch, nothing on the
hot path.  :class:`TracingSource` is the complementary *source-level*
recorder for consumers outside the instrumented algorithms; like
:class:`~repro.core.sources.VerifyingSource` its peeks are strictly
side-effect-free.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.graded import GradedItem, ObjectId
from repro.core.sources import GradedSource, WrapperSource, iter_wrapper_chain
from repro.errors import TraceError

#: bumped when the event schema changes incompatibly
TRACE_VERSION = 1

#: event types a valid timeline may contain
_EVENT_TYPES = ("phase_start", "phase_end", "sorted", "random", "sample", "event")


class QueryTracer:
    """Recorder for one query's (or one session's) access timeline.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`.
        When given, access events increment per-source/per-phase
        counters, samples append to step-indexed series, and — with a
        clock — phase spans observe wall-clock histograms.
    clock:
        Optional zero-argument callable returning seconds (e.g.
        ``time.perf_counter``).  When omitted (the default) no
        timestamps enter the timeline, keeping it fully deterministic;
        inject a clock to measure wall-clock per phase instead.
    """

    def __init__(self, *, metrics=None, clock: Optional[Callable[[], float]] = None) -> None:
        self.events: List[Dict[str, object]] = []
        self.metrics = metrics
        self.clock = clock
        self._step = 0
        self._phases: List[str] = []
        #: serializes step assignment, event appends, and the phase
        #: stack, so source-level recorders (TracingSource) are safe to
        #: drive from parallel fan-out workers.  Algorithms emit from
        #: the coordinating thread in logical order regardless.
        self._lock = threading.RLock()

    # -- core emission ---------------------------------------------------------
    @property
    def step(self) -> int:
        """The step number the next event will carry."""
        return self._step

    @property
    def current_phase(self) -> Optional[str]:
        """Innermost open phase, or None outside any span."""
        return self._phases[-1] if self._phases else None

    def _emit(self, event_type: str, **fields) -> Dict[str, object]:
        with self._lock:
            event: Dict[str, object] = {"step": self._step, "type": event_type}
            for name, value in fields.items():
                if value is not None:
                    event[name] = value
            self._step += 1
            self.events.append(event)
            return event

    # -- spans -----------------------------------------------------------------
    @contextmanager
    def phase(self, name: str, **attrs):
        """A span; every event inside carries this phase name."""
        started = self.clock() if self.clock is not None else None
        with self._lock:
            self._emit("phase_start", phase=name, attrs=attrs or None)
            self._phases.append(name)
        try:
            yield self
        finally:
            with self._lock:
                self._phases.pop()
                event = self._emit("phase_end", phase=name)
            if started is not None:
                elapsed = self.clock() - started
                event["seconds"] = elapsed
                if self.metrics is not None:
                    self.metrics.histogram("phase.seconds", phase=name).observe(elapsed)

    # -- events ----------------------------------------------------------------
    def event(self, name: str, **attrs) -> None:
        """A named point event (plan chosen, degradation, retry, ...)."""
        self._emit("event", name=name, phase=self.current_phase, attrs=attrs or None)

    def sample(self, name: str, value: float) -> None:
        """A numeric observation at the current step (τ, bounds, depths)."""
        event = self._emit(
            "sample", name=name, value=float(value), phase=self.current_phase
        )
        if self.metrics is not None:
            self.metrics.series(name).append(event["step"], float(value))

    def record_sorted(
        self,
        source: str,
        object_id: ObjectId,
        grade: float,
        position: Optional[int] = None,
    ) -> Dict[str, object]:
        """One sorted access: ``source`` delivered ``object_id`` at
        ``grade``; returns the event, which :meth:`retract` takes."""
        event = self._emit(
            "sorted",
            source=source,
            object=object_id,
            grade=float(grade),
            position=position,
            phase=self.current_phase,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "accesses.sorted", source=source, phase=self.current_phase or "-"
            ).inc()
        return event

    def record_random(self, source: str, object_id: ObjectId, grade: float) -> None:
        """One random access: ``source`` graded ``object_id`` on demand."""
        self._emit(
            "random",
            source=source,
            object=object_id,
            grade=float(grade),
            phase=self.current_phase,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "accesses.random", source=source, phase=self.current_phase or "-"
            ).inc()

    def record_sorted_batch(
        self, source: str, items: Sequence[GradedItem], start_position: int
    ) -> None:
        """Record a consumed batch: one sorted event per delivered item."""
        for offset, item in enumerate(items):
            self.record_sorted(
                source, item.object_id, item.grade, position=start_position + offset + 1
            )

    def retract(self, events: Sequence[Dict[str, object]]) -> None:
        """Take back sorted-access ``events`` that did not happen after all.

        TA records a row's sorted accesses at logical time, before the
        bulk consume that delivers them; a stream that then refuses the
        delivery has its records taken back here.  Later events move up
        so the steps stay contiguous, and the metrics follow: the access
        counters drop, and every series point moves with its sample.
        """
        if not events:
            return
        with self._lock:
            gone = {id(event) for event in events}
            start = min(int(event["step"]) for event in events)
            kept = [event for event in self.events[start:] if id(event) not in gone]
            moved = {}
            for step, event in enumerate(kept, start):
                moved[event["step"]] = step
                event["step"] = step
            self.events[start:] = kept
            self._step = start + len(kept)
            if self.metrics is not None:
                for event in events:
                    self.metrics.counter(
                        "accesses.sorted",
                        source=event["source"],
                        phase=event.get("phase") or "-",
                    ).inc(-1)
                self.metrics.move_steps(moved)

    # -- resilience bridge -----------------------------------------------------
    def resilience_observer(self, source_name: str) -> Callable[[str, str], None]:
        """An observer callback for one ResilientSource.

        Each notification becomes a trace event and bumps the matching
        ``resilience.<kind>`` counter labelled with the source name, so
        the registry's retry counts track the source's own stats
        exactly (see :func:`attach_resilience_observers`).
        """

        def observe(kind: str, detail: str) -> None:
            self.event("resilience", kind=kind, source=source_name, detail=detail)
            if self.metrics is not None:
                self.metrics.counter(f"resilience.{kind}", source=source_name).inc()

        return observe

    # -- read side -------------------------------------------------------------
    def access_counts(self) -> Dict[str, Tuple[int, int]]:
        """Traced (sorted, random) access tallies per source name.

        The trace-side mirror of :class:`~repro.core.cost.CostReport`:
        on a fault-free run the two must agree exactly, which the
        conformance suite asserts for every algorithm.
        """
        counts: Dict[str, List[int]] = {}
        for event in self.events:
            kind = event["type"]
            if kind not in ("sorted", "random"):
                continue
            tally = counts.setdefault(str(event["source"]), [0, 0])
            tally[0 if kind == "sorted" else 1] += 1
        return {name: (s, r) for name, (s, r) in counts.items()}

    def samples(self, name: str) -> List[Tuple[int, float]]:
        """All (step, value) samples of one name, in emission order."""
        return [
            (int(e["step"]), float(e["value"]))
            for e in self.events
            if e["type"] == "sample" and e.get("name") == name
        ]

    # -- serialization ---------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {"version": TRACE_VERSION, "events": self.events}

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON: sorted keys, trailing newline, no clock
        entropy unless a clock was injected."""
        return json.dumps(
            self.as_dict(), indent=indent, sort_keys=True, default=str
        ) + "\n"


def validate_trace(payload: Dict[str, object]) -> None:
    """Validate a timeline against the trace schema; raise TraceError.

    Checks: version tag, contiguous 0-based step numbering, known event
    types with their required fields, grades within [0, 1], and balanced
    phase spans.  Used by the CLI before writing ``--trace-out`` files
    and by the golden-trace tests.
    """
    if not isinstance(payload, dict):
        raise TraceError(f"trace payload must be a dict, got {type(payload).__name__}")
    if payload.get("version") != TRACE_VERSION:
        raise TraceError(f"unsupported trace version {payload.get('version')!r}")
    events = payload.get("events")
    if not isinstance(events, list):
        raise TraceError("trace payload lacks an event list")
    open_phases: List[str] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceError(f"event {index} is not an object")
        if event.get("step") != index:
            raise TraceError(
                f"event {index} has step {event.get('step')!r}; steps must "
                "be contiguous from 0"
            )
        kind = event.get("type")
        if kind not in _EVENT_TYPES:
            raise TraceError(f"event {index} has unknown type {kind!r}")
        if kind in ("sorted", "random"):
            for required in ("source", "object", "grade"):
                if required not in event:
                    raise TraceError(f"{kind} event {index} lacks {required!r}")
            grade = event["grade"]
            if not isinstance(grade, (int, float)) or not 0.0 <= grade <= 1.0:
                raise TraceError(
                    f"{kind} event {index} has grade {grade!r} outside [0, 1]"
                )
        elif kind == "sample":
            if "name" not in event or "value" not in event:
                raise TraceError(f"sample event {index} lacks name/value")
        elif kind == "event":
            if "name" not in event:
                raise TraceError(f"event {index} lacks a name")
        elif kind == "phase_start":
            open_phases.append(str(event.get("phase")))
        elif kind == "phase_end":
            if not open_phases or open_phases[-1] != str(event.get("phase")):
                raise TraceError(
                    f"phase_end {event.get('phase')!r} at event {index} does "
                    f"not match open phases {open_phases}"
                )
            open_phases.pop()
    if open_phases:
        raise TraceError(f"unclosed phases at end of trace: {open_phases}")


class TracingSource(WrapperSource):
    """Source-level access recorder, transparent to cost and planning.

    Wraps one :class:`~repro.core.sources.GradedSource` and records every
    *charged* access — sorted deliveries (single and bulk) and random
    probes (single and bulk) — into a :class:`QueryTracer`.  The counter
    is shared with the wrapped source and the name is kept, so cost
    reports, planner probes, and resilience reports are unchanged.

    Peeks and the accounting-free materialization paths read the wrapped
    source's columns and record **nothing**: like
    :class:`~repro.core.sources.VerifyingSource` the wrapper is strictly
    side-effect-free for reads the paper's cost measure does not charge.

    Note on windowed algorithms: TA and A0 drain sorted access in bulk
    *after* processing peeked windows, so a source-level recorder would
    place their sorted events at consumption time, not logical access
    time.  The algorithms therefore emit their own trace events when
    given a ``tracer`` — use this wrapper for consumers outside those
    code paths (naive scans, cursors driven by external code, tests).
    """

    _copies_positive_count = True

    def __init__(self, inner: GradedSource, tracer: QueryTracer) -> None:
        super().__init__(inner)
        self.tracer = tracer

    def random_access_available(self) -> bool:
        return self._inner.random_access_available()

    def _consume(self, start: int, count: int) -> None:
        self._inner._consume(start, count)
        ids, grades = self._columns_range(start, count)
        for offset, (object_id, grade) in enumerate(zip(ids, grades.tolist())):
            self.tracer.record_sorted(self.name, object_id, grade, position=start + offset + 1)

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        grades = self._inner._grades_of_many(object_ids)
        for object_id, grade in zip(object_ids, grades.tolist()):
            self.tracer.record_random(self.name, object_id, grade)
        return grades


def traced(sources: Iterable[GradedSource], tracer: QueryTracer) -> List[GradedSource]:
    """Wrap every source in a :class:`TracingSource` sharing one tracer."""
    return [TracingSource(source, tracer) for source in sources]


def attach_resilience_observers(
    sources: Iterable[GradedSource], tracer: QueryTracer
) -> None:
    """Wire every ResilientSource in the wrapper chains to the tracer.

    Each resilient node gets an observer emitting trace events and
    bumping ``resilience.*`` counters.  On attach, the counters are
    resynchronized to the node's cumulative stats, so from this point on
    ``resilience_report()`` and the metrics registry agree on retry
    counts even when the binding (and its history) predates the tracer.
    """
    from repro.middleware.resilience import ResilientSource

    for source in sources:
        for node in iter_wrapper_chain(source):
            if isinstance(node, ResilientSource):
                node.observer = tracer.resilience_observer(node.name)
                if tracer.metrics is not None:
                    stats = node.stats.as_dict()
                    for kind in ("retries", "failures", "rejections"):
                        tracer.metrics.counter(
                            f"resilience.{kind}", source=node.name
                        ).set_to(stats[kind])
