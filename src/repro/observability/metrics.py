"""Counters, gauges, histograms, and series for query observability.

A deliberately small, dependency-free metrics model in the Prometheus
style: named instruments with string labels, owned by a
:class:`MetricsRegistry`.  The tracer bridges access events into
counters (``accesses.sorted{source,phase}``), algorithms feed the
threshold/τ trajectory and buffer depths into series, the resilience
observer feeds retry/breaker counters, and phase spans feed wall-clock
histograms when the tracer has a clock.

Everything renders to plain dicts with deterministically ordered keys
(:meth:`MetricsRegistry.as_dict`), so metric snapshots can be asserted
byte-for-byte in tests and serialized next to trace timelines.

Instruments and the registry are thread-safe: every mutation holds a
per-instrument lock and instrument creation holds a registry lock, so
parallel access fan-outs (``repro.parallel``) never lose updates.
Snapshots (:meth:`MetricsRegistry.as_dict`) are taken under the
registry lock and each instrument's lock, so they are internally
consistent per instrument.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

#: label sets are stored as sorted (key, value) tuples so the same
#: labels always address the same instrument regardless of kwarg order
LabelKey = Tuple[Tuple[str, str], ...]
InstrumentKey = Tuple[str, LabelKey]


def _key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render(key: InstrumentKey) -> str:
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A tally.  It only rises, except when a tracer takes back an
    access it recorded (:meth:`QueryTracer.retract`)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def set_to(self, value: int) -> None:
        """Resynchronize to an authoritative external tally.

        Used when an observer attaches to a component that already has
        history (e.g. a cached resilient binding whose retry stats
        predate observability being configured), so live increments from
        then on keep the counter exactly equal to the component's own
        count.
        """
        with self._lock:
            self.value = int(value)

    def snapshot(self) -> int:
        """The current value, read under the instrument lock."""
        with self._lock:
            return self.value


class Gauge:
    """A value that goes up and down (buffer depth, circuit state)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by a signed delta (queue depths, inflight)."""
        with self._lock:
            self.value += float(delta)

    def snapshot(self) -> float:
        """The current value, read under the instrument lock."""
        with self._lock:
            return self.value


class Histogram:
    """Streaming summary of observed values: count, sum, min, max."""

    __slots__ = ("count", "total", "minimum", "maximum", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum if self.minimum is not None else 0.0,
                "max": self.maximum if self.maximum is not None else 0.0,
            }


class Series:
    """An append-only (step, value) time series.

    The step axis is the tracer's monotonic event counter, so series
    points line up exactly with the access timeline — this is what lets
    an experiment plot the TA threshold τ against accesses performed.
    """

    __slots__ = ("points", "_lock")

    def __init__(self) -> None:
        self.points: List[Tuple[int, float]] = []
        self._lock = threading.Lock()

    def append(self, step: int, value: float) -> None:
        with self._lock:
            self.points.append((int(step), float(value)))

    def snapshot(self) -> List[Tuple[int, float]]:
        """A consistent copy of the points, taken under the lock."""
        with self._lock:
            return list(self.points)

    @property
    def steps(self) -> List[int]:
        return [step for step, _ in self.snapshot()]

    @property
    def values(self) -> List[float]:
        return [value for _, value in self.snapshot()]

    def last(self) -> Optional[float]:
        with self._lock:
            return self.points[-1][1] if self.points else None


class MetricsRegistry:
    """Get-or-create home for all instruments of one observed run.

    Creation and snapshots hold a registry-wide lock, so concurrent
    threads asking for the same (name, labels) always receive the same
    instrument instance.  Looking up an existing instrument takes no
    lock and builds nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}
        self._series: Dict[InstrumentKey, Series] = {}

    def _instrument(self, table: Dict, factory, name: str, labels: Dict[str, object]):
        """The instrument at ``(name, labels)`` in ``table``; only a missing
        one is built, under the registry lock, so every caller gets the
        same instance and a lookup allocates nothing."""
        key = _key(name, labels)
        instrument = table.get(key)
        if instrument is None:
            with self._lock:
                instrument = table.get(key)
                if instrument is None:
                    instrument = table[key] = factory()
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument(self._histograms, Histogram, name, labels)

    def series(self, name: str, **labels) -> Series:
        return self._instrument(self._series, Series, name, labels)

    def move_steps(self, moved: Dict[int, int]) -> None:
        """Renumber every series point whose step ``moved`` maps to a new
        one (the tracer took back events before it)."""
        with self._lock:
            every = list(self._series.values())
        for series in every:
            with series._lock:
                series.points = [(moved.get(step, step), value) for step, value in series.points]

    # -- read side -------------------------------------------------------------
    # Every read goes through the instruments' snapshot methods, which
    # take the per-instrument lock: a scrape racing live writers (the
    # query service reads metrics mid-load) sees each instrument in a
    # consistent state and never trips over a list mutating under it.
    def counters(self, name: str) -> Dict[str, int]:
        """All counters of one name, keyed by rendered labels."""
        with self._lock:
            selected = sorted(
                (key, counter)
                for key, counter in self._counters.items()
                if key[0] == name
            )
        return {_render(key): counter.snapshot() for key, counter in selected}

    def counter_total(self, name: str) -> int:
        """Sum of one counter name across every label combination."""
        with self._lock:
            selected = [
                c for key, c in self._counters.items() if key[0] == name
            ]
        return sum(c.snapshot() for c in selected)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Deterministic snapshot of every instrument (sorted keys).

        Safe to call while writer threads are active: the registry lock
        pins the instrument *sets*, then each instrument is snapshotted
        under its own lock, so concurrent increments/appends land either
        wholly before or wholly after the snapshot of that instrument.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            series = sorted(self._series.items())
        return {
            "counters": {_render(k): c.snapshot() for k, c in counters},
            "gauges": {_render(k): g.snapshot() for k, g in gauges},
            "histograms": {_render(k): h.as_dict() for k, h in histograms},
            "series": {
                _render(k): [[step, value] for step, value in s.snapshot()]
                for k, s in series
            },
        }
