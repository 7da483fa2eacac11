"""Shared fixtures for the query-service suites.

``build_engine`` makes the standard two-list engine the service tests
query; ``GateSubsystem`` makes one whose every charged access blocks on
an event the test controls — the lever for pinning "queued", "running",
and "shed" states deterministically instead of racing real threads.
"""

import random
import threading

from repro.core.graded import GradedSet
from repro.core.query import Atomic
from repro.core.sources import ArraySource
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.interface import Subsystem
from repro.middleware.list_subsystem import ListSubsystem

N = 120
QUERY = Atomic("Color", "red") & Atomic("Shape", "round")


def make_grades(n=N, seed=7):
    rng = random.Random(seed)
    color = {f"img{i}": rng.random() for i in range(n)}
    shape = {f"img{i}": rng.random() for i in range(n)}
    return color, shape


def build_engine(n=N, seed=7, clock=None):
    """Two ranked lists over n objects; QUERY conjoins them."""
    color, shape = make_grades(n, seed)
    engine = MiddlewareEngine(clock=clock)
    subsystem = ListSubsystem("qbic")
    subsystem.add_list("Color", "red", color)
    subsystem.add_list("Shape", "round", shape)
    engine.register(subsystem)
    return engine


class GateSource(ArraySource):
    """A ranked list whose charged accesses block until the gate opens."""

    #: TA reads it row by row, so every access passes the gated hooks
    supports_columnar = False

    def __init__(self, graded, name, gate, started):
        super().__init__(graded, name=name)
        self._gate = gate
        self._started = started

    def _blocked(self):
        self._started.set()
        if not self._gate.wait(timeout=30.0):
            raise TimeoutError("gate never opened")

    def _consume(self, start, count):
        self._blocked()

    def _grades_of_many(self, object_ids):
        self._blocked()
        return super()._grades_of_many(object_ids)


class GateSubsystem(Subsystem):
    """One gated list per (attribute, target); open(), and work flows."""

    def __init__(self, name, lists):
        super().__init__(name)
        self._lists = dict(lists)
        self.gate = threading.Event()
        #: set the moment any query first touches a gated access —
        #: "a worker is RUNNING now" without sleeping in the test.
        self.started = threading.Event()

    def attributes(self):
        return frozenset(attribute for attribute, _ in self._lists)

    def supports(self, atom):
        return (atom.attribute, atom.target) in self._lists

    def _bind(self, atom):
        grades = self._lists[(atom.attribute, atom.target)]
        return GateSource(
            GradedSet(grades),
            f"{self.name}:{atom}",
            self.gate,
            self.started,
        )

    def open(self):
        self.gate.set()


def build_gated_engine(n=30, seed=11, clock=None):
    """An engine whose single-list queries block until ``gate.open()``."""
    rng = random.Random(seed)
    grades = {f"img{i}": rng.random() for i in range(n)}
    engine = MiddlewareEngine(clock=clock)
    subsystem = GateSubsystem("gated", {("Color", "red"): grades})
    engine.register(subsystem)
    return engine, subsystem, Atomic("Color", "red")
