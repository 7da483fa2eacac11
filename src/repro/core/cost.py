"""Database access cost accounting (paper section 4).

The paper measures an algorithm by the amount of information it obtains
from the database:

* **sorted access cost** — the total number of objects obtained under
  sorted access across all lists;
* **random access cost** — the total number of objects obtained under
  random access;
* **database access cost** — their sum.

The paper notes this uniform measure "is somewhat controversial" (a
sorted access is probably much more expensive than a random access) but
that the results are robust to the choice; :class:`CostModel` therefore
supports arbitrary per-access charges so experiments can rerun under
skewed measures (ablation in E1/E12).

:class:`AccessCounter` is owned by each source and incremented by the
access methods themselves — algorithms cannot forget to pay.
:class:`CostReport` aggregates counters across the sources an algorithm
touched.

Sources are shared by concurrent queries, so every counter also tallies
its accesses per *billed thread* (:func:`billed_thread`): the thread
that runs the query, including accesses a fan-out worker performs on
its behalf.  :class:`CostMeter` reads only its own thread's tallies, so
a query's report never includes another query's accesses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Tuple, TypeVar

T = TypeVar("T")


class _Billing(threading.local):
    """Per thread: the thread its charged accesses are billed to."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()


_billing = _Billing()


def billed_thread() -> int:
    """The thread the current thread's accesses are billed to: itself,
    or the coordinating thread while running a thunk via
    :func:`run_billed_to`."""
    return _billing.thread


def run_billed_to(thread: int, thunk: Callable[[], T]) -> T:
    """Run ``thunk`` with every access it charges billed to ``thread``."""
    previous = _billing.thread
    _billing.thread = thread
    try:
        return thunk()
    finally:
        _billing.thread = previous


@dataclass
class AccessCounter:
    """Mutable tally of sorted and random accesses for one source."""

    sorted_accesses: int = 0
    random_accesses: int = 0
    #: the same tallies per billed thread, ``[sorted, random]``
    by_thread: Dict[int, List[int]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def _billed(self) -> List[int]:
        thread = _billing.thread
        tally = self.by_thread.get(thread)
        if tally is None:
            tally = self.by_thread[thread] = [0, 0]
        return tally

    def record_sorted(self, n: int = 1) -> None:
        self.sorted_accesses += n
        self._billed()[0] += n

    def record_random(self, n: int = 1) -> None:
        self.random_accesses += n
        self._billed()[1] += n

    @property
    def database_access_cost(self) -> int:
        """The paper's cost: sorted accesses plus random accesses."""
        return self.sorted_accesses + self.random_accesses

    def snapshot(self) -> Tuple[int, int]:
        return (self.sorted_accesses, self.random_accesses)

    def billed_snapshot(self, thread: int) -> Tuple[int, int]:
        """``snapshot()`` restricted to accesses billed to ``thread``."""
        return tuple(self.by_thread.get(thread, (0, 0)))

    def reset(self) -> None:
        self.sorted_accesses = 0
        self.random_accesses = 0
        self.by_thread.clear()

    def __add__(self, other: "AccessCounter") -> "AccessCounter":
        return AccessCounter(
            self.sorted_accesses + other.sorted_accesses,
            self.random_accesses + other.random_accesses,
        )


@dataclass(frozen=True)
class CostModel:
    """Per-access charges; the paper's uniform measure is the default.

    ``UNIFORM`` charges 1 per access of either kind (the definition in
    section 4).  ``SORTED_EXPENSIVE`` reflects the paper's remark that "a
    single sorted access is probably much more expensive than a single
    random access"; ``RANDOM_EXPENSIVE`` models repositories where random
    probes dominate (e.g. re-running an image matcher per object).
    """

    sorted_charge: float = 1.0
    random_charge: float = 1.0
    name: str = "uniform"

    def cost(self, counter: AccessCounter) -> float:
        """Charge a counter under this model."""
        return (
            self.sorted_charge * counter.sorted_accesses
            + self.random_charge * counter.random_accesses
        )


UNIFORM = CostModel()
SORTED_EXPENSIVE = CostModel(sorted_charge=10.0, random_charge=1.0, name="sorted-expensive")
RANDOM_EXPENSIVE = CostModel(sorted_charge=1.0, random_charge=10.0, name="random-expensive")


@dataclass
class CostReport:
    """Per-source access tallies for one algorithm run.

    ``per_source`` maps a source name to its (sorted, random) deltas for
    the run.  Totals follow the paper's definitions.
    """

    per_source: Dict[str, AccessCounter] = field(default_factory=dict)

    @property
    def sorted_access_cost(self) -> int:
        return sum(c.sorted_accesses for c in self.per_source.values())

    @property
    def random_access_cost(self) -> int:
        return sum(c.random_accesses for c in self.per_source.values())

    @property
    def database_access_cost(self) -> int:
        return self.sorted_access_cost + self.random_access_cost

    def cost(self, model: CostModel = UNIFORM) -> float:
        """Total charge under an arbitrary cost model."""
        return sum(model.cost(c) for c in self.per_source.values())

    def __repr__(self) -> str:
        return (
            f"CostReport(sorted={self.sorted_access_cost}, "
            f"random={self.random_access_cost}, "
            f"total={self.database_access_cost})"
        )


class CostMeter:
    """Snapshot-based delta measurement over a collection of sources.

    Algorithms wrap their work in a meter so the report reflects only
    their own accesses even when sources are shared or reused — by
    queries running concurrently on other threads, too::

        meter = CostMeter(sources)
        ... run algorithm ...
        report = meter.report()

    The meter counts the accesses billed to the thread that created it.
    """

    def __init__(self, sources: Iterable) -> None:
        self._sources = list(sources)
        self._thread = billed_thread()
        self._baseline: Mapping[int, Tuple[int, int]] = {
            id(s): s.counter.billed_snapshot(self._thread) for s in self._sources
        }

    def report(self) -> CostReport:
        per_source: Dict[str, AccessCounter] = {}
        for source in self._sources:
            base_sorted, base_random = self._baseline[id(source)]
            now_sorted, now_random = source.counter.billed_snapshot(self._thread)
            name = source.name
            # Distinct sources may share a display name; disambiguate.
            if name in per_source:
                name = f"{name}#{id(source):x}"
            per_source[name] = AccessCounter(
                now_sorted - base_sorted, now_random - base_random
            )
        return CostReport(per_source)
