"""Batched sorted access (section 4's second interface style).

"Alternatively, Garlic could ask the subsystem for, say, the top 10
objects in sorted order, along with their grades, then request the next
10, etc."

Real repositories serve sorted access in batches: each *request* has a
fixed overhead (a network round trip, a query restart) and returns up to
``batch_size`` items — including items the algorithm never ends up
consuming.  :class:`BatchedSource` models this: the wrapped source's
counter is charged for every item *fetched* (whole batches, so cost
rounds up), and the number of requests is tracked separately so a
:class:`LatencyModel` can price round trips and transfers independently.

This makes the paper's cost-measure discussion concrete: under the
uniform measure batching only inflates cost (overshoot), but under a
request-dominated latency model a larger batch is cheaper — the
trade-off experiment E15 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import AccessCounter
from repro.core.sources import GradedSource, SortedCursor, WrapperSource


class _BatchCursor(SortedCursor):
    """Sorted access that pays per *batch fetched*, not per item.

    The batch charge happens inside :meth:`BatchedSource._consume` when
    the read position crosses the fetched window, so the counter always
    equals the number of items the repository has shipped — overshoot
    included.  Items inside an already-fetched window are free.
    """

    def _charge(self, count: int) -> None:
        pass


class BatchedSource(WrapperSource):
    """A source whose sorted access fetches whole batches.

    Reading past the fetched window pays, on this source's own counter,
    for the entire next batch — the overshoot is the price of the batch
    interface.  The fetched window is shared by all cursors (the
    middleware caches what the repository already shipped).  Random
    access passes through unchanged.  ``requests`` counts round trips.
    """

    def __init__(self, inner: GradedSource, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(inner, f"batched[{batch_size}]({inner.name})")
        self.counter = AccessCounter()
        self.batch_size = batch_size
        #: items already fetched and paid for (batch multiples, capped at N)
        self.fetched = 0
        #: batch round trips made so far
        self.requests = 0

    def cursor(self) -> _BatchCursor:
        return _BatchCursor(self)

    def _consume(self, start: int, count: int) -> None:
        """Fetch (and pay for) whole batches until the read is covered."""
        self._inner._consume(start, count)
        while count and start + count > self.fetched:
            batch = min(self.batch_size, len(self._inner) - self.fetched)
            self.requests += 1
            self.fetched += batch
            self.counter.record_sorted(batch)


@dataclass(frozen=True)
class LatencyModel:
    """Prices one source's work as round trips plus transfers.

    ``request_charge`` is the fixed cost of a sorted-access batch request
    or a random-access probe (both are round trips); ``item_charge`` the
    marginal cost of each transferred item.
    """

    request_charge: float = 10.0
    item_charge: float = 1.0
    name: str = "latency"

    def cost_of(self, source: BatchedSource) -> float:
        """Total latency-model charge for one batched source."""
        round_trips = source.requests + source.counter.random_accesses
        items = source.fetched + source.counter.random_accesses
        return self.request_charge * round_trips + self.item_charge * items


def batched(sources, batch_size: int):
    """Wrap every source in a :class:`BatchedSource` of the given size."""
    return [BatchedSource(source, batch_size) for source in sources]
