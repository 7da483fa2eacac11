"""Metrics snapshots are safe and consistent while writers hammer away.

The satellite fix this pins: registry read paths (``as_dict``,
``counters``, ``counter_total``) and instrument ``snapshot()`` methods
take the relevant locks, so a scrape racing live writers (the query
service reads metrics mid-load) never crashes on a mutating list and
never observes a torn instrument.
"""

import sys
import threading

from repro.observability import metrics
from repro.observability.metrics import MetricsRegistry

WRITERS = 6
UPDATES = 400


def hammer(work, threads):
    errors = []

    def runner(*args):
        try:
            work(*args)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    pool = [threading.Thread(target=runner, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
    if errors:
        raise errors[0]


def test_snapshot_while_counters_increment():
    registry = MetricsRegistry()
    stop = threading.Event()
    seen = []

    def writer(index):
        counter = registry.counter("ops", worker=str(index))
        for _ in range(UPDATES):
            counter.inc()

    def reader():
        while not stop.is_set():
            snapshot = registry.as_dict()
            seen.append(sum(snapshot["counters"].values()))

    scraper = threading.Thread(target=reader)
    scraper.start()
    try:
        hammer(writer, WRITERS)
    finally:
        stop.set()
        scraper.join(timeout=30)
    assert registry.counter_total("ops") == WRITERS * UPDATES
    # Scraped totals are monotone non-decreasing: no snapshot ever went
    # backwards or saw garbage.
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def test_snapshot_while_series_append():
    registry = MetricsRegistry()
    stop = threading.Event()

    def writer(index):
        series = registry.series("tau", worker=str(index))
        for step in range(UPDATES):
            series.append(step, step / UPDATES)

    def reader():
        while not stop.is_set():
            snapshot = registry.as_dict()
            for points in snapshot["series"].values():
                # Each snapshot is internally consistent: steps strictly
                # increase because each writer owns its own series.
                steps = [step for step, _ in points]
                assert steps == sorted(steps)
            registry.series("tau", worker="0").last()

    scraper = threading.Thread(target=reader)
    scraper.start()
    try:
        hammer(writer, WRITERS)
    finally:
        stop.set()
        scraper.join(timeout=30)
    for index in range(WRITERS):
        assert len(registry.series("tau", worker=str(index)).snapshot()) == UPDATES


def test_histogram_and_gauge_reads_under_writes():
    registry = MetricsRegistry()
    stop = threading.Event()

    def writer(index):
        histogram = registry.histogram("latency")
        gauge = registry.gauge("depth")
        for step in range(UPDATES):
            histogram.observe(step * 0.001)
            gauge.add(1)
            gauge.add(-1)

    def reader():
        while not stop.is_set():
            rendered = registry.as_dict()
            stats = rendered["histograms"].get("latency")
            if stats:
                # count/sum/min/max come from one locked snapshot.
                assert stats["count"] >= 0
                assert stats["max"] >= stats["min"]
            registry.counters("latency")
            registry.counter_total("nothing")

    scraper = threading.Thread(target=reader)
    scraper.start()
    try:
        hammer(writer, WRITERS)
    finally:
        stop.set()
        scraper.join(timeout=30)
    final = registry.histogram("latency").as_dict()
    assert final["count"] == WRITERS * UPDATES
    assert registry.gauge("depth").snapshot() == 0.0


def test_concurrent_instrument_creation_yields_one_instance():
    registry = MetricsRegistry()
    grabbed = [None] * WRITERS
    barrier = threading.Barrier(WRITERS, timeout=10.0)

    def work(index):
        barrier.wait()
        grabbed[index] = registry.counter("shared", label="x")
        grabbed[index].inc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between lookup and creation
    try:
        hammer(work, WRITERS)
    finally:
        sys.setswitchinterval(interval)
    assert all(instrument is grabbed[0] for instrument in grabbed)
    assert registry.counter_total("shared") == WRITERS


def test_repeated_lookups_construct_no_new_instrument(monkeypatch):
    built = []
    for kind in ("Counter", "Gauge", "Histogram", "Series"):
        base = getattr(metrics, kind)

        def counted(base=base, kind=kind):
            built.append(kind)
            return base()

        monkeypatch.setattr(metrics, kind, counted)
    registry = MetricsRegistry()
    lookups = (
        lambda: registry.counter("requests", tenant="a"),
        lambda: registry.gauge("depth"),
        lambda: registry.histogram("latency", tenant="a"),
        lambda: registry.series("tau", source="L"),
    )
    first = [lookup() for lookup in lookups]
    assert built == ["Counter", "Gauge", "Histogram", "Series"]
    for _ in range(5):
        assert all(lookup() is instrument for lookup, instrument in zip(lookups, first))
    assert len(built) == 4


def test_series_properties_are_locked_copies():
    registry = MetricsRegistry()
    series = registry.series("walk")
    stop = threading.Event()

    def writer(index):
        for step in range(UPDATES):
            series.append(step, float(step))

    def reader():
        while not stop.is_set():
            steps = series.steps
            values = series.values
            # Copies, not views: lengths are self-consistent even while
            # the underlying list grows.
            assert len(steps) == len(steps)
            assert all(isinstance(v, float) for v in values[:5])

    scraper = threading.Thread(target=reader)
    scraper.start()
    try:
        hammer(writer, 2)
    finally:
        stop.set()
        scraper.join(timeout=30)
    assert len(series.snapshot()) == 2 * UPDATES
