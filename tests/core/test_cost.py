"""Access accounting: counters, cost models, reports, meters."""


from repro.core.cost import (
    RANDOM_EXPENSIVE,
    SORTED_EXPENSIVE,
    UNIFORM,
    AccessCounter,
    CostMeter,
    CostModel,
    CostReport,
)
from repro.core.sources import ArraySource


def test_counter_records_and_sums():
    counter = AccessCounter()
    counter.record_sorted(3)
    counter.record_random()
    assert counter.sorted_accesses == 3
    assert counter.random_accesses == 1
    assert counter.database_access_cost == 4


def test_counter_add_and_reset():
    a = AccessCounter(2, 3)
    b = AccessCounter(1, 1)
    merged = a + b
    assert merged.snapshot() == (3, 4)
    a.reset()
    assert a.database_access_cost == 0


def test_uniform_model_is_the_paper_cost():
    counter = AccessCounter(5, 7)
    assert UNIFORM.cost(counter) == 12


def test_skewed_models():
    counter = AccessCounter(5, 7)
    assert SORTED_EXPENSIVE.cost(counter) == 5 * 10 + 7
    assert RANDOM_EXPENSIVE.cost(counter) == 5 + 7 * 10
    custom = CostModel(sorted_charge=2.5, random_charge=0.5, name="custom")
    assert custom.cost(counter) == 5 * 2.5 + 7 * 0.5


def test_report_totals():
    report = CostReport({"a": AccessCounter(2, 1), "b": AccessCounter(3, 0)})
    assert report.sorted_access_cost == 5
    assert report.random_access_cost == 1
    assert report.database_access_cost == 6


def test_meter_measures_only_the_delta():
    source = ArraySource({"a": 0.5, "b": 0.4}, name="L")
    cursor = source.cursor()
    cursor.next()  # pre-existing access, not ours
    meter = CostMeter([source])
    cursor.next()
    source.random_access("a")
    report = meter.report()
    assert report.per_source["L"].snapshot() == (1, 1)


def test_meter_disambiguates_same_name():
    a = ArraySource({"x": 0.5}, name="L")
    b = ArraySource({"x": 0.5}, name="L")
    a.cursor().next()
    meter = CostMeter([a, b])
    a.cursor().next()
    b.random_access("x")
    report = meter.report()
    assert report.database_access_cost == 2
    assert len(report.per_source) == 2


def test_report_repr_mentions_totals():
    report = CostReport({"a": AccessCounter(2, 1)})
    assert "sorted=2" in repr(report)
