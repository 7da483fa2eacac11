"""Shared fixtures for the cache conformance suites.

``engine_from_table`` builds a fresh engine over a column table — every
differential comparison needs two independent engines (one cached, one
forever cold) over byte-identical data, so builders are cheap and pure.
"""

from repro.core.query import Atomic
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem


def engine_from_table(
    table,
    m,
    *,
    backend=None,
    shards=1,
    directory=None,
    max_workers=None,
):
    """A fresh engine serving ``m`` ranked lists from ``table``."""
    engine = MiddlewareEngine()
    subsystem = ListSubsystem("lists")
    for column in range(m):
        subsystem.add_list(
            f"c{column}",
            "x",
            {obj: row[column] for obj, row in table.items()},
        )
    engine.register(subsystem)
    if backend is not None or shards > 1:
        engine.configure_storage(backend, shards=shards, directory=directory)
    if max_workers is not None:
        engine.configure_parallelism(max_workers)
    return engine


def atom(column):
    return Atomic(f"c{column}", "x")


def conjunction(m):
    """The m-way fuzzy conjunction over the table's columns."""
    query = atom(0)
    for column in range(1, m):
        query = query & atom(column)
    return query


def answer_pairs(result):
    return [(item.object_id, item.grade) for item in result.answers]


def access_events(tracer):
    """The charged-access stream of a traced run, order-preserving."""
    return [
        (
            event["type"],
            event["source"],
            event["object"],
            event["grade"],
            event.get("position"),
        )
        for event in tracer.events
        if event["type"] in ("sorted", "random")
    ]


def assert_byte_identical(label, reference, result):
    __tracebackhide__ = True
    assert answer_pairs(result) == answer_pairs(reference), label
    assert result.cost == reference.cost, label
    assert result.sorted_depth == reference.sorted_depth, label
    assert result.grades_exact == reference.grades_exact, label
    assert result.algorithm == reference.algorithm, label
