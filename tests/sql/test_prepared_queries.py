"""Prepared queries: a repeated text reuses one compiled query.

``compile_statement`` keeps the query it lowers on the ``Statement``
object, and the query keeps its atoms, plan keys and compiled scoring,
so a text repeated through the parse memo derives none of them again.
Every memo goes by object identity: ``Year = 1999`` and ``Year =
1999.0`` parse to statements that compare and hash equal, yet each must
keep its own atom target type, ``str(query)``, plan-key digest and trace
bytes, exactly as when every request lowered a fresh statement.
"""

import itertools
import random
import sys
import threading

import pytest

from repro.cache import key_digest, plan_key
from repro.core.query import Atomic
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.list_subsystem import ListSubsystem
from repro.observability.tracer import QueryTracer
from repro.service import QueryService, ServiceConfig
from repro.sql.compiler import compile_sql, compile_statement
from repro.sql.parser import parse

AS_INT = "SELECT * FROM albums WHERE Year = 1999 AND Genre = 'rock' STOP AFTER 3"
AS_FLOAT = "SELECT * FROM albums WHERE Year = 1999.0 AND Genre = 'rock' STOP AFTER 3"


def album_engine(cache):
    rng = random.Random(5)
    subsystem = ListSubsystem("albums")
    subsystem.add_list("Year", 1999, {f"a{i}": rng.random() for i in range(12)})
    subsystem.add_list("Genre", "rock", {f"a{i}": rng.random() for i in range(12)})
    engine = MiddlewareEngine()
    engine.register(subsystem)
    if cache:
        engine.configure_cache()
    return engine


def observe(engine, query):
    """What a request shows of its query: the Year atom's target type,
    ``str(query)``, the plan-key digest, and the trace bytes of a run."""
    tracer = QueryTracer()
    engine.top_k(query, 3, tracer=tracer)
    return (
        type(query.atoms()[0].target),
        str(query),
        key_digest(plan_key(query, engine.semantics)),
        tracer.to_json(),
    )


@pytest.mark.parametrize("order", [(AS_INT, AS_FLOAT), (AS_FLOAT, AS_INT)])
@pytest.mark.parametrize("cache", [False, True])
def test_int_and_float_texts_keep_their_own_query(order, cache):
    parse.cache_clear()
    memoized, fresh = album_engine(cache), album_engine(cache)
    seen, expected = [], []
    for text in order * 2:
        query = compile_sql(text)
        assert compile_sql(text) is query
        seen.append(observe(memoized, query))
        # Each request lowering a statement of its own: the reference.
        expected.append(observe(fresh, compile_statement(parse.__wrapped__(text))))
    assert seen == expected
    kinds = {text: record[0] for text, record in zip(order * 2, seen)}
    assert kinds == {AS_INT: int, AS_FLOAT: float}
    first, second = seen[:2]
    assert first[1] != second[1] and first[2] != second[2]


def test_a_statement_from_the_unmemoized_parser_compiles_as_before():
    statement = parse.__wrapped__(AS_FLOAT)
    assert statement is not parse(AS_FLOAT)
    query = compile_statement(statement)
    assert compile_statement(statement) is query
    assert compile_statement(parse.__wrapped__(AS_FLOAT)) is not query
    assert query == compile_statement(parse(AS_FLOAT))
    assert str(query) == "(Year=1999.0) AND (Genre='rock')"
    assert type(query.atoms()[0].target) is float


# -- many threads, one service, the same texts --------------------------------

COLUMNS = 4
THREADS = 8
ROUNDS = 6
_PAIRS = list(itertools.permutations(range(COLUMNS), 2))
TEXTS = [
    f"SELECT * FROM t WHERE c{a} = 'x' AND c{b} = 'x'"
    f"{('', ' USING mean', ' USING product')[i % 3]} STOP AFTER {3 + i % 7}"
    for i, (a, b) in enumerate((_PAIRS * 2)[:20])
]


def column_engine():
    rng = random.Random(29)
    subsystem = ListSubsystem("columns")
    for column in range(COLUMNS):
        subsystem.add_list(
            f"c{column}", "x", {f"o{i:03d}": rng.random() for i in range(150)}
        )
    engine = MiddlewareEngine()
    engine.register(subsystem)
    return engine


def pairs(result):
    return [(item.object_id, item.grade) for item in result.answers]


def test_concurrent_same_texts_match_serial_and_count_one_outcome_each():
    assert len(set(TEXTS)) == len(TEXTS)
    serial_engine = column_engine()
    serial = {
        text: pairs(serial_engine.top_k(compile_sql(text), parse(text).stop_after))
        for text in TEXTS
    }
    engine = column_engine()
    cache = engine.configure_cache(max_entries=12)  # small: hits, misses, evictions
    service = QueryService(engine, ServiceConfig(workers=2))
    done = threading.Event()
    barrier = threading.Barrier(THREADS + 1)
    errors, mismatches, invalidations = [], [], []

    def submitter(index):
        order = random.Random(index).sample(TEXTS, len(TEXTS))
        try:
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                for text in order:
                    statement = parse(text)
                    result = service.query(
                        compile_statement(statement), statement.stop_after, timeout=60
                    )
                    if pairs(result) != serial[text]:
                        mismatches.append(text)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def invalidator():
        barrier.wait(timeout=30)
        turn = 0
        while not done.is_set():
            engine.invalidate(Atomic(f"c{turn % COLUMNS}", "x"))
            invalidations.append(turn)
            turn += 1
            done.wait(0.002)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside probes and memos
    try:
        pool = [threading.Thread(target=submitter, args=(i,)) for i in range(THREADS)]
        writer = threading.Thread(target=invalidator)
        for thread in pool + [writer]:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        done.set()
        writer.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in pool + [writer])
    assert not errors
    assert not mismatches
    assert invalidations

    requests = THREADS * ROUNDS * len(TEXTS)
    metrics = service.metrics
    hits = metrics.counter_total("service.cache.hit")
    misses = metrics.counter_total("service.cache.miss")
    assert hits + misses == requests
    assert hits > 0 and misses > 0
    stats = service.stats()
    assert stats["submitted"] == stats["admitted"] == stats["completed"] == requests
    assert stats["rejected"] == stats["failed"] == stats["shed"] == 0
    # The cache counts each request once too: an admission hit, or the
    # worker's own probe (a hit on a fill landed in between, or the miss).
    counted = cache.stats()
    assert counted["hits"] + counted["misses"] == requests
    assert counted["hits"] == hits + metrics.counter_total("service.cache.served")
