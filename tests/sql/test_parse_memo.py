"""`parse` is memoized by exact text: same statements, shared and immutable.

A repeated text returns the identical :class:`Statement` the parser built
the first time; a malformed text raises afresh on every call; the memo
is bounded by a module constant and safe under concurrent callers.
Statements that compare equal may still lower to different queries (an
``int`` against a ``float`` target), so lowering is memoized only per
statement object (``tests/sql/test_prepared_queries.py``).
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuerySyntaxError
from repro.sql.compiler import compile_sql
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import PARSE_CACHE_SIZE, parse

_idents = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: name.upper() not in KEYWORDS
)
_literals = st.one_of(
    st.from_regex(r"'[a-z ]{0,6}'", fullmatch=True),
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 9999), st.integers(0, 999)).map("{0[0]}.{0[1]}".format),
    _idents,
)
_weights = st.one_of(
    st.just(""), st.floats(0.0, 1.0).map(lambda weight: f" WEIGHT {weight:.3f}")
)
_predicates = st.builds("{} = {}{}".format, _idents, _literals, _weights)
_conditions = st.recursive(
    _predicates,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(" AND ".join),
        st.lists(inner, min_size=2, max_size=3).map(" or ".join),
        inner.map("NOT {}".format),
        inner.map("({})".format),
    ),
    max_leaves=6,
)
statements = st.builds(
    "SELECT {} FROM {} WHERE {}{}{}".format,
    st.one_of(st.just("*"), st.lists(_idents, min_size=1, max_size=3).map(", ".join)),
    _idents,
    _conditions,
    st.sampled_from(["", " USING min", " USING mean", " using product"]),
    st.one_of(st.just(""), st.integers(1, 500).map(" STOP AFTER {}".format)),
)


@given(statements)
@settings(max_examples=200, deadline=None)
def test_memo_returns_what_the_parser_builds(text):
    statement = parse(text)
    assert statement == parse.__wrapped__(text)
    assert repr(statement) == repr(parse.__wrapped__(text))
    assert parse(text) is statement
    # The key is the text, not the string object.
    assert parse("".join(list(text))) is statement


@pytest.mark.parametrize(
    "text",
    [
        "SELECT * FROM t WHERE A = 1 STOP AFTER 0",
        "SELECT * FROM t WHERE A = 1 STOP AFTER 2.5",
        "SELECT * FROM t WHERE A = ;",
        "SELECT * FROM t WHERE A = 1 AND",
        "SELECT * FROM t WHERE A = 1 WEIGHT",
        "SELECT * FROM t WHERE A = 1 USING min STOP",
    ],
)
def test_malformed_text_raises_the_same_error_on_every_call(text):
    parse.cache_clear()
    with pytest.raises(QuerySyntaxError) as unmemoized:
        parse.__wrapped__(text)
    for _ in range(3):
        with pytest.raises(QuerySyntaxError) as caught:
            parse(text)
        assert str(caught.value) == str(unmemoized.value)
    info = parse.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 3)


def test_memo_is_bounded_by_the_module_constant():
    assert parse.cache_info().maxsize == PARSE_CACHE_SIZE >= 256


def test_int_and_float_targets_lower_to_their_own_type():
    as_int = "SELECT * FROM albums WHERE Year = 1999"
    as_float = "SELECT * FROM albums WHERE Year = 1999.0"
    # Equal (and equally hashed) statements: a lowering memo keyed on
    # the Statement's value would hand one text the other's query.
    assert parse(as_int) == parse(as_float)
    assert hash(parse(as_int)) == hash(parse(as_float))
    for text, kind in ((as_int, int), (as_float, float)) * 2:
        query = compile_sql(text)
        assert type(query.target) is kind
        assert str(query) == f"Year={kind(1999)!r}"


def test_concurrent_parses_match_serial():
    texts = [
        f"SELECT * FROM t WHERE c{i % 7} = 'v{i}' AND Year = {1990 + i}"
        f"{'.0' if i % 2 else ''} STOP AFTER {i + 1}"
        for i in range(50)
    ]
    serial = [repr(parse.__wrapped__(text)) for text in texts]
    threads = 8
    barrier = threading.Barrier(threads)
    seen = [None] * threads
    errors = []

    def work(index):
        order = random.Random(index).sample(range(len(texts)), len(texts))
        try:
            barrier.wait(timeout=30)
            seen[index] = [(i, repr(parse(texts[i]))) for _ in range(3) for i in order]
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    parse.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's miss path
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors
    for parsed in seen:
        assert len(parsed) == 3 * len(texts)
        assert all(statement == serial[i] for i, statement in parsed)
    assert parse.cache_info().currsize == len(texts)
