"""Recursive-descent parser for the SQL-like fuzzy query language.

Grammar (keywords case-insensitive)::

    statement  := SELECT ('*' | IDENT (',' IDENT)*) FROM IDENT
                  WHERE condition [USING IDENT] [STOP AFTER NUMBER]
    condition  := and_expr (OR and_expr)*
    and_expr   := unary (AND unary)*
    unary      := NOT unary | primary
    primary    := '(' condition ')' | predicate
    predicate  := IDENT '=' literal [WEIGHT NUMBER]
    literal    := STRING | NUMBER | IDENT

Example::

    SELECT * FROM images
    WHERE Color = 'red' WEIGHT 0.6 AND Shape = 'round' WEIGHT 0.4
    USING min STOP AFTER 10
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from repro.errors import QuerySyntaxError
from repro.sql.ast import (
    AndExpr,
    Condition,
    Literal,
    NotExpr,
    OrExpr,
    Predicate,
    Statement,
)
from repro.sql.lexer import Token, tokenize


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token plumbing --------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        if self._current.kind != kind:
            raise QuerySyntaxError(
                f"expected {kind} at position {self._current.position}, "
                f"found {self._current.text!r}"
            )
        return self._advance()

    def _accept(self, kind: str) -> bool:
        if self._current.kind == kind:
            self._advance()
            return True
        return False

    # -- grammar ----------------------------------------------------------
    def statement(self) -> Statement:
        self._expect("SELECT")
        columns = None
        if not self._accept("STAR"):
            names = [self._expect("IDENT").text]
            while self._accept("COMMA"):
                names.append(self._expect("IDENT").text)
            columns = tuple(names)
        self._expect("FROM")
        table = self._expect("IDENT").text
        self._expect("WHERE")
        condition = self.condition()
        scoring_name = None
        stop_after = None
        if self._accept("USING"):
            scoring_name = self._expect("IDENT").text.lower()
        if self._accept("STOP"):
            self._expect("AFTER")
            number = self._expect("NUMBER")
            if "." in number.text:
                raise QuerySyntaxError(
                    f"STOP AFTER takes an integer, got {number.text!r}"
                )
            stop_after = int(number.text)
            if stop_after <= 0:
                raise QuerySyntaxError("STOP AFTER must be positive")
        self._expect("EOF")
        return Statement(
            table=table,
            condition=condition,
            columns=columns,
            scoring_name=scoring_name,
            stop_after=stop_after,
        )

    def condition(self) -> Condition:
        operands = [self.and_expr()]
        while self._accept("OR"):
            operands.append(self.and_expr())
        return operands[0] if len(operands) == 1 else OrExpr(tuple(operands))

    def and_expr(self) -> Condition:
        operands = [self.unary()]
        while self._accept("AND"):
            operands.append(self.unary())
        return operands[0] if len(operands) == 1 else AndExpr(tuple(operands))

    def unary(self) -> Condition:
        if self._accept("NOT"):
            return NotExpr(self.unary())
        return self.primary()

    def primary(self) -> Condition:
        if self._accept("LPAREN"):
            inner = self.condition()
            self._expect("RPAREN")
            return inner
        return self.predicate()

    def predicate(self) -> Predicate:
        attribute = self._expect("IDENT").text
        self._expect("EQUALS")
        target = self.literal()
        weight = None
        if self._accept("WEIGHT"):
            weight = float(self._expect("NUMBER").text)
            if weight < 0:
                raise QuerySyntaxError("WEIGHT must be nonnegative")
        return Predicate(attribute=attribute, target=target, weight=weight)

    def literal(self) -> Literal:
        token = self._current
        if token.kind == "STRING":
            self._advance()
            return token.text[1:-1].replace("\\'", "'")
        if token.kind == "NUMBER":
            self._advance()
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "IDENT":
            self._advance()
            return token.text
        raise QuerySyntaxError(
            f"expected a literal at position {token.position}, found {token.text!r}"
        )


#: distinct texts :func:`parse` keeps, least recently used dropped first
#: (the ``svc-zipf`` benchmark cycles through 154)
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Statement:
    """Parse query text into a :class:`Statement` (raises
    :class:`~repro.errors.QuerySyntaxError` with a position on error).

    Memoized by exact text in one process-wide LRU of
    :data:`PARSE_CACHE_SIZE` texts, so a repeated text skips tokenizing
    and parsing and returns the identical ``Statement``: it is frozen and
    shared between callers.  An error is raised afresh on every call and
    never cached.  Only the text is the key, never a parsed tree, so
    ``Year = 1999`` and ``Year = 1999.0`` stay apart although their
    statements compare equal.  ``parse.__wrapped__`` is the unmemoized
    parser."""
    return _Parser(tokenize(text)).statement()
