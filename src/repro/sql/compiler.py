"""Lowering parsed SQL statements to core queries, and execution.

Rules applied during lowering:

* a bare ``AND`` becomes :class:`~repro.core.query.And` (graded by the
  semantics' t-norm) unless either (a) any conjunct carries a WEIGHT —
  then the conjunction becomes a :class:`~repro.core.query.Weighted`
  node with the weights normalized to sum 1 (unweighted conjuncts share
  the leftover mass equally), or (b) a ``USING`` rule was given — then
  it becomes a :class:`~repro.core.query.Scored` node under that rule;
* ``OR`` / ``NOT`` lower directly;
* ``USING`` applies to the *top-level* connective only (matching how
  Garlic treated the merge as a single join-like operator).

:func:`execute` runs the lowered query on a middleware engine with the
statement's STOP AFTER as k.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.query import And, Atomic, Not, Or, Query, Scored, Weighted
from repro.core.result import TopKResult
from repro.errors import QuerySyntaxError
from repro.middleware.engine import MiddlewareEngine
from repro.scoring import conorms, means, tnorms
from repro.scoring.base import ScoringFunction
from repro.sql.ast import AndExpr, Condition, NotExpr, OrExpr, Predicate, Statement
from repro.sql.parser import parse

#: USING-clause names -> scoring functions.
SCORING_REGISTRY: Dict[str, ScoringFunction] = {
    "min": tnorms.MIN,
    "product": tnorms.PRODUCT,
    "lukasiewicz": tnorms.LUKASIEWICZ,
    "einstein": tnorms.EINSTEIN,
    "max": conorms.MAX,
    "mean": means.MEAN,
    "average": means.MEAN,
    "geometric-mean": means.GEOMETRIC_MEAN,
    "harmonic-mean": means.HARMONIC_MEAN,
    "median": means.MEDIAN,
}


def resolve_scoring(name: str) -> ScoringFunction:
    try:
        return SCORING_REGISTRY[name.lower()]
    except KeyError:
        raise QuerySyntaxError(
            f"unknown scoring function {name!r}; "
            f"available: {sorted(SCORING_REGISTRY)}"
        ) from None


def _normalize_weights(operands) -> Optional[tuple]:
    """Weights for a conjunction, or None when no WEIGHT appears.

    Explicit weights are taken as-is; conjuncts without a WEIGHT split
    the remaining mass equally.  The result is normalized to sum 1 (the
    convention of section 5).
    """
    explicit = [
        op.weight if isinstance(op, Predicate) else None for op in operands
    ]
    if all(w is None for w in explicit):
        return None
    stated = sum(w for w in explicit if w is not None)
    missing = sum(1 for w in explicit if w is None)
    if missing:
        leftover = max(0.0, 1.0 - stated)
        fill = leftover / missing
        weights = [w if w is not None else fill for w in explicit]
    else:
        weights = [w if w is not None else 0.0 for w in explicit]
    total = sum(weights)
    if total <= 0:
        raise QuerySyntaxError("WEIGHT annotations must not all be zero")
    return tuple(w / total for w in weights)


def lower_condition(
    condition: Condition, scoring: Optional[ScoringFunction] = None
) -> Query:
    """Lower a surface condition to a core query.

    ``scoring`` is the USING rule, applied to the top-level connective.
    """
    if isinstance(condition, Predicate):
        return Atomic(condition.attribute, condition.target)
    if isinstance(condition, NotExpr):
        return Not(lower_condition(condition.operand))
    if isinstance(condition, OrExpr):
        children = tuple(lower_condition(op) for op in condition.operands)
        if scoring is not None:
            return Scored(scoring, children)
        return Or(children)
    if isinstance(condition, AndExpr):
        children = tuple(lower_condition(op) for op in condition.operands)
        weights = _normalize_weights(condition.operands)
        if weights is not None:
            base = scoring if scoring is not None else tnorms.MIN
            return Weighted(children, weights, base)
        if scoring is not None:
            return Scored(scoring, children)
        return And(children)
    raise QuerySyntaxError(f"cannot lower condition {condition!r}")


def compile_statement(statement: Statement) -> Query:
    """The core query of a parsed statement.

    Lowered once per ``Statement`` object and kept on it, so a text
    repeated through :func:`~repro.sql.parser.parse`'s memo gets back
    the identical ``Query``, and with it everything memoized on that
    query.  The memo goes by the statement's identity, not its value:
    ``Year = 1999`` and ``Year = 1999.0`` parse to equal but distinct
    statements, and each lowers to its own target type.
    """
    query = statement.__dict__.get("_query")
    if query is None:
        scoring = (
            resolve_scoring(statement.scoring_name)
            if statement.scoring_name is not None
            else None
        )
        query = lower_condition(statement.condition, scoring)
        object.__setattr__(statement, "_query", query)
    return query


def compile_sql(text: str) -> Query:
    """Parse and lower in one step."""
    return compile_statement(parse(text))


def execute(
    text: str,
    engine: MiddlewareEngine,
    *,
    default_k: int = 10,
) -> TopKResult:
    """Parse, lower, and run a statement against a middleware engine.

    With a projection (``SELECT Artist, Title ...``) the answers are
    hydrated from the engine's relational subsystems: the result's
    ``extras["rows"]`` holds one dict per answer with the object id, the
    grade, and the requested columns.  A column unknown to every
    subsystem raises :class:`~repro.errors.QuerySyntaxError`.
    """
    statement = parse(text)
    query = compile_statement(statement)
    k = statement.stop_after if statement.stop_after is not None else default_k
    result = engine.top_k(query, k)
    if statement.columns is not None:
        rows = []
        seen_columns: set = set()
        for item in result.answers:
            attributes = engine.lookup_row(item.object_id)
            seen_columns.update(attributes)
            row = {"object_id": item.object_id, "grade": item.grade}
            for column in statement.columns:
                row[column] = attributes.get(column)
            rows.append(row)
        unknown = [c for c in statement.columns if rows and c not in seen_columns]
        if unknown:
            raise QuerySyntaxError(
                f"unknown column(s) {unknown}; available: {sorted(seen_columns)}"
            )
        result.extras["rows"] = rows
    return result
