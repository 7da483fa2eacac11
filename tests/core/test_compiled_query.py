"""compile_query: one positional scoring function, bit for bit evaluate.

Random query trees (And / Or / Not / Scored / Weighted, depth <= 3,
distinct atoms) under every classical semantics, with the catalog's
t-norms, co-norms, means and negations — batch-exact or not — plus a
user rule with no native batch form.  The compiled function must agree
with the reference evaluator on every grade tuple and every error, its
matrix form must agree with its scalar form, and its flags must say
what the tree is made of.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import (
    CompiledScoring,
    _structural_flags,
    compile_query,
    evaluate,
)
from repro.core.query import And, Atomic, Not, Or, Scored, Weighted
from repro.errors import GradeError, ReproError, ScoringError
from repro.scoring import conorms, means, tnorms
from repro.scoring.base import FunctionScoring
from repro.scoring.negations import negation_catalog
from repro.scoring.weighted import WeightedScoring, weighted_score
from repro.scoring.zadeh import ALL_SEMANTICS
from tests.strategies import GRADE_LEVELS

#: a monotone user rule: scored through the scalar loop, never natively
USER_MEAN = FunctionScoring(lambda g: sum(g) / len(g), "user-mean")

SCORED_RULES = (
    tnorms.tnorm_catalog()
    + conorms.conorm_catalog()
    + means.mean_catalog()
    + (USER_MEAN,)
)
WEIGHTED_BASES = (tnorms.MIN, tnorms.PRODUCT, means.MEAN, means.GEOMETRIC_MEAN)
WEIGHT_LEVELS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0)

DENORMAL = 5e-324
BELOW_ONE = 1.0 - 2.0**-53

grade_values = st.one_of(
    st.sampled_from(GRADE_LEVELS + (DENORMAL, BELOW_ONE)),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def shapes(draw, depth=3):
    """A query tree with placeholder leaves (numbered by ``build``)."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return ("atom",)
    kind = draw(st.sampled_from(("and", "or", "not", "scored", "weighted")))
    if kind == "not":
        return ("not", draw(shapes(depth - 1)))
    children = draw(st.lists(shapes(depth - 1), min_size=1, max_size=3))
    if kind == "scored":
        return ("scored", draw(st.sampled_from(SCORED_RULES)), children)
    if kind == "weighted":
        raw = draw(
            st.lists(
                st.sampled_from(WEIGHT_LEVELS),
                min_size=len(children),
                max_size=len(children),
            ).filter(lambda weights: sum(weights) > 0)
        )
        weights = tuple(w / sum(raw) for w in raw)
        return ("weighted", draw(st.sampled_from(WEIGHTED_BASES)), weights, children)
    return (kind, children)


def build(shape, counter):
    """The query of a shape, atoms ``a0, a1, ...`` left to right."""
    kind = shape[0]
    if kind == "atom":
        counter.append(None)
        return Atomic(f"a{len(counter) - 1}", "x")
    if kind == "not":
        return Not(build(shape[1], counter))
    children = [build(child, counter) for child in shape[-1]]
    if kind == "and":
        return And(tuple(children))
    if kind == "or":
        return Or(tuple(children))
    if kind == "scored":
        return Scored(shape[1], children)
    return Weighted(children, shape[2], shape[1])


@st.composite
def queries(draw):
    """``(query, semantics)``: a random tree under one of the classical
    semantics with a catalog negation."""
    query = build(draw(shapes()), [])
    semantics = dataclasses.replace(
        draw(st.sampled_from(ALL_SEMANTICS)),
        negation=draw(st.sampled_from(negation_catalog())),
    )
    return query, semantics


def components(node, semantics):
    """Every rule and negation the query applies, root first."""
    if isinstance(node, Atomic):
        return []
    if isinstance(node, Not):
        return [semantics.negation] + components(node.child, semantics)
    if isinstance(node, And):
        rule = semantics.conjunction
    elif isinstance(node, Or):
        rule = semantics.disjunction
    elif isinstance(node, Scored):
        rule = node.scoring
    else:
        rule = WeightedScoring(node.base, node.weights)
    return [rule] + [
        part for child in node.children for part in components(child, semantics)
    ]


def outcome(function, *args):
    """``("ok", exact bits)`` or ``("error", class)`` of one call."""
    try:
        return "ok", function(*args).hex()
    except ReproError as error:
        return "error", type(error)


def reference(query, semantics, grades):
    return evaluate(query, dict(zip(query.atoms(), grades)), semantics)


@settings(deadline=None, max_examples=300)
@given(queries(), st.data())
def test_compiled_is_evaluate_bit_for_bit(case, data):
    query, semantics = case
    m = len(query.atoms())
    compiled = compile_query(query, semantics)
    rows = data.draw(
        st.lists(
            st.tuples(*(grade_values,) * m), min_size=1, max_size=5
        )
    )
    expected = [outcome(reference, query, semantics, row) for row in rows]
    assert [outcome(compiled, row) for row in rows] == expected

    # out-of-range grades: the same error class as the reference
    bad = data.draw(st.sampled_from((-0.25, 1.5, float("nan"), float("inf"))))
    position = data.draw(st.integers(min_value=0, max_value=m - 1))
    broken = rows[0][:position] + (bad,) + rows[0][position + 1 :]
    assert outcome(compiled, broken) == outcome(reference, query, semantics, broken)
    assert outcome(compiled, broken)[1] is GradeError

    # wrong arity: a grade short fails like a missing atom, one extra fails too
    if expected[0][0] == "ok":
        assert outcome(compiled, rows[0][:-1]) == ("error", ScoringError)
        assert outcome(reference, query, semantics, rows[0][:-1]) == (
            "error",
            ScoringError,
        )
    assert outcome(compiled, rows[0] + (0.5,)) == ("error", ScoringError)
    with pytest.raises(ScoringError):
        compiled.combine_matrix(np.full((2, m + 1), 0.5))

    # the matrix form against per-row __call__
    if all(status == "ok" for status, _ in expected):
        batch = compiled.combine_matrix(np.asarray(rows, dtype=np.float64))
        scalar = [float.fromhex(bits) for _, bits in expected]
        if compiled.batch_exact:
            assert [value.hex() for value in batch.tolist()] == [
                bits for _, bits in expected
            ]
        else:
            assert batch.tolist() == pytest.approx(scalar, abs=1e-12)
    elif compiled.batch_exact:
        failure = next(error for status, error in expected if status == "error")
        with pytest.raises(failure):
            compiled.combine_matrix(np.asarray(rows, dtype=np.float64))


@settings(deadline=None, max_examples=200)
@given(queries())
def test_compiled_flags_say_what_the_tree_is_made_of(case):
    query, semantics = case
    compiled = compile_query(query, semantics)
    assert isinstance(compiled, CompiledScoring)
    assert not isinstance(compiled, FunctionScoring)
    assert compiled.name == f"compiled[{query}]"
    assert compiled.is_symmetric is False
    assert (compiled.is_monotone, compiled.is_strict) == _structural_flags(
        query, semantics
    )
    parts = components(query, semantics)
    assert compiled.supports_batch == all(part.supports_batch for part in parts)
    assert compiled.batch_exact == all(part.batch_exact for part in parts)
    if not query.is_positive:
        assert not compiled.is_monotone


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------
A, B, C = Atomic("A", 1), Atomic("B", 1), Atomic("C", 1)


@pytest.mark.parametrize(
    "query",
    (A & B, A | B, Scored(means.MEAN, (A, B, C)), Weighted((A, B), (0.7, 0.3))),
    ids=("and", "or", "using", "weight"),
)
def test_sql_shapes_are_native_and_batch_exact(query):
    """Every flat shape repro.sql emits scores through its catalog rule's
    own batch form."""
    compiled = compile_query(query)
    assert compiled.supports_batch and compiled.batch_exact


def test_negation_batch_flags():
    standard, sugeno_a, sugeno_b, sugeno_c, yager_a, yager_b = negation_catalog()
    for negation in (standard, sugeno_a, sugeno_b, sugeno_c):
        assert negation.supports_batch and negation.batch_exact
    for negation in (yager_a, yager_b):
        assert negation.supports_batch and not negation.batch_exact
    semantics = dataclasses.replace(ALL_SEMANTICS[0], negation=yager_a)
    assert not compile_query(A & ~B, semantics).batch_exact
    assert compile_query(A & ~B).batch_exact


def test_user_rule_keeps_a_query_off_the_native_path():
    compiled = compile_query(Scored(USER_MEAN, (A, B)) & C)
    assert not compiled.supports_batch and compiled.batch_exact
    grades = np.array([[0.2, 0.4, 0.9], [0.8, 0.6, 0.5]])
    assert compiled.combine_matrix(grades).tolist() == [
        compiled(row) for row in grades.tolist()
    ]


def test_single_atom_matrix_is_a_copy():
    grades = np.array([[0.25], [0.75]])
    scored = compile_query(A).combine_matrix(grades)
    scored[0] = 0.0
    assert grades[0, 0] == 0.25


def test_weighted_scoring_is_weighted_score_bit_for_bit():
    """The rule validates its weighting once, exactly as weighted_score
    does, so a compiled WEIGHT node equals the reference evaluator."""
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = int(rng.integers(1, 5))
        raw = rng.random(m)
        weights = tuple((raw / raw.sum()).tolist())
        grades = tuple(rng.random(m).tolist())
        for base in WEIGHTED_BASES:
            rule = WeightedScoring(base, weights)
            assert rule(grades) == weighted_score(base, weights, grades)
