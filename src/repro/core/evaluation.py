"""Grade semantics for Boolean combinations of atomic queries (section 3).

Given grades for the atomic queries, :func:`evaluate` computes the grade
``mu_Q(x)`` of an object under an arbitrary query AST: conjunctions by the
semantics' t-norm, disjunctions by its co-norm, negation by its negation
rule, :class:`~repro.core.query.Scored` nodes by their own scoring
function, and :class:`~repro.core.query.Weighted` nodes by the
Fagin–Wimmers formula.

:func:`compile_query` turns a query over *distinct* atoms into a single
m-ary :class:`CompiledScoring` of the atom grades — the form the top-k
algorithms of section 4 consume.  Section 3's point is that such a
Boolean combination *is* one m-ary scoring function, so the AST is
walked once: every atom becomes an argument position and every node a
scalar and an ``[n, m]`` matrix form built from the catalog rules' own,
so the bounds state and TA's threshold score a whole window of objects
per call.  The
compiled function's ``is_monotone`` / ``is_strict`` flags are derived
structurally (conservatively for strictness), because the algorithms'
correctness and optimality depend on exactly those properties.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from repro.core import query as q
from repro.core.graded import validate_grade
from repro.errors import ScoringError
from repro.scoring.base import ScoringFunction, _np
from repro.scoring.weighted import WeightedScoring, weighted_score
from repro.scoring.zadeh import ZADEH, FuzzySemantics

#: How callers supply atom grades: a mapping keyed by Atomic (or by
#: attribute name), or a callable from Atomic to grade.
AtomGrades = Union[Mapping, Callable[[q.Atomic], float]]


def _atom_grade(atom: q.Atomic, grades: AtomGrades) -> float:
    if callable(grades) and not isinstance(grades, Mapping):
        return validate_grade(grades(atom))
    if atom in grades:
        return validate_grade(grades[atom])
    if atom.attribute in grades:
        return validate_grade(grades[atom.attribute])
    raise ScoringError(f"no grade supplied for atomic query {atom}")


def evaluate(
    node: q.Query, grades: AtomGrades, semantics: FuzzySemantics = ZADEH
) -> float:
    """Compute ``mu_Q(x)`` from the object's atomic grades.

    ``grades`` maps each atomic query (or its attribute name) to the
    object's grade under that atom; ``semantics`` supplies the
    conjunction/disjunction/negation rules (Zadeh's min/max/1-x by
    default).
    """
    if isinstance(node, q.Atomic):
        return _atom_grade(node, grades)
    if isinstance(node, q.Not):
        return semantics.negation(evaluate(node.child, grades, semantics))
    if isinstance(node, q.And):
        child_grades = [evaluate(c, grades, semantics) for c in node.children]
        return semantics.conjunction(child_grades)
    if isinstance(node, q.Or):
        child_grades = [evaluate(c, grades, semantics) for c in node.children]
        return semantics.disjunction(child_grades)
    if isinstance(node, q.Scored):
        child_grades = [evaluate(c, grades, semantics) for c in node.children]
        return node.scoring(child_grades)
    if isinstance(node, q.Weighted):
        child_grades = [evaluate(c, grades, semantics) for c in node.children]
        return weighted_score(node.base, node.weights, child_grades)
    raise ScoringError(f"unknown query node {node!r}")


def _node_rule(node: q.Query, semantics: FuzzySemantics) -> ScoringFunction:
    """The rule an n-ary node applies to its children's grades: the
    semantics' t-norm / co-norm, a Scored node's own rule, or the
    Fagin–Wimmers weighting of a Weighted node's base."""
    if isinstance(node, q.And):
        return semantics.conjunction
    if isinstance(node, q.Or):
        return semantics.disjunction
    if isinstance(node, q.Scored):
        return node.scoring
    if isinstance(node, q.Weighted):
        return WeightedScoring(node.base, node.weights)
    raise ScoringError(f"unknown query node {node!r}")


def _structural_flags(node: q.Query, semantics: FuzzySemantics) -> tuple:
    """Return (is_monotone, is_strict) derived from the AST.

    Monotone: every connective on the path is monotone and there is no
    negation.  Strict (conservative): atoms are strict; an And/Scored/
    Weighted node is strict iff its rule is strict and all children are
    (a Weighted rule is strict only when every weight is positive —
    zero-weight children are droppable, per [FW97]); an Or node is never
    credited with strictness (no co-norm is strict: max reaches 1 off
    the corner).  Conservative means we may under-claim strictness,
    never over-claim it.
    """
    if isinstance(node, q.Atomic):
        return True, True
    if isinstance(node, q.Not):
        return False, False
    rule = _node_rule(node, semantics)
    child_flags = [_structural_flags(c, semantics) for c in node.children]
    return (
        rule.is_monotone and all(f[0] for f in child_flags),
        rule.is_strict and all(f[1] for f in child_flags),
    )


def _compile_node(node: q.Query, positions: Mapping, semantics: FuzzySemantics):
    """``(scalar, matrix)`` for one node.

    ``scalar`` maps one object's validated grade tuple to the node's
    grade, ``matrix`` an ``[n, m]`` grade matrix to the node's n grades.
    Rules are called through their public, validating ``__call__`` /
    ``combine_matrix`` (``negate_matrix`` for negation), so every
    intermediate grade is checked as :func:`evaluate` checks it, and the
    matrix form is bit for bit the scalar one.
    """
    if isinstance(node, q.Atomic):
        p = positions[node]
        # a copy, not a view: a bare atom's column is the whole result of
        # a single-atom query and must not alias the caller's matrix
        return (lambda g: g[p]), (lambda grades: grades[:, p].copy())
    if isinstance(node, q.Not):
        scalar, matrix = _compile_node(node.child, positions, semantics)
        negation = semantics.negation
        return (
            lambda g: negation(scalar(g)),
            lambda grades: negation.negate_matrix(matrix(grades)),
        )
    rule = _node_rule(node, semantics)
    parts = [_compile_node(c, positions, semantics) for c in node.children]
    scalars = [part[0] for part in parts]
    matrices = [part[1] for part in parts]
    return (
        lambda g: rule([scalar(g) for scalar in scalars]),
        lambda grades: rule.combine_matrix(
            _np.column_stack([matrix(grades) for matrix in matrices])
        ),
    )


class CompiledScoring(ScoringFunction):
    """A query compiled once into a positional m-ary scoring function.

    Argument i is the grade of the i-th atom of ``node.atoms()``; the
    atoms must be distinct (an atom occurring twice would receive two
    independent argument slots, changing the semantics).  Every tree
    folds its compiled nodes (see :func:`_compile_node`), so the result
    is bit for bit :func:`evaluate` on the same grades, row by row or as
    a matrix.
    """

    is_symmetric = False

    def __init__(self, node: q.Query, semantics: FuzzySemantics = ZADEH) -> None:
        atoms = node.atoms()
        if len(set(atoms)) != len(atoms):
            raise ScoringError(
                "compile_query requires distinct atoms; "
                f"duplicates in {[str(a) for a in atoms]}"
            )
        self.arity = len(atoms)
        self.name = f"compiled[{node}]"
        self.is_monotone, self.is_strict = _structural_flags(node, semantics)
        positions = {atom: i for i, atom in enumerate(atoms)}
        self._scalar, self._matrix = _compile_node(node, positions, semantics)
        #: facts the planner probes this rule for, each computed once
        #: (the arity is fixed)
        self.facts: dict = {}

    def _check_arity(self, count: int) -> None:
        if count != self.arity:
            raise ScoringError(f"expected {self.arity} grades, got {count}")

    def _combine(self, grades: tuple) -> float:
        self._check_arity(len(grades))
        return self._scalar(grades)

    def _combine_matrix(self, matrix):
        self._check_arity(matrix.shape[1])
        return self._matrix(matrix)


def compile_query(
    node: q.Query, semantics: FuzzySemantics = ZADEH
) -> CompiledScoring:
    """Compile a query into one m-ary scoring function over its atoms.

    The atoms are taken in ``node.atoms()`` order and must be distinct.
    The result is what the section-4 algorithms take as their scoring
    function ``t`` (see :class:`CompiledScoring`).
    """
    return CompiledScoring(node, semantics)
