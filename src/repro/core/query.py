"""Query abstract syntax: Boolean combinations of atomic queries (section 3).

Atomic queries take the paper's form ``X = t`` — an attribute name and a
target value, e.g. ``Atomic("Artist", "Beatles")`` or
``Atomic("Color", "red")``.  Queries are Boolean combinations of atomic
queries, plus two extensions the paper develops:

* :class:`Scored` — an m-ary query ``F_t(A_1, ..., A_m)`` defined by an
  explicit m-ary scoring function ``t`` (section 3's generalization
  beyond AND/OR).
* :class:`Weighted` — a query whose conjuncts carry importance weights,
  evaluated with the Fagin–Wimmers rule (section 5).

Python operators build queries fluently::

    q = Atomic("Color", "red") & Atomic("Shape", "round")
    q = q | ~Atomic("Artist", "Beatles")

The AST is immutable; evaluation lives in :mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import WeightingError
from repro.scoring.base import ScoringFunction, as_scoring_function
from repro.scoring.weighted import validate_weighting


class Query:
    """Base class for all query AST nodes.

    Nodes are immutable, so what is derived from one is computed once
    and kept on it: its atoms, and through :meth:`_derived` the facts
    other layers derive (plan keys, the compiled scoring function).  They are
    found by the node's identity, never by value: ``Atomic("Year",
    1999)`` and ``Atomic("Year", 1999.0)`` compare equal yet print and
    key differently.  Copies and pickles leave them behind.
    """

    def __and__(self, other: "Query") -> "And":
        return And(_merge(And, self, other))

    def __or__(self, other: "Query") -> "Or":
        return Or(_merge(Or, self, other))

    def __invert__(self) -> "Query":
        if isinstance(self, Not):
            return self.child
        return Not(self)

    def atoms(self) -> Tuple["Atomic", ...]:
        """All atomic leaves, left-to-right, duplicates preserved."""
        return self._atoms

    @cached_property
    def _atoms(self) -> Tuple["Atomic", ...]:
        return tuple(self._iter_atoms())

    @cached_property
    def _memo(self) -> Dict[object, tuple]:
        return {}

    def _derived(self, slot: object, owner: object, make: Callable[[], object]):
        """``make()``, computed once and kept on this node under ``slot``
        while ``owner`` (what the value also depends on, such as the
        fuzzy semantics) is the same object.  A racing second computation
        is equal and harmless."""
        known = self._memo.get(slot)
        if known is not None and known[0] is owner:
            return known[1]
        value = make()
        self._memo[slot] = (owner, value)
        return value

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_atoms", None)
        state.pop("_memo", None)
        return state

    def _iter_atoms(self) -> Iterator["Atomic"]:
        raise NotImplementedError

    @property
    def is_positive(self) -> bool:
        """True when the query contains no negation.

        The paper's algorithmic results (Theorems 4.1/4.2) concern
        positive, monotone queries; the planner refuses to run Fagin's
        algorithm on non-positive queries.
        """
        return all(True for _ in self._iter_atoms()) and not self._has_negation()

    def _has_negation(self) -> bool:
        raise NotImplementedError


def _merge(cls: type, left: Query, right: Query) -> Tuple[Query, ...]:
    """Flatten nested same-type connectives: (A & B) & C -> And(A, B, C)."""
    parts: list = []
    for node in (left, right):
        if type(node) is cls:
            parts.extend(node.children)  # type: ignore[attr-defined]
        else:
            parts.append(node)
    return tuple(parts)


def _key_of(target: object) -> object:
    """The hashable stand-in an :class:`Atomic` compares and hashes its
    target by: an array by shape and bytes, an unhashable value by its
    ``repr``, anything else as itself."""
    if hasattr(target, "tobytes") and hasattr(target, "shape"):
        return ("ndarray", target.shape, target.tobytes())
    try:
        hash(target)
    except TypeError:
        return ("repr", repr(target))
    return target


@dataclass(frozen=True, eq=False)
class Atomic(Query):
    """An atomic query ``attribute = target``.

    ``target`` may be any value a subsystem understands: a string
    ("Beatles", "red"), a color histogram (a numpy array), a shape, etc.
    The grade of an object under an atomic query is produced by the
    subsystem responsible for the attribute.

    Equality and hashing use a normalized key so that array-valued
    targets (unhashable by default) still work in binding caches and
    distinctness checks.  The key is taken at construction: mutating an
    array (or list) target afterwards does not change it.
    """

    attribute: str
    target: object

    def __post_init__(self) -> None:
        # Keyed once: binding caches, plan keys and cache fingerprints
        # hash an atom many times per request.
        key = _key_of(self.target)
        object.__setattr__(self, "_target_key", key)
        object.__setattr__(self, "_hash", hash((self.attribute, key)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atomic):
            return NotImplemented
        return (
            self.attribute == other.attribute
            and self._target_key == other._target_key
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild, never copy the key: string hashes differ per process.
        return type(self), (self.attribute, self.target)

    def atoms(self) -> Tuple["Atomic", ...]:
        return (self,)  # not kept: an atom holding itself is a cycle

    def _iter_atoms(self) -> Iterator["Atomic"]:
        yield self

    def _has_negation(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.attribute}={self.target!r}"


@dataclass(frozen=True)
class Not(Query):
    """Fuzzy negation of a subquery (graded by the semantics' negation)."""

    child: Query

    def _iter_atoms(self) -> Iterator[Atomic]:
        yield from self.child._iter_atoms()

    def _has_negation(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"NOT ({self.child})"


@dataclass(frozen=True)
class _NaryQuery(Query):
    """Shared shape for connectives over two or more subqueries."""

    children: Tuple[Query, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 1:
            raise ValueError(f"{type(self).__name__} needs at least one child")

    def _iter_atoms(self) -> Iterator[Atomic]:
        for child in self.children:
            yield from child._iter_atoms()

    def _has_negation(self) -> bool:
        return any(child._has_negation() for child in self.children)


class And(_NaryQuery):
    """Fuzzy conjunction; graded by the semantics' t-norm (default min)."""

    def __str__(self) -> str:
        return " AND ".join(f"({c})" for c in self.children)


class Or(_NaryQuery):
    """Fuzzy disjunction; graded by the semantics' co-norm (default max)."""

    def __str__(self) -> str:
        return " OR ".join(f"({c})" for c in self.children)


@dataclass(frozen=True)
class Scored(Query):
    """An explicit m-ary query ``F_t(A_1, ..., A_m)`` (section 3).

    The grade of an object is ``t(mu_{A_1}(x), ..., mu_{A_m}(x))`` for the
    given scoring function ``t``.  This subsumes And/Or (take t = min or
    max) and admits every rule in the scoring catalog (e.g. the
    arithmetic mean of Thole–Zimmermann–Zysno).
    """

    scoring: ScoringFunction
    children: Tuple[Query, ...]

    def __init__(self, scoring, children: Sequence[Query]) -> None:
        object.__setattr__(self, "scoring", as_scoring_function(scoring))
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise ValueError("Scored query needs at least one child")

    def _iter_atoms(self) -> Iterator[Atomic]:
        for child in self.children:
            yield from child._iter_atoms()

    def _has_negation(self) -> bool:
        return any(child._has_negation() for child in self.children)

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.children)
        return f"{self.scoring.name}({inner})"


@dataclass(frozen=True)
class Weighted(Query):
    """A weighted combination of subqueries (section 5).

    ``base`` is the underlying (unweighted) rule — min unless stated —
    and ``weights`` the importance vector Theta, validated to be
    nonnegative and sum to 1.  Grading uses the Fagin–Wimmers formula,
    so desiderata D1–D3' hold and monotonicity/strictness of ``base``
    carry over (section 5).
    """

    children: Tuple[Query, ...]
    weights: Tuple[float, ...]
    base: ScoringFunction

    def __init__(
        self,
        children: Sequence[Query],
        weights: Sequence[float],
        base: Optional[object] = None,
    ) -> None:
        from repro.scoring.tnorms import MIN  # local import avoids a cycle

        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "weights", validate_weighting(weights))
        object.__setattr__(
            self, "base", as_scoring_function(base if base is not None else MIN)
        )
        if len(self.children) != len(self.weights):
            raise WeightingError(
                f"{len(self.children)} subqueries but {len(self.weights)} weights"
            )

    def _iter_atoms(self) -> Iterator[Atomic]:
        for child in self.children:
            yield from child._iter_atoms()

    def _has_negation(self) -> bool:
        return any(child._has_negation() for child in self.children)

    def __str__(self) -> str:
        parts = ", ".join(
            f"{c} @ {w:.3g}" for c, w in zip(self.children, self.weights)
        )
        return f"weighted[{self.base.name}]({parts})"


def conjunction_of(*atoms: Query) -> Query:
    """Convenience: the conjunction of the given subqueries."""
    if len(atoms) == 1:
        return atoms[0]
    return And(tuple(atoms))


def disjunction_of(*atoms: Query) -> Query:
    """Convenience: the disjunction of the given subqueries."""
    if len(atoms) == 1:
        return atoms[0]
    return Or(tuple(atoms))
