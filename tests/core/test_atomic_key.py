"""`Atomic` takes its equality and hash key once, at construction.

The key must agree with the definition that recomputed it on every
``==`` and ``hash``, copied below as the reference: an array target
keys by its shape and bytes (not its dtype), an unhashable one by its
``repr``, anything else as itself.  Equal atoms from different
statements must still share one engine binding and one cache entry.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.query import Atomic
from repro.sql.compiler import compile_sql
from tests.cache.helpers import engine_from_table


def reference_target_key(target):
    if hasattr(target, "tobytes") and hasattr(target, "shape"):
        return ("ndarray", target.shape, target.tobytes())
    try:
        hash(target)
    except TypeError:
        return ("repr", repr(target))
    return target


def reference_eq(left, right):
    return (
        left.attribute == right.attribute
        and reference_target_key(left.target) == reference_target_key(right.target)
    )


def reference_hash(atom):
    return hash((atom.attribute, reference_target_key(atom.target)))


_scalars = st.one_of(
    st.text(max_size=3),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, -0.0, None, "1", float("nan")]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, width=32),
    st.booleans(),
    st.none(),
)
_arrays = st.builds(
    lambda values, dtype, shape: np.array(values, dtype=dtype).reshape(shape),
    st.sampled_from([[0, 1], [1, 0], [1, 1], [0, 0]]),
    st.sampled_from(["int8", "uint8", "int16", "float16"]),
    st.sampled_from([(2,), (1, 2), (2, 1)]),
)
_targets = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2),
    ),
    max_leaves=4,
)
_attributes = st.sampled_from(["Color", "Year"])


@given(_attributes, _targets, _attributes, _targets)
@settings(max_examples=400, deadline=None)
def test_equality_and_hash_agree_with_the_recomputed_definition(
    attribute, target, other_attribute, other_target
):
    left = Atomic(attribute, target)
    right = Atomic(other_attribute, other_target)
    twin = Atomic(attribute, target)
    for a, b in ((left, right), (right, left), (left, twin), (left, left)):
        assert (a == b) is reference_eq(a, b)
        assert (a != b) is (not reference_eq(a, b))
    assert hash(left) == reference_hash(left)
    assert hash(right) == reference_hash(right)
    assert left.target is target  # the target itself is kept as given


@given(_attributes, _targets)
@settings(max_examples=100, deadline=None)
def test_copies_and_pickles_rebuild_their_key(attribute, target):
    atom = Atomic(attribute, target)
    for clone in (copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom))):
        assert type(clone) is Atomic
        assert hash(clone) == reference_hash(clone)
        assert (clone == atom) is reference_eq(clone, atom)


def test_int_float_and_bool_targets_are_one_key():
    atoms = [Atomic("Year", value) for value in (1, 1.0, True)]
    assert len(set(atoms)) == 1
    assert [type(atom.target) for atom in atoms] == [int, float, bool]
    assert [str(atom) for atom in atoms] == ["Year=1", "Year=1.0", "Year=True"]


def test_mutating_an_array_target_keeps_the_key_taken_at_construction():
    target = np.zeros(3)
    atom = Atomic("Color", target)
    key = hash(atom)
    target[0] = 1.0
    assert hash(atom) == key
    assert atom == Atomic("Color", np.zeros(3))
    assert atom != Atomic("Color", target.copy())


def test_equal_atoms_from_different_statements_share_a_binding_and_an_entry():
    table = {f"o{i}": [(i * 7 % 11) / 10, (i * 5 % 13) / 12.5] for i in range(11)}
    engine = engine_from_table(table, 2)
    cache = engine.configure_cache()
    first = compile_sql("SELECT * FROM t WHERE c0 = 'x' AND c1 = 'x' STOP AFTER 3")
    second = compile_sql("SELECT * FROM t WHERE c1 = 'x' AND c0 = 'x' STOP AFTER 3")
    assert first is not second
    assert set(first.atoms()) == set(second.atoms())
    assert all(a is not b for a in first.atoms() for b in second.atoms())
    cold = engine.top_k(first, 3)
    assert all(
        x is y for x, y in zip(engine.bind_all(second), engine.bind_all(first)[::-1])
    )
    served = engine.top_k(second, 3)
    assert served.extras["cache"]["tier"] == "exact"
    assert [(i.object_id, i.grade) for i in served.answers] == [
        (i.object_id, i.grade) for i in cold.answers
    ]
    stats = cache.stats()
    assert (stats["entries"], stats["fills"], stats["hits"], stats["misses"]) == (1, 1, 1, 1)


def test_copies_of_a_query_that_ran_leave_its_memos_behind():
    table = {f"o{i}": [(i * 7 % 11) / 10, (i * 5 % 13) / 12.5] for i in range(11)}
    engine = engine_from_table(table, 2)
    engine.configure_cache()
    query = compile_sql("SELECT * FROM t WHERE c0 = 'x' AND NOT c1 = 'x'")
    answers = [(i.object_id, i.grade) for i in engine.top_k(query, 3).answers]
    assert query._memo  # plan key and compiled scoring, closures included
    for clone in (copy.copy(query), copy.deepcopy(query), pickle.loads(pickle.dumps(query))):
        assert clone == query and clone is not query
        assert "_memo" not in vars(clone) and "_atoms" not in vars(clone)
        served = engine.top_k(clone, 3)
        assert served.extras["cache"]["tier"] == "exact"
        assert [(i.object_id, i.grade) for i in served.answers] == answers
