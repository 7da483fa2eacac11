"""GradedSet / GradedItem: the section-3 data structure."""

import pytest
from hypothesis import given, strategies as st

from repro.core.graded import GradedItem, GradedSet, from_sorted_list, validate_grade
from repro.errors import GradeError

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
grade_maps = st.dictionaries(st.text(min_size=1, max_size=8), grades, max_size=20)


# ----------------------------------------------------------------------
# validate_grade
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), float("inf"), "x", None])
def test_validate_grade_rejects(bad):
    with pytest.raises(GradeError):
        validate_grade(bad)


@pytest.mark.parametrize("good", [0, 1, 0.5, True])
def test_validate_grade_accepts(good):
    assert validate_grade(good) == float(good)


# ----------------------------------------------------------------------
# GradedItem
# ----------------------------------------------------------------------
def test_item_orders_by_descending_grade():
    items = sorted([GradedItem("a", 0.2), GradedItem("b", 0.9), GradedItem("c", 0.5)])
    assert [i.object_id for i in items] == ["b", "c", "a"]


def test_item_tie_break_is_deterministic():
    items = sorted([GradedItem("z", 0.5), GradedItem("a", 0.5)])
    assert [i.object_id for i in items] == ["a", "z"]


def test_item_unpacking():
    obj, grade = GradedItem("a", 0.7)
    assert obj == "a" and grade == 0.7


def test_item_validates_grade():
    with pytest.raises(GradeError):
        GradedItem("a", 1.5)


# ----------------------------------------------------------------------
# GradedSet construction and access
# ----------------------------------------------------------------------
def test_construct_from_mapping_pairs_and_items():
    via_map = GradedSet({"a": 0.5, "b": 0.7})
    via_pairs = GradedSet([("a", 0.5), ("b", 0.7)])
    via_items = GradedSet([GradedItem("a", 0.5), GradedItem("b", 0.7)])
    assert via_map == via_pairs == via_items


def test_absent_object_defaults_to_zero():
    gs = GradedSet({"a": 0.5})
    assert gs.grade("missing") == 0.0
    assert gs.grade("missing", default=0.3) == 0.3
    with pytest.raises(KeyError):
        gs["missing"]


def test_setitem_invalidates_sorted_cache():
    gs = GradedSet({"a": 0.5, "b": 0.9})
    assert [i.object_id for i in gs] == ["b", "a"]
    gs["a"] = 1.0
    assert [i.object_id for i in gs] == ["a", "b"]


def test_iteration_is_sorted_descending():
    gs = GradedSet({"a": 0.1, "b": 0.9, "c": 0.5})
    grades_seen = [item.grade for item in gs]
    assert grades_seen == sorted(grades_seen, reverse=True)


# ----------------------------------------------------------------------
# top / best / kth_grade
# ----------------------------------------------------------------------
def test_top_k():
    gs = GradedSet({"a": 0.1, "b": 0.9, "c": 0.5})
    assert [i.object_id for i in gs.top(2)] == ["b", "c"]
    assert len(gs.top(10)) == 3
    assert len(gs.top(0)) == 0
    with pytest.raises(ValueError):
        gs.top(-1)


def test_best_and_kth():
    gs = GradedSet({"a": 0.1, "b": 0.9})
    assert gs.best().object_id == "b"
    assert gs.kth_grade(1) == 0.9
    assert gs.kth_grade(2) == pytest.approx(0.1)
    assert gs.kth_grade(5) == 0.0
    with pytest.raises(ValueError):
        gs.kth_grade(0)
    assert GradedSet().best() is None


@given(
    st.lists(
        st.tuples(
            # few distinct ids whose str() collide (1 / "1"), few grade
            # levels incl. both zeros: full ties are the common case
            st.sampled_from((1, "1", 2, "2", "10", 10, "a", "b", "c", 3.0, "3.0")),
            st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)),
        ),
        max_size=11,
    ),
    st.booleans(),
)
def test_top_selects_exactly_the_sorted_prefix(pairs, sorted_first):
    """top(k) / kth_grade(k) select; the full sort is the reference —
    same objects, same grades (sign of zero included), same insertion
    order, whether or not the sorted view is already cached."""
    gs = GradedSet(pairs)
    reference = sorted(GradedItem(obj, g) for obj, g in gs.as_dict().items())
    if sorted_first:
        list(gs)
    n = len(gs)
    for k in (0, 1, n, n + 3):
        expected = [(i.object_id, repr(i.grade)) for i in reference[:k]]
        top = gs.top(k)
        assert [(o, repr(top[o])) for o in top.objects()] == expected
        assert [(i.object_id, repr(i.grade)) for i in top] == expected
        if k:
            kth = reference[k - 1].grade if n >= k else 0.0
            assert repr(gs.kth_grade(k)) == repr(kth)


# ----------------------------------------------------------------------
# Fuzzy algebra (Zadeh defaults)
# ----------------------------------------------------------------------
def test_intersection_min():
    a = GradedSet({"x": 0.8, "y": 0.4})
    b = GradedSet({"x": 0.5, "z": 0.9})
    inter = a.intersection(b)
    assert inter["x"] == 0.5
    assert inter["y"] == 0.0  # absent from b
    assert inter["z"] == 0.0


def test_union_max():
    a = GradedSet({"x": 0.8, "y": 0.4})
    b = GradedSet({"x": 0.5, "z": 0.9})
    union = a.union(b)
    assert union["x"] == 0.8
    assert union["y"] == 0.4
    assert union["z"] == 0.9


def test_complement_standard():
    a = GradedSet({"x": 0.8})
    assert a.complement()["x"] == pytest.approx(0.2)


def test_custom_tnorm_intersection():
    a = GradedSet({"x": 0.5})
    b = GradedSet({"x": 0.5})
    product = a.intersection(b, tnorm=lambda p, q: p * q)
    assert product["x"] == 0.25


@given(grade_maps, grade_maps)
def test_de_morgan_on_sets(map_a, map_b):
    """complement(union) == intersection(complements) over the shared
    support (Zadeh rules)."""
    a, b = GradedSet(map_a), GradedSet(map_b)
    left = a.union(b).complement()
    right = a.complement().combine(
        b.complement(), min, absent=1.0
    )
    for obj in set(map_a) | set(map_b):
        assert left.grade(obj) == pytest.approx(right.grade(obj), abs=1e-12)


def test_is_crisp():
    assert GradedSet({"a": 0.0, "b": 1.0}).is_crisp()
    assert not GradedSet({"a": 0.5}).is_crisp()


def test_support_threshold():
    gs = GradedSet({"a": 0.0, "b": 0.5, "c": 1.0})
    assert set(gs.support().objects()) == {"b", "c"}
    assert set(gs.support(0.5).objects()) == {"c"}


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def test_grades_equal():
    a = GradedSet({"x": 0.5})
    assert a.grades_equal(GradedSet({"x": 0.5 + 1e-12}))
    assert not a.grades_equal(GradedSet({"x": 0.6}))
    assert not a.grades_equal(GradedSet({"y": 0.5}))


def test_same_grade_multiset_ignores_identity():
    a = GradedSet({"x": 0.5, "y": 0.7})
    b = GradedSet({"p": 0.7, "q": 0.5})
    assert a.same_grade_multiset(b)
    assert not a.same_grade_multiset(GradedSet({"p": 0.7}))


# ----------------------------------------------------------------------
# from_sorted_list
# ----------------------------------------------------------------------
def test_from_sorted_list_accepts_nonincreasing():
    gs = from_sorted_list([("a", 0.9), ("b", 0.9), ("c", 0.1)])
    assert len(gs) == 3


def test_from_sorted_list_rejects_increase():
    with pytest.raises(GradeError):
        from_sorted_list([("a", 0.5), ("b", 0.9)])


# ----------------------------------------------------------------------
# alpha-cuts
# ----------------------------------------------------------------------
def test_alpha_cut_weak_and_strong():
    gs = GradedSet({"a": 0.2, "b": 0.5, "c": 0.9})
    assert gs.alpha_cut(0.5) == {"b", "c"}
    assert gs.alpha_cut(0.5, strong=True) == {"c"}
    assert gs.alpha_cut(0.0) == {"a", "b", "c"}
    assert gs.alpha_cut(1.0) == frozenset()


def test_alpha_cuts_are_nested():
    gs = GradedSet({f"o{i}": i / 10 for i in range(11)})
    previous = None
    for alpha in (0.0, 0.3, 0.6, 0.9):
        cut = gs.alpha_cut(alpha)
        if previous is not None:
            assert cut <= previous
        previous = cut


def test_alpha_cut_validates_alpha():
    with pytest.raises(GradeError):
        GradedSet({"a": 0.5}).alpha_cut(1.5)
