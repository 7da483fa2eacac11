"""The bounds states against a per-object fold.

Every method the algorithm loops read — GradeMatrix's ``scores``,
``ranked``, ``best_incomplete`` and ``grades_of``, and NRA's
CodedBounds' bounds, ``stop_view`` and ``known_states`` — is
checked against the plain definition, written here over a
``{object_id: {column: grade}}`` mapping: one ``rule([...])`` per
object with missing grades read from 0 (lower bound) or from the list
bottoms (upper bound), ranked by the canonical ``(-grade, str(id))``
key, first-seen order breaking the remaining ties.  ``from_known`` must
build a state that answers every question the same way, and a
CodedBounds fed windows of sorted deliveries must hold, after every
round, exactly the state those deliveries make.

Hypothesis draws the hostile inputs: ids ``1`` and ``"1"`` (which tie
on ``str``), ±0.0, the smallest denormal, 1 - 2**-53, all-equal grades,
k past the number of seen objects, and a single list.
"""

import heapq

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import CodedBounds, GradeMatrix
from repro.scoring import means, tnorms
from repro.scoring.base import FunctionScoring

DENORMAL = 5e-324
BELOW_ONE = 1.0 - 2.0**-53

GRADES = (0.0, -0.0, DENORMAL, 0.25, 0.5, BELOW_ONE, 1.0)
IDS = (1, "1", 2, "2", "a", "a\x00", "b", 10, "10")

RULES = (
    tnorms.MIN,
    tnorms.PRODUCT,
    means.MEAN,
    # no native batch form: combine_matrix is the per-row loop
    tnorms.YagerTNorm(2.0),
    means.GEOMETRIC_MEAN,
    FunctionScoring(lambda grades: max(grades), "user-max"),
)


@st.composite
def instances(draw):
    """``(m, deliveries, bottoms, k)``: deliveries are per-list batches
    ``(column, [(object_id, grade), ...])`` in arrival order."""
    m = draw(st.integers(min_value=1, max_value=3))
    grade = st.sampled_from(GRADES)
    if draw(st.booleans()):
        grade = st.just(draw(grade))  # all ties
    ids = draw(st.lists(st.sampled_from(IDS), unique=True, max_size=len(IDS)))
    deliveries = []
    for column in range(m):
        delivered = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
        cut = draw(st.integers(min_value=0, max_value=len(delivered)))
        for batch in (delivered[:cut], delivered[cut:]):
            if batch:
                deliveries.append(
                    (column, [(object_id, draw(grade)) for object_id in batch])
                )
    deliveries = draw(st.permutations(deliveries))
    bottoms = [draw(grade) for _ in range(m)]
    k = draw(st.integers(min_value=1, max_value=len(ids) + 3))
    return m, deliveries, bottoms, k


def reference_known(deliveries):
    known = {}
    for column, batch in deliveries:
        for object_id, grade in batch:
            known.setdefault(object_id, {})[column] = grade
    return known


def fold(rule, known, m, fill):
    return {
        object_id: rule([row.get(column, fill[column]) for column in range(m)])
        for object_id, row in known.items()
    }


def canonical(pair):
    return (-pair[1], str(pair[0]))


def as_pairs(ids, grades):
    return list(zip(ids, grades))


def check(matrix, known, m, bottoms, k):
    __tracebackhide__ = True
    assert matrix.count == len(known)
    for object_id, row in known.items():
        assert object_id in matrix
        assert matrix.grades_of(object_id) == [row.get(c) for c in range(m)]
    for rule in RULES:
        lower = fold(rule, known, m, [0.0] * m)
        upper = fold(rule, known, m, bottoms)
        assert as_pairs(*matrix.scores(rule)) == list(lower.items()), rule.name

        top = heapq.nsmallest(k, lower.items(), key=canonical)
        assert as_pairs(*matrix.ranked(rule, k)) == top, rule.name

        best = None
        for object_id, row in known.items():
            if len(row) < m and (best is None or upper[object_id] > best[1]):
                best = (object_id, upper[object_id])
        assert matrix.best_incomplete(rule, bottoms) == best, rule.name


def check_coded(bounds, known, m, bottoms, k):
    __tracebackhide__ = True
    assert bounds.count == len(known)
    assert bounds.known_states() == known
    assert list(bounds.known_states()) == list(known)
    for rule in RULES:
        lower = fold(rule, known, m, [0.0] * m)
        upper = fold(rule, known, m, bottoms)
        top = heapq.nsmallest(k, lower.items(), key=canonical)
        view = bounds.stop_view(bounds.lower_bounds(rule), bounds.upper_bounds(rule, bottoms), k)
        chosen = {object_id for object_id, _ in top}
        assert as_pairs(view.ids, view.lowers) == top, rule.name
        assert view.kth_lower == (top[k - 1][1] if len(top) >= k else 0.0)
        assert view.rival_upper == max(
            (bound for obj, bound in upper.items() if obj not in chosen),
            default=0.0,
        ), rule.name
        assert view.gap == max(
            (upper[obj] - low for obj, low in top), default=0.0
        ), rule.name


@settings(deadline=None, max_examples=150)
@given(instances())
@example((1, [(0, [(1, 0.5), ("1", 0.5)])], [0.5], 5))
@example((2, [(1, [("1", -0.0)]), (0, [(1, 0.0), ("1", DENORMAL)])], [0.0, 0.0], 1))
def test_grade_matrix_is_the_per_object_fold(instance):
    m, deliveries, bottoms, k = instance
    known = reference_known(deliveries)

    batched = GradeMatrix(m, capacity=1)  # forces regrowth
    one_by_one = GradeMatrix(m)
    for column, batch in deliveries:
        batched.add_batch(
            column,
            [object_id for object_id, _ in batch],
            [grade for _, grade in batch],
        )
        for object_id, grade in batch:
            one_by_one.set_grade(object_id, column, grade)

    for matrix in (batched, one_by_one):
        check(matrix, known, m, bottoms, k)
    check(GradeMatrix.from_known(known, m), known, m, bottoms, k)
    coded = CodedBounds.from_known(known, m)
    check_coded(coded, known, m, bottoms, k)
    # the hand-off round trip: a state rebuilt from a snapshot of itself
    check_coded(CodedBounds.from_known(coded.known_states(), m), known, m, bottoms, k)


@st.composite
def window_runs(draw):
    """``(m, handed, lists, windows, bottoms)``: cells handed over at
    round 0 (``{object_id: {column: grade}}``, each object with one),
    each list's sorted deliveries ``[(object_id, grade), ...]`` (lists
    may differ in length), and the window sizes they are read in."""
    m = draw(st.integers(min_value=1, max_value=3))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, unique=True))
    grade = st.sampled_from(GRADES)
    lists = []
    for _ in range(m):
        order = draw(st.permutations(ids))[: draw(st.integers(0, len(ids)))]
        lists.append([(object_id, draw(grade)) for object_id in order])
    handed = {}
    for object_id in draw(st.lists(st.sampled_from(ids), unique=True)):
        cells = {
            column: grade_of
            for column, deliveries in enumerate(lists)
            for delivered, grade_of in deliveries
            if delivered == object_id and draw(st.booleans())
        }
        if cells:
            handed[object_id] = cells
    longest = max(len(deliveries) for deliveries in lists)
    windows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=longest + 1))
    while sum(windows) < longest:
        windows.append(4)
    return m, handed, lists, windows, [draw(grade) for _ in range(m)]


def state_after(handed, lists, rounds):
    """The reference state after ``rounds``: handed-over cells, then
    deliveries in (round, list) order."""
    known = {object_id: dict(cells) for object_id, cells in handed.items()}
    for row in range(rounds):
        for column, deliveries in enumerate(lists):
            if row < len(deliveries):
                object_id, grade = deliveries[row]
                known.setdefault(object_id, {})[column] = grade
    return known


@settings(deadline=None, max_examples=150)
@given(window_runs(), st.data())
def test_coded_bounds_hold_the_state_after_every_round(run, data):
    m, handed, lists, windows, bottoms = run
    bounds = CodedBounds.from_known(handed, m)
    start = 0
    for size in windows:
        bounds.read(
            [
                (
                    bounds.codes.encode([o for o, _ in deliveries[start : start + size]]),
                    np.array([g for _, g in deliveries[start : start + size]]),
                )
                for deliveries in lists
            ],
            start,
        )
        start += size
    for rounds in range(start + 1):
        known = state_after(handed, lists, rounds)
        assert bounds.rows_at(rounds) == len(known)
        ids = bounds.ids(np.arange(len(known)))
        assert ids == list(known)
        for rule in RULES:
            assert bounds.lower_bounds(rule, rounds).tolist() == list(
                fold(rule, known, m, [0.0] * m).values()
            ), rule.name
            assert bounds.upper_bounds(rule, bottoms, rounds).tolist() == list(
                fold(rule, known, m, bottoms).values()
            ), rule.name
    # forget what came after a round
    rounds = data.draw(st.integers(0, start))
    bounds.keep(rounds)
    known = state_after(handed, lists, rounds)
    assert bounds.known_states() == known
    assert list(bounds.known_states()) == list(known)
