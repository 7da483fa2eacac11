"""The bounds state against a per-object fold.

Every method the algorithm loops read from :class:`CodedBounds` — its
lower and upper bounds, ``stop_view``, ``best_incomplete`` (CA's
resolution target) and its ``table`` of grades — is checked against the plain
definition, written here over a ``{object_id: {column: grade}}``
mapping: one ``rule([...])`` per object with missing grades read from 0
(lower bound) or from the list bottoms (upper bound), ranked by the
canonical ``(-grade, str(id))`` key, first-seen order breaking the
remaining ties.  A state built delivery by delivery and one handed over
whole (``add``, ``learn``, then ``hand_over``, as TA and A0 hand their
seen sets to NRA) must answer every question the same way, and a state fed
windows of sorted deliveries must hold, after every round, exactly the
state those deliveries make, and report the same bounds at round 0 once
``hand_over`` counts every cell as handed over.

Hypothesis draws the hostile inputs: ids ``1`` and ``"1"`` (which tie
on ``str``), ±0.0, the smallest denormal, 1 - 2**-53, all-equal grades,
k past the number of seen objects, and a single list.
"""

import heapq

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import CodedBounds, ObjectCodes
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


def best_incomplete(known, m, upper):
    """``(object_id, missing columns)`` of the incomplete object with the
    highest upper bound, the first-seen one on ties; None if none."""
    best = None
    for object_id, row in known.items():
        if len(row) < m and (best is None or upper[object_id] > upper[best]):
            best = object_id
    if best is None:
        return None
    return best, [column for column in range(m) if column not in known[best]]


def resolution_target(bounds, rule, bottoms, t):
    """:meth:`CodedBounds.best_incomplete` with its code decoded."""
    found = bounds.best_incomplete(rule, bottoms, t)
    if found is None:
        return None
    coded, missing = found
    return bounds.codes.decode(coded)[0], missing


def delivered(deliveries, m):
    """A state built delivery batch by delivery batch, rows in delivery
    order, from a capacity of one row (so it regrows)."""
    codes = ObjectCodes(reference_known(deliveries))  # coded in first-seen order
    bounds = CodedBounds(codes, m, capacity=1)
    for column, batch in deliveries:
        coded = codes.lookup([object_id for object_id, _ in batch])
        bounds.add(coded[coded >= bounds.count], 0)  # its new objects, in order
        bounds.learn(column, coded, np.array([grade for _, grade in batch]), 0)
    return bounds


def handed_over(known, m):
    """A state holding ``known`` over a per-run index, rows in its order,
    learned at round 1 and then handed over at round 0."""
    bounds = CodedBounds(ObjectCodes(known), m, capacity=len(known))
    bounds.add(np.arange(len(known)), 1)
    for column in range(m):
        cells = [(code, row[column]) for code, row in enumerate(known.values()) if column in row]
        if cells:
            coded, grades = zip(*cells)
            bounds.learn(column, np.array(coded), np.array(grades), 1)
    bounds.hand_over()
    return bounds


def check_bounds(bounds, known, m, bottoms, t=None):
    """The state's rows (after round ``t``) report the per-object fold's
    bounds, in first-seen order."""
    __tracebackhide__ = True
    assert bounds.ids(np.arange(len(known))) == list(known)
    for rule in RULES:
        assert bounds.lower_bounds(rule, t).tolist() == list(
            fold(rule, known, m, [0.0] * m).values()
        ), rule.name
        assert bounds.upper_bounds(rule, bottoms, t).tolist() == list(
            fold(rule, known, m, bottoms).values()
        ), rule.name


def check_table(bounds, known, m):
    """The state's ``table`` is the plain state: the ids in first-seen
    order, and every cell's grade, bit for bit, NaN where not known."""
    __tracebackhide__ = True
    codes, grades = bounds.table()
    assert bounds.codes.decode(codes) == list(known)
    expected = np.array(
        [[row.get(c, np.nan) for c in range(m)] for row in known.values()], dtype=np.float64
    ).reshape(-1, m)
    missing = np.isnan(expected)
    assert np.isnan(grades).tolist() == missing.tolist()
    assert grades[~missing].view(np.int64).tolist() == expected[~missing].view(np.int64).tolist()


def check_coded(bounds, known, m, bottoms, k):
    __tracebackhide__ = True
    assert bounds.count == len(known)
    check_table(bounds, known, m)
    check_bounds(bounds, known, m, bottoms)
    for rule in RULES:
        lower = fold(rule, known, m, [0.0] * m)
        upper = fold(rule, known, m, bottoms)
        assert resolution_target(bounds, rule, bottoms, 0) == best_incomplete(known, m, upper)
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
def test_coded_bounds_are_the_per_object_fold(instance):
    m, deliveries, bottoms, k = instance
    known = reference_known(deliveries)

    check_coded(delivered(deliveries, m), known, m, bottoms, k)
    check_coded(handed_over(known, m), known, m, bottoms, k)


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
    bounds = handed_over(handed, m)
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
        check_bounds(bounds, known, m, bottoms, rounds)
        for rule in RULES:
            upper = fold(rule, known, m, bottoms)
            assert resolution_target(bounds, rule, bottoms, rounds) == best_incomplete(
                known, m, upper
            ), rule.name
    # forget what came after a round
    rounds = data.draw(st.integers(0, start))
    bounds.keep(rounds)
    known = state_after(handed, lists, rounds)
    assert bounds.count == len(known)
    check_table(bounds, known, m)
    check_bounds(bounds, known, m, bottoms)
    # handed over, the whole state is the state after round 0
    bounds.hand_over()
    assert bounds.rows_at(0) == len(known)
    check_bounds(bounds, known, m, bottoms, 0)
