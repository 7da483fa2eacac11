"""CA against a plain per-round reference.

Fagin, Lotem and Naor define CA as NRA plus one resolution every
h = ⌊c_R/c_S⌋ rounds: after round r, for every r that h divides, the
incomplete object with the highest upper bound is completed by random
access to each list that has not delivered it.  :func:`per_round_ca` is
exactly that, written with none of ``combined_top_k``'s machinery: one
row per list per round, a resolution at every h-th round, then NRA's
exact stop test (as in ``test_nra_stop_depth.py::earliest_stop``) with
no tolerance, so the answers are exact.
Over bare columns, over lists behind a pass-through wrapper and over
sharded lists, CA must return the same answers in the same order (down
to the sign of a zero), stop at the same depth and leave every counter
of every list where the reference leaves it.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sources import sources_from_columns
from repro.core.threshold import combined_top_k
from repro.scoring import means, tnorms
from tests.core.test_bulk_access import counter_snapshots
from tests.per_row import per_row

RULES = {"min": tnorms.MIN, "mean": means.MEAN, "product": tnorms.PRODUCT}
GRADES = (0.0, -0.0, 5e-324, 0.25, 0.5, 0.75, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0)
#: ``1`` and ``"1"`` tie on the whole answer key: first-seen order decides
IDS = (1, "1", 2, "2", 10, "a", "a\x00", "b", "c", "d", "e", "f")


def per_round_ca(sources, rule, k, ratio):
    """``(answers, sorted_depth)`` of CA run one round at a time."""
    m, n = len(sources), len(sources[0])
    k, h = min(k, n), int(ratio)
    cursors = [source.cursor() for source in sources]
    bottoms = [1.0] * m
    known = {}  # every seen object's learned grades, in first-seen order

    def bounds(fill):
        return {o: rule([g.get(i, fill[i]) for i in range(m)]) for o, g in known.items()}

    rounds = 0
    while True:
        rounds += 1
        row = [cursor.next_batch(1) if cursor.position < n else [] for cursor in cursors]
        for i, items in enumerate(row):
            bottoms[i] = items[0].grade if items else 0.0
            for item in items:
                known.setdefault(item.object_id, {})[i] = item.grade
        lower = bounds([0.0] * m)
        ranked = sorted(known, key=lambda o: (-lower[o], str(o)))  # stable
        if not any(row):  # every list has run out: every grade is known
            return [(o, lower[o]) for o in ranked[:k]], n
        if rounds % h == 0:
            upper = bounds(bottoms)
            best = None
            for o, grades in known.items():
                if len(grades) < m and (best is None or upper[o] > upper[best]):
                    best = o
            if best is not None:
                for j in range(m):
                    if j not in known[best]:
                        known[best][j] = sources[j].random_access(best)
            lower = bounds([0.0] * m)
            ranked = sorted(known, key=lambda o: (-lower[o], str(o)))
        if len(known) < k:
            continue
        upper = bounds(bottoms)
        top, rest = ranked[:k], ranked[k:]
        unseen = rule(bottoms) if len(known) < n else 0.0
        rivals = max([unseen] + [upper[o] for o in rest])
        gap = max(upper[o] - lower[o] for o in top)
        if lower[top[-1]] >= rivals and gap <= 0.0:
            return [(o, lower[o]) for o in top], rounds


def listed(answers):
    return [(object_id, grade, math.copysign(1.0, grade)) for object_id, grade in answers]


BUILDS = {
    "columnar": sources_from_columns,
    "per-row": lambda table: per_row(sources_from_columns(table)),
    "sharded": lambda table: sources_from_columns(table, shards=3),
}


@st.composite
def instances(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=10, unique=True))
    grade = st.sampled_from(GRADES)
    if draw(st.booleans()):  # a two-grade alphabet: ties everywhere
        grade = st.sampled_from(draw(st.lists(grade, min_size=1, max_size=2)))
    table = {object_id: tuple(draw(grade) for _ in range(m)) for object_id in ids}
    return (
        draw(st.sampled_from(sorted(BUILDS))),
        table,
        draw(st.sampled_from(sorted(RULES))),
        draw(st.integers(min_value=1, max_value=len(ids) + 2)),
        draw(st.sampled_from((1, 3, 8, 20))),
    )


@settings(deadline=None, max_examples=300)
@given(instances())
@example(("per-row", {1: (0.5, -0.0), "1": (0.5, 0.0), 2: (0.25, 0.25)}, "min", 1, 1))
@example(("columnar", {"1": (0.75, 0.5), 1: (0.5, 0.75), "a": (0.9, 0.1)}, "mean", 2, 3))
@example(("sharded", {"a": (0.5,), "b": (0.5,), "c": (0.25,)}, "product", 5, 20))
def test_ca_matches_per_round_ca(instance):
    build, table, rule_name, k, ratio = instance
    rule = RULES[rule_name]
    reference_sources = BUILDS[build](table)
    answers, depth = per_round_ca(reference_sources, rule, k, ratio)
    sources = BUILDS[build](table)
    result = combined_top_k(sources, rule, k, ratio=ratio)
    assert listed((item.object_id, item.grade) for item in result.answers) == listed(answers)
    assert result.sorted_depth == depth
    assert result.grades_exact
    assert counter_snapshots(sources) == counter_snapshots(reference_sources)
