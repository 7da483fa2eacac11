"""TA against a plain item-at-a-time reference.

Fagin, Lotem and Naor state TA one row at a time: sorted access to the
next item of every list, a random probe of every other list for each
object seen for the first time, its grade folded with the rule, and a
stop as soon as θ times the k-th best grade reaches the threshold
``t(bottoms)``.  :func:`item_at_a_time_ta` is exactly that, written with
none of ``threshold_top_k``'s machinery: no windows, no object codes, no
batch scoring.  Whichever probe policy the production loop takes — a
free gather over bare columns, or charged per-row probes over wrapped
lists and the full wrapper stack — it must return the same answers in
the same order (down to the sign of a zero), leave every counter of
every wrapper chain where the reference leaves it, and stop at the same
depth.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graded import GradedSet
from repro.core.sources import sources_from_columns
from repro.core.threshold import threshold_top_k
from repro.scoring import means, tnorms
from tests.core.test_bulk_access import build_stack, counter_snapshots
from tests.per_row import per_row

RULES = {"min": tnorms.MIN, "mean": means.MEAN, "product": tnorms.PRODUCT}
GRADES = (0.0, -0.0, 5e-324, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 1.0)
#: ids whose ``str`` differ, so the mapped stack can name them apart
IDS = (1, 2, 10, "a", "a\x00", "b", "c", "d", "e", "f", "g", "h")
#: ``1`` and ``"1"`` tie on the whole answer key: first-seen order decides
TWINS = (1, "1", 2, "2")


def item_at_a_time_ta(sources, rule, k, theta=1.0):
    """``(answers, sorted_depth)`` of TA run one row per round."""
    m, n = len(sources), len(sources[0])
    k = min(k, n)
    cursors = [source.cursor() for source in sources]
    bottoms = [1.0] * m
    overall = {}  # every seen object's grade, in first-seen order
    while True:
        row = []
        for i, cursor in enumerate(cursors):
            if cursor.position < n:
                (item,) = cursor.next_batch(1)
                bottoms[i] = item.grade
                row.append((i, item))
        if not row:
            break
        for i, item in row:
            if item.object_id in overall:
                continue
            grades = [None] * m
            grades[i] = item.grade
            for j in range(m):
                if j != i:
                    grades[j] = sources[j].random_access(item.object_id)
            overall[item.object_id] = rule(grades)
        best = sorted(overall.values(), reverse=True)
        if len(best) >= k and theta * best[k - 1] >= rule(bottoms):
            break
    answers = GradedSet(overall).top(k)
    return answers, max(cursor.position for cursor in cursors)


def listed(answers):
    return [
        (item.object_id, item.grade, math.copysign(1.0, item.grade)) for item in answers
    ]


BUILDS = {
    "columnar": sources_from_columns,
    "per-row": lambda table: per_row(sources_from_columns(table)),
    "stack": build_stack,
}


@st.composite
def instances(draw):
    build = draw(st.sampled_from(sorted(BUILDS)))
    m = draw(st.integers(min_value=1, max_value=3))
    pool = IDS if build == "stack" else IDS + TWINS
    ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
    if build == "stack":
        ids = list(dict.fromkeys(str(object_id) for object_id in ids))
    grade = st.sampled_from(GRADES)
    if draw(st.booleans()):  # a two-grade alphabet: ties everywhere
        grade = st.sampled_from(draw(st.lists(grade, min_size=1, max_size=2)))
    table = {object_id: tuple(draw(grade) for _ in range(m)) for object_id in ids}
    return (
        build,
        table,
        draw(st.sampled_from(sorted(RULES))),
        draw(st.integers(min_value=1, max_value=len(ids) + 2)),
        draw(st.sampled_from((1.0, 1.3))),
        draw(st.sampled_from((1, 3, 128))),
    )


@settings(deadline=None, max_examples=300)
@given(instances())
@example(("per-row", {1: (0.5, -0.0), "1": (0.5, 0.0), 2: (0.25, 0.25)}, "min", 1, 1.0, 1))
@example(("columnar", {"1": (0.75, 0.5), 1: (0.5, 0.75), "a": (0.9, 0.1)}, "mean", 2, 1.0, 3))
@example(("stack", {"a": (0.5,), "b": (0.5,), "c": (0.25,)}, "product", 5, 1.3, 128))
def test_ta_matches_item_at_a_time_ta(instance):
    build, table, rule_name, k, theta, batch_size = instance
    rule = RULES[rule_name]
    reference_stack = BUILDS[build](table)
    answers, depth = item_at_a_time_ta(reference_stack, rule, k, theta)
    stack = BUILDS[build](table)
    result = threshold_top_k(stack, rule, k, batch_size=batch_size, theta=theta)
    assert listed(result.answers) == listed(answers)
    assert result.sorted_depth == depth
    assert counter_snapshots(stack) == counter_snapshots(reference_stack)
