"""A0 against a plain item-at-a-time reference.

The paper states A0 one item at a time: sorted access to the next item
of every list, round after round, until k objects have been output by
every list; then a random access for every missing grade of every object
seen; then every seen object graded with the rule and the k best output.
The pruning improvement (E16) probes the incomplete objects in
decreasing upper-bound order instead, and stops once the k-th best exact
grade covers the next bound.  ``next_k`` continues where the previous
page left off.  :class:`ItemAtATimeA0` is exactly that, written with none
of ``FaginAlgorithm``'s machinery: no windows, no object codes, no batch
scoring, one ``random_access`` per missing cell.  Over bare columns,
wrapped lists and the full wrapper stack, ``FaginAlgorithm`` must return
the same pages in the same order (down to the sign of a zero), with the
same costs, per-phase extras and depth, and leave every counter of every
wrapper chain where the reference leaves it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost import CostMeter
from repro.core.fagin import FaginAlgorithm
from repro.core.graded import GradedSet
from tests.core.test_bulk_access import counter_snapshots
from tests.core.test_ta_reference import BUILDS, GRADES, IDS, RULES, TWINS, listed


class ItemAtATimeA0:
    """A0 run one row per round over dict state, page by page."""

    def __init__(self, sources, rule, prune):
        self.sources, self.rule, self.prune = sources, rule, prune
        self.m, self.n = len(sources), len(sources[0])
        self.cursors = [source.cursor() for source in sources]
        self.bottoms = [1.0] * self.m
        self.known = {}  # object -> {list: grade}, in first-seen order
        self.sightings = {}  # object -> lists that delivered it sorted
        self.complete = {}  # object -> exact grade, in completion order
        self.emitted = set()

    def grade(self, grades, fill=None):
        """The rule over ``grades``, missing ones taken from ``fill``."""
        return self.rule([grades[i] if i in grades else fill[i] for i in range(self.m)])

    def next_k(self, k):
        """``(answers, cost, depth, extras)`` of the next page."""
        meter = CostMeter(self.sources)
        needed = min(len(self.emitted) + k, self.n)
        while sum(seen == self.m for seen in self.sightings.values()) < needed:
            row = [i for i, cursor in enumerate(self.cursors) if cursor.position < self.n]
            if not row:
                break
            for i in row:
                (item,) = self.cursors[i].next_batch(1)
                self.known.setdefault(item.object_id, {})[i] = item.grade
                self.sightings[item.object_id] = self.sightings.get(item.object_id, 0) + 1
                self.bottoms[i] = item.grade
        sorted_cost = meter.report().database_access_cost
        fresh = self.pruned(k) if self.prune else self.everything()
        answers = GradedSet(fresh).top(min(k, len(fresh)))
        self.emitted.update(answers.objects())
        cost = meter.report()
        extras = {
            "phase_sorted_cost": sorted_cost,
            "phase_random_cost": cost.database_access_cost - sorted_cost,
            "objects_seen": len(self.known),
        }
        return answers, cost, max(cursor.position for cursor in self.cursors), extras

    def probe(self, object_id):
        grades = self.known[object_id]
        for j in range(self.m):
            if j not in grades:
                grades[j] = self.sources[j].random_access(object_id)

    def everything(self):
        for j in range(self.m):
            for object_id, grades in self.known.items():
                if j not in grades:
                    grades[j] = self.sources[j].random_access(object_id)
        return {
            object_id: self.grade(grades)
            for object_id, grades in self.known.items()
            if object_id not in self.emitted
        }

    def pruned(self, k):
        for object_id, grades in self.known.items():
            if object_id not in self.complete and len(grades) == self.m:
                self.complete[object_id] = self.grade(grades)
        fresh = {o: g for o, g in self.complete.items() if o not in self.emitted}
        pending = [o for o in self.known if o not in self.complete]
        bound = {o: self.grade(self.known[o], self.bottoms) for o in pending}
        # bound, then str(id), both descending; stable, so first seen on ties
        pending.sort(key=lambda o: (bound[o], str(o)), reverse=True)
        for object_id in pending:
            best = sorted(fresh.values(), reverse=True)
            if len(best) >= k and bound[object_id] <= best[k - 1]:
                break
            self.probe(object_id)
            exact = self.grade(self.known[object_id])
            self.complete[object_id] = fresh[object_id] = exact
        return fresh


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
    pages = draw(
        st.lists(st.integers(min_value=1, max_value=len(ids) + 3), min_size=1, max_size=3)
    )
    return (
        build,
        table,
        draw(st.sampled_from(sorted(RULES))),
        pages,
        draw(st.booleans()),
        draw(st.sampled_from((1, 3, 128))),
    )


@settings(deadline=None, max_examples=300)
@given(instances())
# twins tied on their bound while pending
@example(("columnar", {1: (0.8, 0.2), "1": (0.2, 0.8), 2: (0.5, 0.5)}, "min", [1, 1], True, 1))
@example(("per-row", {1: (0.5, -0.0), "1": (0.5, 0.0), 2: (0.25, 0.25)}, "min", [1, 2], False, 1))
@example(("stack", {"a": (0.5,), "b": (0.5,), "c": (0.25,)}, "product", [5, 1], True, 128))
def test_a0_matches_item_at_a_time_a0(instance):
    build, table, rule_name, pages, prune, batch_size = instance
    rule = RULES[rule_name]
    reference_stack = BUILDS[build](table)
    reference = ItemAtATimeA0(reference_stack, rule, prune)
    stack = BUILDS[build](table)
    algorithm = FaginAlgorithm(stack, rule, prune_random_access=prune, batch_size=batch_size)
    emitted = []
    for k in pages:
        answers, cost, depth, extras = reference.next_k(k)
        result = algorithm.next_k(k)
        assert listed(result.answers) == listed(answers)
        assert result.cost == cost
        assert result.sorted_depth == depth
        assert result.extras == extras
        assert counter_snapshots(stack) == counter_snapshots(reference_stack)
        emitted.extend(answers)
    assert listed(algorithm.emitted) == listed(GradedSet(emitted))
