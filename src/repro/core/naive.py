"""The naive baseline algorithm (paper section 4.1).

"Have the subsystem dealing with color output explicitly the graded set
consisting of all pairs ... for every object" — i.e. stream *every* list
to exhaustion under sorted access, compute every object's overall grade,
and keep the k best.  Its database access cost is exactly ``m * N``
(the paper states ``2N`` for the two-list case), which is the yardstick
Fagin's algorithm is measured against in experiment E1.

Unlike A0 the naive algorithm is correct for *any* scoring function,
monotone or not — it sees everything — so it doubles as the reference
oracle in the test suite.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from repro.core.cost import CostMeter
from repro.core.graded import GradedSet
from repro.core.result import TopKResult
from repro.core.sources import GradedSource, _fast_item, check_same_objects
from repro.kernels import ObjectCodes, _np, top_rows
from repro.parallel import fan_out, raise_first_error
from repro.scoring.base import as_scoring_function

#: Chunk size for draining whole lists under bulk sorted access.  The
#: naive scan reads everything regardless, so any chunking charges the
#: same m * N accesses; a large window just minimizes round trips.
_DRAIN_CHUNK = 4096


def _drain(source: GradedSource):
    """Stream one list to exhaustion; returns ``(position, ids,
    grades)`` columnar runs."""
    cursor = source.cursor()
    runs = []
    while True:
        position = cursor.position
        ids, grades = cursor.next_batch_columns(_DRAIN_CHUNK)
        if not ids:
            return runs
        runs.append((position, ids, grades))


def naive_top_k(
    sources: Sequence[GradedSource],
    scoring,
    k: int,
    *,
    tracer=None,
    executor=None,
) -> TopKResult:
    """Top k answers by exhaustively scanning every list (cost m * N).

    ``tracer`` is an optional
    :class:`~repro.observability.tracer.QueryTracer`; when given, every
    sorted delivery is recorded under a ``naive-scan`` phase (and the
    access-free grading under ``naive-compute``).  ``None`` adds nothing
    to the hot path.  ``executor`` is an optional
    :class:`~repro.parallel.ParallelAccessExecutor`; the m full-list
    drains are independent, so they fan out whole — the merge into the
    grade table happens in source order either way.  The grade table is
    one ``combine_matrix``, ranked by :func:`~repro.kernels.top_rows`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    rule = as_scoring_function(scoring)
    database_size = check_same_objects(sources)
    meter = CostMeter(sources)
    codes = ObjectCodes()  # rows in first-seen order
    cells = []
    with nullcontext() if tracer is None else tracer.phase("naive-scan"):
        outcomes = fan_out(
            executor, [(lambda s=source: _drain(s)) for source in sources]
        )
        raise_first_error(outcomes)
        for i, (source, outcome) in enumerate(zip(sources, outcomes)):
            for position, ids, grades in outcome.value:
                if tracer is not None:
                    tracer.record_sorted_batch(
                        source.name,
                        [
                            _fast_item(object_id, grade)
                            for object_id, grade in zip(ids, grades.tolist())
                        ],
                        position,
                    )
                cells.append((i, codes.encode(ids), grades))

    with nullcontext() if tracer is None else tracer.phase("naive-compute"):
        # A grade no list delivered (impossible once every list drained,
        # but cheap to honor) counts as 0: the lower bound.
        table = _np.zeros((len(codes), len(sources)))
        for i, coded, grades in cells:
            table[coded, i] = grades
        scores = rule.combine_matrix(table)
        top = top_rows(
            scores, min(k, database_size), lambda rows: [str(o) for o in codes.decode(rows)]
        )
        answers = GradedSet(zip(codes.decode(top), scores[top].tolist()))

    return TopKResult(
        answers=answers,
        cost=meter.report(),
        algorithm="naive",
        sorted_depth=database_size,
    )


def grade_everything(sources: Sequence[GradedSource], scoring) -> GradedSet:
    """The full graded set of the query — the reference oracle for tests.

    Uses the sources' accounting-free materialization, so calling this
    does not disturb access counters.
    """
    rule = as_scoring_function(scoring)
    columns = [source.as_graded_set() for source in sources]
    check_same_objects(sources)
    result = GradedSet()
    for object_id in columns[0].objects():
        vector = [column.grade(object_id) for column in columns]
        result[object_id] = rule(vector)
    return result
