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
from repro.kernels import bounds_state, resolve_kernel
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
    kernel=None,
) -> TopKResult:
    """Top k answers by exhaustively scanning every list (cost m * N).

    ``tracer`` is an optional
    :class:`~repro.observability.tracer.QueryTracer`; when given, every
    sorted delivery is recorded under a ``naive-scan`` phase (and the
    access-free grading under ``naive-compute``).  ``None`` adds nothing
    to the hot path.  ``executor`` is an optional
    :class:`~repro.parallel.ParallelAccessExecutor`; the m full-list
    drains are independent, so they fan out whole — the merge into the
    grade table happens in source order either way.  ``kernel`` selects
    the bounds state the grade table lives in (``None`` = configured
    default, see :func:`repro.kernels.bounds_state`); the naive scan
    charges ``m * N`` either way, so the kernel only changes how the
    table is stored and folded.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    rule = as_scoring_function(scoring)
    database_size = check_same_objects(sources)
    meter = CostMeter(sources)
    table = bounds_state(
        resolve_kernel(kernel, sources, rule), len(sources), capacity=database_size
    )
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
                table.add_batch(i, ids, grades)

    with nullcontext() if tracer is None else tracer.phase("naive-compute"):
        # A grade no list delivered (impossible once every list drained,
        # but cheap to honor) counts as 0: the lower bound.
        answers = GradedSet(zip(*table.ranked(rule, min(k, database_size))))

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
