"""Fagin's algorithm A0: correctness, cost shape, and resumability."""

import pytest

from repro.core.fagin import FaginAlgorithm, fagin_top_k
from repro.core.graded import GradedSet
from repro.core.naive import grade_everything
from repro.core.sources import ArraySource, WrapperSource, sources_from_columns
from repro.errors import MonotonicityError, TransientAccessError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import VirtualClock
from repro.observability import QueryTracer
from repro.scoring import means, tnorms
from repro.scoring.base import FunctionScoring
from repro.scoring.weighted import WeightedScoring
from repro.workloads.graded_lists import independent
from tests.core.test_nra_stop_depth import assert_records_are_the_charged_deliveries


def oracle_top(sources, scoring, k):
    return grade_everything(sources, scoring).top(k)


def test_tiny_example_by_hand(tiny_sources):
    # min grades: a -> 0.5, b -> 0.6, c -> 0.3
    result = fagin_top_k(tiny_sources, tnorms.MIN, 2)
    assert result.answers.grades_equal(GradedSet({"b": 0.6, "a": 0.5}))


def test_matches_oracle_on_independent_lists(independent_sources):
    result = fagin_top_k(independent_sources, tnorms.MIN, 10)
    assert result.answers.same_grade_multiset(
        oracle_top(independent_sources, tnorms.MIN, 10)
    )


def test_matches_oracle_m3(independent_sources_m3):
    result = fagin_top_k(independent_sources_m3, tnorms.MIN, 7)
    assert result.answers.same_grade_multiset(
        oracle_top(independent_sources_m3, tnorms.MIN, 7)
    )


@pytest.mark.parametrize(
    "scoring",
    [tnorms.MIN, tnorms.PRODUCT, tnorms.LUKASIEWICZ, means.MEAN,
     means.GEOMETRIC_MEAN, WeightedScoring(tnorms.MIN, (0.7, 0.3))],
    ids=lambda s: s.name,
)
def test_correct_for_every_monotone_rule(scoring, independent_sources):
    """Theorem 4.1 applies to ANY monotone scoring function."""
    result = fagin_top_k(independent_sources, scoring, 5)
    assert result.answers.same_grade_multiset(
        oracle_top(independent_sources, scoring, 5)
    )


def test_correct_on_correlated_and_anticorrelated(
    correlated_sources, anti_correlated_sources
):
    for sources in (correlated_sources, anti_correlated_sources):
        result = fagin_top_k(sources, tnorms.MIN, 8)
        assert result.answers.same_grade_multiset(oracle_top(sources, tnorms.MIN, 8))


def test_cost_beats_naive_on_large_instance():
    sources = sources_from_columns(independent(3000, 2, seed=3))
    result = fagin_top_k(sources, tnorms.MIN, 5)
    assert result.database_access_cost < 2 * 3000 / 3  # well under naive


def test_cost_report_covers_both_access_kinds(independent_sources):
    result = fagin_top_k(independent_sources, tnorms.MIN, 5)
    assert result.cost.sorted_access_cost > 0
    assert result.cost.random_access_cost > 0
    assert result.database_access_cost == (
        result.cost.sorted_access_cost + result.cost.random_access_cost
    )


def test_k_larger_than_database_returns_everything(tiny_sources):
    result = fagin_top_k(tiny_sources, tnorms.MIN, 50)
    assert len(result.answers) == 3


def test_k_must_be_positive(tiny_sources):
    algorithm = FaginAlgorithm(tiny_sources, tnorms.MIN)
    with pytest.raises(ValueError):
        algorithm.next_k(0)


def test_rejects_declared_non_monotone_rule(tiny_sources):
    bad = FunctionScoring(lambda g: 1 - min(g), "not-monotone", is_monotone=False)
    with pytest.raises(MonotonicityError):
        FaginAlgorithm(tiny_sources, bad)
    # explicit opt-out is allowed (caller takes responsibility)
    FaginAlgorithm(tiny_sources, bad, require_monotone=False)


def test_single_list_degenerates_to_sorted_prefix(independent_sources):
    single = independent_sources[:1]
    result = fagin_top_k(single, tnorms.MIN, 5)
    assert result.answers.same_grade_multiset(oracle_top(single, tnorms.MIN, 5))
    assert result.database_access_cost == 5  # k sorted accesses, nothing else


# ----------------------------------------------------------------------
# Resumability ("continue where we left off")
# ----------------------------------------------------------------------
def test_next_k_continues_without_rework(independent_sources):
    algorithm = FaginAlgorithm(independent_sources, tnorms.MIN)
    first = algorithm.next_k(5)
    second = algorithm.next_k(5)
    combined = GradedSet(first.answers.as_dict() | second.answers.as_dict())
    assert combined.same_grade_multiset(
        oracle_top(independent_sources, tnorms.MIN, 10)
    )
    # batches must not overlap
    assert not set(first.answers.objects()) & set(second.answers.objects())


def test_resumed_batch_is_cheaper_than_fresh():
    table = independent(500, 2, seed=21)
    resumable = FaginAlgorithm(sources_from_columns(table), tnorms.MIN)
    resumable.next_k(5)
    resumed_cost = resumable.next_k(5).database_access_cost
    # A from-scratch top-10 run pays for everything the resumed run
    # already amortized, so the second batch alone must cost less.
    from_scratch = fagin_top_k(sources_from_columns(table), tnorms.MIN, 10)
    assert resumed_cost < from_scratch.database_access_cost


def test_emitted_accumulates(independent_sources):
    algorithm = FaginAlgorithm(independent_sources, tnorms.MIN)
    algorithm.next_k(3)
    algorithm.next_k(3)
    assert len(algorithm.emitted) == 6


def test_exhausting_database_via_batches(tiny_sources):
    algorithm = FaginAlgorithm(tiny_sources, tnorms.MIN)
    batch1 = algorithm.next_k(2)
    batch2 = algorithm.next_k(2)
    assert len(batch1.answers) == 2
    assert len(batch2.answers) == 1  # only one object left
    batch3 = algorithm.next_k(2)
    assert len(batch3.answers) == 0


def test_per_phase_accounting(independent_sources):
    result = fagin_top_k(independent_sources, tnorms.MIN, 5)
    extras = result.extras
    assert extras["phase_sorted_cost"] == result.cost.sorted_access_cost
    assert extras["phase_random_cost"] == result.cost.random_access_cost
    assert extras["objects_seen"] >= 5


def test_resumption_never_rescans_sorted_prefixes():
    """Regression: paging through pages of k must reach the same sorted
    depth (and roughly the same total cost) as one run at the final
    depth — resumed match counting once undercounted and scanned ~2x
    too deep."""
    table = independent(2000, 2, seed=37)
    algorithm = FaginAlgorithm(sources_from_columns(table), tnorms.MIN)
    cumulative = 0
    for _ in range(5):
        result = algorithm.next_k(10)
        cumulative += result.database_access_cost
    scratch = fagin_top_k(sources_from_columns(table), tnorms.MIN, 50)
    assert result.sorted_depth == scratch.sorted_depth
    assert cumulative <= scratch.database_access_cost * 1.15


class FailsFirstConsume(WrapperSource):
    """A sorted stream whose first delivery fails (nothing is delivered)."""

    failed = False

    def _consume(self, start, count):
        if not self.failed:
            self.failed = True
            raise TransientAccessError(f"{self.name}: first delivery lost")
        super()._consume(start, count)


def test_rows_reread_after_a_failed_consume_are_sighted_once():
    """Regression: a list whose consume failed delivers the same rows
    again on the next call; a row it already showed must not count
    toward L twice, or b (seen only by list 0, twice) would close L and
    stop the scan before e, the true top object, is seen."""
    first = {"b": 0.9, "e": 0.85, "a": 0.3, "c": 0.2}
    second = {"a": 0.9, "c": 0.88, "e": 0.87, "b": 0.1}
    sources = [
        FailsFirstConsume(ArraySource(first, name="L0")),
        ArraySource(second, name="L1"),
    ]
    algorithm = FaginAlgorithm(sources, tnorms.MIN, batch_size=1)
    with pytest.raises(TransientAccessError):
        algorithm.next_k(1)
    result = algorithm.next_k(1)
    assert [(item.object_id, item.grade) for item in result.answers] == [("e", 0.85)]


def test_rows_of_a_failed_consume_are_delivered_on_the_retry():
    """Regression: rows a list failed to deliver must not enter the
    state or count toward L, or a retried page whose L is already full
    answers without ever reading (and paying for) them."""
    sources = [
        FailsFirstConsume(ArraySource({"a": 0.9, "b": 0.5}, name="L0")),
        ArraySource({"a": 0.8, "b": 0.4}, name="L1"),
    ]
    algorithm = FaginAlgorithm(sources, tnorms.MIN, batch_size=1)
    with pytest.raises(TransientAccessError):
        algorithm.next_k(1)
    result = algorithm.next_k(1)
    assert [(item.object_id, item.grade) for item in result.answers] == [("a", 0.8)]
    # the retry's round: L0 delivers a at last, L1 goes on to b, and
    # phase 2 probes b's grade in L0
    assert result.cost.sorted_access_cost == 2
    assert result.cost.random_access_cost == 1
    assert result.sorted_depth == 2


def test_a_failed_consume_leaves_no_sorted_record():
    """A list whose consume fails delivered nothing, so the trace takes
    back its sorted records of that window: after the failed page and
    after each retry, every source's records are exactly its charged
    sorted accesses.  List 1 dies past 5 accesses; L0's first consume
    fails and its retry delivers."""
    table = independent(200, 2, seed=5)
    sources = sources_from_columns(table)
    sources[1] = FaultInjectingSource(
        sources[1], FaultProfile(kill_after=5), clock=VirtualClock()
    )
    tracer = QueryTracer()
    algorithm = FaginAlgorithm(sources, tnorms.MIN, batch_size=8, tracer=tracer)
    for _ in range(2):
        with pytest.raises(TransientAccessError):
            algorithm.next_k(3)
        assert_records_are_the_charged_deliveries(tracer, sources)
    assert sources[0].counter.sorted_accesses == 16
    assert sources[1].counter.sorted_accesses == 0

    sources = [
        FailsFirstConsume(ArraySource({"a": 0.9, "b": 0.5}, name="L0")),
        ArraySource({"a": 0.8, "b": 0.4}, name="L1"),
    ]
    tracer = QueryTracer()
    algorithm = FaginAlgorithm(sources, tnorms.MIN, batch_size=1, tracer=tracer)
    with pytest.raises(TransientAccessError):
        algorithm.next_k(1)
    assert_records_are_the_charged_deliveries(tracer, sources)
    algorithm.next_k(1)
    assert sources[0].counter.sorted_accesses == 1
    assert_records_are_the_charged_deliveries(tracer, sources)
