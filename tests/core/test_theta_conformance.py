"""Conformance suite for TA-θ / NRA-θ (Fagin–Lotem–Naor approximation).

Three contracts, property-tested over the shared universe of tie-dense
graded databases:

* **θ = 1.0 is free.**  Passing ``theta=1.0`` is byte-identical to not
  passing it at all — same answers, same charged costs, same traces —
  across combine forms, storage backends, and worker counts.  The knob must
  cost nothing when it is off.
* **θ > 1 keeps the FLN guarantee on true grades.**  For every returned
  object y and every excluded object z, ``theta * grade(y) >= grade(z)``
  holds for the *true* overall grades (NRA-θ may report lower-bound
  grades, so the check deliberately re-grades returned ids with the
  oracle).  The attached certificate never overstates quality: its
  ``achieved`` ratio is itself a valid bound and its intervals bracket
  the true grades.
* **Cost is monotone in θ.**  Relaxing the stop test can only stop
  earlier: ``cost(θ1) >= cost(θ2)`` whenever ``θ1 < θ2``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sources import sources_from_columns
from repro.core.threshold import nra_top_k, threshold_top_k
from repro.observability import QueryTracer
from repro.parallel import ParallelAccessExecutor
from repro.scoring import means, tnorms
from repro.scoring.owa import owa_mean
from tests.cache.helpers import answer_pairs
from tests.strategies import graded_databases, pick_k, with_combine

THETAS = (1.01, 1.05, 1.1, 1.5, 2.0)

#: (combine, backend, workers) — a small cross-section of the execution
#: matrix (``combine`` as in ``tests.strategies.COMBINES``); the
#: dedicated combine/storage suites cover each axis in depth.
CONFIGS = (
    ("scalar", "list", 1),
    ("scalar", "array", 3),
    ("vector", "array", 1),
    ("vector", "list", 3),
)


def pick_rule(m, index):
    """Monotone catalog rules with a native batch form."""
    rules = (tnorms.MIN, tnorms.PRODUCT, means.MEAN, owa_mean(m))
    return rules[index % len(rules)]


def run_ta(sources, rule, k, *, theta=None, tracer=None, executor=None):
    kwargs = {} if theta is None else {"theta": theta}
    return threshold_top_k(
        sources, rule, k, batch_size=3, tracer=tracer, executor=executor,
        **kwargs,
    )


def run_nra(sources, rule, k, *, theta=None, tracer=None, executor=None):
    kwargs = {} if theta is None else {"theta": theta}
    return nra_top_k(
        sources, rule, k, batch_size=3, tracer=tracer, executor=executor,
        **kwargs,
    )


ALGORITHMS = (("ta", run_ta), ("nra", run_nra))


def true_grade_table(table, rule):
    return {obj: rule(list(row)) for obj, row in table.items()}


def exact_kth_grade(table, rule, k):
    grades = sorted(true_grade_table(table, rule).values(), reverse=True)
    return grades[min(k, len(grades)) - 1]


def scrub(events):
    """Trace events without wall-clock fields (the only nondeterminism)."""
    return [
        {key: value for key, value in event.items() if key != "seconds"}
        for event in events
    ]


# ---------------------------------------------------------------------------
# θ = 1.0 is byte-identical to the exact path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("combine,backend,workers", CONFIGS)
@settings(deadline=None, max_examples=15)
@given(
    data=graded_databases(max_n=16),
    rule_index=st.integers(0, 3),
    k_selector=st.integers(0, 2),
)
def test_theta_one_is_byte_identical(combine, backend, workers, data,
                                     rule_index, k_selector):
    table, m = data
    rule = with_combine(pick_rule(m, rule_index), combine)
    k = pick_k(table, k_selector)
    executor = ParallelAccessExecutor(workers) if workers > 1 else None
    try:
        for name, run in ALGORITHMS:
            reference_tracer = QueryTracer()
            reference = run(
                sources_from_columns(table, backend=backend), rule, k,
                tracer=reference_tracer, executor=executor,
            )
            tracer = QueryTracer()
            result = run(
                sources_from_columns(table, backend=backend), rule, k,
                theta=1.0, tracer=tracer, executor=executor,
            )
            label = f"{name} combine={combine} backend={backend} workers={workers}"
            assert answer_pairs(result) == answer_pairs(reference), label
            assert result.cost == reference.cost, label
            assert result.sorted_depth == reference.sorted_depth, label
            assert result.grades_exact == reference.grades_exact, label
            assert result.approximation is None, label
            assert reference.approximation is None, label
            assert scrub(tracer.events) == scrub(reference_tracer.events), label
    finally:
        if executor is not None:
            executor.shutdown()


# ---------------------------------------------------------------------------
# θ > 1: FLN guarantee on TRUE grades, sound certificates
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(
    data=graded_databases(max_n=16),
    rule_index=st.integers(0, 3),
    k_selector=st.integers(0, 2),
    theta_index=st.integers(0, len(THETAS) - 1),
)
def test_theta_guarantee_holds_on_true_grades(data, rule_index, k_selector,
                                              theta_index):
    table, m = data
    rule = pick_rule(m, rule_index)
    k = pick_k(table, k_selector)
    theta = THETAS[theta_index]
    truth = true_grade_table(table, rule)
    kth_exact = exact_kth_grade(table, rule, k)
    for name, run in ALGORITHMS:
        result = run(
            sources_from_columns(table, backend="list"), rule, k, theta=theta,
        )
        assert len(result.answers) == min(k, len(table)), name
        for item in result.answers:
            assert theta * truth[item.object_id] >= kth_exact - 1e-9, (
                f"{name}: returned {item.object_id} with true grade "
                f"{truth[item.object_id]} but theta*grade < exact kth "
                f"{kth_exact} at theta={theta} (table={table})"
            )


@settings(deadline=None, max_examples=50)
@given(
    data=graded_databases(max_n=16),
    rule_index=st.integers(0, 3),
    k_selector=st.integers(0, 2),
    theta_index=st.integers(0, len(THETAS) - 1),
)
def test_certificate_never_overstates_quality(data, rule_index, k_selector,
                                              theta_index):
    table, m = data
    rule = pick_rule(m, rule_index)
    k = pick_k(table, k_selector)
    theta = THETAS[theta_index]
    truth = true_grade_table(table, rule)
    for name, run in ALGORITHMS:
        result = run(
            sources_from_columns(table, backend="list"), rule, k, theta=theta,
        )
        certificate = result.approximation
        assert certificate is not None, name
        assert certificate.theta == theta
        assert not certificate.anytime
        # Clean θ-stops certify at most θ (up to the bound tolerance).
        if certificate.kth_grade > 0:
            assert certificate.achieved <= theta + 1e-6, name
        returned = {item.object_id for item in result.answers}
        excluded_best = max(
            (grade for obj, grade in truth.items() if obj not in returned),
            default=0.0,
        )
        # The certified ratio must itself satisfy the FLN inequality on
        # true grades — an overstated (too small) ratio would break it.
        for item in result.answers:
            assert (
                certificate.achieved * truth[item.object_id]
                >= excluded_best - 1e-9
            ), (
                f"{name}: certificate claims ratio {certificate.achieved} "
                f"but {item.object_id} (true {truth[item.object_id]}) vs "
                f"excluded best {excluded_best} disproves it"
            )
        if certificate.intervals is not None:
            for obj, (lower, upper) in certificate.intervals.items():
                assert lower - 1e-12 <= truth[obj] <= upper + 1e-12, (
                    f"{name}: interval ({lower}, {upper}) misses true "
                    f"grade {truth[obj]} of {obj}"
                )


# ---------------------------------------------------------------------------
# Cost monotone in θ
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    data=graded_databases(max_n=16),
    rule_index=st.integers(0, 3),
    k_selector=st.integers(0, 2),
)
def test_access_cost_is_monotone_in_theta(data, rule_index, k_selector):
    table, m = data
    rule = pick_rule(m, rule_index)
    k = pick_k(table, k_selector)
    for name, run in ALGORITHMS:
        costs = []
        for theta in (1.0,) + THETAS:
            result = run(
                sources_from_columns(table, backend="list"), rule, k,
                theta=theta,
            )
            costs.append(result.database_access_cost)
        for tighter, looser in zip(costs, costs[1:]):
            assert tighter >= looser, (
                f"{name}: costs {costs} not non-increasing over "
                f"theta=(1.0,)+{THETAS} (table={table})"
            )


# ---------------------------------------------------------------------------
# Deterministic pins
# ---------------------------------------------------------------------------


def test_theta_below_one_rejected():
    sources = sources_from_columns({"a": (0.5, 0.5)}, backend="list")
    with pytest.raises(ValueError):
        threshold_top_k(sources, tnorms.MIN, 1, theta=0.9)
    with pytest.raises(ValueError):
        nra_top_k(sources, tnorms.MIN, 1, theta=0.5)


def test_theta_one_identical_on_memmap_sharded(tmp_path):
    """The storage axis the hypothesis matrix skips: memmap + shards."""
    table = {
        f"o{i:02d}": (round(0.05 * ((i * 7) % 20), 2),
                      round(0.05 * ((i * 13) % 20), 2))
        for i in range(40)
    }
    for name, run in ALGORITHMS:
        reference = run(
            sources_from_columns(table, backend="list"), tnorms.MIN, 5,
        )
        result = run(
            sources_from_columns(
                table, backend="memmap", shards=3, directory=str(tmp_path / name)
            ),
            tnorms.MIN,
            5,
            theta=1.0,
        )
        assert answer_pairs(result) == answer_pairs(reference), name
        assert result.cost == reference.cost, name
        assert result.approximation is None


def test_exhausted_theta_run_certifies_exactly():
    """Draining every list under θ > 1 proves achieved = 1.0."""
    table = {"a": (1.0, 1.0), "b": (0.5, 0.5), "c": (0.0, 0.0)}
    for name, run in ALGORITHMS:
        result = run(
            sources_from_columns(table, backend="list"), tnorms.MIN,
            len(table), theta=2.0,
        )
        certificate = result.approximation
        assert certificate is not None, name
        assert certificate.achieved == 1.0, name


def test_theta_trace_events_only_when_active():
    table = {f"o{i}": (0.1 * i % 1.0, 0.07 * i % 1.0) for i in range(20)}
    for name, run in ALGORITHMS:
        silent = QueryTracer()
        run(sources_from_columns(table, backend="list"), tnorms.MIN, 3,
            theta=1.0, tracer=silent)
        active = QueryTracer()
        run(sources_from_columns(table, backend="list"), tnorms.MIN, 3,
            theta=1.5, tracer=active)
        names = [e.get("name") for e in silent.events if e["type"] == "event"]
        assert "theta-certified" not in names, name
        names = [e.get("name") for e in active.events if e["type"] == "event"]
        assert "theta-certified" in names, name
