"""Failure injection: misbehaving subsystems and how the stack reacts."""

import numpy as np
import pytest

from repro.core.fagin import fagin_top_k
from repro.core.sources import ArraySource, GradedSource, VerifyingSource
from repro.errors import AccessError, GradeError
from repro.scoring import tnorms
from repro.workloads.graded_lists import independent
from repro.core.sources import sources_from_columns


class OutOfOrderSource(GradedSource):
    """A subsystem whose 'sorted' stream has an inversion at position 2."""

    def __init__(self) -> None:
        super().__init__("liar")
        self._ids = ["a", "b", "c", "d"]
        self._column = np.array([0.9, 0.4, 0.8, 0.2])  # inversion at c
        self._grades = dict(zip(self._ids, self._column.tolist()))

    def _columns_range(self, start, count):
        return self._ids[start : start + count], self._column[start : start + count]

    def _grades_of_many(self, object_ids):
        return np.array([self._grades[object_id] for object_id in object_ids])

    def __len__(self):
        return len(self._ids)


class InconsistentSource(ArraySource):
    """Random access disagrees with the sorted stream (§4.2's ID worry)."""

    def _grades_of_many(self, object_ids):
        return super()._grades_of_many(object_ids) * 0.5


def test_verifier_passes_well_behaved_sources():
    table = independent(100, 2, seed=1)
    verified = [VerifyingSource(s) for s in sources_from_columns(table)]
    plain = fagin_top_k(sources_from_columns(table), tnorms.MIN, 5)
    result = fagin_top_k(verified, tnorms.MIN, 5)
    assert result.answers.same_grade_multiset(plain.answers)


def test_verifier_catches_sorted_order_violation():
    source = VerifyingSource(OutOfOrderSource())
    cursor = source.cursor()
    cursor.next()
    cursor.next()
    with pytest.raises(AccessError) as excinfo:
        cursor.next()
    assert "sorted order" in str(excinfo.value)


def test_verifier_catches_sorted_random_inconsistency():
    inner = InconsistentSource({"a": 0.9, "b": 0.4}, name="two-faced")
    source = VerifyingSource(inner)
    cursor = source.cursor()
    cursor.next()  # delivers a at (fake) 0.45 via the overridden grade?
    # sorted access reads the true list; random access returns half.
    with pytest.raises(AccessError) as excinfo:
        source.random_access("a")
    assert "inconsistent" in str(excinfo.value)


def test_verifier_random_access_without_sorted_history_is_trusted():
    inner = InconsistentSource({"a": 0.9}, name="unseen")
    source = VerifyingSource(inner)
    # nothing delivered under sorted access yet: no basis to contradict
    assert source.random_access("a") == pytest.approx(0.45)


def test_unverified_misbehaving_source_corrupts_silently():
    """The motivation: without the wrapper, the same inversion produces a
    *wrong answer*, not an error."""
    bad = OutOfOrderSource()
    good = ArraySource({"a": 0.5, "b": 0.95, "c": 0.9, "d": 0.1}, name="ok")
    result = fagin_top_k([bad, good], tnorms.MIN, 1)
    # The true best under min is c (min(0.8, 0.9) = 0.8); A0 may or may
    # not find it depending on where the inversion hides — the point is
    # simply that no error surfaces.
    assert len(result.answers) == 1


def test_grade_range_violations_surface_at_construction():
    with pytest.raises(GradeError):
        ArraySource({"a": 1.7}, name="out-of-range")


def test_universe_mismatch_is_rejected_before_running():
    from repro.errors import AccessError as AE

    lists = [
        ArraySource({"a": 0.5, "b": 0.4}, name="two"),
        ArraySource({"a": 0.5}, name="one"),
    ]
    with pytest.raises(AE):
        fagin_top_k(lists, tnorms.MIN, 1)


def test_verifier_shares_accounting():
    inner = ArraySource({"a": 0.9, "b": 0.4}, name="L")
    source = VerifyingSource(inner)
    source.cursor().next()
    source.random_access("b")
    assert inner.counter.snapshot() == (1, 1)
