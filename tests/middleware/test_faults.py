"""The fault injector: seeded schedules, caps, permanent failure modes."""

import threading

import pytest

from repro.core.sources import ArraySource
from repro.errors import AccessError, TransientAccessError
from repro.middleware.faults import FaultInjectingSource, FaultProfile
from repro.middleware.resilience import VirtualClock


def make_list(n=30, name="L"):
    return ArraySource({f"x{i}": (n - i) / n for i in range(n)}, name=name)


def wrap(profile, n=30, name="L", clock=None):
    return FaultInjectingSource(make_list(n, name), profile, clock=clock)


def drain_schedule(source, accesses=40):
    """Outcome ('ok'/'fail') of each of the next `accesses` sorted reads."""
    outcomes = []
    cursor = source.cursor()
    for _ in range(accesses):
        try:
            item = cursor.next()
        except TransientAccessError:
            outcomes.append("fail")
        else:
            outcomes.append("ok" if item is not None else "end")
    return outcomes


def test_schedule_is_deterministic_across_instances():
    profile = FaultProfile(transient_rate=0.4, seed=9)
    first = drain_schedule(wrap(profile))
    second = drain_schedule(wrap(profile))
    assert first == second
    assert "fail" in first  # the schedule actually injects something


def test_schedule_depends_on_seed_and_source_name():
    base = drain_schedule(wrap(FaultProfile(transient_rate=0.4, seed=9)))
    reseeded = drain_schedule(wrap(FaultProfile(transient_rate=0.4, seed=10)))
    renamed = drain_schedule(wrap(FaultProfile(transient_rate=0.4, seed=9), name="M"))
    assert base != reseeded or base != renamed


def test_consecutive_failures_are_capped():
    # rate 1.0 would fail forever without the cap; with cap 2 the pattern
    # is fail, fail, succeed, repeating — so attempts > cap always win.
    source = wrap(FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0))
    outcomes = drain_schedule(source, 9)
    assert outcomes == ["fail", "fail", "ok"] * 3


def test_each_thread_keeps_its_own_failure_streak():
    # Threads A and B take turns on one source in the order A, A, B, A,
    # in lockstep, under rate 1.0 and cap 2.  A's third access is its
    # third in a row, so it must get through whatever B drew meanwhile;
    # with one streak for all threads B's draw would get through and A
    # would fail a third time, past the cap its retries count on.
    source = wrap(FaultProfile(transient_rate=1.0, max_consecutive=2, seed=0))
    schedule = ["A", "A", "B", "A"]
    outcomes = {"A": [], "B": []}
    barrier = threading.Barrier(2, timeout=30)

    def run(me):
        for owner in schedule:
            barrier.wait()
            if owner == me:
                try:
                    source.random_access("x0")
                except TransientAccessError:
                    outcomes[me].append("fail")
                else:
                    outcomes[me].append("ok")
            barrier.wait()

    threads = [threading.Thread(target=run, args=(me,)) for me in outcomes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert outcomes == {"A": ["fail", "fail", "ok"], "B": ["fail"]}
    assert source.injected.transients == 3


def test_failed_access_charges_nothing():
    source = wrap(FaultProfile(transient_rate=1.0, max_consecutive=1, seed=0))
    cursor = source.cursor()
    with pytest.raises(TransientAccessError):
        cursor.next()
    assert source.counter.sorted_accesses == 0
    assert cursor.next() is not None
    assert source.counter.sorted_accesses == 1


def test_peeks_never_fail():
    source = wrap(FaultProfile(transient_rate=1.0, max_consecutive=10**6, seed=0))
    assert len(source.cursor().peek_batch(10)) == 10
    assert source.counter.sorted_accesses == 0


def test_break_random_after_counts_served_probes():
    source = wrap(FaultProfile(break_random_after=3, seed=0))
    for i in range(3):
        source.random_access(f"x{i}")
    with pytest.raises(TransientAccessError, match="permanently down"):
        source.random_access("x3")
    with pytest.raises(TransientAccessError):  # permanent, not transient
        source.random_access("x3")
    # sorted access still works in this regime (the NRA scenario)
    assert source.cursor().next() is not None


def test_break_random_is_prospective_for_bulk_probes():
    # A bulk probe that would cross the budget fails whole: the budget
    # can never be over-served through one big random_access_many.
    source = wrap(FaultProfile(break_random_after=3, seed=0))
    with pytest.raises(TransientAccessError):
        source.random_access_many([f"x{i}" for i in range(5)])
    assert source.random_served == 0
    assert source.random_access_many(["x0", "x1"]) == {"x0": 1.0, "x1": 29 / 30}


def test_kill_after_stops_everything():
    source = wrap(FaultProfile(kill_after=4, seed=0))
    cursor = source.cursor()
    assert len(cursor.next_batch(4)) == 4
    with pytest.raises(TransientAccessError, match="dead"):
        cursor.next()
    with pytest.raises(TransientAccessError, match="dead"):
        source.random_access("x0")


def test_kill_after_is_prospective_for_batches():
    source = wrap(FaultProfile(kill_after=4, seed=0))
    cursor = source.cursor()
    with pytest.raises(TransientAccessError, match="dead"):
        cursor.next_batch(5)  # would cross the budget: atomic refusal
    assert source.served == 0


def test_final_short_batch_not_refused_for_phantom_items():
    # Requesting past the end of the list must count only the items the
    # batch would actually ship.
    source = wrap(FaultProfile(kill_after=5, seed=0), n=5)
    cursor = source.cursor()
    assert len(cursor.next_batch(100)) == 5  # 5 real items == budget


def test_latency_spike_advances_the_clock():
    clock = VirtualClock()
    source = wrap(
        FaultProfile(latency_rate=1.0, latency=0.25, seed=0), clock=clock
    )
    source.cursor().next()
    assert clock.now() == pytest.approx(0.25)
    assert source.injected.latency_spikes == 1


def test_parse_presets_and_overrides():
    assert FaultProfile.parse("flaky").transient_rate == 0.3
    refined = FaultProfile.parse("flaky,seed=7")
    assert refined.transient_rate == 0.3 and refined.seed == 7
    pairs = FaultProfile.parse("transient=0.2,kill-after=100")
    assert pairs.transient_rate == 0.2 and pairs.kill_after == 100
    assert FaultProfile.parse("no-random").break_random_after == 0


def test_parse_rejects_unknown_presets_and_keys():
    with pytest.raises(AccessError):
        FaultProfile.parse("spicy")
    with pytest.raises(AccessError):
        FaultProfile.parse("verbosity=11")


def test_profile_validates_rates():
    with pytest.raises(AccessError):
        FaultProfile(transient_rate=1.5)
    with pytest.raises(AccessError):
        FaultProfile(max_consecutive=-1)
