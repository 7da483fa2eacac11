"""Parallel multi-subsystem access scheduling (section 4's cost model).

The paper charges database access cost across *m independent
subsystems*; Fagin–Lotem–Naor note explicitly that the sorted accesses
of one round "can be done in parallel" without affecting
instance-optimality, and a real Garlic-style middleware talks to remote
repositories whose latencies overlap for free.  Serially issued, one
algorithm round costs the *sum* of the m per-subsystem latencies;
fanned out, it costs the *max*.

:class:`ParallelAccessExecutor` is the round-based scheduler the
algorithms use for that fan-out.  The unit of work is one *fan-out*: a
short list of independent access thunks — the m sorted-access pops of a
TA/A0/NRA/CA round, or the per-list bulk random probes for a round's
newly seen objects.  :func:`fan_out` runs them (concurrently when the
executor has more than one worker, inline otherwise) and returns one
:class:`Outcome` per thunk **in submission order**, so callers merge
results deterministically by (list index, position) and the answers,
tie-breaks, charged access counts, traces, and resilience reports are
byte-identical to serial execution.

The engine's session executor
(:meth:`~repro.middleware.engine.MiddlewareEngine.configure_parallelism`,
the CLI's ``--max-workers``) is the one source of such executors, shared
by direct queries and every query-service worker.  Fan-out happens only
across lists: work inside one list (a sharded list's refills, say) runs
serially on whichever thread reads it, so fan-outs never nest.

Determinism contract
--------------------
* Thunks are independent: none waits on another, so any worker count
  ``>= 1`` drains a fan-out without deadlock.
* Workers only *perform accesses*, billed to the coordinating thread
  (:func:`repro.core.cost.run_billed_to`), so its cost meters count
  them.  All state merging — grade bookkeeping, trace emission, cost
  interpretation — happens in the coordinating thread, in submission
  order, after the join.
* Exceptions are captured per thunk and surfaced in submission order;
  the first failing index is handled exactly as serial execution would
  handle it (degradation, fallback, or re-raise).  Under faults a
  parallel run may *charge* accesses a serial run would have skipped
  (thunks after a serial abort point have already run), which never
  affects answer exactness — only fault-free runs promise byte-equal
  cost, and the conformance suite pins exactly that.
* Side effects a thunk announces through :func:`deliver` (the
  resilience layer's observer events) are held by the worker and run
  on the coordinating thread after the join, thunk by thunk in
  submission order — where a serial run makes them — so traces do not
  depend on which worker finished first.
* ``max_workers=1`` (or ``executor=None``) runs every thunk inline in
  the calling thread: the serial fallback, with no pool and no threads.

``before_access`` is a test seam: a callable invoked as
``before_access(index)`` immediately before thunk ``index`` runs (in
the worker that runs it).  The concurrency stress suite injects seeded
jitter there to fuzz worker interleavings; production code leaves it
``None``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.core.cost import billed_thread, run_billed_to

T = TypeVar("T")

#: Thunks a fan-out runs: zero-argument callables performing one access.
AccessThunk = Callable[[], T]


class Outcome:
    """Result of one thunk of a fan-out: a value or a captured error.

    ``ran`` is False only for thunks skipped by a serial
    ``stop_on_error`` fan-out (parallel fan-outs run everything).
    Callers must check ``error`` before using ``value``.
    """

    __slots__ = ("value", "error", "ran")

    def __init__(self, value=None, error: Optional[Exception] = None, ran: bool = True) -> None:
        self.value = value
        self.error = error
        self.ran = ran

    @property
    def ok(self) -> bool:
        return self.ran and self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.ran:
            return "<Outcome skipped>"
        if self.error is not None:
            return f"<Outcome error={self.error!r}>"
        return f"<Outcome value={self.value!r}>"


#: per worker thread, while it runs a thunk: the calls :func:`deliver`
#: holds for the coordinating thread
_held = threading.local()


def deliver(callback: Callable, *args) -> None:
    """Call ``callback(*args)`` now or, from a worker of a parallel
    fan-out, on the coordinating thread once the fan-out has joined, in
    submission order."""
    held = getattr(_held, "calls", None)
    if held is None:
        callback(*args)
    else:
        held.append(partial(callback, *args))


def _run_held(thunk: AccessThunk, hook, index: int):
    """:func:`_run_one` in a worker: its outcome, and the calls it held."""
    _held.calls = held = []
    try:
        return _run_one(thunk, hook, index), held
    finally:
        _held.calls = None


def _run_one(thunk: AccessThunk, hook, index: int) -> Outcome:
    try:
        if hook is not None:
            hook(index)
        return Outcome(thunk())
    except Exception as error:  # noqa: BLE001 - re-raised by the merge loop
        return Outcome(None, error)


def _run_serial(
    thunks: Sequence[AccessThunk], hook, stop_on_error: bool
) -> List[Outcome]:
    """Run thunks inline, in order; with ``stop_on_error`` the thunks
    after the first error are returned as skipped outcomes."""
    outcomes: List[Outcome] = []
    failed = False
    for index, thunk in enumerate(thunks):
        if failed and stop_on_error:
            outcomes.append(Outcome(None, None, ran=False))
            continue
        outcome = _run_one(thunk, hook, index)
        outcomes.append(outcome)
        failed = failed or outcome.error is not None
    return outcomes


class ParallelAccessExecutor:
    """Round scheduler fanning independent subsystem accesses across threads.

    Parameters
    ----------
    max_workers:
        Concurrency of one fan-out.  ``1`` (the default) is the serial
        fallback: thunks run inline in the calling thread, in order,
        with no thread pool at all — the zero-overhead configuration
        the conformance suite measures serial equivalence against.
    before_access:
        Optional ``hook(index)`` run immediately before each thunk, in
        whichever thread runs it.  A test seam for interleaving fuzzing;
        it must not raise in production use (a raise is captured as that
        thunk's error).

    The thread pool is created lazily on the first parallel fan-out and
    shut down by :meth:`shutdown` (or the context manager).  Executors
    are reusable across queries — the engine keeps one per configured
    session — and safe to drive from *multiple* coordinating threads
    concurrently: each :meth:`run` call owns its futures and merges only
    its own outcomes, so every worker of a
    :class:`~repro.service.QueryService` shares the engine's one pool.
    Distinct executors are fully independent.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        before_access: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.before_access = before_access
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether fan-outs may actually overlap accesses."""
        return self.max_workers > 1

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-access",
                )
            return self._pool

    # ------------------------------------------------------------------
    def run(
        self, thunks: Sequence[AccessThunk], *, stop_on_error: bool = False
    ) -> List[Outcome]:
        """Run a fan-out; outcomes come back in submission order.

        ``stop_on_error`` reproduces serial short-circuiting *in serial
        mode only*: when a thunk errors, the remaining thunks are
        returned as skipped outcomes (``ran=False``) instead of being
        run — exactly what a serial loop that raises at thunk ``i``
        would have done.  A parallel fan-out always runs every thunk
        (they are already in flight when the error surfaces); the merge
        loop still observes the first error at the same index.
        """
        hook = self.before_access
        if not self.parallel or len(thunks) <= 1:
            return _run_serial(thunks, hook, stop_on_error)
        pool = self._ensure_pool()
        thread = billed_thread()
        futures = [
            pool.submit(
                run_billed_to, thread, partial(_run_held, thunk, hook, index)
            )
            for index, thunk in enumerate(thunks)
        ]
        outcomes = []
        for future in futures:
            outcome, held = future.result()
            for call in held:
                call()
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the worker threads (idempotent; executor unusable
        for parallel fan-outs afterwards only if re-entered — a fresh
        pool is created lazily on the next parallel run)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelAccessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"<ParallelAccessExecutor max_workers={self.max_workers}>"


def fan_out(
    executor: Optional[ParallelAccessExecutor],
    thunks: Sequence[AccessThunk],
    *,
    stop_on_error: bool = False,
) -> List[Outcome]:
    """Run one fan-out under an optional executor.

    ``executor=None`` is the classic serial path — thunks run inline,
    in order, honoring ``stop_on_error`` — so algorithm call sites can
    use one code shape for both modes.
    """
    if executor is not None:
        return executor.run(thunks, stop_on_error=stop_on_error)
    return _run_serial(thunks, None, stop_on_error)


def raise_first_error(outcomes: Sequence[Outcome]) -> None:
    """Re-raise the first (by submission index) captured error, if any.

    The merge-side helper for call sites with no degradation handling:
    serial execution would have raised at that index, so the parallel
    merge does too.
    """
    for outcome in outcomes:
        if outcome.ran and outcome.error is not None:
            raise outcome.error
