"""The four fixed workloads: generated data, set-up, op stream, oracle.

Every workload serves numpy-generated grade columns through a
benchmark-owned :class:`ColumnSubsystem` (plus the stock
``KnnSubsystem`` on ``knn-vafile``) and is driven from SQL text.  The
plan pools are fixed; ``--seed`` changes the grades, the kNN targets
and the order of the ops in a cycle, so the program only ever
sees generated inputs.

Sizes are set by the run-time cap of the benchmark contract (one run,
set-up included, has to fit in about 30 s): they are the largest at
which a run still collects a few hundred timed queries.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.planner import Strategy
from repro.core.query import Atomic
from repro.core.sources import ArraySource
from repro.index.source import KnnSubsystem
from repro.middleware.engine import MiddlewareEngine
from repro.middleware.interface import Subsystem
from repro.service.service import QueryService, ServiceConfig
from repro.sql.compiler import compile_statement, execute
from repro.sql.parser import parse
from repro.storage import ShardedSource, hash_router, open_memmap, verify_memmap
from repro.storage.memmap import build_memmap

#: tolerance of the oracle for rules whose float fold order may differ
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Plan:
    """One query shape: a conjunction of column atoms under one rule."""

    columns: Tuple[str, ...]
    rule: str = "min"
    near: bool = False  # a kNN atom in front; its target comes from the op
    nra: bool = False  # submitted with prefer=Strategy.NRA (svc-zipf)


@dataclass(frozen=True)
class Op:
    """One operation of the stream: a plan at one k, as SQL text."""

    plan: Plan
    k: int
    target: Optional[str] = None  # kNN target name
    invalidate: Optional[str] = None  # column whose binding the client drops first

    @property
    def sql(self) -> str:
        atoms = [f"Near = '{self.target}'"] if self.plan.near else []
        atoms += [f"{column} = 'x'" for column in self.plan.columns]
        using = "" if self.plan.rule == "min" else f" USING {self.plan.rule}"
        return (
            f"SELECT * FROM objects WHERE {' AND '.join(atoms)}{using} "
            f"STOP AFTER {self.k}"
        )


@dataclass
class Data:
    """What one seed generates (never timed)."""

    ids: List[str]
    columns: Dict[str, np.ndarray]
    vectors: Optional[np.ndarray] = None


@dataclass
class Session:
    """What one set-up leaves behind: the program, bound and ready."""

    engine: MiddlewareEngine
    service: Optional[QueryService] = None
    knn: Optional[KnnSubsystem] = None
    #: per-stage set-up seconds (storage.build_s, index.build_s, ...)
    stages: Dict[str, float] = field(default_factory=dict)
    bytes_on_disk: int = 0

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.engine.close()


class ColumnSubsystem(Subsystem):
    """Serves every ``<column> = <anything>`` atom from a source factory."""

    def __init__(self, name: str, columns, make_source: Callable) -> None:
        super().__init__(name)
        self._columns = frozenset(columns)
        self._make_source = make_source

    def attributes(self):
        return self._columns

    def _bind(self, atom: Atomic):
        return self._make_source(atom.attribute, str(atom))


def _timed(stages: Dict[str, float], name: str, fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - started
    return value


def _conjunctions(columns, arity, rules, ks, **flags) -> List[Tuple[Plan, int]]:
    return [
        (Plan(combo, rule, **flags), k)
        for combo in itertools.combinations(columns, arity)
        for rule in rules
        for k in ks
    ]


class Workload:
    """Base: in-RAM ``ArraySource`` columns, one client, SQL via ``execute``.

    A run is a sequence of *cycles*.  Every cycle sends the same seeded
    op stream from one client, so an op has the same position and does
    the same work in every cycle: its timings can be compared across
    cycles, and access counts and call counts repeat exactly.
    """

    name = ""
    why = ""
    N = 0
    n_columns = 0
    dimension = 0  # > 0 adds a feature matrix for the kNN subsystem

    def __init__(self, scale: float = 1.0) -> None:
        self.n = max(300, int(self.N * scale))
        self.columns = tuple(f"c{i}" for i in range(self.n_columns))

    # -- inputs ----------------------------------------------------------
    def generate(self, seed: int) -> Data:
        rng = np.random.default_rng([seed, 0])
        data = Data(
            ids=[f"o{i}" for i in range(self.n)],
            columns={name: rng.random(self.n) for name in self.columns},
        )
        if self.dimension:
            data.vectors = rng.random((self.n, self.dimension))
        return data

    def pool(self) -> List[Tuple[Plan, int]]:
        """The fixed (plan, k) pool of the workload."""
        raise NotImplementedError

    def streams(self, seed: int, cycle: int) -> List[List[Op]]:
        """One op stream per client (there is one) for the ``cycle``-th
        cycle: the pool in a seeded order that is the same in every cycle."""
        pool = self.pool()
        order = np.random.default_rng([seed, 1]).permutation(len(pool))
        return [[Op(*pool[i]) for i in order]]

    # -- the program -----------------------------------------------------
    def setup(self, data: Data, workdir: str) -> Session:
        """Register, build, bind every atom once.  The caller times it."""
        engine = MiddlewareEngine()
        session = Session(engine)
        self._register(session, data, workdir)
        _timed(session.stages, "engine.cold_bind_s", self._bind_all, engine)
        return session

    def _register(self, session: Session, data: Data, workdir: str) -> None:
        session.engine.register(
            ColumnSubsystem(
                "columns",
                self.columns,
                lambda column, label: ArraySource.from_arrays(
                    data.ids, data.columns[column], name=label
                ),
            )
        )

    def _bind_all(self, engine: MiddlewareEngine) -> None:
        for column in self.columns:
            engine.bind(Atomic(column, "x"))

    def run_op(self, session: Session, op: Op):
        return execute(op.sql, session.engine)

    def after_op(self, session: Session, op: Op) -> None:
        """Untimed bookkeeping between two ops."""


# The pools below have three cost classes, sized so that p50 and p90
# each fall in the middle of one class and not on an edge between two
# (an edge makes a percentile jump with the seed): 25% cheap ops, 50%
# medium ops holding the median, 25% expensive ops holding p90.  Every
# class covers every pair of columns, so a seed's luck with one pair
# averages out.


class ListsTa(Workload):
    name = "lists-ta"
    why = (
        "in-RAM columns, cache and service off: algorithm bookkeeping, kernel "
        "choice, scoring and core.sources do the work; bypasses storage, index, "
        "cache, service"
    )
    N = 20_000
    n_columns = 8

    def pool(self) -> List[Tuple[Plan, int]]:
        pool = _conjunctions(self.columns, 2, ("min",), (10,))
        pool += _conjunctions(self.columns, 2, ("mean", "product"), (50,))
        triples = _conjunctions(self.columns, 3, ("mean",), (10,))[::2]
        pool += [
            (Plan(plan.columns, ("mean", "product")[i % 2]), k)
            for i, (plan, k) in enumerate(triples)
        ]
        return pool


class MemmapShards(Workload):
    name = "memmap-shards"
    why = (
        "each column hash-partitioned into 4 on-disk memmap shards: the K-way "
        "merge, hash-routed searchsorted probes and page cache dominate; "
        "set-up is the storage write side; bypasses index, cache, service"
    )
    N = 25_000
    n_columns = 8
    SHARDS = 4

    def pool(self) -> List[Tuple[Plan, int]]:
        # Two-way only: an access costs ~20 us here, a three-way plan
        # 0.5-3 s, and a run could not collect a hundred of those.
        pool = _conjunctions(self.columns, 2, ("min",), (5,))
        pool += _conjunctions(self.columns, 2, ("mean", "product"), (20,))
        pool += _conjunctions(self.columns, 2, ("min",), (50,))
        return pool

    def _register(self, session: Session, data: Data, workdir: str) -> None:
        stages = session.stages
        router = hash_router(self.SHARDS)
        shard_of = _timed(
            stages,
            "storage.build_s",
            lambda: np.fromiter(
                (router(object_id) for object_id in data.ids),
                dtype=np.intp,
                count=self.n,
            ),
        )
        ids = np.asarray(data.ids)
        directories: Dict[str, List[str]] = {}
        for column, grades in data.columns.items():
            directories[column] = []
            for shard in range(self.SHARDS):
                rows = np.flatnonzero(shard_of == shard)
                directory = os.path.join(workdir, column, f"shard{shard}")
                directories[column].append(directory)
                _timed(
                    stages,
                    "storage.build_s",
                    lambda: build_memmap(
                        directory,
                        ids[rows].tolist(),
                        grades[rows],
                        name=f"{column}.s{shard}",
                    ).close(),
                )
                _timed(stages, "storage.verify_s", verify_memmap, directory)
        session.bytes_on_disk = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(workdir)
            for name in names
        )
        session.engine.register(
            ColumnSubsystem(
                "memmap",
                self.columns,
                lambda column, label: ShardedSource(
                    [open_memmap(d) for d in directories[column]],
                    name=label,
                    router=router,
                ),
            )
        )


class KnnVafile(Workload):
    name = "knn-vafile"
    why = (
        "a fresh kNN target per op over a VA-file: repro.index (bounds, "
        "refinement, KnnSource) dominates and the algorithm does ~100 accesses; "
        "bypasses storage, cache, service"
    )
    N = 100_000
    n_columns = 2
    dimension = 8
    OPS = 100

    def streams(self, seed: int, cycle: int) -> List[List[Op]]:
        # A repeated target would reuse the materialised kNN prefix and
        # measure nothing, so every op of every cycle has its own.  The
        # shape at a position (3 in 4 with a column atom, 1 in 4 alone)
        # is the same in every cycle.
        ops = []
        for i in range(self.OPS):
            plan = Plan(() if i % 4 == 3 else (self.columns[i % 2],), near=True)
            ops.append(Op(plan, 10, target=f"q{seed}.{cycle}.{i}"))
        return [ops]

    def _register(self, session: Session, data: Data, workdir: str) -> None:
        session.knn = _timed(
            session.stages,
            "index.build_s",
            KnnSubsystem,
            "knn",
            data.ids,
            data.vectors,
            index="vafile",
        )
        session.engine.register(session.knn)
        super()._register(session, data, workdir)

    def after_op(self, session: Session, op: Op) -> None:
        # Drop the op's Near binding: RSS stays one query's working set.
        session.engine.invalidate(Atomic("Near", op.target))


class SvcZipf(Workload):
    name = "svc-zipf"
    why = (
        "closed loop, 1 client, QueryService(workers=2), 48-entry cache, Zipf(1.0) "
        "over 70 plans, NRA warm starts, invalidates: admission, hand-off and the "
        "cache's four paths dominate; bypasses storage, index"
    )
    N = 20_000
    n_columns = 12  # 66 pairs: (nearly) every plan has a pair of its own
    WORKERS = 2
    CACHE_ENTRIES = 48
    STREAM = 600  # requests per client and cycle
    INVALIDATE_EVERY = 200
    KS = (5, 10, 20, 20)  # half the requests at the deepest k: p50 is one of them

    def plans(self) -> List[Plan]:
        """70 two-way plans in Zipf-rank order; every fifth rank is submitted
        with prefer=NRA."""
        rng = np.random.default_rng(20260927)
        pairs = list(itertools.combinations(self.columns, 2))
        ta = [Plan(pair, ("mean", "product")[i % 2]) for i, pair in enumerate(pairs)]
        nra = [Plan(pair, "min", nra=True) for pair in pairs[::4]]
        ta_order = iter(rng.permutation(len(ta)).tolist())
        nra_order = iter(rng.permutation(len(nra)).tolist())
        return [
            nra[next(nra_order)] if rank % 5 == 4 else ta[next(ta_order)]
            for rank in range(70)
        ]

    def streams(self, seed: int, cycle: int, clients: int = 1) -> List[List[Op]]:
        """Per client: every rank as often as Zipf(1.0) says, k drawn per
        request, and before every 200th request the client invalidates one
        column's binding (columns taken in turn).

        Which plan has which rank, and the order of ranks and ks, are the
        same on every seed, so the hit and miss pattern of the cache (and
        which entries an invalidate drops) is, too; the seed decides the
        grades.  The measured run has one client: with two, thread
        scheduling on a shared host decides the timings (see the README).
        The traced run sends one cycle from two, for
        ``service.clients2_speedup_x``.
        """
        plans = self.plans()
        weights = 1.0 / np.arange(1, len(plans) + 1)
        counts = np.floor(weights / weights.sum() * self.STREAM + 0.5).astype(int)
        streams = []
        for client in range(clients):
            pattern = np.random.default_rng([20260927, client])
            ranks = pattern.permutation(np.repeat(np.arange(len(plans)), counts))
            ks = pattern.choice(self.KS, size=len(ranks))
            ops = []
            for position, (rank, k) in enumerate(zip(ranks.tolist(), ks.tolist())):
                write = None
                if position % self.INVALIDATE_EVERY == self.INVALIDATE_EVERY - 1:
                    turn = 2 * (position // self.INVALIDATE_EVERY) + client
                    write = self.columns[turn % len(self.columns)]
                ops.append(Op(plans[rank], k, invalidate=write))
            streams.append(ops)
        return streams

    def setup(self, data: Data, workdir: str) -> Session:
        session = super().setup(data, workdir)
        session.engine.configure_cache(max_entries=self.CACHE_ENTRIES)
        session.service = QueryService(
            session.engine, ServiceConfig(workers=self.WORKERS)
        )
        return session

    def submit(self, session: Session, op: Op):
        """Compile SQL text and admit it; returns the ticket."""
        statement = parse(op.sql)
        return session.service.submit(
            compile_statement(statement),
            statement.stop_after,
            prefer=Strategy.NRA if op.plan.nra else None,
        )

    def run_op(self, session: Session, op: Op):
        if op.invalidate is not None:
            session.engine.invalidate(Atomic(op.invalidate, "x"))
        return self.submit(session, op).result()


WORKLOADS = {w.name: w for w in (ListsTa, MemmapShards, KnnVafile, SvcZipf)}


class Oracle:
    """Top-k grade multisets from the raw generated columns, numpy only.

    Shares no code with the repo's algorithms: it aggregates the raw
    columns (min / mean / product / harmonic mean; kNN grades from
    direct distances as ``exp(-d)``), sorts once per plan and compares.
    """

    RULES = {
        "min": lambda m: m.min(axis=0),
        "mean": lambda m: m.sum(axis=0) / m.shape[0],
        "product": lambda m: m.prod(axis=0),
        "harmonic-mean": lambda m: m.shape[0] / (1.0 / m).sum(axis=0),
    }

    def __init__(self, data: Data, resolve_target=None) -> None:
        self._data = data
        self._resolve_target = resolve_target
        self._cache: Dict[Plan, Tuple[np.ndarray, np.ndarray]] = {}

    def _grades(self, op: Op) -> Tuple[np.ndarray, np.ndarray]:
        """(every object's true overall grade, the same sorted descending)."""
        cached = self._cache.get(op.plan)
        if cached is not None:
            return cached
        rows = [self._data.columns[column] for column in op.plan.columns]
        if op.plan.near:
            diff = self._data.vectors - self._resolve_target(op.target)
            rows.insert(0, np.exp(-np.sqrt((diff * diff).sum(axis=1))))
        grades = self.RULES[op.plan.rule](np.vstack(rows))
        value = (grades, np.sort(grades)[::-1])
        if not op.plan.near:  # a kNN target is used once; do not keep it
            self._cache[op.plan] = value
        return value

    def check(self, op: Op, answers: Dict[str, float], grades_exact: bool):
        """None when ``answers`` is the true top-k, else what is wrong."""
        grades, ranked = self._grades(op)
        k = min(op.k, len(grades))
        if len(answers) != k:
            return f"{op.sql}: {len(answers)} answers, expected {k}"
        rows = np.fromiter((int(i[1:]) for i in answers), dtype=np.intp, count=k)
        tol = 0.0 if op.plan.rule == "min" and not op.plan.near else ORACLE_TOL
        true = grades[rows]
        if np.abs(np.sort(true)[::-1] - ranked[:k]).max() > tol:
            return f"{op.sql}: not the top-{k} grade multiset"
        if grades_exact:
            reported = np.fromiter(answers.values(), dtype=float, count=k)
            if np.abs(reported - true).max() > tol:
                return f"{op.sql}: reported grades differ from the true grades"
        return None


def fresh_workdir(root: str, label: str) -> str:
    path = os.path.join(root, label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workroot(workroot: str) -> None:
    """Delete a run's working set, and ``.bench_work`` itself once empty."""
    shutil.rmtree(workroot, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workroot))
    except OSError:  # another run is still using it
        pass
