"""E24 — storage backends: out-of-core memmap columns vs in-RAM arrays.

Paper context (§4): the access model charges only sorted and random
accesses, so an instance-optimal algorithm touches a vanishing fraction
of each ranked list as N grows.  The storage refactor makes that
asymptotic real: a top-k query over N=10^7 on-disk memmap columns must
answer with peak RSS far below materializing the lists in RAM, at the
same uniform cost (the answers, tie-breaks, and charges are
byte-identical across backends by construction — the conformance suite
enforces it, this benchmark spot-checks it end to end).

Measured, each scenario in its own subprocess.  ``ru_maxrss`` is a
sticky high-water mark — and on Linux a forked child *inherits* the
parent's watermark, because for the instant between fork and exec the
child's address space is the parent's.  So not just the measurements
but also the dataset *builds* run in child processes: the coordinating
parent stays a few tens of MB and never poisons a child's baseline.

* cost and wall-clock of TA top-10 (m=2, min) at N in {10^5, 10^6,
  10^7}, ArraySource vs MemmapSource over identical columns;
* sharded scatter-gather (K=4 memmap shards per column) vs the
  monolithic layout at N=10^6 — identical charges, per-shard roll-up;
* a 10^8-row synthetic build + chunked verify + query spot check
  (~1.6 GB on disk, query RSS stays flat).

Acceptance: at N=10^7 the memmap query's peak RSS is below 25% of the
ArraySource footprint serving the same query.  Results are written to
BENCH_storage.json next to this file.  ``--smoke`` runs a tiny-N
cross-backend parity check only (CI-sized, no subprocesses).
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.sources import ArraySource, sources_from_columns
from repro.core.threshold import threshold_top_k
from repro.harness.reporting import format_table
from repro.scoring import tnorms
from repro.storage import (
    ShardedSource,
    build_memmap,
    build_synthetic_memmap,
    hash_router,
    open_memmap,
    verify_memmap,
)

K = 10
BATCH = 512
SWEEP_NS = (100_000, 1_000_000, 10_000_000)
SHARD_N = 1_000_000
SHARDS = 4
SPOT_N = 100_000_000
RSS_CEILING = 0.25
SMOKE_N = 500
OUTPUT = Path(__file__).parent / "BENCH_storage.json"

# Odd multiplier => bijective mod 2^32: the second column is a distinct
# pseudo-random permutation of [0, 1) grades, so TA's random-access
# phase does real cross-column work.
MIXER = 2654435761


def second_column_grades(ids):
    return ((ids.astype(np.uint64) * MIXER) % (1 << 32)) / float(1 << 32)


def column_dirs(root, n):
    return os.path.join(root, f"n{n}", "col0"), os.path.join(root, f"n{n}", "col1")


def build_datasets(root, n):
    """Two memmap columns over ids 0..n-1: one synthetic (descending
    grades = ascending ids), one mixed.  The on-disk build is the shared
    ground truth every backend loads from."""
    dir0, dir1 = column_dirs(root, n)
    build_synthetic_memmap(dir0, n)
    ids = np.arange(n, dtype=np.int64)
    build_memmap(dir1, ids.tolist(), second_column_grades(ids), name="col1")


def build_shard_dirs(root, n, shards):
    """Hash-partition both columns into per-shard memmap directories
    using the same router ShardedSource will route probes with."""
    dir0, dir1 = column_dirs(root, n)
    route = hash_router(shards)
    ids = np.arange(n, dtype=np.int64)
    assignment = np.fromiter(
        (route(int(i)) for i in ids), dtype=np.int64, count=n
    )
    grades0 = (n - ids) / (n + 1)  # build_synthetic_memmap's formula
    grades1 = second_column_grades(ids)
    for column, grades in (("col0", grades0), ("col1", grades1)):
        for shard in range(shards):
            members = ids[assignment == shard]
            build_memmap(
                os.path.join(root, f"n{n}-shards", column, f"shard{shard}"),
                members.tolist(),
                grades[assignment == shard],
                name=f"{column}.s{shard}",
            )


# ------------------------------------------------------------- children


def child_build(params):
    build_datasets(params["root"], params["n"])
    return {"built": params["n"]}


def child_build_shards(params):
    build_shard_dirs(params["root"], params["n"], params["shards"])
    return {"built": params["n"], "shards": params["shards"]}


def load_array_source(directory, name):
    """The in-RAM representation: ids and grades pulled fully off disk
    into an ArraySource (python id lists + object codes + numpy columns)."""
    source = open_memmap(directory)
    ids = np.asarray(source._sorted_ids).tolist()
    grades = np.asarray(source._sorted_grades).copy()
    return ArraySource.from_arrays(ids, grades, name=name, presorted=True)


def open_sources(root, n, backend):
    dir0, dir1 = column_dirs(root, n)
    if backend == "array":
        return [load_array_source(dir0, "col0"), load_array_source(dir1, "col1")]
    if backend == "memmap":
        return [open_memmap(dir0), open_memmap(dir1)]
    if backend == "sharded":
        route = hash_router(SHARDS)
        return [
            ShardedSource(
                [
                    open_memmap(
                        os.path.join(root, f"n{n}-shards", column, f"shard{i}")
                    )
                    for i in range(SHARDS)
                ],
                name=column,
                router=route,
            )
            for column in ("col0", "col1")
        ]
    raise ValueError(backend)


def child_query(params):
    """One measured scenario: open (or load) the sources, run TA top-K,
    report timings, charges, answers, and this process's peak RSS."""
    root, n, backend = params["root"], params["n"], params["backend"]
    started = time.perf_counter()
    sources = open_sources(root, n, backend)
    open_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = threshold_top_k(sources, tnorms.MIN, K, batch_size=BATCH)
    query_seconds = time.perf_counter() - started
    report = {
        "backend": backend,
        "n": n,
        "open_seconds": round(open_seconds, 4),
        "query_seconds": round(query_seconds, 4),
        "cost": result.cost.database_access_cost,
        "sorted": result.cost.sorted_access_cost,
        "random": result.cost.random_access_cost,
        "sorted_depth": result.sorted_depth,
        "answers": [[str(i.object_id), i.grade] for i in result.answers],
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
    }
    if backend == "sharded":
        report["shard_rollup"] = [s.shard_stats() for s in sources]
        for source in sources:
            rolled = [
                sum(entry["sorted"] for entry in source.shard_stats()),
                sum(entry["random"] for entry in source.shard_stats()),
            ]
            assert tuple(rolled) == source.counter.snapshot(), source.name
    return report


def child_spot_build(params):
    """10^8 build + chunked verify (out-of-core throughout)."""
    directory = params["directory"]
    started = time.perf_counter()
    build_synthetic_memmap(directory, SPOT_N)
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    report = verify_memmap(directory)
    verify_seconds = time.perf_counter() - started
    size = sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
    )
    return {
        "n": SPOT_N,
        "build_seconds": round(build_seconds, 2),
        "verify_seconds": round(verify_seconds, 2),
        "verify_checks": report["checks"],
        "disk_bytes": size,
    }


def child_spot_query(params):
    """Top-k against the 10^8 column in a fresh process: the working
    set is the top pages only, so RSS stays flat."""
    source = open_memmap(params["directory"])
    started = time.perf_counter()
    result = threshold_top_k([source], tnorms.MIN, K, batch_size=BATCH)
    query_seconds = time.perf_counter() - started
    top = next(iter(result.answers))
    return {
        "n": SPOT_N,
        "query_seconds": round(query_seconds, 4),
        "cost": result.cost.database_access_cost,
        "top_grade": top.grade,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
    }


CHILDREN = {
    "build": child_build,
    "build-shards": child_build_shards,
    "query": child_query,
    "spot-build": child_spot_build,
    "spot-query": child_spot_query,
}


def run_child(kind, params):
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, "--params", json.dumps(params)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {kind} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------- full sweep


def full_run():
    root = tempfile.mkdtemp(prefix="repro-e24-")
    sweep = []
    try:
        for n in SWEEP_NS:
            print(f"building N={n:,} columns...", flush=True)
            run_child("build", {"root": root, "n": n})
            for backend in ("array", "memmap"):
                sweep.append(run_child("query", {
                    "root": root, "n": n, "backend": backend,
                }))
                print(f"  {backend}: {sweep[-1]['query_seconds']}s, "
                      f"rss {sweep[-1]['peak_rss_bytes'] / 1e6:.0f} MB",
                      flush=True)
            parity = {json.dumps(r["answers"]) for r in sweep[-2:]}
            assert len(parity) == 1, f"backends disagree at N={n}"
            assert sweep[-1]["cost"] == sweep[-2]["cost"], n

        print(f"building N={SHARD_N:,} shard directories...", flush=True)
        run_child("build-shards", {"root": root, "n": SHARD_N, "shards": SHARDS})
        sharded = run_child("query", {
            "root": root, "n": SHARD_N, "backend": "sharded",
        })
        monolithic = next(
            r for r in sweep if r["n"] == SHARD_N and r["backend"] == "memmap"
        )
        assert sharded["answers"] == monolithic["answers"]
        assert sharded["cost"] == monolithic["cost"], (
            "sharded scatter-gather changed the charged cost"
        )

        spot_dir = os.path.join(root, "spot")
        print(f"N={SPOT_N:,} synthetic spot check...", flush=True)
        spot_build = run_child("spot-build", {"directory": spot_dir})
        spot_query = run_child("spot-query", {"directory": spot_dir})
    finally:
        shutil.rmtree(root, ignore_errors=True)

    by_key = {(r["n"], r["backend"]): r for r in sweep}
    big_array = by_key[(SWEEP_NS[-1], "array")]
    big_memmap = by_key[(SWEEP_NS[-1], "memmap")]
    rss_ratio = big_memmap["peak_rss_bytes"] / big_array["peak_rss_bytes"]
    assert rss_ratio < RSS_CEILING, (
        f"memmap RSS {big_memmap['peak_rss_bytes']} is "
        f"{rss_ratio:.2f} of the in-RAM footprint "
        f"{big_array['peak_rss_bytes']} (ceiling {RSS_CEILING})"
    )

    payload = {
        "experiment": "E24",
        "workload": {
            "m": 2, "k": K, "rule": "min", "batch_size": BATCH,
            "columns": "col0 synthetic descending, col1 multiplicative mix",
        },
        "sweep": sweep,
        "sharded": {
            "n": SHARD_N,
            "shards": SHARDS,
            "result": sharded,
            "monolithic_query_seconds": monolithic["query_seconds"],
        },
        "spot_check": {"build": spot_build, "query": spot_query},
        "acceptance": {
            "rss_ratio_at_n_max": round(rss_ratio, 4),
            "rss_ceiling": RSS_CEILING,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (r["n"], r["backend"], r["open_seconds"], r["query_seconds"],
         r["cost"], round(r["peak_rss_bytes"] / 1e6, 1))
        for r in sweep
    ]
    rows.append(
        (SHARD_N, f"sharded-k{SHARDS}", sharded["open_seconds"],
         sharded["query_seconds"], sharded["cost"],
         round(sharded["peak_rss_bytes"] / 1e6, 1))
    )
    print()
    print(format_table(
        ("N", "backend", "open_s", "query_s", "cost", "peak_rss_MB"), rows
    ))
    print(
        f"N=10^7 memmap RSS is {rss_ratio:.1%} of the in-RAM footprint "
        f"(ceiling {RSS_CEILING:.0%}); N=10^8 spot check: "
        f"{spot_build['disk_bytes'] / 1e9:.2f} GB on disk, query rss "
        f"{spot_query['peak_rss_bytes'] / 1e6:.0f} MB; wrote {OUTPUT.name}"
    )


def smoke(n=SMOKE_N):
    """Cross-backend parity at tiny N, in-process (CI-sized)."""
    import random

    rng = random.Random(24)
    table = {
        f"o{i:04d}": [rng.random(), rng.random()] for i in range(n)
    }
    reference = threshold_top_k(
        sources_from_columns(table), tnorms.MIN, K, batch_size=16
    )
    want = [(i.object_id, i.grade) for i in reference.answers]
    for kwargs in (
        {"backend": "memmap"},
        {"shards": 3},
        {"backend": "memmap", "shards": 2},
    ):
        result = threshold_top_k(
            sources_from_columns(table, **kwargs), tnorms.MIN, K,
            batch_size=16,
        )
        got = [(i.object_id, i.grade) for i in result.answers]
        assert got == want, kwargs
        assert result.cost == reference.cost, kwargs
    print(f"storage smoke OK: backends agree at N={n}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-N cross-backend parity only")
    parser.add_argument("--child", choices=sorted(CHILDREN),
                        help=argparse.SUPPRESS)
    parser.add_argument("--params", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(CHILDREN[args.child](json.loads(args.params))))
    elif args.smoke:
        smoke()
    else:
        full_run()
