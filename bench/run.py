#!/usr/bin/env python3
"""The repo's benchmark: SQL text -> certified top-k, four workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one run in this process; the last line of stdout is the result
        object of the benchmark contract (end-to-end metrics with
        --trace 0, per-layer metrics with --trace 1)
    python3 bench/run.py [--seed N] [--seconds S]
        every workload, measured and traced, each run in its own child
        process; prints every metric by name and unit
    python3 bench/run.py --repeat 2 --check
        two full sets on one seed; prints each end-to-end metric's
        worsening next to its bound and requires what must repeat
        exactly (access counts and <layer>.calls) to do so; exit 1 on
        a breach
    python3 bench/run.py --smoke
        the four workloads at ~1% size; schema, oracle and determinism
        assertions, no timing assertions

See bench/README.md for the metric glossary and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(name: str, seed: int, seconds: float, trace: bool, spans_out=None) -> dict:
    """One run of one workload in this process."""
    import repro
    from workloads import WORKLOADS

    if not os.path.abspath(repro.__file__).startswith(ROOT + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    workload = WORKLOADS[name]()
    workroot = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    if trace:
        from layers import trace_run

        return trace_run(workload, seed, seconds, workroot, spans_out)
    from measure import measure

    return measure(workload, seed, seconds, workroot)


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a child process (its peak RSS is its own).  A run that
    fails its oracle exits non-zero, and so does this."""
    command = [
        sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(seed: int, seconds: float) -> dict:
    """Every workload once, measured and traced:
    {workload: {metric: {"value", "unit"}}}."""
    spec = load_spec()
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        result = run_child(name, seed, seconds, 0)
        metrics = dict(result["metrics"])
        print(
            f"\n== {name}: {result['attempted']} ops, {result['failed']} failed "
            f"(failed_frac {result['failed'] / result['attempted']:.4f})"
        )
        metrics.update(run_child(name, seed, seconds, 1)["metrics"])
        for metric, entry in metrics.items():
            print(f"{metric:34s} {entry['value']:16.6g} {entry['unit']}")
        results[name] = metrics
    return results


def check_repeat(sets: list) -> bool:
    """Two sets of the same code on the same seed: print each end-to-end
    metric's worsening against its bound, and require the counts to
    repeat exactly; True when everything holds."""
    spec, ok = load_spec(), True
    print(f"\n{'workload':14s} {'metric':28s} {'first':>11s} {'second':>11s} {'worse':>8s} bound")
    for workload, first_set in sets[0].items():
        for metric in spec["end_to_end"]:
            first = first_set[metric["name"]]["value"]
            second = sets[1][workload][metric["name"]]["value"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (second - first) / first
            breach = worse > metric["bound"]
            ok = ok and not breach
            print(
                f"{workload:14s} {metric['name']:28s} {first:11.5g} {second:11.5g} "
                f"{worse:+8.2%} {metric['bound']:.0%}{'  BREACH' if breach else ''}"
            )
        for name, entry in first_set.items():
            if name.endswith(("_accesses_per_query", ".calls")):
                second = sets[1][workload][name]["value"]
                if entry["value"] != second:
                    ok = False
                    print(f"{workload:14s} {name:28s} {entry['value']} != {second}  NOT EXACT")
    return ok


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order, and with it the number of comparisons and
        # calls, follows the interpreter's string hash seed: pin it, so
        # that counts repeat exactly from process to process.
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--spans-out", help="with --trace 1: write the stage spans to this JSON file"
    )
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]

    if args.smoke:
        from smoke import smoke

        smoke(args.seed)
        print("smoke: ok")
        return 0
    if args.workload is not None:
        result = run_one(
            args.workload, args.seed, seconds, bool(args.trace), args.spans_out
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    sets = [run_set(args.seed, seconds) for _ in range(args.repeat)]
    if args.check and not check_repeat(sets):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
