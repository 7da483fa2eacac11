"""``--smoke``: the four workloads at ~1% size, no timing assertions.

Asserts the output schema against ``BENCHMARK.json``, the oracle, and
that what must repeat exactly does: access counts and ``<layer>.calls``
of two in-process runs of each workload.
"""

from __future__ import annotations

import json
import os
import re

from layers import PER_LAYER_UNITS, trace_run
from measure import END_TO_END_UNITS, measure
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = 0.01
SECONDS = 0.5


def check_spec(spec: dict) -> None:
    """``BENCHMARK.json`` names what the code prints, within the limits."""
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(WORKLOADS), workloads
    assert len(workloads) <= 8
    for listed, units, limit in (
        (spec["end_to_end"], END_TO_END_UNITS, 16),
        (spec["per_layer"], PER_LAYER_UNITS, 128),
    ):
        assert len(listed) <= limit
        assert {m["name"]: m["unit"] for m in listed} == units
    names = workloads + list(END_TO_END_UNITS) + list(PER_LAYER_UNITS)
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(u) for u in (*END_TO_END_UNITS.values(), *PER_LAYER_UNITS.values()))


def check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def smoke(seed: int = 1) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        check_spec(json.load(handle))
    for name, cls in WORKLOADS.items():
        workroot = os.path.join(ROOT, ".bench_work", f"smoke-{name}-{os.getpid()}")
        runs = []
        for _ in range(2):
            measured = measure(cls(SCALE), seed, SECONDS, workroot)
            traced = trace_run(cls(SCALE), seed, SECONDS, workroot)
            check_result(measured, END_TO_END_UNITS)
            check_result(traced, PER_LAYER_UNITS)
            runs.append({**measured["metrics"], **traced["metrics"]})
        shares = sum(
            m["value"] for n, m in runs[0].items() if n.endswith(".self_share")
        )
        assert abs(shares - 1.0) < 0.01, shares
        for metric in runs[0]:
            if metric.endswith(("_accesses_per_query", ".calls")):
                first, second = (run[metric]["value"] for run in runs)
                assert first == second, (name, metric, first, second)
        print(f"smoke {name}: ok")
