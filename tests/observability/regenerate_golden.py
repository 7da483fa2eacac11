"""Regenerate the golden trace files under tests/observability/golden/.

The golden-trace regression tests byte-compare freshly recorded
timelines against these files; when the trace *schema* changes on
purpose (bump ``TRACE_VERSION``!), regenerate them with::

    PYTHONPATH=src python -m tests.observability.regenerate_golden

and commit the diff.  The builders here are imported by the tests, so
the canonical database and query parameters live in exactly one place.
"""

from __future__ import annotations

import pathlib

from repro.core.fagin import fagin_top_k
from repro.core.sources import sources_from_columns
from repro.core.threshold import threshold_top_k
from repro.observability import QueryTracer, validate_trace
from repro.scoring import tnorms

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The canonical fixed database: 6 objects, 2 lists, distinct sorted
#: orders, one tie pair per list nowhere near the top — small enough to
#: eyeball the timeline, rich enough to exercise both phases of A0 and
#: TA's early stop.
TABLE = {
    "a": (0.9, 0.4),
    "b": (0.8, 0.7),
    "c": (0.55, 0.9),
    "d": (0.5, 0.2),
    "e": (0.3, 0.6),
    "f": (0.1, 0.1),
}
K = 2


def build_sources():
    return sources_from_columns(TABLE, names=("color", "shape"))


def record_a0() -> QueryTracer:
    tracer = QueryTracer()
    fagin_top_k(build_sources(), tnorms.MIN, K, tracer=tracer)
    return tracer


def record_ta() -> QueryTracer:
    tracer = QueryTracer()
    threshold_top_k(build_sources(), tnorms.MIN, K, tracer=tracer)
    return tracer


BUILDERS = {
    "a0_min_k2.json": record_a0,
    "ta_min_k2.json": record_ta,
}


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, record in BUILDERS.items():
        tracer = record()
        validate_trace(tracer.as_dict())
        path = GOLDEN_DIR / name
        path.write_text(tracer.to_json(), encoding="utf-8")
        print(f"wrote {path} ({len(tracer.events)} events)")


if __name__ == "__main__":
    main()
