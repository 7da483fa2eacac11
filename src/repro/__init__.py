"""repro — fuzzy top-k query processing for multimedia middleware.

A production-quality reproduction of Ronald Fagin, *Fuzzy Queries in
Multimedia Database Systems* (PODS 1998): graded sets, scoring functions
(t-norms, co-norms, means, and the Fagin–Wimmers weighted rule), the
sorted/random access middleware model with cost accounting, Fagin's
algorithm A0 and its refinements, a Garlic-style middleware engine, a
QBIC-style multimedia subsystem over synthetic images, multidimensional
indexes, and an SQL-like front end.

Quickstart::

    from repro import ArraySource, fagin_top_k, scoring

    color = ArraySource({"a": 0.9, "b": 0.6, "c": 0.3}, name="Color=red")
    shape = ArraySource({"a": 0.5, "b": 0.8, "c": 0.4}, name="Shape=round")
    result = fagin_top_k([color, shape], scoring.MIN, k=2)
    for item in result.answers:
        print(item.object_id, item.grade)
"""

from repro import scoring
from repro.core import (
    And,
    ApproximationCertificate,
    ArraySource,
    Atomic,
    FaginAlgorithm,
    GradedItem,
    GradedSet,
    GradedSource,
    Not,
    Or,
    Plan,
    Query,
    Scored,
    SortedOnlySource,
    Strategy,
    TopKResult,
    Weighted,
    boolean_first_top_k,
    combined_top_k,
    compile_query,
    disjunction_top_k,
    evaluate,
    execute,
    fagin_top_k,
    filter_condition_top_k,
    grade_everything,
    naive_top_k,
    nra_top_k,
    plan_top_k,
    sources_from_columns,
    threshold_top_k,
    top_k,
)
from repro.errors import AdmissionError, ReproError, ShedError
from repro.parallel import ParallelAccessExecutor
from repro.observability import (
    MetricsRegistry,
    QueryTracer,
    TracingSource,
    validate_trace,
)
from repro.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    TenantPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "scoring",
    "ReproError",
    "GradedItem",
    "GradedSet",
    "GradedSource",
    "ArraySource",
    "SortedOnlySource",
    "sources_from_columns",
    "Query",
    "Atomic",
    "And",
    "Or",
    "Not",
    "Scored",
    "Weighted",
    "evaluate",
    "compile_query",
    "TopKResult",
    "ApproximationCertificate",
    "FaginAlgorithm",
    "fagin_top_k",
    "naive_top_k",
    "grade_everything",
    "disjunction_top_k",
    "threshold_top_k",
    "nra_top_k",
    "combined_top_k",
    "boolean_first_top_k",
    "filter_condition_top_k",
    "Plan",
    "Strategy",
    "plan_top_k",
    "execute",
    "top_k",
    "ParallelAccessExecutor",
    "QueryService",
    "QueryTicket",
    "ServiceConfig",
    "TenantPolicy",
    "AdmissionError",
    "ShedError",
    "QueryTracer",
    "MetricsRegistry",
    "TracingSource",
    "validate_trace",
    "__version__",
]
