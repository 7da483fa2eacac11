"""The paper's primary contribution: graded sets, fuzzy query semantics,
and the top-k algorithms of section 4 with their cost accounting."""

from repro.core.adversary import (
    expected_best_object,
    hard_instance,
    minimum_depth_for_top_one,
    reversed_grades,
)
from repro.core.batching import BatchedSource, LatencyModel, batched
from repro.core.boolean_first import boolean_first_top_k
from repro.core.cost import (
    RANDOM_EXPENSIVE,
    SORTED_EXPENSIVE,
    UNIFORM,
    AccessCounter,
    CostMeter,
    CostModel,
    CostReport,
)
from repro.core.disjunction import disjunction_top_k
from repro.core.evaluation import compile_query, evaluate
from repro.core.fagin import FaginAlgorithm, fagin_top_k
from repro.core.filter_condition import filter_condition_top_k, filter_retrieve
from repro.core.graded import (
    GradedItem,
    GradedSet,
    ObjectId,
    from_sorted_list,
    validate_grade,
)
from repro.core.naive import grade_everything, naive_top_k
from repro.core.planner import Plan, Strategy, execute, plan_top_k, top_k
from repro.core.query import (
    And,
    Atomic,
    Not,
    Or,
    Query,
    Scored,
    Weighted,
    conjunction_of,
    disjunction_of,
)
from repro.core.result import (
    ApproximationCertificate,
    DegradedResult,
    TopKResult,
    certified_ratio,
)
from repro.core.sources import (
    DEFAULT_BATCH_SIZE,
    ArraySource,
    GradedSource,
    SortedCursor,
    SortedOnlySource,
    VerifyingSource,
    check_same_objects,
    iter_wrapper_chain,
    sources_from_columns,
)
from repro.core.threshold import combined_top_k, nra_top_k, threshold_top_k

__all__ = [
    "GradedItem",
    "GradedSet",
    "ObjectId",
    "validate_grade",
    "from_sorted_list",
    "Query",
    "Atomic",
    "And",
    "Or",
    "Not",
    "Scored",
    "Weighted",
    "conjunction_of",
    "disjunction_of",
    "evaluate",
    "compile_query",
    "AccessCounter",
    "CostModel",
    "CostReport",
    "CostMeter",
    "UNIFORM",
    "SORTED_EXPENSIVE",
    "RANDOM_EXPENSIVE",
    "GradedSource",
    "ArraySource",
    "SortedOnlySource",
    "VerifyingSource",
    "SortedCursor",
    "DEFAULT_BATCH_SIZE",
    "sources_from_columns",
    "check_same_objects",
    "iter_wrapper_chain",
    "TopKResult",
    "ApproximationCertificate",
    "DegradedResult",
    "certified_ratio",
    "BatchedSource",
    "LatencyModel",
    "batched",
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
    "filter_retrieve",
    "hard_instance",
    "reversed_grades",
    "expected_best_object",
    "minimum_depth_for_top_one",
    "Plan",
    "Strategy",
    "plan_top_k",
    "execute",
    "top_k",
]
