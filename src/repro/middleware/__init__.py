"""Garlic-style middleware: subsystems, ID mapping, complex objects,
the monotonicity guard, the integration engine, the resilience layer
(fault injection, retry/backoff, circuit breakers), and the cost-aware
optimizer (paper section 4)."""

from repro.middleware.complex_objects import Containment, PromotedSource
from repro.middleware.engine import MiddlewareEngine, QueryHandle
from repro.middleware.faults import FaultInjectingSource, FaultProfile, FaultStats
from repro.middleware.idmap import IdMapping, MappedSource
from repro.middleware.interface import Subsystem
from repro.middleware.list_subsystem import GraderSubsystem, ListSubsystem
from repro.middleware.monotonicity import ensure_monotone
from repro.middleware.resilience import (
    CircuitBreaker,
    MonotonicClock,
    ResiliencePolicy,
    ResilienceStats,
    ResilientSource,
    RetryPolicy,
    VirtualClock,
    resilience_report,
)
from repro.middleware.optimizer import (
    ChargedPlan,
    compare_under_models,
    plan_with_charges,
)
from repro.middleware.relational import BooleanSource, RelationalSubsystem
from repro.middleware.statistics import (
    GradeHistogram,
    collect_statistics,
    suggest_filter_threshold,
)

__all__ = [
    "Subsystem",
    "ListSubsystem",
    "GraderSubsystem",
    "RelationalSubsystem",
    "BooleanSource",
    "IdMapping",
    "MappedSource",
    "Containment",
    "PromotedSource",
    "ensure_monotone",
    "MiddlewareEngine",
    "QueryHandle",
    "FaultInjectingSource",
    "FaultProfile",
    "FaultStats",
    "ResilientSource",
    "ResiliencePolicy",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "VirtualClock",
    "MonotonicClock",
    "resilience_report",
    "GradeHistogram",
    "collect_statistics",
    "suggest_filter_threshold",
    "ChargedPlan",
    "plan_with_charges",
    "compare_under_models",
]
