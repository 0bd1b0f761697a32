"""The VerdictDB middleware: planner, rewriter and answer rewriter."""

from repro.core.answer import ApproximateResult
from repro.core.flattener import flatten
from repro.core.hac import AccuracyContract
from repro.core.query_info import QueryAnalysis, analyze
from repro.core.rewriter import AqpRewriter, RewriteOutput
from repro.core.sample_planner import PlannerConfig, SamplePlan, SamplePlanner

__all__ = [
    "AccuracyContract",
    "ApproximateResult",
    "AqpRewriter",
    "PlannerConfig",
    "QueryAnalysis",
    "RewriteOutput",
    "SamplePlan",
    "SamplePlanner",
    "analyze",
    "flatten",
]
