"""Vectorized batch execution for analyzer-described map stages.

When the fluent lowering can fully describe a stage's map body (pure
column predicates, projection, known aggregates -- the same knowledge it
already ships as Appendix-A optimization hints), or the analyzer a
classic ``map()`` (one functional emit on one path, no side effects),
the runtime serves that stage's map tasks through this package instead
of the record-at-a-time mapper loop: storage blocks decode straight
into per-column arrays (:mod:`~repro.batch.columns`), predicates run as
compiled per-batch kernels (:mod:`~repro.batch.kernels`), and rows
re-materialize as ordinary records only at the shuffle/emit boundary
(:mod:`~repro.batch.executor`), keeping output bytes identical to the
record path under every scheduler.  Stages with opaque UDFs or opaque
schemas never take this path; see ``docs/execution-model.md`` for the
eligibility rule and the full fallback matrix.
"""

from repro.batch.columns import ColumnBatch, ScanPlan, build_scan_plan, iter_column_batches
from repro.batch.kernels import PredicateKernel, compile_predicates
from repro.batch.multiscan import (
    GroupPlan,
    SharedPlanReport,
    plan_shared_groups,
    run_shared_group,
)
from repro.batch.spec import AGGREGATES, BatchStageSpec

__all__ = [
    "AGGREGATES",
    "BatchStageSpec",
    "ColumnBatch",
    "GroupPlan",
    "PredicateKernel",
    "ScanPlan",
    "SharedPlanReport",
    "build_scan_plan",
    "compile_predicates",
    "iter_column_batches",
    "plan_shared_groups",
    "run_shared_group",
]
