"""Shared scans: one columnar pass serving many concurrent queries.

PRs 1-9 optimized *single* queries; the service front door now fields
many concurrent analyzer-described queries over the same hot datasets,
and each one would otherwise pay its own full scan.  MRShare-style work
sharing needs no machinery of its own here, because the execution
fabric's unit is already a **job group** -- N >= 1 jobs over one scan of
their shared inputs, a solo job being a group of one:

* the job driver (:func:`~repro.mapreduce.runtime.run_job_group`, behind
  every runner's ``run_group``) enumerates the shared file's splits once
  and runs each map task once for the whole group;
* the batch executor (:func:`~repro.batch.executor.run_batch_map_task`)
  walks the task's recordfile blocks once, decodes the **union** of the
  columns the members need once per block, and runs every member's
  compiled kernel chain against the shared
  :class:`~repro.batch.columns.ColumnBatch`; each member's emits flow
  through its own :func:`~repro.mapreduce.runtime._finish_map_task`
  tail, its own ``(member, partition)`` shuffle and its own reduces --
  in worker processes, through the one pickle run format
  (:mod:`repro.mapreduce.shuffle`) with retries, heartbeats and bounded
  rebuilds, whenever the group runs on the parallel runner -- so every
  member's bytes are identical to its solo run by construction.

What this module owns is the *policy*: which submissions are worth
running as one group.  Sharing is gated, not assumed:
:func:`plan_shared_groups` groups candidates by concrete input identity
(:func:`repro.storage.input_identity`), admits only members the batch
path can serve over that file
(:func:`repro.batch.executor.batch_admission` -- the same call the map
task makes), and applies a cost model so a narrow scan is never blindly
fused into a wide union (see :data:`LATENCY_FACTOR`).
Singleton groups and ineligible stages run the existing solo path
unchanged.
:func:`run_shared_group` hands an approved group to a runner and books
the savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batch.executor import batch_admission
from repro.mapreduce.formats import PartitionedInput, SelectionIndexInput
from repro.mapreduce.job import JobConf, JobResult
from repro.storage import InputIdentity, input_identity
from repro.storage.blockscan import ReadShape

#: Cost of materializing one decoded field, relative to the boundary
#: walk every scan pays per field whether it decodes it or not.
#: Measured, not guessed: ``iter_column_batches`` over the comparison
#: suite's 6 000-row x 10-column ``events`` file, best of 60 interleaved
#: scans, capturing zero columns (walk = t0 / 11 fields: 0.61 ms) against
#: all ten (capture = (t10 - t0) / 10: 0.86 ms) -- a ratio of 1.4-1.5
#: over four runs under the compiled block scan (0.95 under the
#: interpreted walk, when this constant read a guessed 4.0).  The
#: ``multiscan_decode_cost`` row of ``benchmarks/gates`` repeats the
#: measurement: with ``ratio`` = all ten captured over none, the weight
#: is ``(ratio - 1) * 11 / 10`` (BENCH_gates.json).
DECODE_WEIGHT = 1.5

#: Per-member latency gate: a query joins a group only while the modeled
#: fused pass costs at most this factor of its own modeled solo pass.
#: This is what keeps a 1-column scan from being blindly fused into a
#: 10-column union: the fused union decode would dominate the narrow
#: query's latency, so it runs solo instead.
LATENCY_FACTOR = 2.0


# -- grouping and the cost model ----------------------------------------------


@dataclass
class MemberPlan:
    """One grouped candidate: submission index plus modeled scan shape."""

    index: int
    conf: JobConf
    #: columns this member's solo plan decodes, in plan order
    columns: List[str]

    @property
    def slots(self) -> int:
        return len(self.columns)


@dataclass
class GroupPlan:
    """A fused group the cost model approved."""

    path: str
    members: List[MemberPlan]
    union_columns: List[str]
    #: fields per record the scan boundary-walks regardless of decode
    fields: int

    def describe(self) -> str:
        return (
            f"shared scan group {len(self.members)} queries, "
            f"{len(self.union_columns)} columns decoded once"
        )


@dataclass
class SharedPlanReport:
    """What :func:`plan_shared_groups` decided, and why."""

    groups: List[GroupPlan] = field(default_factory=list)
    #: (submission index, reason) for every query running solo
    solo: List[Tuple[int, str]] = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        for group in self.groups:
            lines.append(
                f"{group.describe()} <- "
                + ", ".join(m.conf.name for m in group.members)
            )
        for index, reason in sorted(self.solo):
            lines.append(f"solo query {index}: {reason}")
        return "\n".join(lines)


def _pass_cost(fields: int, slots: int) -> float:
    """Modeled cost of one scan pass: boundary walk + decode."""
    return fields + DECODE_WEIGHT * slots


def plan_shared_groups(confs: Sequence[Optional[JobConf]]
                       ) -> SharedPlanReport:
    """Partition already-optimized jobs into fused groups and solos.

    Grouping key is the concrete input file's
    :func:`~repro.storage.input_identity` and the input's record-path
    read shape -- two queries share a pass only when they would scan
    byte-identical storage the same way.  Planner input
    substitution has already happened, so a query the optimizer
    redirected at a narrow projection file groups with peers reading
    *that* file, never with peers on the base file.

    Every fallback is a reason string (surfaced by ``explain``).  The
    ones about *grouping* are decided here: multi-input (join) stages,
    partitioned datasets (many files, no one pass to share), singleton
    groups, and members the cost model declines.  Whether the batch path
    can serve a member over its file at all is
    :func:`~repro.batch.executor.batch_admission`'s answer, reason
    included.  ``None`` entries are callers' shorthand for "this
    submission is ineligible before grouping even starts".
    """
    report = SharedPlanReport()
    # keyed on the input's read shape too: a member the batch path
    # declines at task time reads the group's split, whose source is the
    # first member's -- so members share a pass only when their record
    # path would read the same shape
    by_file: Dict[Tuple[InputIdentity, ReadShape], List[MemberPlan]] = {}
    file_fields: Dict[Tuple[InputIdentity, ReadShape], int] = {}

    for index, conf in enumerate(confs):
        if conf is None:
            report.solo.append((index, "not eligible for sharing"))
            continue
        if len(conf.inputs) != 1:
            report.solo.append((index, "multiple inputs (join stage)"))
            continue
        source = conf.inputs[0]
        if type(source) in (PartitionedInput, SelectionIndexInput):
            report.solo.append((index, (
                "partitioned dataset: no single file to share"
                if type(source) is PartitionedInput
                else "selection index: its splits are its own ranges")))
            continue
        spec = conf.batch_specs.get(source.tag)
        admitted = batch_admission(spec, source)
        if isinstance(admitted, str):
            report.solo.append((index, admitted))
            continue
        plan, _kernel = admitted
        identity = input_identity(source.path)
        if identity.kind != "file":
            report.solo.append((index, "input file is unreadable"))
            continue
        grouping = (identity, source.shape)
        by_file.setdefault(grouping, []).append(
            MemberPlan(index, conf, list(plan.slots))
        )
        file_fields[grouping] = (
            len(plan.key_schema.fields) + len(plan.value_schema.fields)
        )

    for grouping, candidates in by_file.items():
        identity, fields = grouping[0], file_fields[grouping]
        # Greedy admission, narrowest first: a wide member may only
        # join while the union it forces stays within every admitted
        # member's latency bound.  Rejected members get further chances
        # to group among themselves before falling back solo.
        remaining = sorted(candidates, key=lambda m: (m.slots, m.index))
        while len(remaining) >= 2:
            admitted: List[MemberPlan] = []
            union: List[str] = []
            seen: set = set()
            rejected: List[MemberPlan] = []
            for member in remaining:
                new_union = union + [
                    c for c in member.columns if c not in seen
                ]
                bound_ok = all(
                    _pass_cost(fields, len(new_union))
                    <= LATENCY_FACTOR * _pass_cost(fields, m.slots)
                    for m in admitted + [member]
                )
                if bound_ok:
                    admitted.append(member)
                    union = new_union
                    seen.update(new_union)
                else:
                    rejected.append(member)
            if len(admitted) < 2:
                remaining = admitted + rejected
                break
            members = sorted(admitted, key=lambda m: m.index)
            # Recompute the union in member order: this is the capture
            # order the fused task will actually build.
            ordered: List[str] = []
            ordered_seen: set = set()
            for member in members:
                for name in member.columns:
                    if name not in ordered_seen:
                        ordered_seen.add(name)
                        ordered.append(name)
            report.groups.append(GroupPlan(
                path=identity.path, members=members,
                union_columns=ordered, fields=fields,
            ))
            remaining = rejected
        for member in remaining:
            if len(candidates) == 1:
                report.solo.append((member.index, "singleton group"))
            else:
                report.solo.append((
                    member.index,
                    f"cost model: union too wide for its "
                    f"{member.slots}-column scan",
                ))
    return report


# -- running a group ----------------------------------------------------------


def run_shared_group(confs: Sequence[JobConf], runner: Any,
                     pool: Any) -> List[JobResult]:
    """Execute one approved group as a single pass on ``runner``.

    Returns one :class:`~repro.mapreduce.job.JobResult` per member, in
    member order, each byte-identical (outputs, counters, and every
    volume metric except the scheduling-path observables) to the
    member's solo run -- the runner's ``run_group`` is the same job
    driver its ``run`` is.  The savings land on the members' metrics and
    on ``pool``'s ``stats()``.
    """
    run_group = getattr(runner, "run_group", None)
    if run_group is None:
        # A caller-supplied runner object only promises run(conf).
        return [runner.run(conf) for conf in confs]
    results = run_group(confs)
    # Savings are scheduling-path observables: the group counts once per
    # member, and every member after the first records the full input
    # pass it did not perform.
    group_bytes_saved = 0
    for i, result in enumerate(results):
        metrics = result.metrics
        metrics.shared_scan_groups = 1
        if i > 0:
            metrics.scans_saved = 1
            metrics.shared_bytes_saved = metrics.map_input_stored_bytes
            group_bytes_saved += metrics.map_input_stored_bytes
    pool.record_shared_scan(len(confs), group_bytes_saved)
    return results
