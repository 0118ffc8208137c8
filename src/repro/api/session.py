"""The :class:`Session` front door: fluent queries over one Manimal instance.

A Session owns the pieces a fluent query needs -- a
:class:`~repro.core.manimal.Manimal` system (catalog + analyzer +
optimizer + runner), a scratch directory for intermediate stage files, and
a query counter for stable stage names.  Datasets created from it lower to
:class:`~repro.core.pipeline.ManimalPipeline` chains whose per-stage hints
flow through ``Manimal.submit_with_hints`` (paper Appendix A), so fluent
queries reach B+Tree selection, projection and delta compression without
static analysis ever running.  The raw ``JobConf`` path stays fully
supported -- ``session.system`` is an ordinary ``Manimal``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from typing import Any, List, Optional, Sequence

from repro.api.dataset import Dataset, DatasetResult
from repro.api.plan import FLUENT_KB, LoweredPlan, ScanNode, lower_plan
from repro.core.analyzer.analyzer import peek_schemas
from repro.core.manimal import Manimal, ManimalResult
from repro.core.optimizer.catalog import DatasetEntry, IndexEntry
from repro.core.optimizer.planner import describe_read
from repro.core.pipeline import ManimalPipeline
from repro.exceptions import JobConfigError, SerializationError
from repro.mapreduce.formats import RecordFileInput
from repro.mapreduce.runtime import _coerce
from repro.storage.partitioned import (
    PartitionedDatasetInfo,
    is_partitioned_dataset,
    read_partitioned_info,
    validate_partition_by,
    write_partitioned_dataset,
)
from repro.storage.recordfile import RecordFileWriter


#: Partition count used when ``partition_by`` is given without an
#: explicit ``num_partitions``.
DEFAULT_NUM_PARTITIONS = 8


class Session:
    """Fluent query sessions over an optimizing MapReduce system.

    A Session is the front door of the fluent API: create one, call
    :meth:`read` to get a :class:`~repro.api.dataset.Dataset`, chain
    transformations, and run actions (``collect``/``write``).  Use it as
    a context manager so the scratch directory is cleaned up::

        with Session(catalog_dir="./catalog", parallelism=4) as session:
            pages = session.read("webpages.rf")
            rows = pages.filter(col("rank") > 990).collect()

    Construction parameters:

    :param catalog_dir: where index files and catalog metadata live;
        defaults to a ``catalog/`` directory inside the workdir.
    :param workdir: scratch space for intermediate stage files; a
        temporary directory (removed on :meth:`close`) when omitted.
    :param runner: execution-fabric knob passed to
        :class:`~repro.core.manimal.Manimal` -- a runner instance, a
        worker count, or ``'local'``/``'parallel'``.
    :param safe_mode: analyzer safe mode (reject, rather than ignore,
        constructs outside the analyzable subset).
    :param space_budget_bytes: cap on total index bytes in the catalog.
    :param cost_based: use the cost-based optimizer instead of the
        rule-based one.
    :param num_reducers: reduce partition count for lowered stages.
    :param parallelism: default worker-process count for every query this
        session runs; ``None`` or 1 means sequential, 0 auto-detects the
        CPU count.  Individual actions may override per call
        (``ds.collect(parallelism=8)``).  Results are byte-identical
        either way.
    :param vectorize: serve analyzer-described stages through the
        columnar batch path (:mod:`repro.batch`) where eligible; output
        bytes are identical either way, so ``False`` exists mainly as a
        differential-testing reference and an escape hatch.
    :param engine: the :class:`~repro.engine.service.ExecutionEngine`
        this session's system runs on.  Defaults to the process-wide
        shared engine, so sessions reuse one persistent worker pool and
        one analyzer/planner cache; pass a fresh ``ExecutionEngine()``
        to isolate.
    """

    def __init__(
        self,
        catalog_dir: Optional[str] = None,
        workdir: Optional[str] = None,
        runner: Optional[Any] = None,
        safe_mode: bool = False,
        space_budget_bytes: Optional[int] = None,
        cost_based: bool = False,
        num_reducers: int = 5,
        parallelism: Optional[int] = None,
        vectorize: bool = True,
        **manimal_kwargs: Any,
    ):
        if workdir is None:
            # pid-stamped so the engine's orphan reaper can collect the
            # workdir if this process dies before close().
            workdir = tempfile.mkdtemp(
                prefix=f"manimal-session-{os.getpid()}-"
            )
            self._owns_workdir = True
        else:
            os.makedirs(workdir, exist_ok=True)
            self._owns_workdir = False
        self.workdir = workdir
        # FLUENT_KB = stock knowledge base + the synthesized projection
        # helpers, so the analyzer fallback works on generated stage code.
        manimal_kwargs.setdefault("kb", FLUENT_KB)
        self.system = Manimal(
            catalog_dir or os.path.join(workdir, "catalog"),
            runner=runner,
            safe_mode=safe_mode,
            space_budget_bytes=space_budget_bytes,
            cost_based=cost_based,
            parallelism=parallelism,
            **manimal_kwargs,
        )
        self.num_reducers = num_reducers
        # Vectorized batch execution for analyzer-described stages (see
        # repro.batch).  Output bytes are identical either way; False
        # forces the record-at-a-time path, e.g. as a differential-test
        # reference.
        self.vectorize = vectorize
        self._scratch_dir = os.path.join(workdir, "scratch")
        os.makedirs(self._scratch_dir, exist_ok=True)
        self._query_seq = itertools.count()
        self._scratch_seq = itertools.count()

    # -- dataset creation ------------------------------------------------------

    def read(self, path: str) -> Dataset:
        """A Dataset scanning one record file or partitioned dataset.

        ``path`` may be a single record file (schemas read from its
        header) or a partition directory written by
        :meth:`write`/``Dataset.write(partition_by=...)`` (schemas read
        from the statistics sidecar; filters over it are served with
        zone-map partition pruning).
        """
        if not os.path.exists(path):
            raise JobConfigError(f"record file {path!r} does not exist")
        if is_partitioned_dataset(path):
            info = read_partitioned_info(path)
            return Dataset(
                self, ScanNode(path, info.key_schema, info.value_schema)
            )
        key_schema, value_schema = peek_schemas(RecordFileInput(path))
        return Dataset(self, ScanNode(path, key_schema, value_schema))

    #: Alias matching the storage-layer terminology.
    read_record_file = read

    # -- lowering / execution ---------------------------------------------------

    def _scratch(self, stem: str) -> str:
        return os.path.join(
            self._scratch_dir, f"{stem}-{next(self._scratch_seq)}.rf"
        )

    def lower(self, dataset: Dataset, name: Optional[str] = None
              ) -> LoweredPlan:
        """Compile a Dataset to its JobConf stage chain."""
        if name is None:
            name = f"fluent-q{next(self._query_seq)}"
        return lower_plan(dataset._node, name, self._scratch,
                          num_reducers=self.num_reducers,
                          vectorize=self.vectorize,
                          analyze_udf=self.system.analyze_udf)

    def _pipeline_for(self, plan: LoweredPlan) -> ManimalPipeline:
        return ManimalPipeline(
            self.system, plan.confs(), stage_hints=plan.hints()
        )

    def pipeline(self, dataset: Dataset) -> ManimalPipeline:
        """The hinted ManimalPipeline a Dataset executes as."""
        return self._pipeline_for(self.lower(dataset))

    def run(self, dataset: Dataset, build_indexes: bool = False,
            allowed_kinds: Optional[Sequence[str]] = None,
            parallelism: Optional[int] = None) -> DatasetResult:
        """Execute a Dataset: :meth:`run_many` of one.

        :param dataset: the query to execute (lowered freshly, so each run
            gets private scratch paths).
        :param build_indexes: build the synthesized indexes for base
            inputs before planning (admin action, as in the paper).
        :param allowed_kinds: restrict which index kinds may be built.
        :param parallelism: per-run worker count overriding the session
            default; every stage of the lowered chain runs its map/reduce
            tasks across that many processes (0 = auto-detect CPUs).
        :returns: a :class:`~repro.api.dataset.DatasetResult`.
        """
        return run_plans(
            [(self, self.lower(dataset))], parallelism=parallelism,
            build_indexes=build_indexes, allowed_kinds=allowed_kinds,
        )[0]

    def run_many(self, datasets: Sequence[Dataset],
                 parallelism: Optional[int] = None) -> List[DatasetResult]:
        """Execute several Datasets, sharing scans where compatible.

        Queries whose first (scan) stages target the same concrete input
        file -- after the optimizer's input substitution, so projection
        pushdown is respected -- execute as **one** fused pass that
        decodes the union of their columns once (see
        :mod:`repro.batch.multiscan`).  Sharing replaces only *who runs*
        that first stage: every query, shared or not, is planned once
        and assembled by the same :func:`run_plans` path :meth:`run`
        uses, so each returned
        :class:`~repro.api.dataset.DatasetResult` equals that Dataset's
        solo result -- rows, descriptors, index programs -- not just its
        bytes.
        """
        return run_plans(
            [(self, self.lower(dataset)) for dataset in datasets],
            parallelism=parallelism,
        )

    def explain_many(self, datasets: Sequence[Dataset]) -> str:
        """The shared-scan grouping :meth:`run_many` would choose."""
        from repro.batch.multiscan import plan_shared_groups

        scans = [self.lower(dataset, name=f"explain-q{i}").stages[0]
                 for i, dataset in enumerate(datasets)]
        descriptors = [self.system.plan(scan.conf, scan.hints)
                       for scan in scans]
        report = plan_shared_groups([
            descriptor.apply(scan.conf)
            for descriptor, scan in zip(descriptors, scans)
        ])
        lines = [f"shared-scan plan for {len(scans)} queries:"]
        # each query's scan-stage ops, UDF-translation verdicts included
        # (why a callable kept, or did not keep, a query out of a group),
        # then the concrete input the optimizer planned -- the file the
        # grouping keys on, with the reason an index was not used
        for i, (scan, descriptor) in enumerate(zip(scans, descriptors)):
            lines.append(f"query {i}: " + "; ".join(scan.descriptions))
            lines += [f"  {plan.describe()}" for plan in descriptor.plans]
            lines += _batch_verdicts(scan.conf, descriptor)
        lines.append(report.describe())
        return "\n".join(lines).rstrip() + "\n"

    def write(self, dataset: Dataset, path: str,
              build_indexes: bool = False,
              parallelism: Optional[int] = None,
              partition_by: Optional[str] = None,
              num_partitions: Optional[int] = None) -> DatasetResult:
        """Run a Dataset and write its rows, key-sorted, to ``path``.

        Rows are written in key-sorted order, so the bytes on disk do not
        depend on the execution plan chosen *or* on the runner
        (sequential vs parallel) that produced them.

        With ``partition_by`` and/or ``num_partitions``, ``path`` becomes
        a *partition directory* instead of a single file: record files
        plus a one-pass statistics sidecar (record counts, byte sizes,
        per-field zone maps), registered in the session catalog.
        ``partition_by`` names a value column (range layout, equi-depth
        bounds from the data -- the layout that lets selective reads
        prune); without it records are hash-routed by key across
        ``num_partitions`` partitions.
        """
        key_schema, value_schema = dataset._final_schemas()
        if key_schema is None or value_schema is None:
            raise JobConfigError(
                "cannot write: output schemas are unknown; pass "
                "key_schema/value_schema to the final map()"
            )
        # Validate the partitioning request against the known output
        # schema *before* executing the query: a typo'd column or a bad
        # partition count must fail free, not after a full (possibly
        # parallel, index-building) run.
        if num_partitions is not None and num_partitions < 1:
            raise JobConfigError("num_partitions must be >= 1")
        try:
            validate_partition_by(value_schema, partition_by)
        except SerializationError as exc:
            raise JobConfigError(str(exc)) from exc
        result = self.run(dataset, build_indexes=build_indexes,
                          parallelism=parallelism)
        if partition_by is None and num_partitions is None:
            with RecordFileWriter(path, key_schema, value_schema) as writer:
                for key, value in result.result.sorted_outputs():
                    writer.append(
                        _coerce(key, key_schema),
                        _coerce(value, value_schema),
                    )
            return result
        self._write_partitioned(
            path, key_schema, value_schema,
            [
                (_coerce(key, key_schema), _coerce(value, value_schema))
                for key, value in result.result.sorted_outputs()
            ],
            partition_by=partition_by,
            num_partitions=(
                num_partitions if num_partitions is not None
                else DEFAULT_NUM_PARTITIONS
            ),
        )
        return result

    def _write_partitioned(self, path, key_schema, value_schema, rows,
                           partition_by: Optional[str],
                           num_partitions: int) -> PartitionedDatasetInfo:
        """Write a partition directory and register it in the catalog."""
        info = write_partitioned_dataset(
            path, key_schema, value_schema, rows,
            num_partitions=num_partitions,
            partition_by=partition_by,
        )
        catalog = self.system.catalog
        catalog.register_dataset(
            DatasetEntry(
                dataset_id=catalog.make_dataset_id(),
                path=os.path.abspath(path),
                partition_by=info.partition_by,
                mode=info.mode,
                num_partitions=info.num_partitions,
                stats={
                    "records": info.total_records,
                    "bytes": info.total_bytes,
                },
            )
        )
        return info

    # -- admin / introspection ---------------------------------------------------

    @property
    def engine(self):
        """The execution engine this session's system runs on.

        ``engine.stats()`` exposes worker-pool scheduling counters and
        analyzer/planner cache hit rates.
        """
        return self.system.engine

    def build_indexes(self, dataset: Dataset,
                      allowed_kinds: Optional[Sequence[str]] = None
                      ) -> List[IndexEntry]:
        """Build indexes for a Dataset's *base* inputs (admin action).

        Intermediate stage outputs are the paper's ephemeral read-once
        files; only inputs originating outside the plan are indexed, using
        the exact hints the lowering produced.
        """
        pipeline = self.pipeline(dataset)
        return [
            entry
            for i, hints in enumerate(pipeline.stage_hints)
            for entry in pipeline.build_stage_indexes(i, hints, allowed_kinds)
        ]

    def explain(self, dataset: Dataset) -> str:
        """The lowered stage chain, per-stage hints, and planned execution."""
        plan = self.lower(dataset, name="explain")
        lines = [plan.describe(), ""]
        for i, stage in enumerate(plan.stages):
            lines.append(f"stage {i} hints (Appendix A descriptors):")
            for ia in stage.hints.inputs:
                lines.append(f"  {ia.summary()}")
            descriptor = self.system.plan(stage.conf, stage.hints)
            lines.append(descriptor.describe())
            lines += _batch_verdicts(stage.conf, descriptor)
            lines += [
                f"  input[{plan.input_index}] decode: "
                f"{describe_read(plan.chosen, ia)}"
                for plan, ia in zip(descriptor.plans, stage.hints.inputs)
            ]
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Remove the session workdir if this session created it."""
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _batch_verdicts(conf: Any, descriptor: Any) -> List[str]:
    """Per input the optimizer planned: will the batch path serve the
    stage over *that* input, and if not, why (the task's own admission)
    -- and for an aggregate, will its map tasks pre-aggregate."""
    from repro.batch.executor import batch_admission, task_preagg_decline
    from repro.batch.spec import preagg_text

    lines = []
    for plan in descriptor.plans:
        spec = conf.batch_specs.get(plan.chosen.tag)
        admitted = batch_admission(spec, plan.chosen)
        verdict = f"no ({admitted})" if isinstance(admitted, str) else "yes"
        if verdict == "yes" and spec.kind == "aggregate":
            verdict += f", {preagg_text(task_preagg_decline(spec, conf))}"
        lines.append(f"  input[{plan.input_index}] batch path: {verdict}")
    return lines


def run_plans(
    items: Sequence[tuple],
    parallelism: Optional[int] = None,
    build_indexes: bool = False,
    allowed_kinds: Optional[Sequence[str]] = None,
) -> List[DatasetResult]:
    """Execute N >= 1 ``(session, plan)`` pairs: the one submission path.

    Every door -- :meth:`Session.run`, :meth:`Session.run_many`, a query
    server dispatch -- ends here, and every plan, whatever happened to
    its first stage, is finished by
    :meth:`ManimalPipeline.submit <repro.core.pipeline.ManimalPipeline.submit>`,
    which alone builds indexes, runs the stages in chain order and
    assembles the stage outcomes.

    With more than one plan, each plan's first stage -- the one scanning
    a base input -- is a sharing candidate.  It is planned once
    (:meth:`~repro.core.pipeline.ManimalPipeline.prepare_stage`),
    grouped on its optimized conf by
    :func:`repro.batch.multiscan.plan_shared_groups`, and each approved
    group runs as one job group on the runner its leader would have run
    solo on; the pipeline is handed the planned (and, for group members,
    executed) stage back instead of redoing it.  The query service calls
    this with pairs from *different tenants'* sessions (each with its
    own catalog and scratch space) so they can share one pass over a
    common hot file; all sessions must share one engine, and a session
    on a different engine simply runs solo.  A batch of one does no
    grouping work at all.
    """
    from repro.batch.multiscan import plan_shared_groups, run_shared_group
    from repro.mapreduce.parallel import resolve_runner

    pipelines = [session._pipeline_for(plan) for session, plan in items]
    first: List[Optional[ManimalResult]] = [None] * len(items)
    if len(items) > 1:
        engine = items[0][0].engine
        confs: List[Any] = [None] * len(items)
        for i, pipeline in enumerate(pipelines):
            if pipeline.system.engine is engine:
                first[i] = pipeline.prepare_stage(
                    0, build_indexes, allowed_kinds
                )
                confs[i] = first[i].descriptor.apply(pipeline.stages[0])
        for group in plan_shared_groups(confs).groups:
            leader = group.members[0].index
            runner = resolve_runner(
                parallelism, conf=confs[leader],
                default=pipelines[leader].system.runner, engine=engine,
            )
            shared = run_shared_group(
                [confs[m.index] for m in group.members], runner,
                engine.pool,
            )
            for member, result in zip(group.members, shared):
                first[member.index].result = result
    return [
        DatasetResult(plan=plan, stages=pipeline.submit(
            build_indexes=build_indexes, allowed_kinds=allowed_kinds,
            runner=parallelism, first_stage=prepared,
        ))
        for (_session, plan), pipeline, prepared
        in zip(items, pipelines, first)
    ]
