"""The Manimal system facade: analyze -> optimize -> execute (paper Fig. 1).

:class:`Manimal` ties the three components together.  A user submits an
ordinary :class:`~repro.mapreduce.job.JobConf`; the system

1. runs the **analyzer** over the compiled program (optimization
   descriptors + an index-generation program per input),
2. lets the administrator decide whether to **build** the index programs
   (``build_indexes=True``, the paper's "decision to run an
   index-generation program is left to the system administrator"),
3. asks the **optimizer** for an execution descriptor against the catalog,
4. runs the job on the **execution fabric** with the chosen inputs.

"The submitted program does not need to be modified by the programmer in
any way, and the final program output should be the same as what would
have been generated by a conventional MapReduce system."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.analyzer.descriptors import JobAnalysis
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
from repro.core.optimizer.catalog import ALL_KINDS, COPY_KINDS, Catalog, IndexEntry
from repro.core.optimizer.indexgen import IndexDeclined, IndexGenerationProgram, synthesize_program
from repro.core.optimizer.planner import ExecutionDescriptor, Optimizer
from repro.engine.service import ExecutionEngine, get_engine
from repro.mapreduce.formats import RecordFileInput
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.parallel import resolve_runner
from repro.mapreduce.runtime import LocalJobRunner
from repro.storage import input_identity


@dataclass
class ManimalResult:
    """Everything a submission produced.

    :meth:`Manimal.prepare` fills in all but ``result``;
    :meth:`Manimal.submit` -- or a caller that ran the planned job as
    part of a shared scan group -- supplies that.
    """

    analysis: JobAnalysis
    index_programs: List[Optional[IndexGenerationProgram]]
    built_indexes: List[IndexEntry]
    descriptor: ExecutionDescriptor
    result: Optional[JobResult] = None

    @property
    def optimized(self) -> bool:
        return self.descriptor.optimized

    def summary(self) -> str:
        lines = [self.analysis.summary(), self.descriptor.describe()]
        if self.built_indexes:
            lines.append("built indexes:")
            lines += [
                f"  {e.index_id}: {e.kind} -> {e.index_path}"
                for e in self.built_indexes
            ]
        return "\n".join(lines)


class Manimal:
    """The end-to-end automatic optimization system."""

    def __init__(
        self,
        catalog_dir: str,
        kb: KnowledgeBase = DEFAULT_KB,
        runner: Optional[Any] = None,
        safe_mode: bool = False,
        space_budget_bytes: Optional[int] = None,
        cost_based: bool = False,
        parallelism: Optional[int] = None,
        engine: Optional[ExecutionEngine] = None,
    ):
        #: the shared execution service (worker pool + caches + stage
        #: dispatch); defaults to the process-wide engine so repeated
        #: submissions and sibling systems reuse one set of machinery
        self.engine = engine if engine is not None else get_engine()
        self.catalog = Catalog(catalog_dir,
                               space_budget_bytes=space_budget_bytes)
        self.analyzer = ManimalAnalyzer(kb, safe_mode=safe_mode)
        if cost_based:
            from repro.core.optimizer.costbased import CostBasedOptimizer

            self.optimizer: Optimizer = CostBasedOptimizer(self.catalog)
        else:
            self.optimizer = Optimizer(self.catalog)
        # ``runner`` takes any runner knob (instance, worker count,
        # 'local'/'parallel'); ``parallelism`` is the ergonomic spelling
        # for "N worker processes" and is ignored when ``runner`` is given.
        self.runner = resolve_runner(
            runner if runner is not None else parallelism,
            default=LocalJobRunner(), engine=self.engine,
        )

    # -- individual pipeline stages --------------------------------------------

    def analyze(self, conf: JobConf) -> JobAnalysis:
        """Step 1: static analysis of the submitted program.

        Memoized through the engine: resubmitting identical mapper
        bytecode over unchanged input files returns the cached
        :class:`JobAnalysis` instead of re-walking the code (see
        :mod:`repro.engine.cache` for the fingerprint).
        """
        return self.engine.analyze(self.analyzer, conf)

    def analyze_udf(self, fn: Callable, arity: int) -> Any:
        """Static analysis of one fluent ``filter``/``map`` callable.

        The UDF-translation verdict
        (:func:`repro.core.analyzer.udf.analyze_udf`) under this
        system's knowledge base, memoized through the engine like
        :meth:`analyze`.
        """
        return self.engine.analyze_udf(self.analyzer.kb, fn, arity)

    def index_programs(
        self,
        conf: JobConf,
        analysis: Optional[JobAnalysis] = None,
        allowed_kinds: Optional[Sequence[str]] = None,
    ) -> List[Optional[IndexGenerationProgram]]:
        """The index-generation program synthesized for each input.

        ``None`` entries mean the corresponding input offers nothing to
        index (or is not a plain record-file scan).  A selection index
        the catalog records as not buildable over the source's current
        bytes gives way to the best index without selection, which says
        what it stands in for.
        """
        analysis = analysis or self.analyze(conf)
        return [self._program(source, ia, allowed_kinds)
                for source, ia in zip(conf.inputs, analysis.inputs)]

    def _program(self, source: Any, ia: Any,
                 allowed_kinds: Optional[Sequence[str]]
                 ) -> Optional[IndexGenerationProgram]:
        if type(source) is not RecordFileInput:
            return None
        program = synthesize_program(ia, source.path, allowed_kinds)
        reason = program and self.catalog.declined(program)
        if not reason:
            return program
        fallback = synthesize_program(ia, source.path, [
            kind for kind in allowed_kinds or ALL_KINDS if kind in COPY_KINDS])
        if fallback is not None:
            fallback.skipped = f"{program.kind} on {program.key_field}: {reason}"
        return fallback

    def build_indexes(
        self,
        conf: JobConf,
        analysis: Optional[JobAnalysis] = None,
        allowed_kinds: Optional[Sequence[str]] = None,
    ) -> List[IndexEntry]:
        """Run the synthesized index-generation programs (admin action).

        Each program runs in this process, whatever runner executes
        jobs: one scan of the source into a columnar copy, whose rows a
        selection index sorts on its field before writing them.

        Programs whose output already exists in the catalog (same source
        bytes, kind and parameters) are skipped -- re-running an index
        build is wasted work, like re-creating an existing RDBMS index.
        Over a rewritten source the build runs again and replaces the
        stale index.  A selection index whose field holds a value with
        no index order (a NaN) is recorded in the catalog as declined,
        and the input's best index without selection is built instead.
        """
        analysis = analysis or self.analyze(conf)
        built: List[IndexEntry] = []
        for source, ia in zip(conf.inputs, analysis.inputs):
            program = self._program(source, ia, allowed_kinds)
            while program is not None:
                try:
                    built.append(self._find_equivalent(program)
                                 or program.run(self.catalog))
                    break
                except IndexDeclined as exc:
                    self.catalog.decline(program, str(exc))
                    program = self._program(source, ia, allowed_kinds)
        return built

    def _find_equivalent(
        self, program: IndexGenerationProgram
    ) -> Optional[IndexEntry]:
        """The catalog entry ``program`` would only rebuild, if any.

        A parameter-equal entry built from bytes the source no longer
        holds, or in a retired format, is not equivalent: every one is
        dropped here, file included, whether or not an equivalent exists,
        so dead indexes stop counting against the space budget.
        """
        identity = input_identity(program.source_path)
        found = None
        for entry in self.catalog.entries_for(program.source_path, program.kind):
            if entry.key_field != program.key_field:
                continue
            if program.value_fields is not None and set(
                entry.value_fields or ()
            ) != set(program.value_fields):
                continue
            if program.dict_field != entry.dict_field:
                continue
            if entry.built_from(identity):
                found = found or entry
            else:
                self.catalog.remove(entry.index_id)
        return found

    def plan(self, conf: JobConf,
             analysis: Optional[JobAnalysis] = None) -> ExecutionDescriptor:
        """Step 2: choose an execution plan from the catalog.

        Catalog applicability is memoized through the engine, keyed by
        the analysis fingerprint (which embeds each input's
        :func:`~repro.storage.input_identity`) and the catalog
        generation -- rewriting a source file or registering/evicting an
        index invalidates the entry.
        """
        analysis = analysis or self.analyze(conf)
        return self.engine.plan(self.optimizer, conf, analysis)

    def execute(self, conf: JobConf,
                descriptor: ExecutionDescriptor,
                runner: Optional[Any] = None) -> JobResult:
        """Step 3: run the job with the descriptor's chosen inputs.

        ``runner`` is a per-execution override (worker count,
        ``'local'``/``'parallel'``, or a runner instance); when omitted,
        ``conf.parallelism`` and then this system's configured runner
        decide.  The optimizer's plan is orthogonal to the fabric that
        executes it, so outputs are identical for every choice.
        """
        optimized_conf = descriptor.apply(conf)
        chosen = resolve_runner(runner, conf=optimized_conf,
                                default=self.runner, engine=self.engine)
        return chosen.run(optimized_conf)

    # -- the one-call user path ---------------------------------------------------

    def prepare(
        self,
        conf: JobConf,
        build_indexes: bool = False,
        allowed_kinds: Optional[Sequence[str]] = None,
        analysis: Optional[JobAnalysis] = None,
    ) -> ManimalResult:
        """Everything :meth:`submit` does short of executing the job.

        Analyze, (optionally) index, plan.  The returned result has no
        ``result`` yet; whoever runs ``descriptor.apply(conf)`` fills it
        in -- :meth:`submit` for a solo job,
        :func:`repro.api.session.run_plans` for a shared scan group.
        """
        analysis = analysis or self.analyze(conf)
        programs = self.index_programs(conf, analysis, allowed_kinds)
        built: List[IndexEntry] = []
        if build_indexes:
            built = self.build_indexes(conf, analysis, allowed_kinds)
        return ManimalResult(
            analysis=analysis,
            index_programs=programs,
            built_indexes=built,
            descriptor=self.plan(conf, analysis),
        )

    def submit(
        self,
        conf: JobConf,
        build_indexes: bool = False,
        allowed_kinds: Optional[Sequence[str]] = None,
        analysis: Optional[JobAnalysis] = None,
        runner: Optional[Any] = None,
    ) -> ManimalResult:
        """Full pipeline: analyze, (optionally) index, plan, execute.

        This is the one-call user path ("the submitted program does not
        need to be modified by the programmer in any way").

        :param conf: the unmodified user job.
        :param build_indexes: also run the synthesized index-generation
            programs first (the paper leaves this to the administrator).
        :param allowed_kinds: restrict which index kinds may be
            synthesized and built, mirroring :meth:`build_indexes`.
        :param analysis: a precomputed (or hint-provided, Appendix A)
            :class:`JobAnalysis`, skipping static analysis entirely.
        :param runner: per-submission execution-fabric override -- a
            worker count, ``'local'``/``'parallel'``, or a runner
            instance; see :meth:`execute`.  Defaults to
            ``conf.parallelism``, then the system-wide runner.
        :returns: a :class:`ManimalResult` bundling the analysis, the
            synthesized index programs, any indexes built, the chosen
            execution descriptor, and the job result.
        """
        outcome = self.prepare(conf, build_indexes, allowed_kinds, analysis)
        outcome.result = self.execute(conf, outcome.descriptor, runner=runner)
        return outcome

    def submit_with_hints(
        self,
        conf: JobConf,
        hints: JobAnalysis,
        build_indexes: bool = False,
        allowed_kinds: Optional[Sequence[str]] = None,
        runner: Optional[Any] = None,
    ) -> ManimalResult:
        """Appendix A path for layered tools (Pig/Hive-style).

        Tools that synthesize MapReduce jobs from a high-level language can
        "sidestep the analyzer and accept optimization descriptions
        directly" -- the hints replace static analysis, and everything
        downstream (catalog matching, planning, execution) is identical.
        The fluent :class:`repro.Session` front door submits every
        lowered stage through this path.
        """
        return self.submit(
            conf,
            build_indexes=build_indexes,
            allowed_kinds=allowed_kinds,
            analysis=hints,
            runner=runner,
        )
