"""Chained-job pipelines (paper Appendix E).

"One common form of pipeline is chained MapReduce jobs, in which the
output of a given job forms the input of a separate job.  One potential
difficulty is in simply detecting that two jobs are chained together.
However, assuming we can detect the link, it should be quite possible to
track relational-style operations across jobs."

This module implements both halves for jobs submitted through this API:

* **link detection** -- stage *j* is linked to stage *i* when one of
  *j*'s input paths equals *i*'s ``output_path`` (the filesystem is the
  join point, exactly as on a Hadoop cluster); a stage consuming a path
  that only a *later* stage produces is rejected as cyclic;
* **cross-stage optimization** -- every stage is analyzed and optimized
  independently (Manimal as usual), and additionally, intermediate files
  that feed a *linked* downstream stage are produced with the schemas the
  downstream stage needs, so downstream analysis sees transparent
  metadata rather than opaque bytes.

Stages may carry **hints**: a per-stage
:class:`~repro.core.analyzer.descriptors.JobAnalysis` supplied by a
layered tool (paper Appendix A), such as the fluent
:class:`repro.Session`/``Dataset`` front door.  A hinted stage skips
static analysis entirely; an unhinted stage is analyzed exactly once and
the analysis reused for index building and planning.

Indexing intermediate files is usually wasted work -- they are the
paper's "ephemeral read-once data files" -- so by default index builds
happen only for stage inputs that are *not* produced inside the pipeline.
Pass ``index_intermediates=True`` to override (useful when a pipeline
output is consumed by many later stages).

Stages run in chain order, one at a time.  Parallelism lives below the
pipeline: each stage's map and reduce tasks fan out on the engine's
persistent worker pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.analyzer.descriptors import JobAnalysis
from repro.core.manimal import Manimal, ManimalResult
from repro.core.optimizer.catalog import IndexEntry
from repro.exceptions import JobConfigError
from repro.mapreduce.formats import RecordFileInput
from repro.mapreduce.job import JobConf


@dataclass
class StageOutcome:
    """One pipeline stage's submission result plus its link metadata."""

    conf: JobConf
    outcome: ManimalResult
    #: indexes of earlier stages whose output feeds this stage
    upstream: List[int] = field(default_factory=list)


class ManimalPipeline:
    """A chain of MapReduce jobs optimized stage by stage."""

    def __init__(self, system: Manimal, stages: List[JobConf],
                 index_intermediates: bool = False,
                 stage_hints: Optional[Sequence[Optional[JobAnalysis]]] = None):
        if not stages:
            raise JobConfigError("pipeline needs at least one stage")
        self.system = system
        self.stages = list(stages)
        self.index_intermediates = index_intermediates
        if stage_hints is None:
            self.stage_hints: List[Optional[JobAnalysis]] = [None] * len(
                self.stages
            )
        else:
            if len(stage_hints) != len(self.stages):
                raise JobConfigError(
                    f"stage_hints has {len(stage_hints)} entries for "
                    f"{len(self.stages)} stages"
                )
            self.stage_hints = list(stage_hints)
        self._links = self._detect_links()
        self._intermediates = self.intermediate_paths()

    # -- link detection -----------------------------------------------------

    def _detect_links(self) -> Dict[int, List[int]]:
        """stage index -> indexes of upstream stages feeding it.

        Producers are collected up front so forward references are visible:
        a stage whose input is produced only by a later stage (or by
        itself) cannot be ordered and is rejected.
        """
        producers: Dict[str, List[int]] = {}
        for i, conf in enumerate(self.stages):
            if conf.output_path is not None:
                producers.setdefault(
                    os.path.abspath(conf.output_path), []
                ).append(i)
        links: Dict[int, List[int]] = {i: [] for i in range(len(self.stages))}
        for i, conf in enumerate(self.stages):
            for source in conf.inputs:
                path = getattr(source, "path", None)
                if path is None:
                    continue
                stage_ids = producers.get(os.path.abspath(path))
                if not stage_ids:
                    continue
                earlier = [j for j in stage_ids if j < i]
                if earlier:
                    # Several earlier producers of the same path: the last
                    # write before this stage is the one it observes.
                    links[i].append(max(earlier))
                else:
                    raise JobConfigError(
                        f"stage {i} consumes output of a later stage "
                        f"{min(stage_ids)}; pipelines must be acyclic"
                    )
        return links

    def links(self) -> Dict[int, List[int]]:
        """The detected chain structure (for inspection/tests)."""
        return {i: list(ups) for i, ups in self._links.items()}

    def intermediate_paths(self) -> Set[str]:
        """Paths produced by one stage and consumed by another."""
        produced = {
            os.path.abspath(conf.output_path)
            for conf in self.stages
            if conf.output_path is not None
        }
        consumed: Set[str] = set()
        for conf in self.stages:
            for source in conf.inputs:
                path = getattr(source, "path", None)
                if path is not None and os.path.abspath(path) in produced:
                    consumed.add(os.path.abspath(path))
        return consumed

    # -- execution ------------------------------------------------------------

    def submit(self, build_indexes: bool = False,
               allowed_kinds: Optional[Sequence[str]] = None,
               runner: Optional[Any] = None,
               first_stage: Optional[ManimalResult] = None
               ) -> List[StageOutcome]:
        """Run all stages, optimizing each through Manimal.

        ``build_indexes`` applies to stage inputs that come from *outside*
        the pipeline; intermediate files are indexed only when the
        pipeline was constructed with ``index_intermediates=True``.
        ``allowed_kinds`` restricts the index kinds considered, as in
        :meth:`Manimal.build_indexes`.  ``runner`` is a per-submission
        execution-fabric override (worker count, ``'local'`` /
        ``'parallel'``, or a runner instance) applied to every stage.

        Stages run in chain order and outcomes are returned in stage
        order; a failing stage raises before any later stage starts.

        ``first_stage`` is stage 0 as :meth:`prepare_stage` returned it,
        handed back by a caller that planned it to decide on a shared
        scan: it is not planned again, and if the caller also ran it
        (``result`` set) it is not executed again.
        """
        outcomes: List[StageOutcome] = []
        for i, conf in enumerate(self.stages):
            outcome = first_stage if i == 0 else None
            if outcome is None:
                outcome = self.prepare_stage(i, build_indexes, allowed_kinds)
            if outcome.result is None:
                outcome.result = self.system.execute(
                    conf, outcome.descriptor, runner=runner
                )
            outcomes.append(StageOutcome(conf=conf, outcome=outcome,
                                         upstream=list(self._links[i])))
        return outcomes

    def prepare_stage(self, i: int, build_indexes: bool = False,
                      allowed_kinds: Optional[Sequence[str]] = None
                      ) -> ManimalResult:
        """Analyze, (optionally) index, and plan stage ``i``."""
        # One analysis per stage: hints when the submitter supplied
        # them (Appendix A), a single analyzer pass otherwise --
        # reused for both index building and planning below.
        analysis = self.stage_hints[i]
        if analysis is None:
            analysis = self.system.analyze(self.stages[i])
        if build_indexes:
            self.build_stage_indexes(i, analysis, allowed_kinds)
        return self.system.prepare(self.stages[i], analysis=analysis)

    def build_stage_indexes(self, i: int, analysis: JobAnalysis,
                            allowed_kinds: Optional[Sequence[str]] = None
                            ) -> List[IndexEntry]:
        """Build indexes for stage ``i``'s plain record-file inputs.

        Inputs another stage produces are the paper's ephemeral
        read-once files and are skipped unless the pipeline was built
        with ``index_intermediates=True``.
        """
        conf = self.stages[i]
        built: List[IndexEntry] = []
        for source, ia in zip(conf.inputs, analysis.inputs):
            if type(source) is not RecordFileInput:
                continue
            if (os.path.abspath(source.path) in self._intermediates
                    and not self.index_intermediates):
                continue
            built.extend(self.system.build_indexes(
                conf.with_inputs([source]),
                JobAnalysis(job_name=conf.name, inputs=[ia]),
                allowed_kinds=allowed_kinds,
            ))
        return built

    def describe(self) -> str:
        lines = ["pipeline:"]
        for i, conf in enumerate(self.stages):
            ups = self._links[i]
            link = f" <- stages {ups}" if ups else ""
            hinted = " [hinted]" if self.stage_hints[i] is not None else ""
            lines.append(f"  stage {i}: {conf.name}{link}{hinted}")
        return "\n".join(lines)
