"""Human-readable explanation of what Manimal sees in a job.

``explain_job`` runs the analyzer (and, when a catalog is supplied, the
optimizer) over a job and renders the whole evidence trail: detected
optimizations, the reasons behind every refusal, side effects, synthesized
index-generation programs, and the chosen execution plan.  This is the
operator-facing counterpart of the paper's optimization descriptors --
useful for understanding *why* a job did or did not speed up.

Example::

    from repro.explain import explain_job
    print(explain_job(conf, catalog_dir="./catalog"))
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, List, Optional, Sequence, Tuple

from repro.batch.executor import batch_admission, task_preagg_decline
from repro.batch.spec import preagg_text
from repro.core.analyzer import DELTA, DIRECT, PROJECT, SELECT
from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.analyzer.descriptors import InputAnalysis
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
from repro.core.manimal import Manimal
from repro.core.optimizer.indexgen import synthesize_program
from repro.core.optimizer.planner import (
    describe_read,
    describe_semijoin,
    plan_semijoin,
)
from repro.mapreduce.formats import InputSource, RecordFileInput
from repro.mapreduce.job import JobConf

_KIND_TITLES = (
    (SELECT, "selection", "selection"),
    (PROJECT, "projection", "projection"),
    (DELTA, "delta-compression", "delta"),
    (DIRECT, "direct-operation", "direct"),
)


def describe_batch(spec: Optional[Any], decline: Optional[str],
                   source: InputSource, conf: JobConf, header: Any = None) -> str:
    """The ``batch:`` verdict of explain, for either door: the spec the
    batch executor serves job ``conf``'s map() with over planned input
    ``source`` -- the map task's own admission, over the schemas in
    ``header`` when the file is not written yet -- and whether an
    aggregating one pre-aggregates; or why the record path runs it."""
    if spec is None:
        return f"declined ({decline or 'map() is not analyzer-described'})"
    admitted = batch_admission(spec, source, header)
    if isinstance(admitted, str):
        return f"declined ({admitted})"
    if spec.fold is None:
        return spec.describe()
    return f"{spec.describe()}, {preagg_text(task_preagg_decline(spec, conf))}"


def describe_fold(spec: Any, op: Optional[str], decline: Optional[str]
                  ) -> str:
    """A reducer's or combiner's verdict: ``described (op)`` when the
    reduce loop folds its groups without calling it, else ``opaque
    (why)``, or ``none`` when the job has none."""
    if spec is None:
        return "none"
    return f"described ({op})" if op is not None else f"opaque ({decline})"


def batch_lines(conf: JobConf, descriptor: Any,
                earlier: Sequence[JobConf] = ()) -> List[str]:
    """One ``input[i] batch:`` line per input ``descriptor`` planned for
    ``conf`` -- what :meth:`repro.Session.explain` prints.  An input one
    of the ``earlier`` stages writes is judged by its planned kind and
    that stage's output schemas: before a run, its file does not exist."""
    produced = {stage.output_path: SimpleNamespace(
        key_schema=stage.output_key_schema,
        value_schema=stage.output_value_schema)
        for stage in earlier if stage.output_path}
    return [f"  input[{plan.input_index}] batch: " + describe_batch(
        plan.batch, plan.batch_decline, plan.chosen, conf,
        produced.get(getattr(plan.chosen, "path", None)))
        for plan in descriptor.plans]


def _explain_input(ia: InputAnalysis, source: InputSource,
                   batch: Tuple[Optional[Any], Optional[str]],
                   conf: JobConf) -> List[str]:
    label = f"input[{ia.input_index}]"
    if ia.input_tag:
        label += f" ({ia.input_tag})"
    lines = [f"{label}: mapper {ia.mapper_name}"]
    if ia.value_schema is not None:
        vis = "transparent" if ia.value_schema.transparent else \
            "OPAQUE (custom serialization)"
        lines.append(
            f"  value schema: {ia.value_schema.name} [{vis}], fields: "
            f"{', '.join(ia.value_schema.field_names()) or '(hidden)'}"
        )
    else:
        lines.append("  value schema: unknown (no file metadata)")

    for kind, title, attr in _KIND_TITLES:
        if attr == "direct":
            found = bool(ia.direct)
            detail = ", ".join(repr(d) for d in ia.direct)
        else:
            descriptor = getattr(ia, attr)
            found = descriptor is not None
            detail = repr(descriptor) if found else ""
        if found:
            lines.append(f"  [x] {title}: {detail}")
        else:
            lines.append(f"  [ ] {title}:")
            for note in ia.notes.get(kind, ["(no opportunity identified)"]):
                lines.append(f"        - {note}")

    if ia.side_effects:
        lines.append("  side effects (detected, not optimized):")
        for effect in ia.side_effects:
            lines.append(f"        - {effect!r}")
    lines.append(f"  decode: {describe_read(source, ia)}")
    lines.append(f"  batch: {describe_batch(*batch, source, conf)}")
    return lines


def explain_job(
    conf: JobConf,
    catalog_dir: Optional[str] = None,
    kb: KnowledgeBase = DEFAULT_KB,
) -> str:
    """Render the analyzer's (and optionally the optimizer's) verdicts."""
    lines: List[str] = [f"Manimal analysis of job {conf.name!r}",
                        "=" * 50]
    if catalog_dir is not None:
        system = Manimal(catalog_dir, kb=kb)
        analysis = system.analyze(conf)
    else:
        system = None
        analysis = ManimalAnalyzer(kb).analyze_job(conf)

    # the decode line reads the planned input: a B+Tree range decodes
    # in full whatever map() reads
    descriptor = None if system is None else system.plan(conf, analysis)
    if descriptor is None:
        planned = [(source, (ia.batch_spec, ia.batch_decline))
                   for source, ia in zip(conf.inputs, analysis.inputs)]
    else:
        planned = [(plan.chosen, (plan.batch, plan.batch_decline))
                   for plan in descriptor.plans]
    for ia, (source, batch) in zip(analysis.inputs, planned):
        lines.extend(_explain_input(ia, source, batch, conf))
        lines.append("")

    lines.append("reduce-side (Appendix E) group filter:")
    if analysis.reduce_key_filter is not None:
        lines.append(f"  [x] {analysis.reduce_key_filter!r}")
    else:
        for note in analysis.reduce_notes or ["(no reducer analysis)"]:
            lines.append(f"  [ ] {note}")
    # the build side is chosen over the planned inputs (without a
    # catalog: the submitted ones)
    if descriptor is None:
        semijoin = describe_semijoin(plan_semijoin(analysis, conf.inputs),
                                     conf.inputs)
    else:
        semijoin = describe_semijoin(
            descriptor.semijoin or descriptor.semijoin_decline,
            descriptor.chosen_inputs())
    lines.append(f"  semijoin: {semijoin}")
    lines.append("  reducer: " + describe_fold(
        conf.reducer, analysis.reducer_fold, analysis.reducer_decline))
    lines.append("  combiner: " + describe_fold(
        conf.combiner, analysis.combiner_fold, analysis.combiner_decline))
    lines.append("")

    lines.append("index-generation programs (admin may run these):")
    # with a catalog, the programs a build would run: one it recorded
    # as not buildable gives way to what the build runs instead
    programs = system.index_programs(conf, analysis) if system else [
        synthesize_program(ia, source.path)
        for source, ia in zip(conf.inputs, analysis.inputs)
        if type(source) is RecordFileInput]
    lines += [f"  - {p.describe()}" for p in programs if p is not None]
    if not any(programs):
        lines.append("  (none -- nothing indexable was detected)")
    lines.append("")

    if descriptor is not None:
        lines.append(descriptor.describe())
    return "\n".join(lines)


def explain_dataset(dataset) -> str:
    """Render a fluent :class:`~repro.api.Dataset`'s whole lowered plan.

    Unlike :func:`explain_job` -- one job, analyzer evidence trail -- this
    shows the *stage chain* a Dataset compiles to, the exact Appendix A
    hints each stage carries, and the execution plan the optimizer would
    choose for each stage against the session's current catalog.
    """
    from repro.api.dataset import Dataset

    if not isinstance(dataset, Dataset):
        raise TypeError(
            f"explain_dataset expects a Dataset, got {type(dataset).__name__}"
        )
    return dataset.explain()
