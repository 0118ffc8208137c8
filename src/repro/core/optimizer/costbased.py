"""Cost-based plan selection (the paper's stated long-run direction).

Paper Section 2.2: "The optimizer faces two planning questions which in
the long run should be determined by a cost-based approach, but for now
are solved with simple rule-based heuristics."  This module supplies that
long-run answer: instead of taking the hard-coded ranking's first
applicable index, :class:`CostBasedOptimizer` estimates the map-phase cost
of *every* applicable plan with the cluster cost model and picks the
cheapest.

The estimate needs one statistic the catalog cannot store: the selectivity
of the submitted job's predicate against this input.  It is measured by
sampling the head of the base file and evaluating the selection formula on
the sample -- the classic optimizer-statistics move, kept deliberately
simple (uniformity assumption, fixed sample size).

The hard-coded ranking is usually right; the interesting case it gets
wrong is a *non-selective* filter over wide records, where scanning a tiny
projected file end-to-end beats a B+Tree range covering most of the full
records.  The ablation bench constructs exactly that scenario.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.analyzer.descriptors import InputAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog
from repro.core.optimizer.planner import InputPlan, Optimizer
from repro.core.optimizer.pruning import (
    PruneResult,
    SelectionCompiler,
    prune_partitions,
)
from repro.mapreduce.cost import PAPER_CLUSTER, CostModel
from repro.mapreduce.formats import PartitionedInput, RecordFileInput
from repro.mapreduce.metrics import JobMetrics
from repro.storage import input_identity
from repro.storage.partitioned import (
    is_partitioned_dataset,
    read_partitioned_info,
)
from repro.storage.recordfile import RecordFileReader


class CostBasedOptimizer(Optimizer):
    """Chooses among applicable indexes by estimated map-phase cost."""

    def __init__(self, catalog: Catalog, cost_model: CostModel = PAPER_CLUSTER,
                 sample_records: int = 500):
        super().__init__(catalog)
        self.cost_model = cost_model
        self.sample_records = sample_records
        self._selectivity_cache: dict = {}

    # -- plan choice -----------------------------------------------------------

    def _choose(self, index: int, source: RecordFileInput,
                ia: InputAnalysis) -> Optional[InputPlan]:
        plans = self.applicable_plans(index, source, ia)
        if not plans:
            return None
        best = None
        best_cost = float("inf")
        for plan in plans:
            cost = self.estimate_plan_cost(source, ia, plan)
            if cost < best_cost:
                best, best_cost = plan, cost
        assert best is not None
        best.detail += f" [estimated map cost {best_cost:.2f}s]"
        return best

    # -- estimation ----------------------------------------------------------------

    def estimate_selectivity(self, source_path: str,
                             ia: InputAnalysis) -> float:
        """Fraction of records passing the job's selection formula.

        Partitioned datasets answer from their statistics sidecar (zone
        maps bound how many records can possibly pass -- no data file is
        opened); plain record files fall back to evaluating the formula
        on a head sample.  Cached per (path, formula) under the input's
        :func:`~repro.storage.input_identity`, so rewriting an input in
        place invalidates the entry.  Returns 1.0 when there is no
        formula.
        """
        if ia.selection is None:
            return 1.0
        # One slot per (path, formula); the identity lives in the
        # *value* so rewrites replace the entry instead of stranding an
        # unreachable key per rewrite.
        key = (source_path, repr(ia.selection.formula))
        token = input_identity(source_path)
        cached = self._selectivity_cache.get(key)
        if cached is not None and cached[0] == token:
            return cached[1]
        if is_partitioned_dataset(source_path):
            selectivity = self._sidecar_selectivity(source_path, ia)
            self._selectivity_cache[key] = (token, selectivity)
            return selectivity
        passed = 0
        total = 0
        with RecordFileReader(source_path) as reader:
            for record_key, value in reader.iter_records():
                if total >= self.sample_records:
                    break
                total += 1
                try:
                    if ia.selection.formula.evaluate(record_key, value):
                        passed += 1
                except Exception:
                    # Evaluation hiccups mean we know nothing: assume the
                    # filter keeps everything (the pessimistic direction
                    # for selection indexes).
                    self._selectivity_cache[key] = (token, 1.0)
                    return 1.0
        selectivity = (passed / total) if total else 1.0
        self._selectivity_cache[key] = (token, selectivity)
        return selectivity

    def _sidecar_selectivity(self, source_path: str, ia: InputAnalysis,
                             info: Any = None,
                             result: Optional[PruneResult] = None) -> float:
        """Upper-bound selectivity from partition statistics alone.

        Zone maps prove which partitions can hold qualifying records;
        the surviving record share bounds the selection's selectivity
        without reading a single data byte.  Callers that already hold
        the sidecar/prune result (the planning hook) pass them in; the
        ``estimate_selectivity`` path loads them here.
        """
        if info is None:
            info = read_partitioned_info(source_path)
        total = info.total_records
        if total == 0:
            return 1.0
        if result is None:
            result = prune_partitions(SelectionCompiler(ia), info)
        kept = sum(p.records for p in result.kept)
        return kept / total

    def estimate_plan_cost(self, source: RecordFileInput, ia: InputAnalysis,
                           plan: InputPlan) -> float:
        """Simulated seconds for the map phase under this plan."""
        entry = plan.entry
        assert entry is not None
        src_stats = entry.stats
        base_bytes = src_stats.get("source_bytes", 0)
        base_records = src_stats.get("source_records",
                                     src_stats.get("index_records", 0))
        index_bytes = src_stats.get("index_bytes", base_bytes)
        index_records = src_stats.get("index_records", base_records)
        n_fields = (
            len(ia.value_schema.fields) if ia.value_schema is not None else 1
        )
        kept_fields = (
            len(entry.value_fields) if entry.value_fields else n_fields
        )

        kind = entry.kind
        if kind in (cat.KIND_SELECTION, cat.KIND_SELECTION_PROJECTION):
            fraction = self.estimate_selectivity(source.path, ia)
            stored = index_bytes * fraction
            logical = stored
            records = index_records * fraction
            fields = records * kept_fields
        elif kind in (cat.KIND_PROJECTION, cat.KIND_PROJECTION_DELTA,
                      cat.KIND_DICTIONARY):
            stored = index_bytes
            # Delta decode reconstructs the projected logical stream.
            logical = (
                index_bytes if kind != cat.KIND_PROJECTION_DELTA
                else max(index_bytes, base_bytes * kept_fields / max(n_fields, 1))
            )
            records = index_records
            fields = records * kept_fields
        else:  # plain delta over the full schema
            stored = index_bytes
            logical = base_bytes
            records = index_records
            fields = records * n_fields

        metrics = JobMetrics(
            map_input_records=int(records),
            map_input_stored_bytes=int(stored),
            map_input_logical_bytes=int(logical),
            fields_deserialized=int(fields),
        )
        sim = self.cost_model.simulate(metrics)
        # Startup is identical across choices; exclude it so tiny inputs
        # still rank meaningfully.
        return sim.total_s - sim.startup_s

    def estimate_unoptimized_cost(self, source: RecordFileInput,
                                  ia: InputAnalysis) -> float:
        """Simulated map-phase seconds for the plain full scan.

        Partitioned inputs answer from sidecar statistics (total bytes
        and records are already recorded); plain files stat and
        block-count the file.
        """
        if isinstance(source, PartitionedInput):
            info = source.info()
            size, records = info.total_bytes, info.total_records
        else:
            with RecordFileReader(source.path) as reader:
                size = reader.file_size()
                records = reader.count_records()
        n_fields = (
            len(ia.value_schema.fields) if ia.value_schema is not None else 1
        )
        metrics = JobMetrics(
            map_input_records=records,
            map_input_stored_bytes=size,
            map_input_logical_bytes=size,
            fields_deserialized=records * n_fields,
        )
        sim = self.cost_model.simulate(metrics)
        return sim.total_s - sim.startup_s

    # -- partitioned inputs -------------------------------------------------------

    def _annotate_partition_plan(self, plan: InputPlan,
                                 source: PartitionedInput, ia: InputAnalysis,
                                 result: PruneResult) -> None:
        """Report the sidecar-derived cost estimate on pruning plans.

        This is where the cost-based optimizer swaps head-of-file
        sampling for sidecar statistics: both the selectivity bound and
        the byte/record volumes come from ``_partitions.json``.
        """
        info = source.info()
        kept_records = sum(p.records for p in result.kept)
        kept_bytes = sum(p.bytes for p in result.kept)
        n_fields = (
            len(ia.value_schema.fields) if ia.value_schema is not None else 1
        )
        metrics = JobMetrics(
            map_input_records=kept_records,
            map_input_stored_bytes=kept_bytes,
            map_input_logical_bytes=kept_bytes,
            fields_deserialized=kept_records * n_fields,
        )
        sim = self.cost_model.simulate(metrics)
        cost = sim.total_s - sim.startup_s
        bound = self._sidecar_selectivity(
            source.path, ia, info=info, result=result
        )
        plan.detail += (
            f" [sidecar stats: selectivity <= {bound:.3f}, "
            f"estimated map cost {cost:.2f}s]"
        )
