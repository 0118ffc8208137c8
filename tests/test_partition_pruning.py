"""Planner pruning, fluent end-to-end runs, and optimizer statistics.

Covers the tentpole guarantees: a selective query over a partitioned
dataset provably prunes (explain says so, metrics read fewer bytes)
while producing identical records and user counters to the unpartitioned
full scan, under the sequential runner and the parallel runner.
"""

import os

import pytest

from repro import Session, col
from repro.core.analyzer.conditions import (
    Conjunct,
    SCompare,
    SConst,
    SelectionFormula,
    SParamField,
)
from repro.core.analyzer.descriptors import (
    InputAnalysis,
    JobAnalysis,
    SelectionDescriptor,
)
from repro.core.optimizer.costbased import CostBasedOptimizer
from repro.core.optimizer.planner import PARTITION_PRUNING, Optimizer
from repro.core.optimizer.predicates import Interval
from repro.core.optimizer.pruning import (
    PruneResult,
    SelectionCompiler,
    interval_intersects_zone,
    prune_partitions,
)
from repro.mapreduce.api import FunctionMapper
from repro.mapreduce.formats import PartitionedInput
from repro.mapreduce.job import JobConf
from repro.storage import input_identity
from repro.storage.partitioned import (
    SIDECAR_NAME,
    read_partitioned_info,
    write_partitioned_dataset,
)
from repro.storage.recordfile import RecordFileReader, write_records
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Schema,
)

RANKED = Schema(
    "Ranked",
    [
        Field("url", FieldType.STRING),
        Field("rank", FieldType.LONG),
        Field("payload", FieldType.BYTES),
    ],
)


def ranked_pairs(n, rank_of=lambda i: i):
    return [
        (
            LONG_SCHEMA.make(i),
            RANKED.make(f"http://x/{i}", rank_of(i), b"p" * 8),
        )
        for i in range(n)
    ]


def selection_hint(field_name, op, const):
    """An Appendix A hint: ``value.<field> OP const``."""
    formula = SelectionFormula(
        [Conjunct([
            SCompare(op, SParamField("value", (field_name,)), SConst(const))
        ])]
    )
    return SelectionDescriptor(formula=formula)


def hinted_analysis(name, descriptor):
    ia = InputAnalysis(
        input_index=0,
        input_tag=None,
        mapper_name="hinted",
        key_schema=LONG_SCHEMA,
        value_schema=RANKED,
        selection=descriptor,
    )
    return JobAnalysis(job_name=name, inputs=[ia])


def write_dataset(tmp_path, n=320, num_partitions=8, partition_by="rank"):
    directory = str(tmp_path / "ds")
    write_partitioned_dataset(
        directory, LONG_SCHEMA, RANKED, ranked_pairs(n),
        num_partitions=num_partitions, partition_by=partition_by,
    )
    return directory


def emit_all(key, value, ctx):
    ctx.emit(value.url, value.rank)


class TestIntervalZoneIntersection:
    def test_disjoint_above_and_below(self):
        assert not interval_intersects_zone(Interval(lo=100), 0, 50)
        assert not interval_intersects_zone(Interval(hi=-1), 0, 50)

    def test_boundary_exclusive(self):
        assert not interval_intersects_zone(
            Interval(lo=50, lo_inclusive=False), 0, 50
        )
        assert interval_intersects_zone(
            Interval(lo=50, lo_inclusive=True), 0, 50
        )
        assert not interval_intersects_zone(
            Interval(hi=0, hi_inclusive=False), 0, 50
        )
        assert interval_intersects_zone(
            Interval(hi=0, hi_inclusive=True), 0, 50
        )

    def test_unbounded_always_intersects(self):
        assert interval_intersects_zone(Interval(), 0, 50)

    def test_min_equals_max_zone(self):
        assert interval_intersects_zone(Interval(lo=7, hi=7), 7, 7)
        assert not interval_intersects_zone(Interval(lo=8), 7, 7)


class TestPrunePartitions:
    def prune(self, directory, descriptor):
        info = read_partitioned_info(directory)
        ia = hinted_analysis("t", descriptor).inputs[0]
        return prune_partitions(SelectionCompiler(ia), info)

    def test_range_predicate_prunes(self, tmp_path):
        directory = write_dataset(tmp_path)
        result = self.prune(directory, selection_hint("rank", ">", 280))
        assert result.total == 8
        assert result.pruned == 7
        assert result.fields == ["rank"]
        assert "pruned 7/8 partitions" in result.detail()

    def test_no_selection_keeps_nonempty_partitions(self, tmp_path):
        directory = write_dataset(tmp_path)
        info = read_partitioned_info(directory)
        ia = InputAnalysis(
            input_index=0, input_tag=None, mapper_name="m",
            key_schema=LONG_SCHEMA, value_schema=RANKED,
        )
        result = prune_partitions(SelectionCompiler(ia), info)
        assert result.pruned == 0
        assert "no selection predicate" in result.detail()

    def test_predicate_on_unzonemapped_field_keeps_all(self, tmp_path):
        # BYTES fields carry no zone maps and are not comparable, so a
        # predicate on them cannot prune anything.
        directory = write_dataset(tmp_path)
        result = self.prune(
            directory, selection_hint("payload", "==", b"p" * 8)
        )
        assert result.pruned == 0

    def test_predicate_on_non_partitioned_field_uses_its_zone_maps(
            self, tmp_path):
        # Partitioned by a rank that scatters record order, so every
        # partition's url zone map spans nearly the whole url domain: a
        # mid-range url predicate cannot prune, while one beyond the
        # domain's maximum still prunes everything.
        directory = str(tmp_path / "ds")
        write_partitioned_dataset(
            directory, LONG_SCHEMA, RANKED,
            ranked_pairs(320, rank_of=lambda i: (i * 7) % 320),
            num_partitions=8, partition_by="rank",
        )
        result = self.prune(
            directory, selection_hint("url", ">", "http://x/5")
        )
        assert result.pruned == 0
        result = self.prune(directory, selection_hint("url", ">", "z"))
        assert result.pruned == result.total

    def test_unsatisfiable_formula_prunes_everything(self, tmp_path):
        directory = write_dataset(tmp_path)
        formula = SelectionFormula(
            [Conjunct([
                SCompare(">", SParamField("value", ("rank",)), SConst(10)),
                SCompare("<", SParamField("value", ("rank",)), SConst(5)),
            ])]
        )
        result = self.prune(directory, SelectionDescriptor(formula=formula))
        assert result.pruned == result.total
        assert result.kept == []
        # Formula-level argument, not a zone-map one.
        assert "unsatisfiable" in result.detail()
        assert "zone maps" not in result.detail()

    def test_empty_partitions_always_prune(self, tmp_path):
        directory = str(tmp_path / "ds")
        write_partitioned_dataset(
            directory, LONG_SCHEMA, RANKED,
            ranked_pairs(40, rank_of=lambda i: 3),
            num_partitions=4, partition_by="rank",
        )
        result = self.prune(directory, selection_hint("rank", ">=", 0))
        assert result.total == 4
        assert len(result.kept) == 1
        # Nothing was excluded by a zone map; the reason says so.
        assert "empty partitions" in result.detail()

    def test_single_record_partitions(self, tmp_path):
        directory = str(tmp_path / "ds")
        write_partitioned_dataset(
            directory, LONG_SCHEMA, RANKED, ranked_pairs(4),
            num_partitions=4, partition_by="rank",
        )
        info = read_partitioned_info(directory)
        assert all(p.records == 1 for p in info.partitions)
        result = self.prune(directory, selection_hint("rank", "==", 2))
        assert [p.records for p in result.kept] == [1]

    def test_detail_reason_for_inexpressible_selection(self, tmp_path):
        directory = write_dataset(tmp_path)
        result = self.prune(
            directory, selection_hint("payload", ">", b"a")
        )
        assert "not interval-expressible" in result.detail() or \
            result.pruned == 0


class TestPlannerIntegration:
    def plan_for(self, tmp_path, directory, descriptor,
                 optimizer_cls=Optimizer):
        from repro.core.optimizer.catalog import Catalog

        catalog = Catalog(str(tmp_path / "cat"))
        optimizer = optimizer_cls(catalog)
        source = PartitionedInput(directory)
        conf = JobConf(
            name="t", mapper=FunctionMapper(emit_all), reducer=None,
            inputs=[source],
        )
        return optimizer.plan(conf, hinted_analysis("t", descriptor))

    def test_pruned_plan_marks_optimized(self, tmp_path):
        directory = write_dataset(tmp_path)
        descriptor = self.plan_for(
            tmp_path, directory, selection_hint("rank", ">", 280)
        )
        plan = descriptor.plans[0]
        assert plan.optimized
        assert plan.entry is None
        assert plan.optimizations == [PARTITION_PRUNING]
        assert isinstance(plan.chosen, PartitionedInput)
        assert plan.chosen.partition_counts() == (1, 7)
        assert "pruned 7/8 partitions" in descriptor.describe()

    def test_unprunable_plan_reports_zero_pruned(self, tmp_path):
        directory = write_dataset(tmp_path)
        descriptor = self.plan_for(
            tmp_path, directory, selection_hint("payload", "==", b"x")
        )
        plan = descriptor.plans[0]
        assert not plan.optimized
        assert plan.chosen is plan.original
        assert "pruned 0/8 partitions" in descriptor.describe()

    def test_cost_based_annotates_from_sidecar(self, tmp_path):
        directory = write_dataset(tmp_path)
        descriptor = self.plan_for(
            tmp_path, directory, selection_hint("rank", ">", 280),
            optimizer_cls=CostBasedOptimizer,
        )
        assert "sidecar stats" in descriptor.plans[0].detail
        assert "selectivity <=" in descriptor.plans[0].detail


class TestCostBasedStatistics:
    def test_sidecar_selectivity_without_reading_data(self, tmp_path):
        from repro.core.optimizer.catalog import Catalog

        directory = write_dataset(tmp_path)
        cbo = CostBasedOptimizer(Catalog(str(tmp_path / "cat")))
        ia = hinted_analysis("t", selection_hint("rank", ">", 280)).inputs[0]
        selectivity = cbo.estimate_selectivity(directory, ia)
        # 1 of 8 equi-depth partitions survives: bound is 40/320.
        assert selectivity == pytest.approx(40 / 320)

    def test_unoptimized_cost_from_sidecar(self, tmp_path):
        from repro.core.optimizer.catalog import Catalog

        directory = write_dataset(tmp_path)
        cbo = CostBasedOptimizer(Catalog(str(tmp_path / "cat")))
        ia = hinted_analysis("t", selection_hint("rank", ">", 0)).inputs[0]
        cost = cbo.estimate_unoptimized_cost(PartitionedInput(directory), ia)
        assert cost > 0

    def test_selectivity_cache_invalidates_on_rewrite(self, tmp_path):
        """Regression: cached selectivity must die with the file contents."""
        from repro.core.optimizer.catalog import Catalog

        path = str(tmp_path / "data.rf")
        write_records(
            path, LONG_SCHEMA, RANKED,
            iter(ranked_pairs(100, rank_of=lambda i: i)),
        )
        cbo = CostBasedOptimizer(Catalog(str(tmp_path / "cat")))
        ia = hinted_analysis("t", selection_hint("rank", ">", 49)).inputs[0]
        first = cbo.estimate_selectivity(path, ia)
        assert first == pytest.approx(0.5)

        # Rewrite the same path: every rank now fails the predicate.
        write_records(
            path, LONG_SCHEMA, RANKED,
            iter(ranked_pairs(200, rank_of=lambda i: 0)),
        )
        second = cbo.estimate_selectivity(path, ia)
        assert second == 0.0
        # The rewrite replaces the entry rather than stranding a stale
        # key: one slot per (path, formula) regardless of rewrites.
        assert len(cbo._selectivity_cache) == 1

    def test_cache_hit_for_unchanged_file(self, tmp_path):
        from repro.core.optimizer.catalog import Catalog

        path = str(tmp_path / "data.rf")
        write_records(path, LONG_SCHEMA, RANKED, iter(ranked_pairs(50)))
        cbo = CostBasedOptimizer(Catalog(str(tmp_path / "cat")))
        ia = hinted_analysis("t", selection_hint("rank", ">", 24)).inputs[0]
        assert cbo.estimate_selectivity(path, ia) == \
            cbo.estimate_selectivity(path, ia)
        assert len(cbo._selectivity_cache) == 1


class TestInputIdentity:
    """The one function every cache and the catalog compare."""

    def test_kind_table(self, tmp_path):
        path = str(tmp_path / "x.rf")
        write_records(path, LONG_SCHEMA, RANKED, iter(ranked_pairs(5)))
        bare = tmp_path / "bare"
        bare.mkdir()
        directory = write_dataset(tmp_path)
        sidecar = os.stat(os.path.join(directory, SIDECAR_NAME))
        table = {
            path: ("file", os.path.getsize(path),
                   os.stat(path).st_mtime_ns),
            directory: ("dir", sidecar.st_size, sidecar.st_mtime_ns),
            str(bare): ("dir-no-sidecar", 0, os.stat(bare).st_mtime_ns),
            str(tmp_path / "nope"): ("missing", 0, 0),
        }
        for target, expected in table.items():
            identity = input_identity(target)
            assert identity == (target,) + expected
            assert identity.kind == expected[0]

    def test_path_is_absolute(self, tmp_path, monkeypatch):
        write_records(str(tmp_path / "x.rf"), LONG_SCHEMA, RANKED,
                      iter(ranked_pairs(5)))
        monkeypatch.chdir(tmp_path)
        assert input_identity("x.rf") == input_identity(str(tmp_path / "x.rf"))

    def test_file_rewrite_moves_identity(self, tmp_path):
        path = str(tmp_path / "x.rf")
        write_records(path, LONG_SCHEMA, RANKED, iter(ranked_pairs(5)))
        before = input_identity(path)
        assert input_identity(path) == before
        write_records(path, LONG_SCHEMA, RANKED, iter(ranked_pairs(6)))
        assert input_identity(path) != before

    def test_in_place_partition_rewrite_moves_identity(self, tmp_path):
        """Rewriting a dataset keeps its partition file *names*, so the
        directory's own mtime can stand still; the sidecar's cannot."""
        directory = write_dataset(tmp_path, num_partitions=2)
        before = input_identity(directory)
        dir_stat = os.stat(directory)
        write_partitioned_dataset(
            directory, LONG_SCHEMA, RANKED, ranked_pairs(17),
            num_partitions=2, partition_by="rank",
        )
        os.utime(directory, ns=(dir_stat.st_atime_ns, dir_stat.st_mtime_ns))
        assert os.stat(directory).st_mtime_ns == dir_stat.st_mtime_ns
        after = input_identity(directory)
        assert after.kind == "dir" and after != before


class FluentFixtureMixin:
    """Shared setup: one flat file + the equivalent partitioned dataset."""

    N = 640
    PARTITIONS = 16
    THRESHOLD = 599  # keeps 40/640 records -> 1/16 partitions

    @pytest.fixture
    def data(self, tmp_path):
        flat = str(tmp_path / "flat.rf")
        write_records(
            flat, LONG_SCHEMA, RANKED, iter(ranked_pairs(self.N))
        )
        session = Session(workdir=str(tmp_path / "session"))
        directory = str(tmp_path / "ranked.parts")
        session.read(flat).write(
            directory, partition_by="rank", num_partitions=self.PARTITIONS
        )
        yield session, flat, directory
        session.close()


class TestFluentEndToEnd(FluentFixtureMixin):
    def query(self, session, path):
        return (
            session.read(path)
            .filter(col("rank") > self.THRESHOLD)
            .select("url", "rank")
        )

    def test_pruned_equals_full_scan_all_schedulers(self, data):
        session, flat, directory = data
        pruned_q = self.query(session, directory)
        full_q = self.query(session, flat)

        full = full_q.run()
        runs = {
            "sequential": pruned_q.run(),
            "parallel": pruned_q.run(parallelism=2),
        }
        reference = full.sorted_rows()
        assert len(reference) == self.N - self.THRESHOLD - 1
        for name, outcome in runs.items():
            assert outcome.sorted_rows() == reference, name
            # User-level counters match the full scan; framework volume
            # shrinks.
            metrics = outcome.result.metrics
            assert metrics.partitions_pruned == self.PARTITIONS - 1, name
            assert metrics.partitions_scanned == 1, name
            assert metrics.map_input_stored_bytes < \
                full.result.metrics.map_input_stored_bytes / 4, name
            assert metrics.map_input_records < \
                full.result.metrics.map_input_records, name

        # The two pruned runs are byte-identical to each other: same
        # rows in the same order, same counters.
        seq, par = runs["sequential"], runs["parallel"]
        assert par.rows == seq.rows
        assert par.result.counters.to_dict() == seq.result.counters.to_dict()

    def test_translated_udf_filter_prunes_like_its_col_spelling(self, data):
        """filter(fn) proven equal to a col() predicate hands the planner
        the same selection hint, so the same partitions are pruned."""
        session, flat, directory = data
        threshold = self.THRESHOLD

        class RankAbove:
            def __call__(self, value):
                return value.rank > threshold

        for udf in (lambda v: v.rank > threshold, RankAbove()):
            via_udf = session.read(directory).filter(udf) \
                .select("url", "rank")
            spelled = self.query(session, directory)
            assert repr(via_udf.lower().hints()[0].inputs) == \
                repr(spelled.lower().hints()[0].inputs)
            for kwargs in ({}, {"parallelism": 2}):
                got = via_udf.run(**kwargs)
                want = spelled.run(**kwargs)
                assert got.rows == want.rows, kwargs
                got_m, want_m = got.result.metrics, want.result.metrics
                assert got_m.partitions_pruned == self.PARTITIONS - 1
                assert (got_m.partitions_scanned,
                        got_m.map_input_stored_bytes,
                        got_m.map_input_records,
                        got_m.batch_map_tasks) == (
                    want_m.partitions_scanned,
                    want_m.map_input_stored_bytes,
                    want_m.map_input_records,
                    want_m.batch_map_tasks), kwargs
            assert via_udf.run().sorted_rows() == \
                self.query(session, flat).run().sorted_rows()

    def test_opaque_udf_filter_scans_every_partition(self, data):
        session, _flat, directory = data
        threshold = self.THRESHOLD
        result = session.read(directory).filter(
            lambda v: max(v.rank, 0) > threshold).select("url", "rank").run()
        assert result.result.metrics.partitions_pruned == 0
        assert len(result.rows) == self.N - self.THRESHOLD - 1

    def test_explain_reports_pruning(self, data):
        session, _flat, directory = data
        text = self.query(session, directory).explain()
        assert f"pruned {self.PARTITIONS - 1}/{self.PARTITIONS} " \
            f"partitions" in text
        assert "zone maps on rank" in text

    def test_explain_dataset_wrapper(self, data):
        from repro.explain import explain_dataset

        session, _flat, directory = data
        text = explain_dataset(self.query(session, directory))
        assert "partition-pruning" in text

    def test_catalog_registration(self, data):
        session, _flat, directory = data
        entry = session.system.catalog.dataset_for(directory)
        assert entry is not None
        assert entry.partition_by == "rank"
        assert entry.num_partitions == self.PARTITIONS
        assert entry.stats["records"] == self.N

    def test_write_then_read_round_trip_unfiltered(self, data):
        session, flat, directory = data
        flat_rows = session.read(flat).run().sorted_rows()
        part_rows = session.read(directory).run().sorted_rows()
        assert part_rows == flat_rows

    def test_aggregate_over_pruned_scan(self, data):
        session, flat, directory = data

        def agg(ds):
            return (
                ds.filter(col("rank") > self.THRESHOLD)
                .group_by("url")
                .count()
            )

        assert agg(session.read(directory)).run().sorted_rows() == \
            agg(session.read(flat)).run().sorted_rows()

    def test_hash_partitioned_write_without_field(self, data, tmp_path):
        session, flat, _directory = data
        directory = str(tmp_path / "hashed.parts")
        session.read(flat).write(directory, num_partitions=4)
        info = read_partitioned_info(directory)
        assert info.mode == "hash"
        assert info.num_partitions == 4
        rows = session.read(directory).run().sorted_rows()
        assert rows == session.read(flat).run().sorted_rows()

    def test_join_of_partitioned_datasets_parallel(self, data, tmp_path):
        session, flat, directory = data
        other = str(tmp_path / "top.parts")
        session.read(flat).filter(col("rank") > 500).write(
            other, partition_by="rank", num_partitions=4
        )
        join = (
            session.read(directory)
            .filter(col("rank") > self.THRESHOLD)
            .join(session.read(other), on="url")
        )
        sequential = join.run()
        parallel = join.run(parallelism=2)
        assert parallel.rows == sequential.rows
        assert parallel.result.counters.to_dict() == \
            sequential.result.counters.to_dict()

    def test_unknown_partition_column_rejected(self, data, tmp_path):
        from repro.exceptions import JobConfigError

        session, flat, _directory = data
        with pytest.raises(JobConfigError):
            session.read(flat).write(
                str(tmp_path / "bad.parts"), partition_by="nope"
            )
        # Fails before anything runs or is written.
        assert not (tmp_path / "bad.parts").exists()

    def test_non_comparable_partition_column_rejected(self, data, tmp_path):
        from repro.exceptions import JobConfigError

        session, flat, _directory = data
        with pytest.raises(JobConfigError, match="not comparable"):
            session.read(flat).write(
                str(tmp_path / "bad.parts"), partition_by="payload"
            )

    def test_bad_num_partitions_rejected_before_run(self, data, tmp_path):
        from repro.exceptions import JobConfigError

        session, flat, _directory = data
        for bad in (0, -3):
            with pytest.raises(JobConfigError, match="num_partitions"):
                session.read(flat).write(
                    str(tmp_path / "bad.parts"), num_partitions=bad
                )

    def test_unfiltered_scan_not_reported_optimized(self, data):
        session, _flat, directory = data
        outcome = session.read(directory).run()
        assert not outcome.optimized
        assert "pruned 0/" in outcome.descriptor.describe()


class TestClassicPathMetrics(FluentFixtureMixin):
    def test_bytes_read_shrink_with_pruning(self, data):
        session, flat, directory = data
        source = PartitionedInput(directory)
        hints = hinted_analysis("scan", selection_hint("rank", ">", 599))
        conf = JobConf(
            name="scan", mapper=FunctionMapper(emit_all), reducer=None,
            inputs=[source],
        )
        system = session.system
        outcome = system.submit_with_hints(conf, hints)
        stored = outcome.result.metrics.map_input_stored_bytes
        with RecordFileReader(flat) as reader:
            flat_size = reader.file_size()
        assert stored < flat_size / 4
        assert outcome.result.metrics.partitions_pruned == 15

    def test_prune_result_dataclass(self):
        result = PruneResult(kept=[], total=4, fields=["rank"])
        assert result.pruned == 4
        assert "zone maps on rank" in result.detail()
