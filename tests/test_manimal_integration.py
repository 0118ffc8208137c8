"""Integration tests for the full Manimal pipeline + safety properties.

The paper's core promise: "the final program output should be the same as
what would have been generated by a conventional MapReduce system" -- with
speedups.  These tests run the whole analyze/index/plan/execute loop and
assert output equivalence, work reduction, and the never-a-false-positive
safety property on adversarial mappers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.manimal import Manimal
from repro.mapreduce import JobConf, RecordFileInput, run_job
from repro.mapreduce.api import Mapper, Reducer
from repro.storage.serialization import STRING_SCHEMA
from tests.conftest import write_webpages


class ThresholdMapper(Mapper):
    def __init__(self, threshold):
        self.threshold = threshold

    def map(self, key, value, ctx):
        if value.rank > self.threshold:
            ctx.emit(value.rank, 1)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _job(path, mapper, name="it"):
    return JobConf(name=name, mapper=mapper, reducer=CountReducer,
                   combiner=CountReducer, inputs=[RecordFileInput(path)])


class TestEndToEnd:
    def test_submit_without_indexes_is_plain_run(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, ThresholdMapper(45))
        outcome = system.submit(job, build_indexes=False)
        assert not outcome.optimized
        assert outcome.result.metrics.map_input_records == 500
        # The index-generation program is still produced (paper Fig. 1).
        assert outcome.index_programs[0] is not None

    def test_submit_with_indexes_reduces_work(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, ThresholdMapper(45))
        baseline = run_job(job)
        outcome = system.submit(job, build_indexes=True)
        assert outcome.optimized
        assert sorted(outcome.result.outputs) == sorted(baseline.outputs)
        assert outcome.result.metrics.map_input_records < 100
        assert (
            outcome.result.metrics.map_input_stored_bytes
            < baseline.metrics.map_input_stored_bytes / 4
        )

    def test_index_reused_for_second_job_same_shape(self, tmp_path,
                                                    webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        system.submit(_job(webpage_file, ThresholdMapper(45)),
                      build_indexes=True)
        n_indexes = len(system.catalog)
        # Different threshold, same formula shape: reuses the rank index.
        outcome = system.submit(_job(webpage_file, ThresholdMapper(10)),
                                build_indexes=True)
        assert outcome.optimized
        assert len(system.catalog) == n_indexes

    def test_unsatisfiable_filter_reads_nothing(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 100)

        class Impossible(Mapper):
            def map(self, key, value, ctx):
                if value.rank > 10 and value.rank < 5:
                    ctx.emit(key, 1)

        system = Manimal(str(tmp_path / "cat"))
        job = _job(path, Impossible())
        outcome = system.submit(job, build_indexes=True)
        assert outcome.result.outputs == []
        assert outcome.result.metrics.map_input_records == 0
        assert outcome.result.metrics.map_input_stored_bytes == 0

    def test_summary_is_printable(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        outcome = system.submit(_job(webpage_file, ThresholdMapper(45)),
                                build_indexes=True)
        text = outcome.summary()
        assert "SELECT" in text and "execution descriptor" in text


class TestHintsPath:
    def test_layered_tool_hints_drive_planning(self, tmp_path, webpage_file):
        """Appendix A: tools can sidestep the analyzer with explicit hints."""
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, ThresholdMapper(45))
        analysis = system.analyze(job)  # stands in for tool-provided hints
        system.build_indexes(job, analysis)
        outcome = system.submit_with_hints(job, analysis)
        assert outcome.optimized
        baseline = run_job(job)
        assert sorted(outcome.result.outputs) == sorted(baseline.outputs)


class RankAbove:
    """A fluent filter(fn) predicate the translator proves equal to
    ``col("rank") > limit``."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, value):
        return value.rank > self.limit


class TestTranslatedUdfPushdown:
    def test_udf_filter_picks_the_btree_plan_of_its_col_spelling(
            self, tmp_path, webpage_file):
        from repro import Session, col

        with Session(workdir=str(tmp_path / "s")) as session:
            pages = session.read(webpage_file)
            spelled = pages.filter(col("rank") > 45).select("url", "rank")
            via_udf = pages.filter(RankAbove(45)).select("url", "rank")
            plain = via_udf.run()
            assert not plain.optimized
            # indexes built for the col() query serve the UDF query: the
            # two carry the same selection + projection descriptors
            session.build_indexes(spelled)
            got, want = via_udf.run(), spelled.run()
            assert got.optimized and want.optimized
            assert "btree-scan" in got.descriptor.describe()
            assert got.descriptor.describe().split("\n")[1:] == \
                want.descriptor.describe().split("\n")[1:]
            assert got.rows == want.rows
            assert got.sorted_rows() == plain.sorted_rows()
            assert got.result.metrics.map_input_records == \
                want.result.metrics.map_input_records < 100
            # and an opaque spelling of the same predicate cannot use it
            opaque = pages.filter(
                lambda v: max(v.rank, 45) > 45).select("url", "rank").run()
            assert not opaque.optimized
            assert opaque.sorted_rows() == plain.sorted_rows()


# ---------------------------------------------------------------------------
# Safety: adversarial mappers that MUST NOT be optimized
# ---------------------------------------------------------------------------

class StatefulEmitter(Mapper):
    """Output depends on arrival order via member state."""

    def __init__(self):
        self.countdown = 3

    def map(self, key, value, ctx):
        self.countdown -= 1
        if self.countdown > 0 or value.rank > 45:
            ctx.emit(value.rank, 1)


class GlobalReader(Mapper):
    def map(self, key, value, ctx):
        import os  # noqa -- never reached in analysis (unsupported)
        if value.rank > int(os.environ.get("T", "0")):
            ctx.emit(key, 1)


class ContextDependent(Mapper):
    def map(self, key, value, ctx):
        if ctx.input_tag is None and value.rank > 5:
            ctx.emit(key, 1)


class TestSafety:
    @pytest.mark.parametrize("mapper_cls", [
        StatefulEmitter, GlobalReader, ContextDependent,
    ])
    def test_unsafe_mappers_never_get_selection(self, tmp_path, webpage_file,
                                                mapper_cls):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, mapper_cls())
        analysis = system.analyze(job)
        assert analysis.inputs[0].selection is None

    @pytest.mark.parametrize("mapper_cls", [GlobalReader, ContextDependent])
    def test_unsafe_but_deterministic_mappers_output_preserved(
        self, tmp_path, webpage_file, mapper_cls
    ):
        """End-to-end output equality after submit(build_indexes=True).

        StatefulEmitter is excluded: its output depends on map-task
        boundaries by construction (per-task member state), which no
        MapReduce system -- including Hadoop with speculative execution --
        holds fixed.  The safety property for it is the analysis refusal
        asserted above.
        """
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, mapper_cls())
        baseline = run_job(job)
        outcome = system.submit(job, build_indexes=True)
        assert sorted(outcome.result.outputs, key=repr) == sorted(
            baseline.outputs, key=repr
        )

    @given(
        threshold=st.integers(min_value=-5, max_value=60),
        ranks=st.lists(st.integers(min_value=0, max_value=55),
                       min_size=1, max_size=60),
    )
    @settings(max_examples=15, deadline=None)
    def test_output_equivalence_property(self, threshold, ranks,
                                         tmp_path_factory):
        """For arbitrary data and thresholds, optimized == plain, always."""
        tmp = tmp_path_factory.mktemp("prop")
        path = write_webpages(tmp / "w.rf", len(ranks),
                              rank_of=lambda i: ranks[i])
        job = _job(path, ThresholdMapper(threshold))
        baseline = run_job(job)
        system = Manimal(str(tmp / "cat"))
        outcome = system.submit(job, build_indexes=True)
        assert outcome.optimized
        assert sorted(outcome.result.outputs) == sorted(baseline.outputs)
