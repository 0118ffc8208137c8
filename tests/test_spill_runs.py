"""The pickle spill plane (:mod:`repro.mapreduce.shuffle`), the one
on-disk run format every reducing stage spills, merges and reduces
through.

Four layers.  Property tests round-trip runs across every key kind the
shuffle sorts -- including ``None`` keys, mixed runtime types, integers
past 64 bits and values no fixed-width codec describes, which this
format must carry as-is.  Randomized merge tests replay the streaming
k-way merge against the sequential stable-sort oracle, with empty runs,
single-pair runs and groups spanning frame and run boundaries.
End-to-end differentials pin byte identity of pool-run reduces --
plain, combined, filtered and pre-aggregated on the map side -- against
the sequential runner.  The chaos layer (marked ``chaos``) injects I/O
faults into the run writer and kills into the merging reduce task of a
described aggregate, proving the recovery contract holds on this plane.
"""

import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import JobConf, Mapper, Reducer, Session, col, faults
from repro.batch import shuffleblocks
from repro.engine import ExecutionEngine
from repro.exceptions import JobExecutionError, TransientTaskError
from repro.faults import Fault, FaultPlan
from repro.mapreduce import (
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    shuffle,
)
from repro.mapreduce.keyspace import sort_key
from tests.conftest import metrics_without_wall, write_webpages

I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)

#: Every key kind the shuffle sorts; the last three are the ones a
#: fixed-width block codec would have had to refuse.
KEY_STRATEGIES = {
    "int": I64,
    "string": st.text(max_size=24),
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False),
    "bytes": st.binary(max_size=24),
    "tuple": st.tuples(I64, st.text(max_size=8)),
    "bigint": st.integers(min_value=1 << 63, max_value=1 << 80),
    "mixed": st.one_of(st.none(), I64, st.text(max_size=8),
                       st.floats(allow_nan=False)),
}

any_value = st.one_of(
    st.none(),
    I64,
    st.text(max_size=24),
    st.floats(allow_nan=False),
    st.booleans(),
    st.binary(max_size=24),
    st.tuples(I64, st.text(max_size=8)),
)


def spill(tmpdir, name, pairs):
    """Spill one map task's partition output as the pool's workers do:
    decorated, stable-sorted, framed."""
    path = os.path.join(str(tmpdir), name)
    written = shuffle.write_run(
        path, shuffle.sort_decorated_run(shuffle.decorate_pairs(pairs))
    )
    assert written == path
    return path


def merged_pairs(paths):
    """(key, value) pairs out of the streaming decorated merge."""
    return [
        (key, value)
        for _skey, key, value in shuffle.merge_decorated_runs(paths)
    ]


def stable_oracle(runs):
    """What the sequential runner computes: one stable full sort of the
    task-order concatenation by ``sort_key``."""
    flat = [pair for run in runs for pair in run]
    flat.sort(key=lambda pair: sort_key(pair[0]))
    return flat


def frame_sizes(path):
    """Pairs per pickle frame of one run file."""
    sizes = []
    with open(path, "rb") as f:
        while True:
            try:
                sizes.append(len(pickle.load(f)))
            except EOFError:
                return sizes


# -- property round-trips -----------------------------------------------------


class TestRunRoundTrip:
    @pytest.mark.parametrize("key_kind", sorted(KEY_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_key_kind_round_trips(self, key_kind, data,
                                        tmp_path_factory):
        pairs = data.draw(st.lists(
            st.tuples(KEY_STRATEGIES[key_kind], any_value), max_size=60
        ))
        tmp = tmp_path_factory.mktemp("rt")
        path = spill(tmp, "r0.run", pairs)
        assert merged_pairs([path]) == stable_oracle([pairs])

    @given(pairs=st.lists(st.tuples(any_value, any_value), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_plain_runs_read_back_unchanged(self, pairs, tmp_path_factory):
        # Map-only stages spill plain, unsorted pairs: emit order is the
        # contract, so the run must come back exactly as written.
        tmp = tmp_path_factory.mktemp("plain")
        path = shuffle.write_run(os.path.join(str(tmp), "p.run"), pairs)
        assert shuffle.read_run(path) == pairs

    def test_empty_run_is_an_empty_file(self, tmp_path):
        path = spill(tmp_path, "empty.run", [])
        assert os.path.getsize(path) == 0
        assert merged_pairs([path]) == []

    def test_single_record_run(self, tmp_path):
        path = spill(tmp_path, "one.run", [(7, 42)])
        assert frame_sizes(path) == [1]
        assert merged_pairs([path]) == [(7, 42)]

    def test_run_spanning_many_frames(self, tmp_path):
        n = shuffle.SPILL_CHUNK_PAIRS * 2 + 123
        pairs = [(i % 5, i) for i in range(n)]
        path = spill(tmp_path, "big.run", pairs)
        assert frame_sizes(path) == [
            shuffle.SPILL_CHUNK_PAIRS, shuffle.SPILL_CHUNK_PAIRS, 123]
        assert merged_pairs([path]) == stable_oracle([pairs])

    def test_reader_streams_frame_by_frame(self, tmp_path):
        # The merge buffers one frame per run: the first frame is served
        # before the reader ever reaches a damaged later one.
        n = shuffle.SPILL_CHUNK_PAIRS + 10
        path = shuffle.write_run(os.path.join(str(tmp_path), "s.run"),
                                 [(i, i) for i in range(n)])
        first_frame_end = len(pickle.dumps(
            [(i, i) for i in range(shuffle.SPILL_CHUNK_PAIRS)],
            protocol=shuffle.SPILL_PROTOCOL))
        with open(path, "r+b") as f:
            f.seek(first_frame_end)
            f.write(b"\x00garbage")
        stream = shuffle.iter_run(path)
        served = [next(stream) for _ in range(shuffle.SPILL_CHUNK_PAIRS)]
        assert served == [(i, i) for i in range(shuffle.SPILL_CHUNK_PAIRS)]
        with pytest.raises(pickle.UnpicklingError):
            next(stream)

    def test_decoration_is_computed_once_per_pair(self, tmp_path):
        # The spilled rows carry sort_key itself: the merge heap and the
        # reducer's grouping read it back instead of re-deriving it.
        pairs = [("b", 1), (None, 2), (3, 3)]
        path = spill(tmp_path, "d.run", pairs)
        assert shuffle.read_run(path) == sorted(
            ((sort_key(k), k, v) for k, v in pairs), key=lambda r: r[0])


class TestEveryPairIsCarried:
    """Pairs a fixed-width block codec refuses ride this format as-is."""

    @pytest.mark.parametrize("pairs", [
        [(None, 1)],                       # None key
        [(1, 1), ("three", 1)],            # mixed runtime key types
        [(1 << 63, 1)],                    # key outside 64-bit range
        [(-(1 << 63) - 1, 1)],
        [(1.5, 1), (1, 2)],                # float beside int keys
        [(1, None)],                       # None value
        [(1, "x"), (1, 2)],                # mixed runtime value types
        [(0, 0), (1, 1 << 70)],            # value past 64 bits
    ], ids=["none-key", "mixed-keys", "key-2^63", "key-below-i64",
            "float-key", "none-value", "mixed-values", "value-2^70"])
    def test_undescribable_pairs_round_trip(self, pairs, tmp_path):
        path = spill(tmp_path, "r.run", pairs)
        assert merged_pairs([path]) == stable_oracle([pairs])

    def test_tuple_values_of_any_arity(self, tmp_path):
        pairs = [(1, (2, 3)), (1, (2,)), (0, [2, 3]), (1, (2, "x"))]
        path = spill(tmp_path, "t.run", pairs)
        assert merged_pairs([path]) == stable_oracle([pairs])

    def test_unpicklable_value_is_the_only_refusal(self, tmp_path):
        path = os.path.join(str(tmp_path), "u.run")
        with pytest.raises(JobExecutionError, match="not picklable"):
            shuffle.write_run(path, [(1, 1), (2, lambda: None)])

    def test_unwritable_run_is_retryable(self, tmp_path):
        # A real OSError (here: the spill directory is gone) surfaces as
        # a transient task error the pool retries, not a job failure.
        path = os.path.join(str(tmp_path), "missing", "r.run")
        with pytest.raises(TransientTaskError, match="r.run"):
            shuffle.write_run(path, [(1, 1)])


# -- merge stability ----------------------------------------------------------


class TestMergeStability:
    def _random_runs(self, rng, n_runs, key_pool):
        runs = []
        for _ in range(n_runs):
            size = rng.choice(
                [0, 1, rng.randrange(1, 40), rng.randrange(1, 400)])
            runs.append([(rng.choice(key_pool), rng.randrange(1000))
                         for _ in range(size)])
        return runs

    def test_randomized_merges_match_stable_sort_oracle(self, tmp_path):
        rng = random.Random(0x5B10C5)
        for trial in range(25):
            key_pool = [rng.randrange(-50, 50)
                        for _ in range(rng.randrange(1, 12))]
            runs = self._random_runs(rng, rng.randrange(1, 6), key_pool)
            # Duplicate values disambiguate nothing: tag each pair so a
            # stability violation cannot hide behind equal payloads.
            runs = [[(k, (trial, r, i)) for i, (k, _v) in enumerate(run)]
                    for r, run in enumerate(runs)]
            paths = [spill(tmp_path, f"t{trial}-r{r}.run", run)
                     for r, run in enumerate(runs)]
            assert merged_pairs(paths) == stable_oracle(runs), (
                f"trial {trial}: k-way merge diverged from stable sort"
            )

    def test_string_key_merge_matches_oracle(self, tmp_path):
        rng = random.Random(0xC0FFEE)
        words = ["", "a", "ab", "b", "ba", "éclair", "zz"]
        runs = [[(rng.choice(words), i * 10 + r)
                 for i in range(rng.randrange(0, 60))]
                for r in range(4)]
        paths = [spill(tmp_path, f"s{r}.run", run)
                 for r, run in enumerate(runs)]
        assert merged_pairs(paths) == stable_oracle(runs)

    def test_group_spanning_frames_and_runs(self, tmp_path):
        # One giant key straddles frame boundaries within runs AND run
        # boundaries across the merge; interleaved with neighbors.
        n = shuffle.SPILL_CHUNK_PAIRS + 77
        runs = [
            [(1, i) for i in range(n)] + [(2, i) for i in range(5)],
            [(0, i) for i in range(3)] + [(1, i + n) for i in range(n)],
        ]
        paths = [spill(tmp_path, f"g{r}.run", run)
                 for r, run in enumerate(runs)]
        assert merged_pairs(paths) == stable_oracle(runs)

    def test_equal_keys_never_compare_values(self, tmp_path):
        # The heap compares decorations only: values without an order
        # (dicts, objects) tie on key and still merge in task order.
        runs = [[(1, {"t": 0}), (0, object)], [(1, {"t": 1}), (1, {"t": 2})]]
        paths = [spill(tmp_path, f"v{r}.run", run)
                 for r, run in enumerate(runs)]
        assert merged_pairs(paths) == stable_oracle(runs)

    def test_plain_sorted_merge_agrees_with_decorated(self, tmp_path):
        # merge_runs decorates on read; it must order exactly as the
        # decorated fast path does.
        rng = random.Random(7)
        runs = [sorted(((rng.choice([None, 2, "a", 1.5]), (r, i))
                        for i in range(50)),
                       key=lambda pair: sort_key(pair[0]))
                for r in range(3)]
        plain = [shuffle.write_run(os.path.join(str(tmp_path), f"p{r}.run"),
                                   run) for r, run in enumerate(runs)]
        decorated = [spill(tmp_path, f"d{r}.run", run)
                     for r, run in enumerate(runs)]
        assert list(shuffle.merge_runs(plain)) == merged_pairs(decorated) \
            == stable_oracle(runs)

    def test_unsorted_runs_concatenate_in_task_order(self, tmp_path):
        runs = [[(3, "a"), (1, "b")], [], [(2, "c"), (0, "d")]]
        paths = [shuffle.write_run(os.path.join(str(tmp_path), f"u{r}.run"),
                                   run) for r, run in enumerate(runs)]
        assert list(shuffle.merge_runs(paths, sorted_runs=False)) == \
            [pair for run in runs for pair in run]


# -- end-to-end differentials -------------------------------------------------


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 17, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class SpanReducer(Reducer):
    """A reduction no aggregate table describes."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values) - min(values))


def spill_conf(n=500, **overrides):
    defaults = dict(
        name="spill-sum",
        mapper=ModMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i * 3) for i in range(n)])],
        num_reducers=3,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


def assert_identical(par, seq):
    assert par.outputs == seq.outputs
    assert metrics_without_wall(par) == metrics_without_wall(seq)
    assert par.counters.to_dict() == seq.counters.to_dict()


class TestEndToEndByteIdentity:
    def test_sum_reduce_identical_to_sequential(self):
        conf = spill_conf()
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        # The runs went to disk and back, and physical accounting flowed.
        assert par.metrics.shuffle_bytes_spilled > 0
        assert par.metrics.shuffle_bytes_merged > 0

    def test_undescribed_reduce_identical_to_sequential(self):
        conf = spill_conf(reducer=SpanReducer)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))

    def test_mixed_key_types_identical_to_sequential(self):
        # One map task emits a float key among ints: the run carries it
        # and the merge orders it by sort_key, as the sequential sort does.
        class MostlyIntMapper(Mapper):
            def map(self, key, value, ctx):
                if value == 0:
                    ctx.emit(2.5, value)
                else:
                    ctx.emit(value % 17, value)

        conf = spill_conf(mapper=MostlyIntMapper)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))

    @pytest.mark.parametrize("overrides", [
        # A combiner rewrites the shuffle stream before the spill.
        {"combiner": SumReducer},
        # The shuffle filter drops pairs before they are spilled.
        {"shuffle_filter": lambda key: key % 3 != 0},
    ], ids=["combiner", "shuffle-filter"])
    def test_rewritten_shuffle_streams_identical(self, overrides):
        conf = spill_conf(**overrides)
        par = ParallelJobRunner(num_workers=2).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))

    def test_typed_shuffle_stub_declines_every_stage(self, tmp_path):
        # Kept only for a frozen benchmark module: whatever the stage,
        # no job is routed to a typed plane.
        path = write_webpages(tmp_path / "pages.rf", 100)
        with Session(workdir=str(tmp_path / "s")) as session:
            plan = session.lower(
                session.read(path).group_by("rank").agg(n=("count", None)))
        confs = [stage.conf for stage in plan.stages] + [spill_conf()]
        assert all(shuffleblocks.active_spec(conf) is None
                   for conf in confs)


#: Described aggregates pre-aggregate on the map side and ship partial
#: states through the spill; every finish must match the sequential run.
AGGREGATES = {
    "count": dict(n=("count", None)),
    "sum": dict(s=("sum", "rank")),
    "min-max": dict(lo=("min", "rank"), hi=("max", "rank")),
    "avg": dict(mean=("avg", "rank")),
    "sum-count": dict(s=("sum", "rank"), n=("count", None)),
}


class TestPreAggregatedStages:
    @pytest.mark.parametrize("aggs", list(AGGREGATES.values()),
                             ids=list(AGGREGATES))
    def test_pool_reduce_matches_sequential(self, aggs, tmp_path):
        path = write_webpages(tmp_path / "pages.rf", 600,
                              rank_of=lambda i: (i * 7) % 41)
        engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        try:
            with Session(workdir=str(tmp_path / "s"),
                         engine=engine) as session:
                def build():
                    return session.read(path).filter(col("rank") > 3) \
                        .group_by("rank").agg(**aggs)

                seq = session.run(build())
                par = session.run(build(), parallelism=2)
            assert par.rows == seq.rows
            metrics = par.stages[0].outcome.result.metrics
            assert metrics.shuffle_bytes_spilled > 0
            assert metrics.shuffle_bytes_merged > 0
            assert metrics.shuffle_records == \
                seq.stages[0].outcome.result.metrics.shuffle_records
        finally:
            engine.shutdown()


# -- chaos: faults on the spill plane -----------------------------------------


@pytest.fixture
def engine():
    eng = ExecutionEngine(max_workers=2, reap_scratch=False)
    yield eng
    eng.shutdown()


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.clear_plan()


@pytest.mark.chaos
class TestSpillFaults:
    @pytest.mark.parametrize("action", ["io_error", "torn_write"])
    def test_failed_spill_retried_without_rebuild(self, action, engine,
                                                  tmp_path):
        plan = FaultPlan([Fault("shuffle.spill", action, times=2)],
                         token_dir=str(tmp_path))
        faults.install_plan(plan)
        conf = spill_conf()
        par = ParallelJobRunner(num_workers=2, engine=engine).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert plan.fired(0) == 2
        stats = engine.pool.stats()
        assert stats["tasks_retried"] >= 2
        assert stats["pool_rebuilds"] == 0

    def test_worker_killed_merging_a_described_aggregate(self, engine,
                                                         tmp_path):
        # The reduce attempt dies while merging partial aggregates; the
        # retry re-merges the same immutable run files.
        path = write_webpages(tmp_path / "pages.rf", 400)
        with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
            def build():
                return session.read(path).group_by("rank") \
                    .agg(s=("sum", "rank"), n=("count", None))

            clean = session.run(build())
            plan = FaultPlan(
                [Fault("pool.reduce_task", "kill",
                       match={"partition": 0, "attempt": 0})],
                token_dir=str(tmp_path / "tokens"),
            )
            faults.install_plan(plan)
            par = session.run(build(), parallelism=2)
        assert par.rows == clean.rows
        assert plan.fired(0) == 1
