"""The typed shuffle data plane (:mod:`repro.batch.shuffleblocks`).

Four layers, mirroring the module's own structure.  Property tests
round-trip spill blocks across every field type -- including the cases
the format must *refuse* (``None`` keys, out-of-range integers, lying
runtime types) by falling back per run to the pickle spill.  Randomized
merge tests replay the gallop merge against the sequential stable-sort
oracle, with empty runs, single-pair runs and groups spanning block
boundaries.  End-to-end differentials pin byte identity of the fold and
generic typed reduce paths against the sequential runner.  The chaos
layer (marked ``chaos``) injects kills and disk-full faults into the
typed block writer and the merging reduce task, proving PR 8's recovery
contract holds on the new format.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import JobConf, Mapper, Reducer, faults
from repro.batch import shuffleblocks as sb
from repro.batch.shuffleblocks import ShuffleBlockSpec, aggregate_shuffle_spec
from repro.engine import ExecutionEngine
from repro.faults import Fault, FaultPlan
from repro.mapreduce import (
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    shuffle,
)
from repro.mapreduce.keyspace import sort_key
from repro.storage.orderkeys import decode_key
from repro.storage.serialization import Field, FieldType, Schema
from tests.conftest import metrics_without_wall

I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)

KEY_STRATEGIES = {
    FieldType.INT: I64,
    FieldType.LONG: I64,
    FieldType.STRING: st.text(max_size=24),
    FieldType.BOOL: st.booleans(),
}

#: One component per FieldType the value codecs serve.
ALL_VALUE_TYPES = (
    FieldType.INT,
    FieldType.LONG,
    FieldType.STRING,
    FieldType.DOUBLE,
    FieldType.BOOL,
    FieldType.BYTES,
)

all_values = st.tuples(
    I64,
    I64,
    st.text(max_size=24),
    st.floats(allow_nan=False),
    st.booleans(),
    st.binary(max_size=24),
)


def tuple_spec(key_type):
    return ShuffleBlockSpec(
        key_type=key_type,
        value_types=ALL_VALUE_TYPES,
        value_is_tuple=True,
        reduce_ops=None,
    )


INT_SUM_SPEC = ShuffleBlockSpec(
    key_type=FieldType.INT,
    value_types=(FieldType.INT,),
    value_is_tuple=False,
    reduce_ops=("sum",),
)


def spill(tmpdir, name, pairs, spec):
    path = os.path.join(str(tmpdir), name)
    written = sb.spill_typed_run(path, list(pairs), spec)
    assert written == path
    return path


def merged_pairs(paths, spec):
    """Decoded (key, value) pairs out of the streaming block merge."""
    kt = spec.key_type
    return [
        (decode_key(kt, keys[idx]), values[idx])
        for keys, values, lo, hi in sb.merge_typed_chunks(paths, spec)
        for idx in range(lo, hi)
    ]


def stable_oracle(runs):
    """What the sequential runner computes: one stable full sort of the
    task-order concatenation by ``sort_key``."""
    flat = [pair for run in runs for pair in run]
    flat.sort(key=lambda pair: sort_key(pair[0]))
    return flat


# -- property round-trips -----------------------------------------------------


class TestTypedRunRoundTrip:
    @pytest.mark.parametrize("key_type", sb.KEY_TYPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_field_type_round_trips(self, key_type, data, tmp_path_factory):
        pairs = data.draw(
            st.lists(
                st.tuples(KEY_STRATEGIES[key_type], all_values), max_size=60
            )
        )
        spec = tuple_spec(key_type)
        tmp = tmp_path_factory.mktemp("rt")
        path = spill(tmp, "r0.run", pairs, spec)
        assert sb.is_typed_run(path)
        assert merged_pairs([path], spec) == stable_oracle([pairs])

    @given(pairs=st.lists(st.tuples(I64, I64), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_single_value_round_trips(self, pairs, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt1")
        path = spill(tmp, "r0.run", pairs, INT_SUM_SPEC)
        assert merged_pairs([path], INT_SUM_SPEC) == stable_oracle([pairs])

    @pytest.mark.parametrize("key_type", sb.KEY_TYPES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_encoded_order_equals_sort_key_order(self, key_type, data):
        # The invariant byte identity rests on: for one declared key
        # type, encoded-byte comparison IS sort_key comparison, and the
        # encoding is injective.
        strat = KEY_STRATEGIES[key_type]
        a, b = data.draw(strat), data.draw(strat)
        spec = ShuffleBlockSpec(key_type, (FieldType.INT,), False)

        def enc(key):
            # Fixed-width keys come back as one packed blob per run (a
            # single-pair run's blob IS the key); strings as a list.
            ekeys, _values = sb.encode_typed_run([(key, 0)], spec)
            return ekeys if isinstance(ekeys, bytes) else ekeys[0]

        ea, eb = enc(a), enc(b)
        assert (ea < eb) == (sort_key(a) < sort_key(b))
        assert (ea == eb) == (sort_key(a) == sort_key(b))

    def test_empty_run_is_just_magic(self, tmp_path):
        path = spill(tmp_path, "empty.run", [], INT_SUM_SPEC)
        assert sb.is_typed_run(path)
        assert os.path.getsize(path) == len(sb.MAGIC)
        assert merged_pairs([path], INT_SUM_SPEC) == []

    def test_single_record_run(self, tmp_path):
        path = spill(tmp_path, "one.run", [(7, 42)], INT_SUM_SPEC)
        assert merged_pairs([path], INT_SUM_SPEC) == [(7, 42)]

    def test_run_spanning_many_blocks(self, tmp_path):
        n = sb.BLOCK_PAIRS * 2 + 123
        pairs = [(i % 5, i) for i in range(n)]
        path = spill(tmp_path, "big.run", pairs, INT_SUM_SPEC)
        assert merged_pairs([path], INT_SUM_SPEC) == stable_oracle([pairs])


class TestSpillFallback:
    """Everything the codecs must refuse -- per run, never mid-run."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [(None, 1)],                       # None key
            [("three", 1)],                    # wrong runtime key type
            [(1 << 63, 1)],                    # key outside 64-bit range
            [(-(1 << 63) - 1, 1)],
            [(1.5, 1)],                        # float into an INT key
            [(1, None)],                       # None value
            [(1, "x")],                        # wrong runtime value type
            [(0, 0), (1, 1 << 70)],            # value overflows varint
        ],
    )
    def test_undescribable_pairs_reject_the_run(self, pairs, tmp_path):
        assert sb.encode_typed_run(pairs, INT_SUM_SPEC) is None
        path = os.path.join(str(tmp_path), "r.run")
        assert sb.spill_typed_run(path, pairs, INT_SUM_SPEC) is None
        # The fallback decision precedes file creation: no partial file.
        assert not os.path.exists(path)

    def test_tuple_arity_and_type_checked(self, tmp_path):
        spec = ShuffleBlockSpec(
            FieldType.INT, (FieldType.INT, FieldType.INT), True
        )
        assert sb.encode_typed_run([(1, (2, 3))], spec) is not None
        assert sb.encode_typed_run([(1, (2,))], spec) is None
        assert sb.encode_typed_run([(1, [2, 3])], spec) is None
        assert sb.encode_typed_run([(1, (2, "x"))], spec) is None

    def test_aggregate_spec_gates(self):
        # DOUBLE / unknown key types never get typed runs.
        assert aggregate_shuffle_spec(FieldType.DOUBLE, [("sum", FieldType.INT)]) is None
        assert aggregate_shuffle_spec(FieldType.BYTES, [("count", None)]) is None
        assert aggregate_shuffle_spec(None, [("count", None)]) is None
        # Non-count aggregate with an unknown column type: no spec.
        assert aggregate_shuffle_spec(FieldType.INT, [("sum", None)]) is None
        # count shuffles partial counts (a literal 1 per row unfolded),
        # which the fold must read: no spec skips value payloads.
        spec = aggregate_shuffle_spec(FieldType.STRING, [("count", None)])
        assert spec.value_types == (FieldType.INT,)
        assert spec.reduce_ops == ("count",) and not spec.count_only
        # avg is describable -- two flat slots, (value, 1) -- but not
        # folded: the generated reducer finishes it.
        spec = aggregate_shuffle_spec(FieldType.INT, [("avg", FieldType.LONG)])
        assert spec.value_types == (FieldType.LONG, FieldType.INT)
        assert spec.value_is_tuple and spec.reduce_ops is None
        # Float columns fold generically (addition order matters).
        spec = aggregate_shuffle_spec(FieldType.INT, [("sum", FieldType.DOUBLE)])
        assert spec is not None and spec.reduce_ops is None
        # Multi-aggregate folds only with an output schema to emit through.
        aggs = [("sum", FieldType.INT), ("count", None)]
        assert aggregate_shuffle_spec(FieldType.INT, aggs).reduce_ops is None
        out = Schema("O", [Field("s", FieldType.INT), Field("n", FieldType.INT)])
        spec = aggregate_shuffle_spec(FieldType.INT, aggs, agg_schema=out)
        assert spec.reduce_ops == ("sum", "count")
        assert spec.value_is_tuple
        # avg beside them flattens into the same tuple, unfolded.
        spec = aggregate_shuffle_spec(
            FieldType.INT, aggs + [("avg", FieldType.DOUBLE)], agg_schema=out)
        assert spec.value_types == (FieldType.INT, FieldType.INT,
                                    FieldType.DOUBLE, FieldType.INT)
        assert spec.reduce_ops is None


# -- merge stability ----------------------------------------------------------


class TestMergeStability:
    def _random_runs(self, rng, n_runs, key_pool):
        runs = []
        for _ in range(n_runs):
            size = rng.choice([0, 1, rng.randrange(1, 40), rng.randrange(1, 400)])
            runs.append(
                [(rng.choice(key_pool), rng.randrange(1000)) for _ in range(size)]
            )
        return runs

    def test_randomized_merges_match_stable_sort_oracle(self, tmp_path):
        rng = random.Random(0x5B10C5)
        for trial in range(25):
            key_pool = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 12))]
            runs = self._random_runs(rng, rng.randrange(1, 6), key_pool)
            # Duplicate values disambiguate nothing: tag each pair so a
            # stability violation cannot hide behind equal payloads.
            runs = [
                [(k, (t, r, i)) for i, (k, _v) in enumerate(run)]
                for r, run in enumerate(runs)
                for t in [trial]
            ]
            spec = ShuffleBlockSpec(
                FieldType.INT,
                (FieldType.INT, FieldType.INT, FieldType.INT),
                True,
            )
            paths = [
                spill(tmp_path, f"t{trial}-r{r}.run", run, spec)
                for r, run in enumerate(runs)
            ]
            assert merged_pairs(paths, spec) == stable_oracle(runs), (
                f"trial {trial}: gallop merge diverged from stable sort"
            )

    def test_string_key_merge_matches_oracle(self, tmp_path):
        rng = random.Random(0xC0FFEE)
        words = ["", "a", "ab", "b", "ba", "éclair", "zz"]
        spec = ShuffleBlockSpec(FieldType.STRING, (FieldType.INT,), False)
        runs = [
            [(rng.choice(words), i * 10 + r) for i in range(rng.randrange(0, 60))]
            for r in range(4)
        ]
        paths = [
            spill(tmp_path, f"s{r}.run", run, spec)
            for r, run in enumerate(runs)
        ]
        assert merged_pairs(paths, spec) == stable_oracle(runs)

    def test_group_spanning_blocks_and_runs(self, tmp_path):
        # One giant key straddles block boundaries within runs AND run
        # boundaries across the merge; interleaved with neighbors.
        n = sb.BLOCK_PAIRS + 77
        runs = [
            [(1, i) for i in range(n)] + [(2, i) for i in range(5)],
            [(0, i) for i in range(3)] + [(1, i + n) for i in range(n)],
        ]
        paths = [
            spill(tmp_path, f"g{r}.run", run, INT_SUM_SPEC)
            for r, run in enumerate(runs)
        ]
        assert merged_pairs(paths, INT_SUM_SPEC) == stable_oracle(runs)

    def test_mixed_format_partition_merges_decorated(self, tmp_path):
        # Run 1 falls back to pickle; the partition must merge every run
        # through the legacy decorated heap, order unchanged.
        typed_run = [(3, 30), (1, 10), (1, 11)]
        pickle_run = [(2, 20), (1, 12)]
        p0 = spill(tmp_path, "m0.run", typed_run, INT_SUM_SPEC)
        p1 = os.path.join(str(tmp_path), "m1.run")
        shuffle.write_run(
            p1, shuffle.sort_decorated_run(shuffle.decorate_pairs(pickle_run))
        )
        assert not sb.is_typed_run(p1)
        merged = [
            (key, value)
            for _skey, key, value in sb.merge_mixed_runs([p0, p1], INT_SUM_SPEC)
        ]
        assert merged == stable_oracle([typed_run, pickle_run])


# -- end-to-end differentials -------------------------------------------------


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 17, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class SpanReducer(Reducer):
    """Unfoldable reduction: exercises the generic typed path."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values) - min(values))


def typed_conf(n=500, **overrides):
    defaults = dict(
        name="typed-sum",
        mapper=ModMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i * 3) for i in range(n)])],
        num_reducers=3,
        shuffle_spec=INT_SUM_SPEC,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


def assert_identical(par, seq):
    assert par.outputs == seq.outputs
    assert metrics_without_wall(par) == metrics_without_wall(seq)
    assert par.counters.to_dict() == seq.counters.to_dict()


class TestEndToEndByteIdentity:
    def test_fold_path_identical_to_sequential(self):
        conf = typed_conf()
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        # The typed plane actually ran, and physical accounting flowed.
        assert par.metrics.shuffle_bytes_spilled > 0
        assert par.metrics.shuffle_bytes_merged > 0

    def test_generic_typed_path_identical_to_sequential(self):
        spec = ShuffleBlockSpec(FieldType.INT, (FieldType.INT,), False)
        assert spec.reduce_ops is None
        conf = typed_conf(reducer=SpanReducer, shuffle_spec=spec)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))

    def test_per_run_fallback_is_invisible(self):
        # One map task emits a float key the INT order encoding rejects
        # (the spec lied about the key type): only that task's runs fall
        # back to pickle, the partition merges mixed formats, and the
        # job's output still matches the sequential runner.
        class MostlyTypedMapper(Mapper):
            def map(self, key, value, ctx):
                if value == 0:
                    ctx.emit(2.5, value)
                else:
                    ctx.emit(value % 17, value)

        class JoinReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, sum(values))

        conf = typed_conf(mapper=MostlyTypedMapper, reducer=JoinReducer)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))

    @pytest.mark.parametrize("overrides", [
        # A combiner rewrites the shuffle stream mid-flight.
        {"combiner": SumReducer},
        # An undescribed stage: the lowering attached no spec at all.
        {"shuffle_spec": None},
    ], ids=["combiner", "undescribed"])
    def test_pickle_plane_is_chosen_from_the_stage(self, overrides):
        # The pickle plane has no user-facing selector: active_spec
        # declines from what the conf says, and the same job is
        # byte-identical on it -- this pins the gate end to end.
        conf = typed_conf(**overrides)
        assert sb.active_spec(conf) is None
        assert sb.active_spec(typed_conf()) is not None
        par = ParallelJobRunner(num_workers=2).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert par.outputs == \
            ParallelJobRunner(num_workers=2).run(typed_conf()).outputs

    def test_count_fold_sums_partial_counts(self):
        # Map-side pre-aggregation ships partial counts, not ones: the
        # typed fold must add the values up, not count the pairs.
        spec = aggregate_shuffle_spec(FieldType.INT, [("count", None)])
        assert spec.reduce_ops == ("count",)

        class PartialCountMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value % 17, value % 4 + 1)

        conf = typed_conf(mapper=PartialCountMapper, shuffle_spec=spec)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert sum(n for _key, n in par.outputs) == sum(
            i * 3 % 4 + 1 for i in range(500))

    def test_multi_agg_fold_identical(self):
        out = Schema(
            "O", [Field("s", FieldType.INT), Field("n", FieldType.INT)]
        )
        spec = aggregate_shuffle_spec(
            FieldType.INT,
            [("sum", FieldType.INT), ("count", None)],
            agg_schema=out,
        )
        assert spec.reduce_ops == ("sum", "count")

        class TupleMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value % 17, (value, 1))

        class TupleReducer(Reducer):
            def reduce(self, key, values, ctx):
                vs = list(values)
                ctx.emit(
                    key, out.make(sum(v[0] for v in vs), sum(v[1] for v in vs))
                )

        conf = typed_conf(
            mapper=TupleMapper, reducer=TupleReducer, shuffle_spec=spec
        )
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))


# -- chaos: faults on the typed plane -----------------------------------------


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
class TestTypedSpillFaults:
    def test_worker_killed_mid_typed_spill(self, engine, tmp_path):
        # SIGKILL inside the block writer: the attempt's partial typed
        # file is quarantined by the attempt-suffixed path and the retry
        # re-spills; output, counters and metrics match a clean run.
        plan = FaultPlan(
            [Fault("shuffle.spill", "kill")], token_dir=str(tmp_path)
        )
        faults.install_plan(plan)
        conf = typed_conf()
        par = ParallelJobRunner(num_workers=2, engine=engine).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert plan.fired(0) == 1
        assert engine.pool.stats()["pool_rebuilds"] >= 1
        # Recovered jobs account spill bytes like clean ones (successful
        # attempts only).
        faults.clear_plan()
        clean = ParallelJobRunner(num_workers=2, engine=engine).run(conf)
        assert par.metrics.shuffle_bytes_spilled == \
            clean.metrics.shuffle_bytes_spilled
        assert par.metrics.shuffle_bytes_merged == \
            clean.metrics.shuffle_bytes_merged

    def test_disk_full_typed_spill_retried_without_rebuild(
            self, engine, tmp_path):
        plan = FaultPlan(
            [Fault("shuffle.spill", "disk_full", times=2)],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        conf = typed_conf()
        par = ParallelJobRunner(num_workers=2, engine=engine).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert plan.fired(0) == 2
        stats = engine.pool.stats()
        assert stats["tasks_retried"] >= 2
        assert stats["pool_rebuilds"] == 0

    def test_worker_killed_during_block_merge(self, engine, tmp_path):
        # The reduce attempt dies while merging typed runs; the retry
        # re-merges the same immutable run files.
        plan = FaultPlan(
            [Fault("pool.reduce_task", "kill",
                   match={"partition": 0, "attempt": 0})],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        conf = typed_conf()
        par = ParallelJobRunner(num_workers=2, engine=engine).run(conf)
        assert_identical(par, LocalJobRunner().run(conf))
        assert plan.fired(0) == 1
