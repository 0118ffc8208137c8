"""Differential suite for shared scans (:mod:`repro.batch.multiscan`).

The shared-scan layer promises that fusing N compatible queries into
one pass changes *nothing* observable per query: every member's rows
serialize to the same bytes as its solo run, and every volume metric
and counter matches too.  This suite earns that the same way
``test_batch_equivalence.py`` earned the batch path: randomized schemas
and query chains run through :meth:`Session.run_many` under the
sequential and parallel runners, compared byte-for-byte (the
``serialize_rows`` oracle) against solo :meth:`Session.run` executions.
On top of that: the fallback matrix (opaque schemas, UDF stages,
singleton groups, mixed inputs), the cost-model gates and their reason
strings, the job-group primitive itself (an engine-backed runner's
``run_group`` against solo runs, runner parity, worker-side reduces, a
member declined at task time), a chaos case (worker SIGKILLed mid-fused-scan, recovered
byte-identical), and the service batching window (two tenants, one
window, one scan).
"""

import random
from dataclasses import replace

import pytest

from repro import JobConf, Mapper, Session, faults
from repro.api.expressions import col, lit
from repro.batch.multiscan import plan_shared_groups
from repro.engine import ExecutionEngine
from repro.faults import Fault, FaultPlan
from repro.mapreduce import (
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    RecordFileInput,
)
from repro.mapreduce.counters import FRAMEWORK_GROUP
from repro.service import QueryServer
from repro.service.payload import serialize_rows
from repro.service.protocol import decode_bytes
from repro.storage.serialization import FieldType
from tests.conftest import write_webpages

# Import under the same top-level name pytest uses (tests/ has no
# __init__.py), or the module is created twice and its opaque-schema
# registration collides with itself on the second import.
from test_batch_equivalence import (
    OPAQUE,
    _random_chain,
    _random_schema,
    _write_dataset,
)

#: Metric fields assigned by the scheduling path, not by query
#: execution; the solo-vs-shared identity contract excludes exactly
#: these (the same exclusion set every cross-runner check uses).
SCHEDULING_OBSERVABLES = (
    "wall_seconds", "shuffle_bytes_spilled", "shuffle_bytes_merged",
    "shared_scan_groups", "scans_saved", "shared_bytes_saved",
)

N_ROUNDS = 4
QUERIES_PER_ROUND = 4


def _volume_metrics(stage):
    d = stage.outcome.result.metrics.to_dict()
    for name in SCHEDULING_OBSERVABLES:
        d.pop(name)
    return d


def _shared_groups(result):
    """shared_scan_groups on a DatasetResult's scan stage (0 = solo)."""
    return result.stages[0].outcome.result.metrics.shared_scan_groups


def _candidates(session, datasets):
    """Plan stage-0 confs exactly as run_many/explain_many would."""
    confs = []
    for i, dataset in enumerate(datasets):
        plan = session.lower(dataset, name=f"cand-q{i}")
        stage0 = plan.stages[0]
        descriptor = session.system.plan(stage0.conf, stage0.hints)
        confs.append(descriptor.apply(stage0.conf))
    return confs


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("multiscan-diff")
    with Session(workdir=str(root / "s")) as s:
        yield s


# -- randomized differential ---------------------------------------------------


class TestRandomizedSharedRuns:
    def test_shared_equals_solo_across_schedulers(self, session, tmp_path):
        rng = random.Random(0x5CA17)
        fused_members = 0
        for round_index in range(N_ROUNDS):
            schema = _random_schema(rng, round_index)
            path = _write_dataset(str(tmp_path), rng, schema, round_index)
            seeds = [rng.randrange(2**32)
                     for _ in range(QUERIES_PER_ROUND)]

            # rebuilt from the same seeds for every run, so every
            # execution lowers the exact same chains
            def build_all(_p=path, _s=schema, _seeds=seeds):
                return [
                    _random_chain(random.Random(seed),
                                  session.read(_p), _s)
                    for seed in _seeds
                ]

            solos = [session.run(ds) for ds in build_all()]
            expected = [serialize_rows(r.rows) for r in solos]

            for kwargs in ({}, {"parallelism": 2}):
                shared = session.run_many(build_all(), **kwargs)
                for qi, (want, got) in enumerate(zip(expected, shared)):
                    assert serialize_rows(got.rows) == want, (
                        f"round {round_index} query {qi} {kwargs}: "
                        f"shared output diverged from solo"
                    )
            # metric/counter parity is checked on the sequential run,
            # where solo and shared use the same runner
            shared_seq = session.run_many(build_all())
            for qi, (solo, member) in enumerate(zip(solos, shared_seq)):
                if not _shared_groups(member):
                    continue
                fused_members += 1
                assert len(solo.stages) == len(member.stages)
                for s_stage, m_stage in zip(solo.stages, member.stages):
                    assert _volume_metrics(m_stage) == \
                        _volume_metrics(s_stage), (
                            f"round {round_index} query {qi}: fused "
                            f"member metrics diverged from solo"
                        )
                    assert m_stage.outcome.result.counters.to_dict() == \
                        s_stage.outcome.result.counters.to_dict()
        # the generator heavily favors compatible scan stages; if
        # grouping stopped engaging, this differential would be vacuous
        assert fused_members >= N_ROUNDS * 2

    def test_savings_metrics_accounted(self, session, tmp_path):
        path = write_webpages(tmp_path / "acct.rf", 200)
        before = session.engine.pool.stats()
        results = session.run_many([
            session.read(path).filter(col("rank") > 30)
            .select("url", "rank"),
            session.read(path).filter(col("rank") < 10).select("url"),
        ])
        assert all(_shared_groups(r) == 1 for r in results)
        m0 = results[0].stages[0].outcome.result.metrics
        m1 = results[1].stages[0].outcome.result.metrics
        # the first member pays the scan; each later member records the
        # full input pass it did not perform
        assert m0.scans_saved == 0 and m0.shared_bytes_saved == 0
        assert m1.scans_saved == 1
        assert m1.shared_bytes_saved == m1.map_input_stored_bytes > 0
        after = session.engine.pool.stats()
        assert after["shared_scan_groups"] == \
            before["shared_scan_groups"] + 1
        assert after["scans_saved"] == before["scans_saved"] + 1
        assert after["shared_bytes_saved"] >= \
            before["shared_bytes_saved"] + m1.shared_bytes_saved


# -- the fallback matrix -------------------------------------------------------


class TestFallbackMatrix:
    def test_singleton_runs_solo(self, session, tmp_path):
        path = write_webpages(tmp_path / "single.rf", 120)

        def build():
            return session.read(path).filter(col("rank") > 5) \
                .select("url", "rank")

        expected = serialize_rows(session.run(build()).rows)
        [result] = session.run_many([build()])
        assert serialize_rows(result.rows) == expected
        assert _shared_groups(result) == 0
        explain = session.explain_many([build()])
        assert "singleton group" in explain
        assert "shared scan group" not in explain

    def test_opaque_schema_never_shares(self, session, tmp_path):
        from repro.storage.recordfile import RecordFileWriter
        from repro.storage.serialization import (
            Field, Record, Schema,
        )

        key_schema = Schema("MsOpaqueKey", [Field("id", FieldType.LONG)])
        path = str(tmp_path / "opaque.rf")
        with RecordFileWriter(path, key_schema, OPAQUE) as writer:
            for i in range(80):
                writer.append(key_schema.make(i),
                              Record(OPAQUE, [i - 40, f"s{i}"]))

        def build_all():
            return [
                session.read(path).filter(col("a") > lit(0)),
                session.read(path).filter(col("a") < lit(5)),
            ]

        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert all(_shared_groups(r) == 0 for r in shared)
        explain = session.explain_many(build_all())
        assert "shared scan group" not in explain
        assert "solo query" in explain

    def test_udf_member_falls_back_while_others_group(
            self, session, tmp_path):
        path = write_webpages(tmp_path / "udf.rf", 150)
        from repro.storage.serialization import Field, Schema

        out_key = Schema("UdfKey", [Field("k", FieldType.STRING)])
        out_val = Schema("UdfVal", [Field("rank", FieldType.INT)])

        def build_all():
            return [
                session.read(path).filter(col("rank") > 20)
                .select("url", "rank"),
                session.read(path).filter(col("rank") < 15).select("url"),
                # abs() is a call the translator declines: opaque
                session.read(path).map(
                    lambda key, value: (
                        key, out_val.make(abs(value.rank) * 2)),
                    key_schema=out_key, value_schema=out_val,
                ),
            ]

        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert _shared_groups(shared[0]) == 1
        assert _shared_groups(shared[1]) == 1
        assert _shared_groups(shared[2]) == 0
        explain = session.explain_many(build_all())
        assert "shared scan group 2 queries" in explain
        assert "stage is not analyzer-described" in explain

    def test_translated_udf_member_joins_the_group(self, session, tmp_path):
        path = write_webpages(tmp_path / "udf.rf", 150)
        from repro.storage.serialization import Field, Schema

        out_val = Schema("UdfVal", [Field("rank", FieldType.INT)])

        def build_all():
            return [
                session.read(path).filter(col("rank") > 20)
                .select("url", "rank"),
                session.read(path).filter(lambda v: v.rank < 15)
                .map(lambda key, value: (key, out_val.make(value.rank * 2)),
                     value_schema=out_val),
            ]

        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert [_shared_groups(r) for r in shared] == [1, 1]

    def test_mixed_inputs_do_not_group(self, session, tmp_path):
        path_a = write_webpages(tmp_path / "a.rf", 100)
        path_b = write_webpages(tmp_path / "b.rf", 100,
                                rank_of=lambda i: i % 7)

        def build_all():
            return [
                session.read(path_a).filter(col("rank") > 10)
                .select("url", "rank"),
                session.read(path_b).filter(col("rank") > 2)
                .select("url", "rank"),
            ]

        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert all(_shared_groups(r) == 0 for r in shared)

    def test_later_stages_of_shared_queries_run_solo_path(
            self, session, tmp_path):
        # multi-stage plans: only stage 0 fuses; downstream stages must
        # consume the fused stage's output exactly as they consume a
        # solo stage's
        path = write_webpages(tmp_path / "stages.rf", 200)

        def build_all():
            return [
                session.read(path).filter(col("rank") > 5)
                .group_by("rank").agg(n=("count", None)),
                session.read(path).filter(col("rank") > 25)
                .group_by("rank").agg(top=("max", "rank")),
            ]

        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert all(_shared_groups(r) == 1 for r in shared)


# -- grouping and the cost model ----------------------------------------------


class _IdMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class TestGroupPlanner:
    def test_none_entries_are_ineligible(self):
        report = plan_shared_groups([None, None])
        assert not report.groups
        assert [reason for _, reason in sorted(report.solo)] == \
            ["not eligible for sharing"] * 2

    def test_structural_fallback_reasons(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 50)
        multi = JobConf(
            name="join-ish", mapper=_IdMapper, reducer=None,
            inputs=[InMemoryInput([(1, 1)], tag="L"),
                    InMemoryInput([(2, 2)], tag="R")],
        )
        in_memory = JobConf(
            name="mem", mapper=_IdMapper, reducer=None,
            inputs=[InMemoryInput([(1, 1)])],
        )
        plain = JobConf(
            name="plain", mapper=_IdMapper, reducer=None,
            inputs=[RecordFileInput(path)],
        )
        report = plan_shared_groups([multi, in_memory, plain])
        reasons = dict(report.solo)
        assert reasons[0] == "multiple inputs (join stage)"
        assert reasons[1] == "input is not a plain record-file scan"
        assert reasons[2] == "stage is not analyzer-described"
        assert not report.groups

    def test_equal_width_scans_fuse(self, session, tmp_path):
        path = write_webpages(tmp_path / "gate.rf", 80)
        confs = _candidates(session, [
            session.read(path).filter(col("rank") > 10)
            .select("url", "rank"),
            session.read(path).filter(col("rank") > 20)
            .select("url", "rank"),
        ])
        assert len(plan_shared_groups(confs).groups) == 1

    def test_disjoint_scans_fuse(self, session, tmp_path):
        # the union is every member's columns: the widest a group of two
        # can get, and still one pass beats two solo scans
        path = write_webpages(tmp_path / "disjoint.rf", 80)
        confs = _candidates(session, [
            session.read(path).filter(col("rank") > 10).select("rank"),
            session.read(path).filter(col("content") != lit(""))
            .select("content"),
        ])
        report = plan_shared_groups(confs)
        [group] = report.groups
        assert [m.index for m in group.members] == [0, 1]
        assert sorted(group.union_columns) == ["content", "rank"]
        assert not report.solo

    def test_latency_gate_protects_narrow_scans(self, session, tmp_path):
        # 12 value columns; a 1-column aggregate must not be fused into
        # an everything-column union (at the measured DECODE_WEIGHT of
        # 1.5 the fused pass models 13 + 1.5*12 = 31 against a bound of
        # 2 * (13 + 1.5) = 29; with 8 columns it would sit exactly on
        # the bound and fuse)
        from repro.storage.recordfile import RecordFileWriter
        from repro.storage.serialization import Field, Record, Schema

        fields = [Field(f"c{i}", FieldType.INT) for i in range(12)]
        schema = Schema("WideMs", fields)
        key_schema = Schema("WideMsKey", [Field("id", FieldType.LONG)])
        path = str(tmp_path / "wide.rf")
        with RecordFileWriter(path, key_schema, schema) as writer:
            for i in range(60):
                writer.append(key_schema.make(i),
                              Record(schema, [i + j for j in range(12)]))

        def build_all():
            return [
                session.read(path).group_by("c0").agg(n=("count", None)),
                session.read(path).filter(col("c1") > lit(5))
                .select(*[f.name for f in fields]),
            ]

        explain = session.explain_many(build_all())
        assert "shared scan group" not in explain
        assert "cost model: union too wide" in explain
        # the declined pair still runs correctly, solo
        expected = [serialize_rows(session.run(ds).rows)
                    for ds in build_all()]
        shared = session.run_many(build_all())
        assert [serialize_rows(r.rows) for r in shared] == expected
        assert all(_shared_groups(r) == 0 for r in shared)

    def test_explain_many_describes_the_group(self, session, tmp_path):
        path = write_webpages(tmp_path / "exp.rf", 60)
        explain = session.explain_many([
            session.read(path).filter(col("rank") > 10)
            .select("url", "rank"),
            session.read(path).filter(col("rank") < 5).select("url"),
        ])
        assert explain.startswith("shared-scan plan for 2 queries:")
        assert "shared scan group 2 queries" in explain
        assert "columns decoded once" in explain


# -- the general case: a job group on the one driver --------------------------


def _job_volume_metrics(result):
    d = result.metrics.to_dict()
    for name in SCHEDULING_OBSERVABLES:
        d.pop(name)
    return d


class TestJobGroups:
    def test_engine_runner_group_matches_solo_runs(self, tmp_path):
        # The group primitive on an engine-backed parallel runner, then
        # the same two queries through the door that books the savings.
        engine = ExecutionEngine(reap_scratch=False)
        try:
            with Session(workdir=str(tmp_path / "s"),
                         engine=engine) as session:
                path = write_webpages(tmp_path / "w.rf", 200)

                def build_all():
                    return [
                        session.read(path).filter(col("rank") > 25)
                        .select("url", "rank"),
                        session.read(path).filter(col("rank") < 10)
                        .select("url"),
                    ]

                confs = _candidates(session, build_all())
                expected = [LocalJobRunner().run(conf) for conf in confs]
                group = ParallelJobRunner(
                    num_workers=2, engine=engine).run_group(confs)
                shared = [
                    r.stages[0].outcome.result
                    for r in session.run_many(build_all(), parallelism=2)
                ]
                for want, got, member in zip(expected, group, shared):
                    for result in (got, member):
                        assert result.outputs == want.outputs
                        assert result.counters.to_dict() == \
                            want.counters.to_dict()
                        assert _job_volume_metrics(result) == \
                            _job_volume_metrics(want)
                assert shared[0].metrics.shared_scan_groups == 1
                assert shared[1].metrics.scans_saved == 1
                assert engine.pool.stats()["shared_scan_groups"] == 1
        finally:
            engine.shutdown()

    def test_run_many_honors_sequential_splits_per_input(self, tmp_path):
        # Solo and shared runs go through one driver, so the sequential
        # runner's split target reaches both (run_many used to hard-code
        # 10 splits for groups).
        path = write_webpages(tmp_path / "splits.rf", 400)
        with Session(workdir=str(tmp_path / "s"),
                     runner=LocalJobRunner(splits_per_input=3)) as session:

            def build_all():
                return [
                    session.read(path).filter(col("rank") > 30)
                    .select("url", "rank"),
                    session.read(path).filter(col("rank") < 10)
                    .select("url"),
                ]

            solos = [session.run(ds) for ds in build_all()]
            shared = session.run_many(build_all())
            assert all(_shared_groups(r) == 1 for r in shared)
            for solo, member in zip(solos, shared):
                want = solo.stages[0].outcome.result
                got = member.stages[0].outcome.result
                assert want.metrics.map_tasks == 3
                assert got.metrics.map_tasks == 3
                assert got.counters.get(FRAMEWORK_GROUP, "map_tasks") == \
                    want.counters.get(FRAMEWORK_GROUP, "map_tasks") == 3
                assert serialize_rows(member.rows) == \
                    serialize_rows(solo.rows)

    def test_parallel_group_reduces_in_workers(self, tmp_path):
        # Members are described group_bys: under parallelism=2 their
        # reduces run as (member, partition) tasks on the pool -- spill
        # bytes land on the members' own metrics -- and stay
        # byte-identical to solo.
        engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        try:
            with Session(workdir=str(tmp_path / "s"),
                         engine=engine) as session:
                path = write_webpages(tmp_path / "pages.rf", 400)

                def build_all():
                    return [
                        session.read(path).filter(col("rank") > 5)
                        .group_by("rank").agg(n=("count", None)),
                        session.read(path).filter(col("rank") < 45)
                        .group_by("rank").agg(top=("max", "rank")),
                    ]

                solos = [session.run(ds) for ds in build_all()]
                before = engine.pool.stats()
                shared = session.run_many(build_all(), parallelism=2)
                after = engine.pool.stats()
                assert all(_shared_groups(r) == 1 for r in shared)
                for solo, member in zip(solos, shared):
                    assert serialize_rows(member.rows) == \
                        serialize_rows(solo.rows)
                    assert _volume_metrics(member.stages[0]) == \
                        _volume_metrics(solo.stages[0])
                    metrics = member.stages[0].outcome.result.metrics
                    assert metrics.shuffle_bytes_spilled > 0
                    assert metrics.shuffle_bytes_merged > 0
                # one pool job served the whole group's scan stage (the
                # members' later stages are ordinary solo jobs)
                group_jobs = sum(
                    after[k] - before[k]
                    for k in ("jobs_pooled", "jobs_forked", "jobs_inline")
                ) - sum(len(r.stages) - 1 for r in shared)
                assert group_jobs == 1
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("make_runner", [
        lambda: LocalJobRunner(),
        lambda: ParallelJobRunner(num_workers=2),
    ], ids=["sequential", "parallel"])
    def test_member_declined_at_task_time_takes_its_record_path(
            self, session, tmp_path, make_runner):
        # Handed to the group primitive directly, bypassing
        # plan_shared_groups' pre-validation: member 1's spec promises a
        # column the file does not have, so the batch scan declines it
        # at task time.  It must run its own record-path mapper -- as a
        # solo task does -- while the others still share the pass.
        path = write_webpages(tmp_path / "declined.rf", 300)
        confs = _candidates(session, [
            session.read(path).filter(col("rank") > 25)
            .select("url", "rank"),
            session.read(path).filter(col("rank") < 20).select("url"),
            session.read(path).group_by("rank").agg(n=("count", None)),
        ])
        tag = confs[1].inputs[0].tag
        spec = confs[1].batch_specs[tag]
        confs[1].batch_specs[tag] = replace(
            spec, project_columns=spec.needed_columns() + ["no_such_column"]
        )
        solos = [LocalJobRunner().run(conf) for conf in confs]
        assert solos[1].metrics.batch_map_tasks == 0

        group = make_runner().run_group(confs)
        for want, got in zip(solos, group):
            assert got.outputs == want.outputs
            assert got.counters.to_dict() == want.counters.to_dict()
            assert _job_volume_metrics(got) == _job_volume_metrics(want)
        assert group[0].metrics.batch_map_tasks == \
            group[0].metrics.map_tasks > 0
        assert group[1].metrics.batch_map_tasks == 0
        assert group[2].metrics.batch_map_tasks == \
            group[2].metrics.map_tasks > 0


# -- crash recovery ------------------------------------------------------------


@pytest.mark.chaos
class TestSharedScanRecovery:
    """A worker SIGKILLed mid-fused-scan: the retry re-runs the fused
    task and every member stays byte-identical to its solo run."""

    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        yield
        faults.clear_plan()

    def test_worker_kill_mid_shared_scan_recovers(self, tmp_path):
        engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        try:
            with Session(workdir=str(tmp_path / "s"),
                         engine=engine) as session:
                path = write_webpages(tmp_path / "hot.rf", 300)

                def build_all():
                    return [
                        session.read(path).filter(col("rank") > 20)
                        .select("url", "rank"),
                        session.read(path).group_by("rank")
                        .agg(n=("count", None)),
                    ]

                expected = [
                    serialize_rows(session.run(ds, parallelism=2).rows)
                    for ds in build_all()
                ]
                plan = FaultPlan(
                    [Fault("pool.map_task", "kill",
                           match={"task_index": 0, "attempt": 0})],
                    token_dir=str(tmp_path),
                )
                faults.install_plan(plan)
                shared = session.run_many(build_all(), parallelism=2)
                # groups run first in run_shared_plans, so the killed
                # task 0 belonged to the fused scan job
                assert plan.fired(0) == 1
                assert [serialize_rows(r.rows) for r in shared] == expected
                assert all(_shared_groups(r) == 1 for r in shared)
                stats = engine.pool.stats()
                assert stats["tasks_retried"] >= 1
                assert stats["shared_scan_groups"] == 1
        finally:
            engine.shutdown()


# -- the service batching window -----------------------------------------------


def _query_ops(path, predicate, columns):
    return [
        {"op": "read", "path": path},
        {"op": "filter", "expr": predicate.to_dict()},
        {"op": "select", "columns": list(columns)},
    ]


class TestServiceBatching:
    @pytest.fixture
    def served(self, tmp_path):
        engine = ExecutionEngine()
        server = QueryServer(
            str(tmp_path / "root"), engine=engine,
            max_in_flight=2, max_queue_depth=8,
            batch_window_seconds=0.5,
        ).start()
        yield server, engine
        server.close()

    def test_two_tenants_one_window_one_scan(self, served, tmp_path):
        server, engine = served
        path = write_webpages(tmp_path / "hot.rf", 300)
        q_alice = _query_ops(path, col("rank") > lit(30), ["url", "rank"])
        q_bob = _query_ops(path, col("rank") > lit(10), ["url"])

        sub_a = server.handle(
            {"op": "submit", "tenant": "alice", "query": q_alice}
        )
        sub_b = server.handle(
            {"op": "submit", "tenant": "bob", "query": q_bob}
        )
        assert sub_a["ok"] and sub_b["ok"]
        fetch_a = server.handle({"op": "fetch", "tenant": "alice",
                                 "job_id": sub_a["job_id"], "timeout": 60})
        fetch_b = server.handle({"op": "fetch", "tenant": "bob",
                                 "job_id": sub_b["job_id"], "timeout": 60})
        assert fetch_a["ok"] and fetch_b["ok"]

        # each tenant's payload must be byte-identical to a private solo
        # run of *its own* query: correctness and no cross-tenant rows
        with Session(catalog_dir=str(tmp_path / "cat-a")) as solo:
            rows_a = (solo.read(path).filter(col("rank") > 30)
                      .select("url", "rank").collect())
            rows_b = (solo.read(path).filter(col("rank") > 10)
                      .select("url").collect())
        assert decode_bytes(fetch_a["payload"]) == serialize_rows(rows_a)
        assert decode_bytes(fetch_b["payload"]) == serialize_rows(rows_b)

        sched = server.scheduler.stats()
        assert sched["batch_window_seconds"] == 0.5
        assert sched["batch_groups"] == 1
        assert sched["batched"] == 2
        stats = server.handle({"op": "stats"})
        saved = stats["shared_scans"]["scans_saved_by_tenant"]
        assert sum(saved.values()) == 1
        assert engine.pool.stats()["shared_scan_groups"] == 1

    def test_singleton_window_flushes_and_completes(self, served,
                                                    tmp_path):
        server, _engine = served
        path = write_webpages(tmp_path / "one.rf", 100)
        ops = _query_ops(path, col("rank") > lit(40), ["url", "rank"])
        sub = server.handle(
            {"op": "submit", "tenant": "alice", "query": ops}
        )
        assert sub["ok"]
        fetch = server.handle({"op": "fetch", "tenant": "alice",
                               "job_id": sub["job_id"], "timeout": 60})
        assert fetch["ok"]
        with Session(catalog_dir=str(tmp_path / "cat")) as solo:
            rows = (solo.read(path).filter(col("rank") > 40)
                    .select("url", "rank").collect())
        assert decode_bytes(fetch["payload"]) == serialize_rows(rows)
        # a held singleton runs the plain solo path: no group counted
        assert server.scheduler.stats()["batch_groups"] == 0

    def test_deadline_beats_batching_window(self, served, tmp_path):
        # a job whose deadline expires inside the hold window must fail
        # with the deadline error, exactly as it would unbatched
        server, _engine = served
        path = write_webpages(tmp_path / "dl.rf", 100)
        ops = _query_ops(path, col("rank") > lit(1), ["url"])
        sub = server.handle({
            "op": "submit", "tenant": "alice", "query": ops,
            "options": {"deadline_seconds": 0.05},
        })
        assert sub["ok"]
        fetch = server.handle({"op": "fetch", "tenant": "alice",
                               "job_id": sub["job_id"], "timeout": 60})
        assert not fetch["ok"]
        assert fetch["error"]["code"] == "deadline-exceeded"
