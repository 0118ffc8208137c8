"""Every way a job group can execute, as one differential.

A :class:`~repro.mapreduce.parallel.ParallelJobRunner` sends a group to
one of two pool paths (pooled, forked) or -- when it would not fan out,
or after the pool gave up on it -- to the sequential dispatcher,
:func:`~repro.mapreduce.runtime.run_tasks_in_process`.  Whatever the
route, outputs, counters and volume metrics equal
:class:`~repro.mapreduce.runtime.LocalJobRunner`'s; the route itself is
asserted from ``pool.stats()``, and the in-process routes must not touch
the spill machinery at all (no ``manimal-shuffle-*`` scratch dir).
"""

import glob
import tempfile
from dataclasses import replace

import pytest

from repro import JobConf, Mapper, Reducer, Session, col, faults
from repro.engine import ExecutionEngine
from repro.engine.pool import RetryPolicy
from repro.exceptions import JobExecutionError, TransientTaskError
from repro.faults import Fault, FaultPlan
from repro.mapreduce import InMemoryInput, LocalJobRunner, ParallelJobRunner
from repro.service.payload import serialize_rows
from tests.conftest import metrics_without_wall, write_webpages

ROUTE_COUNTERS = ("jobs_pooled", "jobs_forked", "jobs_inline",
                  "jobs_degraded", "pools_created", "tasks_retried")


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("user", "mapped")
        ctx.emit(value % 7, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.increment("user", "reduced")
        ctx.emit(key, sum(values))


class BadMapper(Mapper):
    def map(self, key, value, ctx):
        raise ValueError("boom")


#: route name -> how the runner is built and which counters must move.
#: ``splits_per_input``/``num_reducers`` shape the *solo* workloads (a
#: group of three is at least three reduce tasks wide, so the
#: widest-phase route has no group case).
ROUTES = {
    "pooled": dict(moved={"jobs_pooled": 1}),
    "forked": dict(unpicklable=True, moved={"jobs_forked": 1}),
    "no_fork": dict(no_fork=True, moved={"jobs_inline": 1}),
    "one_worker": dict(num_workers=1, moved={"jobs_inline": 1}),
    "widest_phase_1": dict(splits_per_input=1, num_reducers=1,
                           moved={"jobs_inline": 1}),
    "pool_gave_up": dict(kill=True, moved={"jobs_pooled": 1,
                                           "jobs_degraded": 1}),
}
IN_PROCESS = ("no_fork", "one_worker", "widest_phase_1")


def _route_params(workloads):
    return [
        pytest.param(
            route, workload, id=f"{route}-{workload}",
            marks=[pytest.mark.chaos] if route == "pool_gave_up" else [],
        )
        for route in ROUTES
        for workload in workloads
        if not (route == "widest_phase_1" and workload == "group_of_three")
    ]


@pytest.fixture(scope="module")
def group_confs(tmp_path_factory):
    """Three fluent scan stages over one file: a reducing group_by
    member, and one whose batch spec is declined at task time."""
    root = tmp_path_factory.mktemp("routes")
    path = write_webpages(root / "pages.rf", 300)
    with Session(workdir=str(root / "s")) as session:
        pages = session.read(path)
        confs = []
        for i, dataset in enumerate([
            pages.filter(col("rank") > 25).select("url", "rank"),
            pages.filter(col("rank") < 20).select("url"),
            pages.group_by("rank").agg(n=("count", None)),
        ]):
            stage0 = session.lower(dataset, name=f"route-q{i}").stages[0]
            descriptor = session.system.plan(stage0.conf, stage0.hints)
            confs.append(stage0.conf.with_inputs(descriptor.chosen_inputs()))
        tag = confs[1].inputs[0].tag
        spec = confs[1].batch_specs[tag]
        confs[1].batch_specs[tag] = replace(
            spec, project_columns=spec.project_columns + ["no_such_column"]
        )
        assert confs[2].reducer is not None
        yield confs


@pytest.fixture
def engine():
    eng = ExecutionEngine(max_workers=2, reap_scratch=False)
    yield eng
    eng.shutdown()
    faults.clear_plan()


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Redirect the spill root and record every scratch dir made in it."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    made = []
    real = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return root, made


def _confs(workload, route, group_confs, mapper=ModMapper):
    if workload == "group_of_three":
        confs = [replace(conf) for conf in group_confs]
    else:
        confs = [JobConf(
            name=workload, mapper=mapper,
            reducer=None if workload == "map_only" else SumReducer,
            inputs=[InMemoryInput([(i, i * 3) for i in range(400)])],
            num_reducers=route.get("num_reducers", 3),
        )]
    if route.get("unpicklable"):
        # A local lambda cannot pickle, so the state takes the forked
        # path; it keeps every pair, so results are unchanged.
        confs[0].shuffle_filter = lambda key: True
    return confs


def _runner(route, engine, monkeypatch, tmp_path):
    if route.get("no_fork"):
        monkeypatch.setattr("repro.engine.pool._FORK_CONTEXT", None)
    if route.get("kill"):
        faults.install_plan(FaultPlan(
            [Fault("pool.map_task", "kill")],
            token_dir=str(tmp_path / "tokens"),
        ))
    return ParallelJobRunner(
        num_workers=route.get("num_workers", 2),
        splits_per_input=route.get("splits_per_input", 10),
        engine=engine,
        retry_policy=RetryPolicy(max_pool_rebuilds=0),
    )


def _moved(engine, before):
    after = engine.pool.stats()
    return {key: after[key] - before[key] for key in ROUTE_COUNTERS
            if after[key] != before[key]}


@pytest.mark.parametrize(
    "route_name,workload",
    _route_params(["solo_reducing", "map_only", "group_of_three"]),
)
def test_every_route_equals_the_sequential_runner(
        route_name, workload, group_confs, engine, scratch, monkeypatch,
        tmp_path):
    route = ROUTES[route_name]
    scratch_root, made = scratch
    splits = route.get("splits_per_input", 10)
    want = LocalJobRunner(splits_per_input=splits).run_group(
        _confs(workload, route, group_confs))

    runner = _runner(route, engine, monkeypatch, tmp_path)
    before = engine.pool.stats()
    got = runner.run_group(_confs(workload, route, group_confs))

    assert len(got) == len(want)
    for par, seq in zip(got, want):
        assert par.outputs == seq.outputs
        assert par.counters.to_dict() == seq.counters.to_dict()
        assert metrics_without_wall(par) == metrics_without_wall(seq)

    if workload == "group_of_three":
        # the declined member really ran its record path beside a
        # batch-served sibling
        assert got[1].metrics.batch_map_tasks == 0
        assert got[0].metrics.batch_map_tasks == got[0].metrics.map_tasks > 0

    moved = _moved(engine, before)
    if route_name in ("pooled", "pool_gave_up"):
        assert moved.pop("pools_created") == 1
    if route.get("kill"):
        # the killed worker's started tasks were charged before the
        # rebuild budget turned out to be spent
        moved.pop("tasks_retried", None)
    assert moved == route["moved"]
    if route_name in IN_PROCESS:
        assert made == []
    else:
        assert len(made) == 1 and "manimal-shuffle-" in made[0]
    # ... and whatever a pool route made is gone, gave-up route included
    assert glob.glob(str(scratch_root / "manimal-shuffle-*")) == []


@pytest.mark.parametrize(
    "route_name,workload", _route_params(["solo_reducing"]))
def test_user_code_failure_is_raised_once_on_every_route(
        route_name, workload, group_confs, engine, scratch, monkeypatch,
        tmp_path):
    route = ROUTES[route_name]
    runner = _runner(route, engine, monkeypatch, tmp_path)
    before = engine.pool.stats()
    with pytest.raises(JobExecutionError, match="map task failed") as err:
        runner.run_group(_confs(workload, route, group_confs, BadMapper))
    # Deterministic user code is never retried, and never mistaken for
    # (or wrapped around) an infrastructure signal.
    assert not isinstance(err.value, TransientTaskError)
    assert "PoolGaveUp" not in repr(err.value)
    if not route.get("kill"):
        assert "tasks_retried" not in _moved(engine, before)
    assert glob.glob(str(scratch[0] / "manimal-shuffle-*")) == []


def test_index_served_job_rides_the_persistent_pool(tmp_path, engine):
    """The optimizer's own residual predicate pickles: a job planned
    onto a B+Tree selection index is not a forked (user-closure) job."""
    path = write_webpages(tmp_path / "pages.rf", 400)
    with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
        query = session.read(path).filter(
            (col("rank") > 45) | (col("rank") < 2)).select("url", "rank")
        session.build_indexes(query)
        assert "btree-scan(" in query.explain()
        want = query.run()
        before = engine.pool.stats()
        got = query.run(parallelism=2)
        assert serialize_rows(got.rows) == serialize_rows(want.rows)
        assert _moved(engine, before) == {"jobs_pooled": 1,
                                          "pools_created": 1}
