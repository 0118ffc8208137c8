"""Byte-identity under injected faults, across runners.

The recovery contract is stronger than "the job finishes": a run that
lost a worker mid-map-task and had another worker hang past its deadline
must serialize to the *same bytes* as a fault-free sequential run.  This
suite borrows the randomized schema/chain generator from
``test_batch_equivalence`` and, for every generated chain, compares a
clean sequential reference against a parallel execution that survives
one injected SIGKILL and one injected hang -- the differential
oracle is the canonical row payload the query service caches.
"""

import os
import random

import pytest

from repro import faults
from repro.api.session import Session
from repro.engine import ExecutionEngine
from repro.faults import Fault, FaultPlan
from repro.service.payload import serialize_rows
# Imported under pytest's own top-level module name (tests/ has no
# __init__.py): spelling this ``tests.test_batch_equivalence`` would
# create a second module instance and re-register its opaque schema.
from test_batch_equivalence import (
    _random_chain,
    _random_schema,
    _write_dataset,
)

N_SCHEMAS = 3
CHAINS_PER_SCHEMA = 2

#: injected hangs are cut short by this per-task deadline (seconds)
TASK_TIMEOUT = "1.0"

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def engine():
    previous = os.environ.get("REPRO_TASK_TIMEOUT")
    os.environ["REPRO_TASK_TIMEOUT"] = TASK_TIMEOUT
    eng = ExecutionEngine(max_workers=2, reap_scratch=False)
    yield eng
    eng.shutdown()
    if previous is None:
        os.environ.pop("REPRO_TASK_TIMEOUT", None)
    else:
        os.environ["REPRO_TASK_TIMEOUT"] = previous


@pytest.fixture(scope="module")
def sessions(tmp_path_factory, engine):
    root = tmp_path_factory.mktemp("fault-diff")
    with Session(workdir=str(root / "ref"), engine=engine) as ref, \
            Session(workdir=str(root / "faulted"), engine=engine) as faulted:
        yield ref, faulted


def _chaos_plan(token_dir):
    """One worker SIGKILLed on map task 0, one hung on map task 1.

    The hang matches any attempt of task 1 (``times=1`` fires it once):
    task 1 may start before task 0's kill breaks the pool, be charged
    that attempt and come back as attempt 1."""
    return FaultPlan(
        [
            Fault("pool.map_task", "kill",
                  match={"task_index": 0, "attempt": 0}),
            Fault("pool.map_task", "hang", seconds=30.0,
                  match={"task_index": 1}, times=1),
        ],
        token_dir=str(token_dir),
    )


class TestFaultedChainsByteIdentical:
    def test_randomized_chains_survive_kill_and_hang(
            self, sessions, engine, tmp_path):
        ref, faulted = sessions
        rng = random.Random(0xFA117)
        checked = hangs_fired = 0
        for schema_index in range(N_SCHEMAS):
            schema = _random_schema(rng, schema_index)
            path = _write_dataset(str(tmp_path), rng, schema, schema_index)
            for chain_index in range(CHAINS_PER_SCHEMA):
                seed = rng.randrange(2**32)

                def build(session, _p=path, _s=schema, _seed=seed):
                    return _random_chain(
                        random.Random(_seed), session.read(_p), _s
                    )

                expected = serialize_rows(build(ref).run().rows)

                plan = _chaos_plan(
                    tmp_path / f"tok-{schema_index}-{chain_index}"
                )
                faults.install_plan(plan)
                try:
                    got = serialize_rows(
                        build(faulted).run(parallelism=2).rows
                    )
                finally:
                    faults.clear_plan()
                assert got == expected, (
                    f"schema {schema_index} chain {chain_index}: "
                    f"output diverged under faults"
                )
                assert plan.fired(0) == 1, (
                    f"schema {schema_index} chain {chain_index}: "
                    f"run never exercised the worker kill"
                )
                hangs_fired += plan.fired(1)
                checked += 1
        assert checked == N_SCHEMAS * CHAINS_PER_SCHEMA
        # The hang fault targets map task 1; nearly every generated
        # file spans multiple splits, so if these stopped firing the
        # deadline path would be silently untested.
        assert hangs_fired >= checked

    def test_recovery_stats_accumulated(self, engine):
        # Ran after the differential loop: the injected faults must have
        # flowed through the recovery counters, not around them.
        stats = engine.pool.stats()
        assert stats["tasks_retried"] > 0
        assert stats["pool_rebuilds"] > 0
        assert stats["jobs_degraded"] == 0
