"""The benchmark suite's staged entry points against the one-shot path.

``benchmarks/suite/staged.py`` drives classic ops through the public
task functions -- ``execute_map_task`` per split, the pairs of each
``MapTaskResult.partitions`` gathered per partition, then
``execute_reduce_partition(conf, pairs)`` or a spill and merge of them
-- and its traced run (``--trace 1``) checks their outputs against the
suite's oracle.  Pinned here: over B2, B3 and B4 of ``classic_pavlo``,
through memory and through spilled runs, the staged outputs are
``Manimal.submit``'s, so no change to the map tail's or the reduce's
API can silently break the traced run.
"""

import pickle

import pytest

from benchmarks.suite import staged
from benchmarks.suite.trace import NullTracer
from benchmarks.suite.workloads import ClassicPavlo
from repro.mapreduce.keyspace import sort_key

#: a small scale: 200 rankings, 600 visits, 10 documents
SCALE = 0.05


@pytest.fixture(scope="module")
def pavlo(tmp_path_factory):
    workload = ClassicPavlo(1, SCALE)
    workload.setup(str(tmp_path_factory.mktemp("pavlo")), NullTracer())
    return workload


def _sorted(outputs):
    return pickle.dumps(sorted(outputs, key=sort_key))


@pytest.mark.parametrize("kind", ["b2", "b3", "b4"])
@pytest.mark.parametrize("spilled", [False, True], ids=["memory", "spilled"])
def test_staged_submit_equals_the_one_shot_submit(pavlo, kind, spilled,
                                                  tmp_path):
    for pick in (0, 1):
        op = pavlo._op(kind, pick)
        conf = pavlo._conf(op)
        expected = pavlo.system.submit(conf).result
        outputs, metrics, descriptor = staged.submit(
            NullTracer(), pavlo.system, pavlo._conf(op),
            spill_root=str(tmp_path) if spilled else None)
        assert outputs, kind
        assert _sorted(outputs) == _sorted(expected.outputs), (kind, pick)
        assert sorted(map(repr, outputs)) == \
            sorted(map(repr, pavlo._oracle(op))), (kind, pick)
        # the staged run reads the same plan's inputs; only the batch
        # path's decode and the semijoin's key pass differ from it
        assert metrics.reduce_output_records == \
            expected.metrics.reduce_output_records
        assert descriptor.describe() == \
            pavlo.system.plan(conf).describe()
