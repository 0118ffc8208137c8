"""Each layer depends only on the layers below it, only storage stats an
input's mtime, every environment knob is on an argued allow-list, one
module drives shared scans, one plans batch scans, one lists the
aggregate ops, nothing imports the retired typed shuffle's stub,
nothing brings back the retired lazy decode, the shuffle's
bookkeeping sizes, sort-keys and hashes by column, one reduce loop
groups by column boundaries with one sort helper, only the
optimizer attaches a record-path read shape, the per-field reference
encode is named only by serialization and the compiled encoder's
decline path, the retired B+Tree index path stays retired, and
pipelines keep one stage order -- checked, not claimed.

CI runs ``tools/check_layers.py`` in the docs job; this test keeps the
same guarantees in the tier-1 suite and pins what the checker catches.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_layers.py")


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layers", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def test_layer_rules_hold():
    proc = subprocess.run(
        [sys.executable, CHECKER], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_sees_function_level_and_relative_imports(tmp_path):
    checker = _load_checker()
    batch = tmp_path / "repro" / "batch"
    batch.mkdir(parents=True)
    (batch / "clean.py").write_text(
        "from repro.symbolic import SymExpr\nfrom . import spec\n")
    (batch / "absolute.py").write_text(
        "def f():\n    from repro.api.expressions import col\n")
    (batch / "relative.py").write_text("from ..service import client\n")
    (batch / "parent.py").write_text("from repro import api\n")
    found = checker.violations(str(tmp_path))
    assert [os.path.basename(line.split(":")[0]) for line in found] == [
        "absolute.py", "parent.py", "relative.py"]
    assert "repro.api.expressions" in found[0] and ":2:" in found[0]


def test_checker_sees_mtime_reads_outside_storage(tmp_path):
    checker = _load_checker()
    for package, body in (
        ("storage", "import os\ndef f(p):\n    return os.stat(p).st_mtime_ns\n"),
        ("engine", "import os\n\ndef f(p):\n    st = os.stat(p)\n"
                   "    return (st.st_size, st.st_mtime_ns)\n"),
        ("service", "MENTION = 'st_mtime_ns in a string is not a read'\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True)
        (directory / "mod.py").write_text(body)
    found = checker.mtime_violations(str(tmp_path))
    assert len(found) == 1
    assert os.path.join("engine", "mod.py") + ":5:" in found[0]


def test_checker_sees_environment_knobs_off_the_allow_list(tmp_path):
    checker = _load_checker()
    engine = tmp_path / "repro" / "engine"
    engine.mkdir(parents=True)
    (engine / "knobs.py").write_text(
        '"""Mentioning REPRO_IN_PROSE in a docstring is not a read."""\n'
        "import os\n"
        'ALLOWED = os.environ.get("REPRO_TASK_TIMEOUT")\n'
        'DIRECT = os.environ.get("REPRO_NEW_KNOB", "1")\n'
        'NAME = "REPRO_VIA_A_CONSTANT"\n'
        "INDIRECT = os.getenv(NAME)\n")
    found = checker.env_violations(str(tmp_path))
    assert [line.split(": ")[1].split()[2] for line in found] == [
        "REPRO_NEW_KNOB", "REPRO_VIA_A_CONSTANT"]
    assert ":4:" in found[0] and ":5:" in found[1]


def test_checker_sees_a_second_caller_of_a_single_caller_function(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("batch", "multiscan", "def plan_shared_groups(confs):\n"
                               "    return plan_shared_groups(confs[1:])\n"),
        ("api", "session", "from repro.batch.multiscan import "
                           "plan_shared_groups, run_shared_group\n"
                           "def run_plans(confs, runner, pool):\n"
                           "    plan_shared_groups(confs)\n"
                           "    return run_shared_group(confs, runner, pool)\n"),
        ("batch", "__init__", "from repro.batch.multiscan import "
                              "plan_shared_groups, run_shared_group\n"),
        ("batch", "columns", "def build_scan_plan(k, v, spec):\n"
                             "    return None\n"),
        ("batch", "executor", "from repro.batch.columns import "
                              "build_scan_plan\n"
                              "def batch_admission(spec, source):\n"
                              "    return build_scan_plan(1, 2, spec)\n"),
        ("engine", "service", "from repro.batch import multiscan\n"
                              "from repro.batch.multiscan import "
                              "plan_shared_groups\n\n"
                              "def submit_shared(confs, runner, pool):\n"
                              "    plan_shared_groups(confs)\n"
                              "    return multiscan.run_shared_group(\n"
                              "        confs, runner, pool)\n"),
        ("service", "probe", "from repro.batch import columns\n"
                             "def can_batch(k, v, spec):\n"
                             "    return columns.build_scan_plan(k, v, spec)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.single_caller_violations(str(tmp_path))
    assert [line.split(": calls ")[1].split()[0] for line in found] == [
        "plan_shared_groups", "run_shared_group", "build_scan_plan"]
    assert all(os.path.join("engine", "service.py") in line
               for line in found[:2])
    assert ":5:" in found[0] and ":6:" in found[1]
    assert os.path.join("service", "probe.py") + ":3:" in found[2]


def test_checker_sees_aggregate_op_lists_outside_the_table(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("batch", "spec", 'AGGREGATES = {"count": 1, "sum": 2, "avg": 3}\n'),
        ("api", "plan", 'AGG_OPS = ("count", "sum", "min", "max", "avg")\n'
                        "def reducer(op):\n"
                        '    return {"sum": "sum(values)", "min": "min(values)"'
                        "}[op]\n"),
        ("batch", "fold", 'FOLDS = {"sum", "max"}\n'
                          'ONE = ("sum",)\n'
                          'BUILTINS = ["len", "min", "max"]\n'),
        ("storage", "zonemap", 'STATS = {"min": 0, "max": 1}\n'),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.op_list_violations(str(tmp_path))
    assert [line.split(": lists")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("api", "plan.py") + ":1",
        os.path.join("api", "plan.py") + ":3",
        os.path.join("batch", "fold.py") + ":1"]
    assert "['avg', 'count', 'max', 'min', 'sum']" in found[0]


def test_checker_sees_the_typed_shuffle_stub_used_or_grown(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("batch", "shuffleblocks", '"""Stub."""\n'
                                   "MAGIC = b'TSB1'\n"
                                   "def active_spec(conf):\n"
                                   "    return None\n"
                                   "def spill_typed_run(path, pairs, spec):\n"
                                   "    return None\n"),
        ("api", "plan", "from repro.batch.shuffleblocks import active_spec\n"),
        ("engine", "pool", "def run(conf):\n"
                           "    from repro.batch import shuffleblocks\n"
                           "    return shuffleblocks.active_spec(conf)\n"),
        ("batch", "executor", "from . import shuffleblocks\n"),
        ("mapreduce", "shuffle", "from repro.batch import spec\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.stub_violations(str(tmp_path))
    assert [line.split(": ")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("api", "plan.py") + ":1",
        os.path.join("batch", "executor.py") + ":1",
        os.path.join("batch", "shuffleblocks.py") + ":2",
        os.path.join("engine", "pool.py") + ":2"]
    assert "(2 other top-level statement(s))" in found[2]


def test_checker_sees_the_lazy_decode_come_back(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("storage", "serialization", "class FieldDecodeCounter:\n"
                                     "    pass\n"
                                     "class LazyRecord:\n"
                                     "    pass\n"),
        ("storage", "__init__", "from repro.storage.serialization import "
                                "FieldDecodeCounter\n"),
        ("storage", "varint", "def skip_uvarint(buf):\n"
                              "    return 0\n"),
        ("storage", "columnfile", "def copy(reader, lazy_values=False):\n"
                                  "    return reader.iter_records(\n"
                                  "        lazy_values=True)\n"),
        ("mapreduce", "formats", "from repro.storage import FieldDecodeCounter"
                                 "\n\n\n"
                                 "class Schema:\n"
                                 "    def decode_lazy(self, buf):\n"
                                 "        return buf\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.lazy_decode_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("mapreduce", "formats.py") + ":1: names FieldDecodeCounter",
        os.path.join("mapreduce", "formats.py") + ":5: defines decode_lazy",
        os.path.join("storage", "columnfile.py") + ":2: passes lazy_values=",
        os.path.join("storage", "serialization.py") + ":3: defines LazyRecord",
        os.path.join("storage", "varint.py") + ":1: defines skip_uvarint"]


def test_checker_sees_per_item_sizing_outside_the_allow_list(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("mapreduce", "keyspace", "def estimate_size(v):\n    return 1\n"
                                  "def total_size(vs):\n"
                                  "    return sum(map(estimate_size, vs))\n"),
        ("mapreduce", "api", "from repro.mapreduce.keyspace import "
                             "stable_hash\n"
                             "class Partitioner:\n"
                             "    def partition(self, key, n):\n"
                             "        return stable_hash(key) % n\n"
                             "class Other:\n"
                             "    def partition(self, key, n):\n"
                             "        return stable_hash(key) % n\n"),
        ("mapreduce", "runtime", "from repro.mapreduce import keyspace\n"
                                 "from repro.mapreduce.keyspace import "
                                 "estimate_size, sort_key\n"
                                 "def finish(pairs):\n"
                                 "    def sized(rows):\n"
                                 "        return [estimate_size(k) "
                                 "for k, _v in rows]\n"
                                 "    rows = sorted(pairs, key=sort_key)\n"
                                 "    return keyspace.stable_hash(rows)\n"),
        ("mapreduce", "shuffle", "from repro.mapreduce.keyspace import "
                                 "sort_key\n"
                                 "def merge_runs(runs):\n"
                                 "    return ((sort_key(k), k, v) "
                                 "for k, v in runs)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.per_item_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("mapreduce", "api.py")
        + ":7: Other.partition uses the per-item stable_hash",
        os.path.join("mapreduce", "runtime.py")
        + ":5: finish.sized uses the per-item estimate_size",
        os.path.join("mapreduce", "runtime.py")
        + ":6: finish uses the per-item sort_key",
        os.path.join("mapreduce", "runtime.py")
        + ":7: finish uses the per-item stable_hash"]


def test_checker_sees_a_second_reduce_loop_or_sort_column(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("mapreduce", "keyspace", "_RAW_ORDERED = frozenset({str})\n"
                                  "def sort_order(keys):\n"
                                  "    return type(keys[0]) in _RAW_ORDERED\n"
                                  "def raw(keys):\n"
                                  "    return type(keys[0]) in _RAW_ORDERED\n"),
        ("mapreduce", "runtime", "from itertools import groupby\n"
                                 "import itertools\n"
                                 "def loop(rows):\n"
                                 "    rows.sort(key=len)\n"
                                 "    return itertools.groupby(rows)\n"),
        ("mapreduce", "shuffle", "from repro.mapreduce.keyspace import "
                                 "_RAW_ORDERED\n"
                                 "def run(rows):\n"
                                 "    return sorted(rows)\n"),
        ("engine", "pool", "from itertools import groupby as g\n"
                           "def done(results):\n"
                           "    return sorted(results)\n"),
        ("batch", "executor", "from itertools import groupby\n"
                              "def rows(r):\n"
                              "    return sorted(r)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.reduce_loop_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("engine", "pool.py") + ":1: names groupby",
        os.path.join("mapreduce", "keyspace.py") + ":5: names _RAW_ORDERED",
        os.path.join("mapreduce", "runtime.py") + ":1: names groupby",
        os.path.join("mapreduce", "runtime.py") + ":4: sorts",
        os.path.join("mapreduce", "runtime.py") + ":5: names groupby",
        os.path.join("mapreduce", "shuffle.py") + ":1: names _RAW_ORDERED",
        os.path.join("mapreduce", "shuffle.py") + ":3: sorts"]


def test_checker_sees_a_read_shape_attached_outside_the_optimizer(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("mapreduce", "formats", "class _UnreadKey:\n"
                                 "    pass\n"
                                 "_UNREAD_KEY = _UnreadKey()\n"
                                 "def reshaped(source, shape):\n"
                                 "    source.shape = shape\n"),
        ("core/optimizer", "planner", "def plan(source, shape):\n"
                                      "    return source.with_shape(shape)\n"),
        ("mapreduce", "runtime", "from repro.mapreduce.formats import "
                                 "_UNREAD_KEY\n"
                                 "def run(source, shape):\n"
                                 "    source.shape = shape\n"
                                 "    return source.shape\n"),
        ("api", "session", "import repro.mapreduce.formats as f\n"
                           "def lower(source, shape):\n"
                           "    f._UnreadKey()\n"
                           "    return source.with_shape(shape)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.read_shape_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("api", "session.py") + ":3: names _UnreadKey",
        os.path.join("api", "session.py") + ":4: attaches a read shape",
        os.path.join("mapreduce", "runtime.py") + ":1: names _UNREAD_KEY",
        os.path.join("mapreduce", "runtime.py") + ":3: stores a read shape"]


def test_checker_sees_the_reference_encode_called_outside_its_homes(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("storage", "serialization", "def _encode_fields(fields, values):\n"
                                     "    return _encode_value(1, 2, 3)\n"),
        ("storage", "blockwrite", "class WriteCodec:\n"
                                  "    def reference(self, key, value):\n"
                                  "        return self._reference_delta(value)\n"
                                  "    def write(self, value):\n"
                                  "        return self._reference_delta(value)\n"),
        ("storage", "delta", "from repro.storage.serialization import "
                             "_encode_value\n"
                             "def encode(f, v, out):\n"
                             "    _encode_value(f, v, out)\n"),
        ("core", "indexgen", "import repro.storage.serialization as s\n"
                             "def build(fields, values):\n"
                             "    return s._encode_fields(fields, values)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.reference_encode_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("core", "indexgen.py")
        + ":3: build uses the reference encode _encode_fields",
        os.path.join("storage", "blockwrite.py")
        + ":5: WriteCodec.write uses the reference encode _reference_delta",
        os.path.join("storage", "delta.py")
        + ":1: <module> uses the reference encode _encode_value",
        os.path.join("storage", "delta.py")
        + ":3: encode uses the reference encode _encode_value"]


def test_checker_sees_the_btree_index_path_come_back(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("storage", "__init__", "from repro.storage.btree import BTree\n"),
        ("storage", "indexfile", "from . import btree\n"
                                 "def _IndexEntries():\n"
                                 "    pass\n"),
        ("mapreduce", "formats", "import repro.storage.btree as tree\n"
                                 "def frame_index_entry(k, v):\n"
                                 "    return k + v\n"),
        ("core", "analyzer", "from repro.storage import blockscan\n"
                             "def peek(k, v):\n"
                             "    return blockscan.entry_scanner(k, v)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.index_format_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("core", "analyzer.py") + ":3: names entry_scanner",
        os.path.join("mapreduce", "formats.py")
        + ":1: imports repro.storage.btree",
        os.path.join("mapreduce", "formats.py")
        + ":2: names frame_index_entry",
        os.path.join("storage", "indexfile.py")
        + ":1: imports repro.storage.btree",
        os.path.join("storage", "indexfile.py") + ":2: names _IndexEntries"]


def test_checker_sees_a_second_stage_order_come_back(tmp_path):
    checker = _load_checker()
    for package, name, body in (
        ("engine", "__init__", "from repro.engine.dag import StageDAG\n"),
        ("engine", "service", "class ExecutionEngine:\n"
                              "    def run_stage_tasks(self, tasks):\n"
                              "        return tasks\n"),
        ("core", "pipeline", "def submit(runner=None, *, scheduler=None):\n"
                             "    return runner\n"),
        ("api", "dataset", "from repro import engine\n"
                           "run = lambda scheduler: engine.dag\n"),
        ("service", "server", "from repro.service.scheduler import "
                              "FairScheduler\n"
                              "def start(scheduler):\n"
                              "    return FairScheduler(scheduler)\n"),
    ):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.py").write_text(body)
    found = checker.stage_order_violations(str(tmp_path))
    assert [line.split(" (")[0].split(os.sep + "repro" + os.sep)[1]
            for line in found] == [
        os.path.join("api", "dataset.py")
        + ":2: takes a 'scheduler' parameter",
        os.path.join("core", "pipeline.py")
        + ":1: takes a 'scheduler' parameter",
        os.path.join("engine", "__init__.py") + ":1: imports repro.engine.dag",
        os.path.join("engine", "__init__.py") + ":1: names StageDAG",
        os.path.join("engine", "service.py") + ":2: names run_stage_tasks"]
