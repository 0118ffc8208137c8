"""Each layer depends only on the layers below it, only storage stats an
input's mtime, every environment knob is on an argued allow-list, one
module drives shared scans, one plans batch scans, one lists the
aggregate ops and nothing imports the retired typed shuffle's stub --
checked, not claimed.

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
