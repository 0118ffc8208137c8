"""Each layer depends only on the layers below it -- checked, not claimed.

CI runs ``tools/check_layers.py`` in the docs job; this test keeps the
same guarantee in the tier-1 suite and pins what the checker catches.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_layers.py")


def test_lower_layers_never_import_the_front_doors():
    proc = subprocess.run(
        [sys.executable, CHECKER], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_sees_function_level_and_relative_imports(tmp_path):
    spec = importlib.util.spec_from_file_location("check_layers", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)

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
