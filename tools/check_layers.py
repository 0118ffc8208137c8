#!/usr/bin/env python3
"""Check the layer rules ``docs/architecture.md`` promises.

1. Lower layers never import the front doors.  Every module under
   ``src/repro/{storage,mapreduce,batch,engine,core}`` is parsed with
   :mod:`ast`; any import, at module level *or* inside a function, of
   ``repro.api`` or ``repro.service`` (absolute or relative spelling)
   fails.
2. One input identity.  The attribute ``st_mtime_ns`` is read only
   under ``src/repro/storage/`` -- "what bytes is this input, right
   now" is :func:`repro.storage.input_identity`'s decision, and a
   second spelling of it elsewhere is a cache that can disagree.
3. No unargued environment knobs.  Every ``REPRO_*`` name spelled as a
   string literal under ``src/repro/`` -- which is how a name reaches
   ``os.environ``, directly or through a helper -- is on
   :data:`ENV_ALLOWED`.  A new knob is a new user-set selector between
   behaviours; it fails here until someone argues for it in the list.
4. One caller for one decision (:data:`SINGLE_CALLER`).
   ``plan_shared_groups`` and ``run_shared_group`` (defined in
   ``repro/batch/multiscan.py``) are *called* from one module only,
   ``repro/api/session.py`` -- ``run_plans``, which every door reaches,
   plus ``explain_many``'s read-only grouping report.  A second caller
   is a second grouping driver that can plan, validate and assemble
   results differently from the first.  ``build_scan_plan`` (defined in
   ``repro/batch/columns.py``) is called only from
   ``repro/batch/executor.py``, the home of ``batch_admission``: a
   second caller is a second copy of "can this spec be served over this
   input" that the map task, shared-scan grouping and ``explain`` can
   disagree with.
5. One aggregate table.  An op list -- a tuple, set or list literal, or
   a dict literal's keys, whose string constants are two or more
   aggregate op names (:data:`AGG_OPS`) and nothing else -- appears only
   in ``repro/batch/spec.py``, home of ``AGGREGATES``: any other one
   (supported ops, foldable ops, reducer templates) is a copy of the
   table kept in step by hand.  ``repro/storage`` sits below the table
   and is not checked: its zone-map ``min``/``max`` are keys of a
   persisted format, not aggregate ops.
6. One spill format.  The typed block shuffle is retired; what is left
   of ``repro/batch/shuffleblocks.py`` is a stub kept for the frozen
   benchmark suite.  No module under ``src/repro`` imports it, and it
   holds nothing but a docstring and ``def active_spec`` -- so the
   second run format cannot grow back behind the first.

Exit status 0 when every rule holds; 1 with a report otherwise.  Run from
anywhere: the repo root is located relative to this file.

Used by the CI ``docs`` job and by ``tests/test_layering.py``.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: packages that must not reach upward ...
LOWER_LAYERS = ("storage", "mapreduce", "batch", "engine", "core")
#: ... into these
FRONT_DOORS = ("repro.api", "repro.service")
#: the stat field only :func:`repro.storage.input_identity` may read
MTIME_ATTR = "st_mtime_ns"
#: every environment variable the package may read: the fault-injection
#: plan (tests, chaos CI) and the three RetryPolicy defaults
ENV_ALLOWED = frozenset({
    "REPRO_FAULTS",
    "REPRO_TASK_ATTEMPTS",
    "REPRO_TASK_TIMEOUT",
    "REPRO_POOL_REBUILDS",
})
_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_MULTISCAN = os.path.join("repro", "batch", "multiscan.py")
_SESSION = os.path.join("repro", "api", "session.py")
#: function name -> (module that defines it, the one module that may
#: call it): the shared-scan planner and group runner, and the scan
#: planner under the batch admission
SINGLE_CALLER = {
    "plan_shared_groups": (_MULTISCAN, _SESSION),
    "run_shared_group": (_MULTISCAN, _SESSION),
    "build_scan_plan": (os.path.join("repro", "batch", "columns.py"),
                        os.path.join("repro", "batch", "executor.py")),
}
#: the aggregate op names, and the one module that may list them
AGG_OPS = frozenset({"count", "sum", "min", "max", "avg"})
AGG_TABLE = os.path.join("repro", "batch", "spec.py")
#: the retired typed shuffle's stub, and the one name it may define
STUB_MODULE = "repro.batch.shuffleblocks"
STUB_NAME = "active_spec"


def imported_modules(tree: ast.AST, package: str) -> Iterator[Tuple[int, str]]:
    """(line, absolute module name) of every import anywhere in ``tree``.

    ``package`` is the dotted package of the module being parsed, used
    to resolve relative imports.  ``from pkg import name`` yields both
    ``pkg`` and ``pkg.name`` (``name`` may be a submodule).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[:len(parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def parsed_modules(top: str) -> Iterator[Tuple[str, ast.AST]]:
    """(path, parsed tree) of every module under ``top``, in sorted order."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as f:
                    yield path, ast.parse(f.read(), filename=path)


def violations(src: str = SRC) -> List[str]:
    found: List[str] = []
    for layer in LOWER_LAYERS:
        for path, tree in parsed_modules(os.path.join(src, "repro", layer)):
            package = os.path.relpath(
                os.path.dirname(path), src).replace(os.sep, ".")
            seen = set()
            for lineno, module in imported_modules(tree, package):
                door = next((d for d in FRONT_DOORS if module == d
                             or module.startswith(d + ".")), None)
                if door is not None and (lineno, door) not in seen:
                    seen.add((lineno, door))
                    found.append(
                        f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: "
                        f"imports {module} ({layer} is below {door})"
                    )
    return found


def mtime_violations(src: str = SRC) -> List[str]:
    """Every read of ``st_mtime_ns`` outside ``repro/storage``."""
    storage = os.path.join(src, "repro", "storage") + os.sep
    return [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: reads "
        f"{MTIME_ATTR} (call repro.storage.input_identity instead)"
        for path, tree in parsed_modules(os.path.join(src, "repro"))
        if not path.startswith(storage)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == MTIME_ATTR
    ]


def env_violations(src: str = SRC) -> List[str]:
    """Every ``REPRO_*`` string literal not on :data:`ENV_ALLOWED`.

    Whole-literal matches only: prose that mentions a name (docstrings,
    messages) is a longer string and is not a read.
    """
    found = sorted(
        (os.path.relpath(path, REPO_ROOT), node.lineno, node.value)
        for path, tree in parsed_modules(os.path.join(src, "repro"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _ENV_NAME.fullmatch(node.value)
        and node.value not in ENV_ALLOWED
    )
    return [
        f"{path}:{lineno}: environment knob {name} is not on "
        f"tools/check_layers.py ENV_ALLOWED"
        for path, lineno, name in found
    ]


def single_caller_violations(src: str = SRC) -> List[str]:
    """Every call of a :data:`SINGLE_CALLER` name outside the two
    modules allowed to make one (bare name or attribute spelling)."""
    found: List[str] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
            home, caller = SINGLE_CALLER.get(name, (None, None))
            if home is None or path in (os.path.join(src, home),
                                        os.path.join(src, caller)):
                continue
            found.append(
                f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: "
                f"calls {name} (only {caller} may)"
            )
    return found


def op_list_violations(src: str = SRC) -> List[str]:
    """Every aggregate op list (rule 5) outside :data:`AGG_TABLE`."""
    found: List[str] = []
    storage = os.path.join(src, "repro", "storage") + os.sep
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        if path == os.path.join(src, AGG_TABLE) or path.startswith(storage):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            names = {item.value for item in items
                     if isinstance(item, ast.Constant)
                     and isinstance(item.value, str)}
            if len(names) >= 2 and names <= AGG_OPS:
                found.append(
                    f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: "
                    f"lists aggregate ops {sorted(names)} (read {AGG_TABLE} "
                    f"AGGREGATES instead)"
                )
    return found


def stub_violations(src: str = SRC) -> List[str]:
    """Every import of :data:`STUB_MODULE` under ``src/repro``, and every
    top-level statement of it other than its docstring and
    ``def`` :data:`STUB_NAME` (rule 6)."""
    found: List[str] = []
    stub_path = os.path.join(src, *STUB_MODULE.split(".")) + ".py"
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        rel = os.path.relpath(path, REPO_ROOT)
        if path == stub_path:
            body = tree.body[1:] if ast.get_docstring(tree) else tree.body
            extra = [node for node in body
                     if not (isinstance(node, ast.FunctionDef)
                             and node.name == STUB_NAME)]
            if extra:
                found.append(
                    f"{rel}:{extra[0].lineno}: the {STUB_MODULE} stub may "
                    f"define only {STUB_NAME} ({len(extra)} other top-level "
                    f"statement(s))"
                )
            continue
        package = os.path.relpath(
            os.path.dirname(path), src).replace(os.sep, ".")
        found.extend(
            f"{rel}:{lineno}: imports {STUB_MODULE} (the retired typed "
            f"shuffle; spill through repro.mapreduce.shuffle)"
            for lineno in sorted({
                lineno for lineno, module in imported_modules(tree, package)
                if module == STUB_MODULE
            })
        )
    return found


def main() -> int:
    upward, mtime, env = violations(), mtime_violations(), env_violations()
    single, ops = single_caller_violations(), op_list_violations()
    stub = stub_violations()
    for line in upward + mtime + env + single + ops + stub:
        print(line)
    if upward:
        print(f"\n{len(upward)} upward import(s) into {FRONT_DOORS}")
    if mtime:
        print(f"\n{len(mtime)} read(s) of {MTIME_ATTR} outside repro.storage")
    if env:
        print(f"\n{len(env)} environment knob(s) off the allow-list")
    if single:
        print(f"\n{len(single)} call(s) of a single-caller function "
              f"outside its caller")
    if ops:
        print(f"\n{len(ops)} aggregate op list(s) outside {AGG_TABLE}")
    if stub:
        print(f"\n{len(stub)} use(s) or growth of the {STUB_MODULE} stub")
    if upward or mtime or env or single or ops or stub:
        return 1
    print(f"OK: no module under src/repro/{{{','.join(LOWER_LAYERS)}}} "
          f"imports {' or '.join(FRONT_DOORS)}; {MTIME_ATTR} is read only "
          f"under src/repro/storage; every REPRO_* environment name is one "
          f"of {', '.join(sorted(ENV_ALLOWED))}; "
          + "; ".join(f"{name} is called only from {caller}"
                      for name, (_home, caller) in SINGLE_CALLER.items())
          + f"; aggregate ops are listed only in {AGG_TABLE}"
          + f"; nothing imports the {STUB_MODULE} stub")
    return 0


if __name__ == "__main__":
    sys.exit(main())
