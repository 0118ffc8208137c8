#!/usr/bin/env python3
"""Check the layer rule: lower layers never import the front doors.

``docs/architecture.md`` promises that each layer depends only on the
layers below it.  This parses every module under the lower layers --
``src/repro/{storage,mapreduce,batch,engine,core}`` -- with :mod:`ast`
and fails on any import, at module level *or* inside a function, of
``repro.api`` or ``repro.service`` (absolute or relative spelling).

Exit status 0 when the rule holds; 1 with a report otherwise.  Run from
anywhere: the repo root is located relative to this file.

Used by the CI ``docs`` job and by ``tests/test_layering.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: packages that must not reach upward ...
LOWER_LAYERS = ("storage", "mapreduce", "batch", "engine", "core")
#: ... into these
FRONT_DOORS = ("repro.api", "repro.service")


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


def violations(src: str = SRC) -> List[str]:
    found: List[str] = []
    for layer in LOWER_LAYERS:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(src, "repro", layer)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                package = os.path.relpath(dirpath, src).replace(os.sep, ".")
                with open(path, "r", encoding="utf-8") as f:
                    tree = ast.parse(f.read(), filename=path)
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


def main() -> int:
    found = violations()
    for line in found:
        print(line)
    if found:
        print(f"\n{len(found)} upward import(s) into {FRONT_DOORS}")
        return 1
    print(f"OK: no module under src/repro/{{{','.join(LOWER_LAYERS)}}} "
          f"imports {' or '.join(FRONT_DOORS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
