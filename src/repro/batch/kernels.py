"""Predicate kernels: fluent ``Expr`` trees compiled over column arrays.

The record path splices ``expr.to_source("value")`` into a synthesized
mapper and evaluates it once per record against attribute access.  The
batch path compiles the *same* tree into a selection kernel over the
per-column lists of a :class:`~repro.batch.columns.ColumnBatch`: one
generated list comprehension returning the indices of passing rows.

Semantics are kept bit-for-bit with the generated mapper code:

* a chain of ``filter()`` calls renders as one ``and``-conjunction in
  chain order, preserving Python short-circuit (a row failing the first
  predicate never evaluates the second -- so a later predicate that would
  raise on that row, e.g. a division, raises in neither path);
* comparison/boolean/arithmetic operators render with the identical
  Python operator tokens ``to_source`` uses, so truthiness, mixed-type
  comparison errors and float semantics are those of the record path;
* literals bind as *constants in the kernel's namespace* (never through
  ``repr`` round-trips), so ``lit(...)`` values compare as the exact
  objects the user supplied.

A stage ending in a computed projection (a translated ``map``; see
:attr:`BatchStageSpec.derived <repro.batch.spec.BatchStageSpec.derived>`)
compiles its value expressions into the *same* comprehension, so each
row evaluates its predicates and then its derived values before the next
row is touched -- the record path's order, which is what makes a raising
row raise the same error on both paths.

Kernel source is registered in :mod:`linecache` under a content-hashed
filename, mirroring the synthesized stage mappers, so tracebacks through
generated code stay readable.
"""

from __future__ import annotations

import hashlib
import linecache
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.expressions import (
    Arith,
    BoolExpr,
    Col,
    Compare,
    Expr,
    Lit,
    NotExpr,
)

#: Compiled code objects keyed by kernel source (literal values bind per
#: instantiation, so the cache is safe across queries with different
#: constants but identical shapes).
_CODE_CACHE: Dict[str, Any] = {}


class PredicateKernel:
    """A compiled conjunction of predicates over named columns.

    ``select(n, column)`` evaluates the conjunction over rows ``0..n-1``,
    where ``column(name)`` supplies the value list for each referenced
    column, and returns the list of passing row indices.  A kernel
    compiled with ``derived`` expressions returns a tuple instead: the
    passing row indices, then one value sequence per derived expression,
    all aligned.
    """

    __slots__ = ("source", "columns", "_fn")

    def __init__(self, source: str, columns: List[str], fn: Callable):
        self.source = source
        self.columns = columns
        self._fn = fn

    def select(self, n: int, column: Callable[[str], list]) -> List[int]:
        return self._fn(n, *[column(name) for name in self.columns])


def _render(expr: Expr, params: Dict[str, str],
            consts: Dict[str, Any]) -> str:
    """Render one Expr subtree over column parameters and bound constants."""
    if isinstance(expr, Col):
        return f"{params[expr.name]}[_i]"
    if isinstance(expr, Lit):
        name = f"_k{len(consts)}"
        consts[name] = expr.value
        return name
    if isinstance(expr, (Compare, BoolExpr, Arith)):
        left = _render(expr.left, params, consts)
        right = _render(expr.right, params, consts)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, NotExpr):
        return f"(not {_render(expr.operand, params, consts)})"
    raise TypeError(f"cannot vectorize expression node {type(expr).__name__}")


def compile_predicates(predicates: Sequence[Expr],
                       derived: Optional[Sequence[Expr]] = None
                       ) -> Optional[PredicateKernel]:
    """Compile a filter-chain conjunction into a row-selection kernel.

    Returns ``None`` for an empty chain with nothing ``derived`` (every
    row passes; callers skip the kernel entirely).  Raises
    :class:`TypeError` on expression nodes outside the fluent algebra --
    the executor treats that as a fallback trigger, not an error.
    """
    if not predicates and derived is None:
        return None
    exprs = list(predicates) + list(derived or ())
    columns = sorted({name for e in exprs for name in e.columns()})
    params = {name: f"_c{i}" for i, name in enumerate(columns)}
    consts: Dict[str, Any] = {}
    cond = " and ".join(_render(p, params, consts) for p in predicates)
    rows = f"for _i in range(_n) if {cond}" if predicates \
        else "for _i in range(_n)"
    args = ", ".join(["_n"] + [params[name] for name in columns])
    if derived is None:
        body = f"    return [_i {rows}]\n"
    else:
        values = "".join(f", {_render(e, params, consts)}" for e in derived)
        body = (
            f"    _rows = [(_i{values}) {rows}]\n"
            f"    return tuple(zip(*_rows)) if _rows "
            f"else ((),) * {len(derived) + 1}\n"
        )
    source = f"def _kernel({args}):\n{body}"
    code = _CODE_CACHE.get(source)
    if code is None:
        digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:16]
        filename = f"<repro.batch.kernel:{digest}>"
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
        if filename not in linecache.cache:
            linecache.cache[filename] = (
                len(source), None, source.splitlines(keepends=True), filename
            )
    namespace = dict(consts)
    exec(code, namespace)
    return PredicateKernel(source, columns, namespace["_kernel"])
