"""Predicate kernels: expression trees compiled over column arrays.

The record path splices ``to_source(expr, "value")`` into a synthesized
mapper and evaluates it once per record against attribute access.  The
batch path renders the *same* :class:`~repro.symbolic.SymExpr` tree with
the *same* renderer (:func:`repro.symbolic.render_source`) into a
selection kernel over the per-column lists of a
:class:`~repro.batch.columns.ColumnBatch`: one generated list
comprehension returning the indices of passing rows.

Semantics are kept bit-for-bit with the generated mapper code:

* a chain of ``filter()`` calls renders as one ``and``-conjunction in
  chain order, preserving Python short-circuit (a row failing the first
  predicate never evaluates the second -- so a later predicate that would
  raise on that row, e.g. a division, raises in neither path);
* operators are the shared renderer's Python tokens, so truthiness,
  mixed-type comparison errors and float semantics are those of the
  record path; only a field read differs (``_c3[_i]``, not ``value.f``);
* constants bind as *names in the kernel's namespace* -- the objects the
  expression holds, as on the record path, which inlines only those
  whose ``repr`` round-trips -- so one compiled code object serves every
  query of a shape.

A stage ending in a computed projection (a translated ``map``; see
:attr:`BatchStageSpec.derived <repro.batch.spec.BatchStageSpec.derived>`)
compiles its value expressions into the *same* comprehension, so each
row evaluates its predicates and then its derived values before the next
row is touched -- the record path's order, which is what makes a raising
row raise the same error on both paths.

Kernel source is compiled, cached and registered for ``inspect`` by
:func:`repro.codegen.load`, like every generated function; literal
values bind per load, so queries of one shape share one code object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro import codegen
from repro.symbolic import (
    ROLE_KEY,
    ROLE_VALUE,
    SParamField,
    as_symbolic,
    render_source,
)


#: the pseudo-column a kernel reads key fields off: the block's key
#: records (no value field can be called this)
KEY_COLUMN = "@key"


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


def compile_predicates(predicates: Sequence[Any],
                       derived: Optional[Sequence[Any]] = None
                       ) -> Optional[PredicateKernel]:
    """Compile a filter-chain conjunction into a row-selection kernel.

    Takes :class:`~repro.symbolic.SymExpr` trees (fluent ``Expr`` sugar
    is unwrapped).  Returns ``None`` for an empty chain with nothing
    ``derived`` (every row passes; callers skip the kernel entirely).
    Raises :class:`TypeError` on a node with no operator form over value
    columns and key fields -- the executor treats that as a fallback
    trigger, not an error.  A key field reads off the key records the
    caller supplies as column :data:`KEY_COLUMN`.
    """
    if not predicates and derived is None:
        return None
    conds = [as_symbolic(p) for p in predicates]
    outs = [as_symbolic(e) for e in derived or ()]
    # One pass: fields render as ``{name}`` placeholders while their
    # names are collected; parameters are numbered in sorted-name order
    # once every expression has been seen.
    seen: Set[str] = set()
    consts: Dict[str, Any] = {}

    def field(node: SParamField) -> str:
        if len(node.path) != 1:
            raise TypeError(f"{node!r} is not a value column or key field")
        if node.role == ROLE_KEY:
            # the key record's field, read as map() reads it
            seen.add(KEY_COLUMN)
            return f"{{{KEY_COLUMN}}}[_i].{node.path[0]}"
        if node.role != ROLE_VALUE:
            raise TypeError(f"{node!r} is not a value column")
        seen.add(node.path[0])
        return f"{{{node.path[0]}}}[_i]"

    def const(value: Any) -> str:
        name = f"_k{len(consts)}"
        consts[name] = value
        return name

    cond = " and ".join(render_source(p, field, const) for p in conds)
    rows = f"for _i in range(_n) if {cond}" if conds \
        else "for _i in range(_n)"
    if derived is None:
        body = f"    return [_i {rows}]\n"
    else:
        values = "".join(
            f", {render_source(e, field, const)}" for e in outs)
        body = (
            f"    _rows = [(_i{values}) {rows}]\n"
            f"    return tuple(zip(*_rows)) if _rows "
            f"else ((),) * {len(outs) + 1}\n"
        )
    columns = sorted(seen)
    params = {name: f"_c{i}" for i, name in enumerate(columns)}
    args = ", ".join(["_n", *params.values()])
    body = body.format(**params)
    source = f"def _kernel({args}):\n{body}"
    return PredicateKernel(source, columns,
                           codegen.load(source, "kernel", consts)["_kernel"])
