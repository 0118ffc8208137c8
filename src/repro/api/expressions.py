"""Column expressions for the fluent :class:`~repro.api.Dataset` API.

``col("rank") > 10`` builds the analyzer's own :class:`SymExpr` tree
(:mod:`repro.symbolic`) -- :class:`Expr` is operator sugar holding one,
not a second algebra.  Unlike user mapper code -- which Manimal must
*reverse-engineer* with static analysis -- these trees are born
structured, so the API layer can hand the optimizer exact optimization
descriptors (paper Appendix A: layered tools "sidestep the analyzer and
accept optimization descriptions directly").  ``Dataset.filter`` unwraps
the sugar; from there on a fluent predicate, a translated UDF and an
analyzer-derived condition are the same nodes, rendered by the same
:func:`~repro.symbolic.render_source` into stage mappers and kernels.

Also here: the admission check deciding which analyzer-resolved trees
may stand in for a UDF (:func:`expr_from_symbolic`), and the JSON wire
form the query service ships predicates in.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Dict, FrozenSet, Sequence

from repro.core.analyzer.conditions import (
    Conjunct,
    SelectionFormula,
    term_dnf,
)
from repro.exceptions import JobConfigError
from repro.symbolic import (
    ROLE_VALUE,
    SArith,
    SBool,
    SCompare,
    SConst,
    SNot,
    SParamField,
    SymExpr,
    as_symbolic,
    has_literal_form,
    to_source,
)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/", "//", "%")


class Expr:
    """Operator sugar over one :class:`SymExpr` tree."""

    __slots__ = ("sym",)

    def __init__(self, sym: SymExpr):
        self.sym = sym

    __hash__ = None  # type: ignore[assignment]  # == builds an Expr

    # Comparison and arithmetic operators are attached below, from one
    # table: each builds the node with operands in written order.

    def __and__(self, other: "Expr") -> "Expr":
        return Expr(SBool("and", self.sym, _require_expr(other)))

    def __or__(self, other: "Expr") -> "Expr":
        return Expr(SBool("or", self.sym, _require_expr(other)))

    def __invert__(self) -> "Expr":
        return Expr(SNot(self.sym))

    # -- renderings ----------------------------------------------------------

    def to_symbolic(self) -> SymExpr:
        """The tree itself, as the analyzer and the kernels consume it."""
        return self.sym

    def to_source(self, var: str = "value") -> str:
        """Python source reading fields off record variable ``var``."""
        return to_source(self.sym, var)

    def columns(self) -> FrozenSet[str]:
        """Names of the value columns this expression references."""
        return self.sym.value_columns()

    def to_dict(self) -> Dict[str, Any]:
        """The JSON wire form; round-trips through :func:`expr_from_dict`."""
        return to_dict(self.sym)

    def evaluate(self, record: Any) -> Any:
        """Evaluate against one decoded value record."""
        return self.sym.evaluate(None, record)

    def __repr__(self) -> str:
        return to_source(self.sym)

    def __bool__(self) -> bool:
        raise JobConfigError(
            "column expressions have no truth value; combine them with "
            "& | ~ (not `and`/`or`/`not`)"
        )


def _operand(value: Any) -> SymExpr:
    return value.sym if isinstance(value, Expr) else SConst(value)


def _operator(node: type, op: str, reflected: bool = False):
    def method(self: Expr, other: Any) -> Expr:
        left, right = self.sym, _operand(other)
        if reflected:  # ``2 * col("x")``: the literal was written first
            left, right = right, left
        return Expr(node(op, left, right))
    return method


for _name, _op in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("le", "<="),
                   ("gt", ">"), ("ge", ">=")):
    setattr(Expr, f"__{_name}__", _operator(SCompare, _op))
for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"),
                   ("truediv", "/"), ("floordiv", "//"), ("mod", "%")):
    setattr(Expr, f"__{_name}__", _operator(SArith, _op))
    setattr(Expr, f"__r{_name}__", _operator(SArith, _op, reflected=True))


def _require_expr(value: Any) -> SymExpr:
    if not isinstance(value, Expr):
        raise JobConfigError(
            f"expected a column expression, got {type(value).__name__}; "
            "wrap literals with lit(...)"
        )
    return value.sym


def col(name: str) -> Expr:
    """Reference a value column by name (``col('rank') > 10``)."""
    if not name.isidentifier():
        raise JobConfigError(f"column name {name!r} is not an identifier")
    return Expr(SParamField(ROLE_VALUE, (name,)))


def lit(value: Any) -> Expr:
    """Wrap a literal for use in column expressions."""
    return Expr(SConst(value))


# ---------------------------------------------------------------------------
# Wire form
# ---------------------------------------------------------------------------

#: Wire ``kind`` of each operator node class, with the operators it admits.
_WIRE_KINDS = {
    "cmp": (SCompare, _CMP_OPS),
    "bool": (SBool, ("and", "or")),
    "arith": (SArith, _ARITH_OPS),
}
_KIND_OF = {cls: kind for kind, (cls, _ops) in _WIRE_KINDS.items()}


def to_dict(sym: SymExpr) -> Dict[str, Any]:
    """A JSON-serializable rendering (the query-service wire form).

    The remote client ships predicates this way so the server rebuilds
    the exact tree -- and therefore the exact selection hints -- that an
    in-process Dataset would carry; the JSON is also the service's
    result-cache identity, so its keys and their order are frozen.
    """
    if isinstance(sym, SParamField) and sym.role == ROLE_VALUE \
            and len(sym.path) == 1:
        return {"kind": "col", "name": sym.path[0]}
    if isinstance(sym, SConst):
        # JSON carries the common literal types natively; anything else
        # (bytes, decimals, ...) rides as a pickled payload.
        if sym.value is None or isinstance(sym.value, (bool, int, float,
                                                       str)):
            return {"kind": "lit", "value": sym.value}
        blob = pickle.dumps(sym.value, protocol=pickle.HIGHEST_PROTOCOL)
        return {"kind": "lit",
                "pickle": base64.b64encode(blob).decode("ascii")}
    if isinstance(sym, SNot):
        return {"kind": "not", "operand": to_dict(sym.operand)}
    kind = _KIND_OF.get(type(sym))
    if kind is None or sym.right is None:
        raise JobConfigError(f"{sym!r} has no wire form")
    return {"kind": kind, "op": sym.op,
            "left": to_dict(sym.left), "right": to_dict(sym.right)}


def _from_dict(data: Dict[str, Any]) -> SymExpr:
    if not isinstance(data, dict) or "kind" not in data:
        raise JobConfigError(f"malformed expression node {data!r}")
    kind = data["kind"]
    try:
        if kind == "col":
            return col(data["name"]).sym
        if kind == "lit":
            if "pickle" in data:
                return SConst(pickle.loads(base64.b64decode(data["pickle"])))
            return SConst(data["value"])
        if kind == "not":
            return SNot(_from_dict(data["operand"]))
        if kind in _WIRE_KINDS:
            cls, ops = _WIRE_KINDS[kind]
            if data["op"] not in ops:
                raise JobConfigError(
                    f"unsupported {kind} operator {data['op']!r}")
            return cls(data["op"], _from_dict(data["left"]),
                       _from_dict(data["right"]))
    except KeyError as exc:
        raise JobConfigError(
            f"expression node {kind!r} is missing field {exc}"
        ) from exc
    raise JobConfigError(f"unknown expression kind {kind!r}")


def expr_from_dict(data: Dict[str, Any]) -> Expr:
    """Rebuild an expression from its :meth:`Expr.to_dict` form.

    Unknown kinds and malformed nodes raise
    :class:`~repro.exceptions.JobConfigError` so a bad frame fails the
    one request, not the server.
    """
    return Expr(_from_dict(data))


# ---------------------------------------------------------------------------
# Admission: which analyzer-resolved trees may stand in for a UDF
# ---------------------------------------------------------------------------

class NoExprForm(Exception):
    """A symbolic expression is outside the admitted column algebra."""


def _admit_constant(value: Any) -> None:
    if not has_literal_form(value):
        raise NoExprForm(
            f"constant {value!r} of type {type(value).__name__} is not an "
            "immutable scalar with a literal form"
        )


def expr_from_symbolic(sym: SymExpr) -> SymExpr:
    """``sym`` itself, once checked to be a column expression.

    Admitted are exactly the trees :func:`col`/:func:`lit` sugar builds
    -- value-record fields, scalar constants, the six comparisons,
    ``and``/``or``/``not`` and the six arithmetic operators -- plus a
    signed numeric constant, which Python source spells as a unary
    operator and which is folded into the constant it means (the only
    node this ever constructs; a parent is re-made only around a folded
    operand).  Anything else the analyzer can resolve (calls,
    subscripts, whole-record or key references, ``in``/``is``, bit
    operators) raises :class:`NoExprForm` naming the node, which is how
    UDF translation declines it.
    """
    if isinstance(sym, SConst):
        _admit_constant(sym.value)
        return sym
    if isinstance(sym, SParamField):
        if sym.role != ROLE_VALUE or len(sym.path) != 1:
            raise NoExprForm(f"{sym!r} is not a field of the value record")
        return sym
    if isinstance(sym, SNot):
        operand = expr_from_symbolic(sym.operand)
        return sym if operand is sym.operand else SNot(operand)
    if isinstance(sym, SArith) and sym.right is None:
        operand = sym.left
        if isinstance(operand, SConst) \
                and type(operand.value) in (int, float):
            folded = -operand.value if sym.op == "-" else +operand.value
            _admit_constant(folded)
            return SConst(folded)
        raise NoExprForm(f"unary {sym.op!r} on a non-constant has no "
                         "column form")
    if isinstance(sym, SCompare) and sym.op not in _CMP_OPS:
        raise NoExprForm(f"comparison {sym.op!r} has no column form")
    if isinstance(sym, SArith) and sym.op not in _ARITH_OPS:
        raise NoExprForm(f"operator {sym.op!r} has no column form")
    if isinstance(sym, (SCompare, SBool, SArith)):
        left = expr_from_symbolic(sym.left)
        right = expr_from_symbolic(sym.right)
        if left is sym.left and right is sym.right:
            return sym
        return type(sym)(sym.op, left, right)
    raise NoExprForm(f"{sym!r} has no column form")


def selection_formula(predicates: Sequence[Any]) -> SelectionFormula:
    """The DNF :class:`SelectionFormula` of a conjunction of predicates.

    This is the exact hint handed to ``submit_with_hints``: the optimizer's
    interval extractor and the index synthesizer consume it the same way
    they consume analyzer-derived formulas.
    """
    if not predicates:
        raise JobConfigError("selection_formula needs at least one predicate")
    combined = as_symbolic(predicates[0])
    for predicate in predicates[1:]:
        combined = SBool("and", combined, as_symbolic(predicate))
    return SelectionFormula([Conjunct(terms) for terms in term_dnf(combined)])
