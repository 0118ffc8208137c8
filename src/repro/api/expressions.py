"""Column expressions for the fluent :class:`~repro.api.Dataset` API.

A :func:`col` reference combined with comparison/boolean operators builds a
small predicate tree.  Unlike user mapper code -- which Manimal must
*reverse-engineer* with static analysis -- these trees are born structured,
so the API layer can hand the optimizer exact optimization descriptors
(paper Appendix A: layered tools "sidestep the analyzer and accept
optimization descriptions directly").

Every expression supports three renderings:

* :meth:`Expr.to_symbolic` -- the analyzer's :class:`SymExpr` form, used to
  assemble :class:`SelectionFormula` hints the planner and the
  index-generation synthesizer already understand;
* :meth:`Expr.to_source` -- Python source over a record variable, spliced
  into synthesized mapper code so the static analyzer re-derives the very
  same formula when hints are withheld;
* :meth:`Expr.evaluate` -- direct evaluation against a decoded record.
"""

from __future__ import annotations

import base64
import math
import pickle
from typing import Any, Dict, FrozenSet, Sequence, Tuple

from repro.core.analyzer.conditions import (
    ROLE_VALUE,
    Conjunct,
    SArith,
    SBool,
    SCompare,
    SConst,
    SelectionFormula,
    SNot,
    SParamField,
    SymExpr,
    term_dnf,
)
from repro.exceptions import JobConfigError

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/", "//", "%")


class Expr:
    """Base class of fluent column expressions."""

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: Any) -> "Compare":  # type: ignore[override]
        return Compare("==", self, _wrap(other))

    def __ne__(self, other: Any) -> "Compare":  # type: ignore[override]
        return Compare("!=", self, _wrap(other))

    def __lt__(self, other: Any) -> "Compare":
        return Compare("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Compare":
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Compare":
        return Compare(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Compare":
        return Compare(">=", self, _wrap(other))

    __hash__ = None  # type: ignore[assignment]  # == builds an Expr

    # -- boolean combinators -------------------------------------------------

    def __and__(self, other: "Expr") -> "BoolExpr":
        return BoolExpr("and", self, _require_expr(other))

    def __or__(self, other: "Expr") -> "BoolExpr":
        return BoolExpr("or", self, _require_expr(other))

    def __invert__(self) -> "NotExpr":
        return NotExpr(self)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Any) -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "Arith":
        return Arith("/", self, _wrap(other))

    def __mod__(self, other: Any) -> "Arith":
        return Arith("%", self, _wrap(other))

    # -- renderings ----------------------------------------------------------

    def to_symbolic(self) -> SymExpr:
        """The analyzer's symbolic form of this expression."""
        raise NotImplementedError

    def to_source(self, var: str = "value") -> str:
        """Python source reading fields off record variable ``var``."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Names of the value columns this expression references."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable rendering (the query-service wire form).

        Round-trips through :func:`expr_from_dict`; the remote client
        ships predicates this way so the server rebuilds the exact
        expression tree -- and therefore the exact selection hints --
        that an in-process Dataset would carry.
        """
        raise NotImplementedError

    def evaluate(self, record: Any) -> Any:
        """Evaluate against one decoded value record."""
        return self.to_symbolic().evaluate(None, record)

    def __repr__(self) -> str:
        return self.to_source("value")

    def __bool__(self) -> bool:
        raise JobConfigError(
            "column expressions have no truth value; combine them with "
            "& | ~ (not `and`/`or`/`not`)"
        )


class Col(Expr):
    """A reference to one value-record column."""

    def __init__(self, name: str):
        if not name.isidentifier():
            raise JobConfigError(f"column name {name!r} is not an identifier")
        self.name = name

    def to_symbolic(self) -> SymExpr:
        return SParamField(ROLE_VALUE, (self.name,))

    def to_source(self, var: str = "value") -> str:
        return f"{var}.{self.name}"

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "col", "name": self.name}


class Lit(Expr):
    """A literal constant."""

    def __init__(self, value: Any):
        self.value = value

    def to_symbolic(self) -> SymExpr:
        return SConst(self.value)

    def to_source(self, var: str = "value") -> str:
        return repr(self.value)

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def to_dict(self) -> Dict[str, Any]:
        # JSON carries the common literal types natively; anything else
        # (bytes, decimals, ...) rides as a pickled payload.
        if self.value is None or isinstance(self.value, (bool, int, float,
                                                         str)):
            return {"kind": "lit", "value": self.value}
        blob = pickle.dumps(self.value, protocol=pickle.HIGHEST_PROTOCOL)
        return {"kind": "lit",
                "pickle": base64.b64encode(blob).decode("ascii")}


class Compare(Expr):
    """A comparison between two sub-expressions."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise JobConfigError(f"unsupported comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def to_symbolic(self) -> SymExpr:
        return SCompare(self.op, self.left.to_symbolic(),
                        self.right.to_symbolic())

    def to_source(self, var: str = "value") -> str:
        return f"({self.left.to_source(var)} {self.op} {self.right.to_source(var)})"

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "cmp", "op": self.op,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


class BoolExpr(Expr):
    """Conjunction/disjunction of two boolean expressions."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ("and", "or"):
            raise JobConfigError(f"unsupported boolean op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def to_symbolic(self) -> SymExpr:
        return SBool(self.op, self.left.to_symbolic(),
                     self.right.to_symbolic())

    def to_source(self, var: str = "value") -> str:
        return f"({self.left.to_source(var)} {self.op} {self.right.to_source(var)})"

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "bool", "op": self.op,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


class NotExpr(Expr):
    """Logical negation."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def to_symbolic(self) -> SymExpr:
        return SNot(self.operand.to_symbolic())

    def to_source(self, var: str = "value") -> str:
        return f"(not {self.operand.to_source(var)})"

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "not", "operand": self.operand.to_dict()}


class Arith(Expr):
    """Arithmetic over columns and constants."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise JobConfigError(f"unsupported arithmetic op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def to_symbolic(self) -> SymExpr:
        return SArith(self.op, self.left.to_symbolic(),
                      self.right.to_symbolic())

    def to_source(self, var: str = "value") -> str:
        return f"({self.left.to_source(var)} {self.op} {self.right.to_source(var)})"

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "arith", "op": self.op,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


def _wrap(value: Any) -> Expr:
    if isinstance(value, Expr):
        return value
    return Lit(value)


def _require_expr(value: Any) -> Expr:
    if not isinstance(value, Expr):
        raise JobConfigError(
            f"expected a column expression, got {type(value).__name__}; "
            "wrap literals with lit(...)"
        )
    return value


def expr_from_dict(data: Dict[str, Any]) -> Expr:
    """Rebuild an expression tree from its :meth:`Expr.to_dict` form.

    The inverse of the wire encoding the remote query-service client
    ships predicates in; unknown kinds and malformed nodes raise
    :class:`~repro.exceptions.JobConfigError` so a bad frame fails the
    one request, not the server.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise JobConfigError(f"malformed expression node {data!r}")
    kind = data["kind"]
    try:
        if kind == "col":
            return Col(data["name"])
        if kind == "lit":
            if "pickle" in data:
                blob = base64.b64decode(data["pickle"])
                return Lit(pickle.loads(blob))
            return Lit(data["value"])
        if kind == "cmp":
            return Compare(data["op"], expr_from_dict(data["left"]),
                           expr_from_dict(data["right"]))
        if kind == "bool":
            return BoolExpr(data["op"], expr_from_dict(data["left"]),
                            expr_from_dict(data["right"]))
        if kind == "not":
            return NotExpr(expr_from_dict(data["operand"]))
        if kind == "arith":
            return Arith(data["op"], expr_from_dict(data["left"]),
                         expr_from_dict(data["right"]))
    except KeyError as exc:
        raise JobConfigError(
            f"expression node {kind!r} is missing field {exc}"
        ) from exc
    raise JobConfigError(f"unknown expression kind {kind!r}")


class NoExprForm(Exception):
    """A symbolic expression has no equivalent in the fluent algebra."""


#: Constant types a :class:`Lit` renders into synthesized source exactly
#: (``repr`` round-trips them; they are immutable).
_LITERAL_TYPES = (type(None), bool, int, float, str, bytes)


def _literal(value: Any) -> Lit:
    if type(value) not in _LITERAL_TYPES or (
        type(value) is float and not math.isfinite(value)
    ):
        raise NoExprForm(
            f"constant {value!r} of type {type(value).__name__} is not an "
            "immutable scalar with a literal form"
        )
    return Lit(value)


def expr_from_symbolic(sym: SymExpr) -> Expr:
    """The fluent expression equal to ``sym``: :meth:`Expr.to_symbolic`'s
    inverse.

    Defined on exactly the image of ``to_symbolic`` -- value-record
    fields, scalar constants, the six comparisons, ``and``/``or``/``not``
    and the six arithmetic operators -- plus a signed numeric constant,
    which Python source spells as a unary operator.  Anything else the
    analyzer can resolve (calls, subscripts, whole-record or key
    references, ``in``/``is``, bit operators) raises :class:`NoExprForm`
    naming the node, which is how UDF translation declines it.
    """
    if isinstance(sym, SConst):
        return _literal(sym.value)
    if isinstance(sym, SParamField):
        if sym.role != ROLE_VALUE or len(sym.path) != 1:
            raise NoExprForm(f"{sym!r} is not a field of the value record")
        return Col(sym.path[0])
    if isinstance(sym, SCompare):
        if sym.op not in _CMP_OPS:
            raise NoExprForm(f"comparison {sym.op!r} has no column form")
        return Compare(sym.op, expr_from_symbolic(sym.left),
                       expr_from_symbolic(sym.right))
    if isinstance(sym, SBool):
        return BoolExpr(sym.op, expr_from_symbolic(sym.left),
                        expr_from_symbolic(sym.right))
    if isinstance(sym, SNot):
        return NotExpr(expr_from_symbolic(sym.operand))
    if isinstance(sym, SArith):
        if sym.right is None:
            operand = sym.left
            if isinstance(operand, SConst) \
                    and type(operand.value) in (int, float):
                value = operand.value
                return _literal(-value if sym.op == "-" else +value)
            raise NoExprForm(f"unary {sym.op!r} on a non-constant has no "
                             "column form")
        if sym.op not in _ARITH_OPS:
            raise NoExprForm(f"operator {sym.op!r} has no column form")
        return Arith(sym.op, expr_from_symbolic(sym.left),
                     expr_from_symbolic(sym.right))
    raise NoExprForm(f"{sym!r} has no column form")


def col(name: str) -> Col:
    """Reference a value column by name (``col('rank') > 10``)."""
    return Col(name)


def lit(value: Any) -> Lit:
    """Wrap a literal for use in column expressions."""
    return Lit(value)


def selection_formula(predicates: Sequence[Expr]) -> SelectionFormula:
    """The DNF :class:`SelectionFormula` of a conjunction of predicates.

    This is the exact hint handed to ``submit_with_hints``: the optimizer's
    interval extractor and the index synthesizer consume it the same way
    they consume analyzer-derived formulas.
    """
    if not predicates:
        raise JobConfigError("selection_formula needs at least one predicate")
    combined: SymExpr = predicates[0].to_symbolic()
    for predicate in predicates[1:]:
        combined = SBool("and", combined, predicate.to_symbolic())
    return SelectionFormula([Conjunct(terms) for terms in term_dnf(combined)])
