"""The symbolic expression algebra: one tree from the front door to the kernel.

A :class:`SymExpr` is an expression over a mapper's key and value
records.  The static analyzer *derives* these trees from user code
(:mod:`repro.core.analyzer.conditions`), the fluent API *builds* them
(``col("rank") > 10`` is sugar, see :mod:`repro.api.expressions`), and
selection hints, residual predicates, synthesized stage mappers and
batch kernels all consume the same nodes -- the paper's Appendix A lets
layered tools "sidestep the analyzer and accept optimization
descriptions directly": the same descriptors, not a parallel vocabulary.

A leaf module (it imports only the exception types) so every layer may
use it.  It holds the node classes with :meth:`SymExpr.evaluate`, the
reference interpreter, and :func:`render_source`, the one Python-source
renderer, whose two leaf policies -- how a field reads, how a constant
appears -- are all a consumer chooses.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.exceptions import AnalyzerError

#: Roles symbolic param references use.
ROLE_KEY = "key"
ROLE_VALUE = "value"


class SymExpr:
    """Base class of symbolic expressions."""

    __slots__ = ()

    def children(self) -> Tuple["SymExpr", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def is_functional(self) -> bool:
        """The paper's ``isFunc``: no opaque dependencies anywhere."""
        return not any(isinstance(n, SOpaque) for n in self.walk())

    def opaque_reasons(self) -> List[str]:
        return [n.reason for n in self.walk() if isinstance(n, SOpaque)]

    def field_refs(self) -> List[Tuple[str, str]]:
        """All (role, field) references, including those inside opaques."""
        out: List[Tuple[str, str]] = []
        for node in self.walk():
            if isinstance(node, SParamField):
                out.append((node.role, node.path[0]))
            elif isinstance(node, SOpaque):
                out.extend(node.field_deps)
        return out

    def value_columns(self) -> FrozenSet[str]:
        """Names of the value-record fields this tree reads."""
        return frozenset(
            name for role, name in self.field_refs() if role == ROLE_VALUE
        )

    def whole_param_roles(self) -> Set[str]:
        """Roles (key/value) whose *whole record* flows through this tree."""
        roles: Set[str] = set()
        for node in self.walk():
            if isinstance(node, SParam):
                roles.add(node.role)
            elif isinstance(node, SOpaque):
                roles |= node.whole_params
        return roles

    def evaluate(self, key: Any, value: Any) -> Any:
        raise NotImplementedError


class SConst(SymExpr):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, key: Any, value: Any) -> Any:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)


class SParam(SymExpr):
    """The whole key or value record."""

    __slots__ = ("role",)

    def __init__(self, role: str):
        self.role = role

    def evaluate(self, key: Any, value: Any) -> Any:
        return key if self.role == ROLE_KEY else value

    def __repr__(self) -> str:
        return f"${self.role}"


class SParamField(SymExpr):
    """A (possibly nested) field of the key or value record."""

    __slots__ = ("role", "path")

    def __init__(self, role: str, path: Tuple[str, ...]):
        self.role = role
        self.path = path

    def evaluate(self, key: Any, value: Any) -> Any:
        cursor = key if self.role == ROLE_KEY else value
        for attr in self.path:
            cursor = getattr(cursor, attr)
        return cursor

    def __repr__(self) -> str:
        return f"${self.role}.{'.'.join(self.path)}"


_CMP_IMPLS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "in": lambda a, b: a in b, "not in": lambda a, b: a not in b,
    "is": operator.is_, "is not": operator.is_not,
}
_ARITH_IMPLS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv, "%": operator.mod,
    "**": operator.pow, "&": operator.and_, "|": operator.or_,
    "^": operator.xor, "<<": operator.lshift, ">>": operator.rshift,
}

#: Comparison operators invertible for negation pushing.
_CMP_NEGATIONS = {
    "==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<",
    "in": "not in", "not in": "in", "is": "is not", "is not": "is",
}
#: Mirror of each comparison when operands swap sides.
CMP_MIRROR = {
    "==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


class SCompare(SymExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: SymExpr, right: SymExpr):
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[SymExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, key: Any, value: Any) -> Any:
        return _CMP_IMPLS[self.op](
            self.left.evaluate(key, value), self.right.evaluate(key, value)
        )

    def negated(self) -> "SCompare":
        return SCompare(_CMP_NEGATIONS[self.op], self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class SBool(SymExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: SymExpr, right: SymExpr):
        if op not in ("and", "or"):
            raise AnalyzerError(f"bad boolean op {op}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[SymExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, key: Any, value: Any) -> Any:
        if self.op == "and":
            return self.left.evaluate(key, value) and self.right.evaluate(key, value)
        return self.left.evaluate(key, value) or self.right.evaluate(key, value)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class SNot(SymExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: SymExpr):
        self.operand = operand

    def children(self) -> Tuple[SymExpr, ...]:
        return (self.operand,)

    def evaluate(self, key: Any, value: Any) -> Any:
        return not self.operand.evaluate(key, value)

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


class SArith(SymExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: SymExpr, right: Optional[SymExpr]):
        self.op = op
        self.left = left
        self.right = right  # None for unary minus/plus

    def children(self) -> Tuple[SymExpr, ...]:
        if self.right is None:
            return (self.left,)
        return (self.left, self.right)

    def evaluate(self, key: Any, value: Any) -> Any:
        if self.right is None:
            lhs = self.left.evaluate(key, value)
            return -lhs if self.op == "-" else +lhs
        return _ARITH_IMPLS[self.op](
            self.left.evaluate(key, value), self.right.evaluate(key, value)
        )

    def __repr__(self) -> str:
        if self.right is None:
            return f"({self.op}{self.left!r})"
        return f"({self.left!r} {self.op} {self.right!r})"


class SCall(SymExpr):
    """A knowledge-base-pure call (method or function)."""

    __slots__ = ("name", "receiver", "args", "_impl")

    def __init__(self, name: str, receiver: Optional[SymExpr],
                 args: Sequence[SymExpr], impl=None):
        self.name = name
        self.receiver = receiver
        self.args = tuple(args)
        self._impl = impl

    def children(self) -> Tuple[SymExpr, ...]:
        base = (self.receiver,) if self.receiver is not None else ()
        return base + self.args

    def evaluate(self, key: Any, value: Any) -> Any:
        argv = [a.evaluate(key, value) for a in self.args]
        if self.receiver is not None:
            recv = self.receiver.evaluate(key, value)
            return getattr(recv, self.name)(*argv)
        if self._impl is None:
            raise AnalyzerError(f"no implementation for pure function {self.name}")
        return self._impl(*argv)

    def __repr__(self) -> str:
        argrepr = ", ".join(repr(a) for a in self.args)
        if self.receiver is not None:
            return f"{self.receiver!r}.{self.name}({argrepr})"
        return f"{self.name}({argrepr})"


class SAttr(SymExpr):
    """Attribute read off a computed (non-parameter) value."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj: SymExpr, attr: str):
        self.obj = obj
        self.attr = attr

    def children(self) -> Tuple[SymExpr, ...]:
        return (self.obj,)

    def evaluate(self, key: Any, value: Any) -> Any:
        return getattr(self.obj.evaluate(key, value), self.attr)

    def __repr__(self) -> str:
        return f"{self.obj!r}.{self.attr}"


class SSubscript(SymExpr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: SymExpr, index: SymExpr):
        self.obj = obj
        self.index = index

    def children(self) -> Tuple[SymExpr, ...]:
        return (self.obj, self.index)

    def evaluate(self, key: Any, value: Any) -> Any:
        return self.obj.evaluate(key, value)[self.index.evaluate(key, value)]

    def __repr__(self) -> str:
        return f"{self.obj!r}[{self.index!r}]"


class STuple(SymExpr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[SymExpr]):
        self.items = tuple(items)

    def children(self) -> Tuple[SymExpr, ...]:
        return self.items

    def evaluate(self, key: Any, value: Any) -> Any:
        return tuple(item.evaluate(key, value) for item in self.items)

    def __repr__(self) -> str:
        return f"({', '.join(repr(i) for i in self.items)})"


class SOpaque(SymExpr):
    """Unresolvable or non-functional dataflow, with the reason recorded.

    ``field_deps`` and ``whole_params`` preserve which parameter data
    flowed *into* the opaque region, so projection can still account for
    field usage conservatively even when selection must give up.
    """

    __slots__ = ("reason", "field_deps", "whole_params")

    def __init__(self, reason: str,
                 field_deps: Sequence[Tuple[str, str]] = (),
                 whole_params: Optional[Set[str]] = None):
        self.reason = reason
        self.field_deps = list(field_deps)
        self.whole_params: Set[str] = set(whole_params or ())

    def evaluate(self, key: Any, value: Any) -> Any:
        raise AnalyzerError(f"cannot evaluate opaque expression: {self.reason}")

    def __repr__(self) -> str:
        return f"<opaque: {self.reason}>"


# ---------------------------------------------------------------------------
# Source rendering
# ---------------------------------------------------------------------------

def as_symbolic(expr: Any) -> SymExpr:
    """``expr`` itself, or the tree a sugar wrapper (fluent ``Expr``)
    holds: entry points users hand expressions to unwrap here."""
    return expr if isinstance(expr, SymExpr) else expr.to_symbolic()


#: Constant types whose ``repr`` is a Python literal evaluating back to
#: an equal, immutable object.
_LITERAL_TYPES = (type(None), bool, int, float, str, bytes)


def has_literal_form(value: Any) -> bool:
    """Whether ``repr(value)`` spliced into source yields ``value`` again.

    Exact types only (a subclass may override ``repr``), and finite
    floats only: ``inf`` and ``nan`` print as bare names.
    """
    return type(value) in _LITERAL_TYPES and (
        type(value) is not float or math.isfinite(value)
    )


def render_source(expr: SymExpr, field: Callable[[SParamField], str],
                  const: Callable[[Any], str]) -> str:
    """Python source computing ``expr``, leaves rendered by the policies.

    ``field(node)`` renders a record-field read; ``const(value)`` a
    constant -- ``repr`` when it has a literal form, else a name the
    caller binds to the object in the generated function's environment.
    Operators render as Python's own tokens, fully parenthesized,
    operands in written order, so evaluation order, short-circuiting and
    every raised error are :meth:`SymExpr.evaluate`'s.  Nodes with no
    operator form (calls, subscripts, opaques, whole records) raise
    :class:`TypeError`.
    """
    if isinstance(expr, SParamField):
        return field(expr)
    if isinstance(expr, SConst):
        return const(expr.value)
    if isinstance(expr, (SCompare, SBool, SArith)) \
            and expr.right is not None:
        left = render_source(expr.left, field, const)
        right = render_source(expr.right, field, const)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, SNot):
        return f"(not {render_source(expr.operand, field, const)})"
    raise TypeError(f"expression node {type(expr).__name__} has no source form")


def to_source(expr: SymExpr, var: str = "value",
              const: Callable[[Any], str] = repr) -> str:
    """:func:`render_source` reading value fields off record variable
    ``var`` -- the stage-mapper spelling, and (with the default ``repr``
    constants) the display form ``explain`` prints."""

    def field(node: SParamField) -> str:
        if node.role != ROLE_VALUE:
            raise TypeError(f"{node!r} is not a field of the value record")
        return f"{var}.{'.'.join(node.path)}"

    return render_source(expr, field, const)
