"""Three-address intermediate representation for mapper analysis.

The paper's analyzer operates on compiled Java bytecode through ASM; this
reproduction operates on Python source through the ``ast`` module.  To keep
the *analysis* identical in spirit -- control-flow graphs over basic blocks
and use-def chains over simple statements -- we first lower the Python AST
into a small three-address IR where every expression operand is a variable
reference or a constant, and every statement has at most one effect.

The IR is deliberately tiny: it models exactly the data-centric subset the
paper's detection algorithms need (assignments, attribute loads, calls,
comparisons, emits, branches).  Anything outside the subset raises
:class:`~repro.exceptions.UnsupportedConstructError` during lowering, which
the analyzer treats as "no optimization found" -- best-effort, never
unsafe, mirroring the paper's stance that "missing an optimization is
regrettable, but finding a false one is catastrophic."
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Expressions (operands are Const or VarRef only -- three-address form)
# ---------------------------------------------------------------------------

class Expr:
    """Base class of IR expressions."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def variables(self) -> List[str]:
        """All variable names referenced anywhere in this expression."""
        out: List[str] = []
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, VarRef):
                out.append(node.name)
            stack.extend(node.children())
        return out


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class VarRef(Expr):
    """A reference to a local variable, parameter, or global name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"VarRef({self.name})"


class FieldLoad(Expr):
    """Attribute read ``obj.attr`` -- the construct projection tracks."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj: Expr, attr: str):
        self.obj = obj
        self.attr = attr

    def children(self) -> Tuple[Expr, ...]:
        return (self.obj,)

    def __repr__(self) -> str:
        return f"FieldLoad({self.obj!r}.{self.attr})"


class MethodCall(Expr):
    """``obj.method(args...)``."""

    __slots__ = ("obj", "method", "args")

    def __init__(self, obj: Expr, method: str, args: Sequence[Expr]):
        self.obj = obj
        self.method = method
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return (self.obj,) + self.args

    def __repr__(self) -> str:
        return f"MethodCall({self.obj!r}.{self.method}{list(self.args)!r})"


class FuncCall(Expr):
    """Call of a plain (possibly dotted) name: ``len(x)``, ``re.match(..)``."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]):
        self.func = func
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"FuncCall({self.func}{list(self.args)!r})"


class BinOp(Expr):
    """Binary operation; ``op`` is a token like ``+`` ``>`` ``==`` ``in``.

    Boolean ``and``/``or`` are represented as BinOps as well.  The lowering
    does not model Python's short-circuit evaluation; this is sound for the
    analyzer because conditions are only *widened or rejected*, never used
    to prove absence of side effects inside operands (operands with side
    effects fail the purity test outright).
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr):
    """Unary operation; ``op`` in {``not``, ``-``, ``+``}."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnaryOp({self.op} {self.operand!r})"


class Subscript(Expr):
    """``obj[index]``."""

    __slots__ = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr):
        self.obj = obj
        self.index = index

    def children(self) -> Tuple[Expr, ...]:
        return (self.obj, self.index)

    def __repr__(self) -> str:
        return f"Subscript({self.obj!r}[{self.index!r}])"


class TupleExpr(Expr):
    """Tuple construction."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def children(self) -> Tuple[Expr, ...]:
        return self.items

    def __repr__(self) -> str:
        return f"TupleExpr({list(self.items)!r})"


class IterElement(Expr):
    """Opaque element drawn from an iterable by a ``for`` loop.

    Loop-carried values cannot be summarized statically, so any dataflow
    that reaches one is non-functional for selection purposes; projection
    still records which fields the iterable expression touches.
    """

    __slots__ = ("iterable",)

    def __init__(self, iterable: Expr):
        self.iterable = iterable

    def children(self) -> Tuple[Expr, ...]:
        return (self.iterable,)

    def __repr__(self) -> str:
        return f"IterElement({self.iterable!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of IR statements.

    ``stmt_id`` is assigned by the lowering pass and is unique across the
    function; dataflow facts are keyed on it.
    """

    __slots__ = ("stmt_id", "lineno")

    def __init__(self) -> None:
        self.stmt_id = -1
        self.lineno = 0


class Assign(Stmt):
    """``target = expr`` where target is a local variable name."""

    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr: Expr):
        super().__init__()
        self.target = target
        self.expr = expr

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] {self.target} = {self.expr!r}"


class AttrAssign(Stmt):
    """``obj.attr = expr`` -- member mutation (``self.count = ...``).

    These are what make Fig. 2's mapper unoptimizable: member state that
    evolves across invocations.
    """

    __slots__ = ("obj", "attr", "expr")

    def __init__(self, obj: Expr, attr: str, expr: Expr):
        super().__init__()
        self.obj = obj
        self.attr = attr
        self.expr = expr

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] {self.obj!r}.{self.attr} = {self.expr!r}"


class SubscriptAssign(Stmt):
    """``obj[index] = expr``."""

    __slots__ = ("obj", "index", "expr")

    def __init__(self, obj: Expr, index: Expr, expr: Expr):
        super().__init__()
        self.obj = obj
        self.index = index
        self.expr = expr

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] {self.obj!r}[{self.index!r}] = {self.expr!r}"


class ExprStmt(Stmt):
    """A bare expression evaluated for effect (calls, emits)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] {self.expr!r}"


class Emit(Stmt):
    """``ctx.emit(key, value)`` -- the statement ``isEmit`` recognizes."""

    __slots__ = ("key", "value")

    def __init__(self, key: Expr, value: Expr):
        super().__init__()
        self.key = key
        self.value = value

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] emit({self.key!r}, {self.value!r})"


class Return(Stmt):
    """``return [expr]``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Optional[Expr]):
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"[{self.stmt_id}] return {self.expr!r}"
