"""Lowering Python mapper source to the analyzer IR + CFG.

The input is the ``ast`` of a mapper method like::

    def map(self, key, value, ctx):
        if value.rank > 1:
            ctx.emit(key, 1)

and the output is a :class:`LoweredFunction`: a CFG of three-address
statements with ``ctx.emit(...)`` calls recognized as :class:`ir.Emit`
(the ``isEmit`` predicate of the paper's Fig. 3).

Lowering is *best effort with a hard floor*: any construct outside the
modeled subset raises :class:`UnsupportedConstructError`, and the analyzer
responds by reporting no optimizations for that mapper.  This is how the
reproduction honors the paper's safety stance -- the lowered program is
never a guess.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.core.analyzer import ir
from repro.core.analyzer.cfg import CFG, BasicBlock, CondJump, ExitTerm, Jump
from repro.exceptions import UnsupportedConstructError

_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
    ast.Is: "is", ast.IsNot: "is not",
}
_UNARYOPS = {ast.Not: "not", ast.USub: "-", ast.UAdd: "+"}


class ParamRoles:
    """Names of the mapper method's parameters by role.

    ``self_name`` is ``None`` for plain functions; ``ctx_name`` is the
    context parameter whose ``emit`` attribute defines the emit statement.
    Value-returning UDFs (:func:`lower_udf`) have no context parameter,
    and a ``filter`` predicate has no key parameter either: those roles
    are ``None``.
    """

    def __init__(self, self_name: Optional[str], key_name: Optional[str],
                 value_name: str, ctx_name: Optional[str]):
        self.self_name = self_name
        self.key_name = key_name
        self.value_name = value_name
        self.ctx_name = ctx_name

    def data_params(self) -> Tuple[Optional[str], str]:
        return (self.key_name, self.value_name)

    def __repr__(self) -> str:
        return (
            f"ParamRoles(self={self.self_name}, key={self.key_name}, "
            f"value={self.value_name}, ctx={self.ctx_name})"
        )


class LoweredFunction:
    """A mapper method lowered to CFG form, plus its parameter roles."""

    def __init__(self, name: str, cfg: CFG, roles: ParamRoles,
                 local_names: Set[str]):
        self.name = name
        self.cfg = cfg
        self.roles = roles
        #: names assigned somewhere in the body (distinguishes locals from
        #: module-level/global names when classifying call receivers)
        self.local_names = local_names

    def emit_statements(self) -> List[ir.Emit]:
        return [s for s in self.cfg.all_statements() if isinstance(s, ir.Emit)]


def roles_from_args(fn: ast.FunctionDef, is_method: bool) -> ParamRoles:
    """Derive parameter roles positionally from the signature.

    Methods use ``(self, key, value, ctx)``; plain functions
    ``(key, value, ctx)`` -- the two mapper shapes the fabric supports.
    """
    names = [a.arg for a in fn.args.args]
    expected = 4 if is_method else 3
    if len(names) != expected or fn.args.vararg or fn.args.kwarg:
        raise UnsupportedConstructError(
            f"mapper {fn.name!r} must take exactly "
            f"{'(self, key, value, ctx)' if is_method else '(key, value, ctx)'}"
        )
    if is_method:
        return ParamRoles(names[0], names[1], names[2], names[3])
    return ParamRoles(None, names[0], names[1], names[2])


class _Lowerer:
    """Stateful single-function lowering pass."""

    def __init__(self, roles: ParamRoles, value_returning: bool = False):
        self.roles = roles
        #: the UDF role: ``return <expr>`` is the function's result, not
        #: an emission channel the emit-centric model cannot see
        self.value_returning = value_returning
        self.cfg = CFG()
        self.current: BasicBlock = self.cfg.new_block()
        self.cfg.entry = self.current.block_id
        self._temp_counter = 0
        self._stmt_counter = 0
        self._terminated = False
        self.local_names: Set[str] = set()
        # (header_block_id, after_block_id) for break/continue
        self._loop_stack: List[Tuple[int, int]] = []

    # -- plumbing ------------------------------------------------------------

    def _fresh_temp(self) -> str:
        self._temp_counter += 1
        return f"%t{self._temp_counter}"

    def _add_stmt(self, stmt: ir.Stmt, lineno: int = 0) -> ir.Stmt:
        stmt.stmt_id = self._stmt_counter
        stmt.lineno = lineno
        self._stmt_counter += 1
        self.current.stmts.append(stmt)
        return stmt

    def _start_block(self, block: BasicBlock) -> None:
        self.current = block
        self._terminated = False

    def _seal_with_jump(self, target: int) -> None:
        if not self._terminated:
            self.current.terminator = Jump(target)
            self._terminated = True

    # -- expression lowering ---------------------------------------------------

    def _atom(self, expr: ir.Expr, lineno: int) -> ir.Expr:
        """Ensure an expression is a Const/VarRef, spilling to a temp."""
        if isinstance(expr, (ir.Const, ir.VarRef)):
            return expr
        temp = self._fresh_temp()
        self._add_stmt(ir.Assign(temp, expr), lineno)
        return ir.VarRef(temp)

    def lower_expr(self, node: ast.expr) -> ir.Expr:
        """Lower an AST expression to an IR expression with atomic operands."""
        lineno = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant):
            return ir.Const(node.value)
        if isinstance(node, ast.Name):
            return ir.VarRef(node.id)
        if isinstance(node, ast.Attribute):
            dotted = self._dotted_name(node)
            if dotted is not None and not self._is_local_base(dotted):
                # A module/global attribute chain (e.g. string.digits).
                return ir.FuncCall(f"__global_attr__:{dotted}", ())
            return ir.FieldLoad(
                self._atom(self.lower_expr(node.value), lineno), node.attr
            )
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise UnsupportedConstructError(
                    f"binary operator {type(node.op).__name__}"
                )
            return ir.BinOp(
                op,
                self._atom(self.lower_expr(node.left), lineno),
                self._atom(self.lower_expr(node.right), lineno),
            )
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            result = self._atom(self.lower_expr(node.values[0]), lineno)
            for operand in node.values[1:]:
                rhs = self._atom(self.lower_expr(operand), lineno)
                result = self._atom(ir.BinOp(op, result, rhs), lineno)
            # Unwrap the final spill so the caller sees the BinOp structure
            # (conditions want the tree, not an opaque temp).
            last = self.current.stmts[-1]
            if isinstance(last, ir.Assign) and isinstance(result, ir.VarRef) \
                    and last.target == result.name:
                self.current.stmts.pop()
                self._stmt_counter -= 1
                return last.expr
            return result
        if isinstance(node, ast.UnaryOp):
            op = _UNARYOPS.get(type(node.op))
            if op is None:
                raise UnsupportedConstructError(
                    f"unary operator {type(node.op).__name__}"
                )
            return ir.UnaryOp(
                op, self._atom(self.lower_expr(node.operand), lineno)
            )
        if isinstance(node, ast.Compare):
            parts: List[ir.Expr] = []
            left = self._atom(self.lower_expr(node.left), lineno)
            for op_node, comparator in zip(node.ops, node.comparators):
                op = _CMPOPS.get(type(op_node))
                if op is None:
                    raise UnsupportedConstructError(
                        f"comparison {type(op_node).__name__}"
                    )
                right = self._atom(self.lower_expr(comparator), lineno)
                parts.append(ir.BinOp(op, left, right))
                left = right
            if len(parts) == 1:
                return parts[0]
            result: ir.Expr = parts[0]
            for part in parts[1:]:
                result = ir.BinOp(
                    "and", self._atom(result, lineno), self._atom(part, lineno)
                )
            return result
        if isinstance(node, ast.Call):
            return self._lower_call(node)
        if isinstance(node, ast.Subscript):
            return ir.Subscript(
                self._atom(self.lower_expr(node.value), lineno),
                self._atom(self.lower_expr(node.slice), lineno),
            )
        if isinstance(node, ast.Tuple):
            return ir.TupleExpr(
                [self._atom(self.lower_expr(e), lineno) for e in node.elts]
            )
        if isinstance(node, ast.Dict):
            # Container literals lower to constructor calls; purity is then
            # the knowledge base's call (it has no hash-table model by
            # default -- the paper's Benchmark 4 gap).
            args: List[ir.Expr] = []
            for k, v in zip(node.keys, node.values):
                if k is None:
                    raise UnsupportedConstructError("dict ** expansion")
                args.append(self._atom(self.lower_expr(k), lineno))
                args.append(self._atom(self.lower_expr(v), lineno))
            return ir.FuncCall("dict", args)
        if isinstance(node, ast.List):
            return ir.FuncCall(
                "list",
                [self._atom(self.lower_expr(e), lineno) for e in node.elts],
            )
        if isinstance(node, ast.Set):
            return ir.FuncCall(
                "set",
                [self._atom(self.lower_expr(e), lineno) for e in node.elts],
            )
        if isinstance(node, ast.JoinedStr):
            args = []
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    args.append(self._atom(self.lower_expr(part.value), lineno))
                elif isinstance(part, ast.Constant):
                    args.append(ir.Const(part.value))
            return ir.FuncCall("__fstring__", args)
        raise UnsupportedConstructError(
            f"expression {type(node).__name__} at line {lineno}"
        )

    def _dotted_name(self, node: ast.expr) -> Optional[str]:
        """Render ``a.b.c`` as a dotted string, or None if not a pure chain."""
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            parts.append(cursor.id)
            return ".".join(reversed(parts))
        return None

    def _is_local_base(self, dotted: str) -> bool:
        base = dotted.split(".", 1)[0]
        roles = self.roles
        return (
            base in self.local_names
            or base in (roles.key_name, roles.value_name,
                        roles.ctx_name, roles.self_name)
        )

    def _lower_call(self, node: ast.Call) -> ir.Expr:
        lineno = getattr(node, "lineno", 0)
        if node.keywords:
            raise UnsupportedConstructError(
                f"keyword arguments in call at line {lineno}"
            )
        args = [self._atom(self.lower_expr(a), lineno) for a in node.args]
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == self.roles.ctx_name
                and func.attr == "emit"
            ):
                raise _EmitMarker(args)  # handled by statement lowering
            dotted = self._dotted_name(func)
            if dotted is not None and not self._is_local_base(dotted):
                return ir.FuncCall(dotted, args)
            receiver = self._atom(self.lower_expr(base), lineno)
            return ir.MethodCall(receiver, func.attr, args)
        if isinstance(func, ast.Name):
            if func.id in self.local_names:
                raise UnsupportedConstructError(
                    f"call through local variable {func.id!r}"
                )
            return ir.FuncCall(func.id, args)
        raise UnsupportedConstructError(
            f"call target {type(func).__name__} at line {lineno}"
        )

    # -- statement lowering ------------------------------------------------------

    def lower_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if self._terminated:
                # Dead code after return/break: ignored (cannot emit).
                break
            self.lower_stmt(stmt)

    def lower_stmt(self, node: ast.stmt) -> None:
        lineno = getattr(node, "lineno", 0)
        if isinstance(node, ast.Pass):
            return
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise UnsupportedConstructError("chained assignment")
            self._lower_assign(node.targets[0], node.value, lineno)
            return
        if isinstance(node, ast.AnnAssign):
            # A function-scope annotation is never evaluated: ``x: T = v``
            # runs as ``x = v`` and a bare ``x: T`` does nothing.
            if node.value is not None:
                self._lower_assign(node.target, node.value, lineno)
            return
        if isinstance(node, ast.AugAssign):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise UnsupportedConstructError(
                    f"augmented operator {type(node.op).__name__}"
                )
            target_as_expr = self.lower_expr(node.target)
            rhs = ir.BinOp(
                op,
                self._atom(target_as_expr, lineno),
                self._atom(self.lower_expr(node.value), lineno),
            )
            self._lower_assign(node.target, None, lineno, precomputed=rhs)
            return
        if isinstance(node, ast.Expr):
            try:
                expr = self.lower_expr(node.value)
            except _EmitMarker as marker:
                if len(marker.args) != 2:
                    raise UnsupportedConstructError(
                        "emit() must be called with exactly (key, value)"
                    ) from None
                self._add_stmt(ir.Emit(marker.args[0], marker.args[1]), lineno)
                return
            self._add_stmt(ir.ExprStmt(expr), lineno)
            return
        if isinstance(node, ast.If):
            self._lower_if(node, lineno)
            return
        if isinstance(node, ast.While):
            self._lower_while(node, lineno)
            return
        if isinstance(node, ast.For):
            self._lower_for(node, lineno)
            return
        if isinstance(node, ast.Return):
            if self.value_returning and node.value is not None:
                self._add_stmt(ir.Return(self.lower_expr(node.value)), lineno)
                self.current.terminator = ExitTerm()
                self._terminated = True
                return
            if node.value is not None and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None
            ):
                # The runtime collects (key, value) pairs returned from
                # map()/reduce() bodies, so a value-bearing return is an
                # emission channel the emit-centric model cannot see;
                # treating it as inert would let selection/reduce-side
                # analyses reach unsound conclusions.
                raise UnsupportedConstructError(
                    "value-returning return (returned pairs are collected "
                    "as emissions at runtime)"
                )
            self._add_stmt(ir.Return(None), lineno)
            self.current.terminator = ExitTerm()
            self._terminated = True
            return
        if isinstance(node, ast.Break):
            if not self._loop_stack:
                raise UnsupportedConstructError("break outside loop")
            self.current.terminator = Jump(self._loop_stack[-1][1])
            self._terminated = True
            return
        if isinstance(node, ast.Continue):
            if not self._loop_stack:
                raise UnsupportedConstructError("continue outside loop")
            self.current.terminator = Jump(self._loop_stack[-1][0])
            self._terminated = True
            return
        raise UnsupportedConstructError(
            f"statement {type(node).__name__} at line {lineno}"
        )

    def _lower_assign(
        self,
        target: ast.expr,
        value: Optional[ast.expr],
        lineno: int,
        precomputed: Optional[ir.Expr] = None,
    ) -> None:
        expr = precomputed if precomputed is not None else self.lower_expr(value)
        if isinstance(target, ast.Name):
            self.local_names.add(target.id)
            self._add_stmt(ir.Assign(target.id, expr), lineno)
            return
        if isinstance(target, ast.Attribute):
            obj = self._atom(self.lower_expr(target.value), lineno)
            self._add_stmt(ir.AttrAssign(obj, target.attr, expr), lineno)
            return
        if isinstance(target, ast.Subscript):
            obj = self._atom(self.lower_expr(target.value), lineno)
            index = self._atom(self.lower_expr(target.slice), lineno)
            self._add_stmt(
                ir.SubscriptAssign(obj, index, self._atom(expr, lineno)), lineno
            )
            return
        raise UnsupportedConstructError(
            f"assignment target {type(target).__name__}"
        )

    def _lower_if(self, node: ast.If, lineno: int) -> None:
        cond = self.lower_expr(node.test)
        then_block = self.cfg.new_block()
        else_block = self.cfg.new_block()
        join_block = self.cfg.new_block()
        self.current.terminator = CondJump(
            cond, then_block.block_id, else_block.block_id
        )
        self._terminated = True

        self._start_block(then_block)
        self.lower_body(node.body)
        self._seal_with_jump(join_block.block_id)

        self._start_block(else_block)
        self.lower_body(node.orelse)
        self._seal_with_jump(join_block.block_id)

        self._start_block(join_block)

    def _lower_while(self, node: ast.While, lineno: int) -> None:
        if node.orelse:
            raise UnsupportedConstructError("while/else")
        header = self.cfg.new_block()
        body = self.cfg.new_block()
        after = self.cfg.new_block()
        self._seal_with_jump(header.block_id)

        self._start_block(header)
        cond = self.lower_expr(node.test)
        header_current = self.current  # lowering may have split into temps
        header_current.terminator = CondJump(
            cond, body.block_id, after.block_id
        )
        self._terminated = True

        self._loop_stack.append((header.block_id, after.block_id))
        self._start_block(body)
        self.lower_body(node.body)
        self._seal_with_jump(header.block_id)
        self._loop_stack.pop()

        self._start_block(after)

    def _lower_for(self, node: ast.For, lineno: int) -> None:
        if node.orelse:
            raise UnsupportedConstructError("for/else")
        if not isinstance(node.target, ast.Name):
            raise UnsupportedConstructError("destructuring for-loop target")
        iterable = self._atom(self.lower_expr(node.iter), lineno)
        header = self.cfg.new_block()
        body = self.cfg.new_block()
        after = self.cfg.new_block()
        self._seal_with_jump(header.block_id)

        self._start_block(header)
        cond_temp = self._fresh_temp()
        self._add_stmt(
            ir.Assign(cond_temp, ir.FuncCall("__has_next__", [iterable])),
            lineno,
        )
        self.current.terminator = CondJump(
            ir.VarRef(cond_temp), body.block_id, after.block_id
        )
        self._terminated = True

        self._loop_stack.append((header.block_id, after.block_id))
        self._start_block(body)
        self.local_names.add(node.target.id)
        self._add_stmt(
            ir.Assign(node.target.id, ir.IterElement(iterable)), lineno
        )
        self.lower_body(node.body)
        self._seal_with_jump(header.block_id)
        self._loop_stack.pop()

        self._start_block(after)


class _EmitMarker(Exception):
    """Internal signal: a ctx.emit(...) call was found in expression position."""

    def __init__(self, args: List[ir.Expr]):
        super().__init__("emit marker")
        self.args = args


def _lower_body(name: str, body: Sequence[ast.stmt],
                lowerer: _Lowerer) -> LoweredFunction:
    # Pre-pass: record every locally assigned name so call receivers and
    # attribute chains classify correctly even before their assignment is
    # lowered (names are function-scoped in Python).
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        lowerer.local_names.add(target.id)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign, ast.For)) \
                    and isinstance(getattr(sub, "target", None), ast.Name):
                lowerer.local_names.add(sub.target.id)
    lowerer.lower_body(body)
    if not lowerer._terminated:
        lowerer.current.terminator = ExitTerm()
    return LoweredFunction(name, lowerer.cfg, lowerer.roles,
                           lowerer.local_names)


def lower_function(fn: ast.FunctionDef, is_method: bool = True) -> LoweredFunction:
    """Lower one mapper method AST into CFG form."""
    roles = roles_from_args(fn, is_method)
    return _lower_body(fn.name, fn.body, _Lowerer(roles))


def lower_udf(fn: Union[ast.FunctionDef, ast.Lambda],
              roles: ParamRoles) -> LoweredFunction:
    """Lower a value-returning UDF -- a ``filter`` predicate or ``map``
    transform, ``def`` or ``lambda`` -- into CFG form.

    Same IR, same CFG, same hard floor as :func:`lower_function`; the one
    difference is the role of ``return <expr>``, which here *is* the
    function's result and lowers to an :class:`ir.Return` carrying the
    expression.  The caller assigns the parameter roles, because a UDF's
    signature may bind more than the data parameters (defaults,
    ``functools.partial`` arguments).
    """
    lowerer = _Lowerer(roles, value_returning=True)
    if isinstance(fn, ast.Lambda):
        ret = ast.copy_location(ast.Return(value=fn.body), fn.body)
        return _lower_body("<lambda>", [ret], lowerer)
    return _lower_body(fn.name, fn.body, lowerer)
