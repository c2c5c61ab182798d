"""AST -> bytecode/CFG compiler for MiniLang.

The compiler performs light semantic analysis (name resolution, arity
checks, array/scalar usage checks) and lowers each function to a CFG of
basic blocks (:class:`repro.minilang.bytecode.BasicBlock`).  Loops produce
the canonical ``header -> body -> header`` shape with a single back edge so
the Ball-Larus instrumenter can find loop re-entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.minilang import ast_nodes as ast
from repro.minilang import bytecode as bc
from repro.minilang.errors import CompileError
from repro.minilang.symbols import GlobalInfo, SymbolTable


@dataclass
class CompiledProgram:
    """The unit of execution: symbol table plus compiled functions."""

    name: str
    symbols: SymbolTable
    functions: dict  # name -> CompiledFunction
    ast: ast.Program = None

    def function(self, name):
        return self.functions[name]

    @property
    def main(self):
        return self.functions["main"]

    def instruction_count(self):
        return sum(f.instruction_count() for f in self.functions.values())

    @cached_property
    def paths(self):
        """The Ball-Larus numbering of every function
        (:class:`~repro.tracing.ball_larus.ProgramPaths`), built once."""
        from repro.tracing.ball_larus import ProgramPaths

        return ProgramPaths.build(self)

    @cached_property
    def shared(self):
        """The data globals CLAP treats as shared, as a frozenset
        (:func:`~repro.analysis.escape.shared_variables`), computed once."""
        from repro.analysis.escape import shared_variables

        return shared_variables(self)


class _FunctionCompiler:
    """Compiles a single function body into basic blocks."""

    def __init__(self, program_compiler, func):
        self.pc = program_compiler
        self.func = func
        self.blocks = [bc.BasicBlock(0)]
        self.current = self.blocks[0]
        self.locals = [p.name for p in func.params]
        self.sealed = False  # current block already has a terminator

    # -- block plumbing ------------------------------------------------------

    def new_block(self):
        block = bc.BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def switch_to(self, block):
        self.current = block
        self.sealed = False

    def emit(self, op, arg=None, arg2=None, line=0):
        if self.sealed:
            # Unreachable code after return/jump: drop it silently but keep
            # compiling so later errors still surface.
            return None
        instr = bc.Instr(op, arg, arg2, line=line)
        self.current.instrs.append(instr)
        if op in bc.TERMINATORS:
            self.sealed = True
        return instr

    def error(self, message, node):
        raise CompileError(
            message, line=node.line, column=node.column, filename=self.pc.program.name
        )

    # -- names -----------------------------------------------------------------

    def declare_local(self, name, node):
        if name in self.pc.symbols.globals:
            self.error("local %r shadows a global" % name, node)
        if name not in self.locals:
            # Locals are function-scoped; re-declaring one (e.g. two
            # ``for (int i ...)`` loops) just re-initializes it.
            self.locals.append(name)

    def resolve(self, name, node):
        """Return 'local' or 'global' for ``name``."""
        if name in self.locals:
            return "local"
        if name in self.pc.symbols.globals:
            return "global"
        self.error("undefined variable %r" % name, node)

    def data_global(self, name, node):
        info = self.pc.symbols.globals.get(name)
        if info is None or not info.is_data:
            self.error("%r is not a data global" % name, node)
        return info

    # -- statements ----------------------------------------------------------

    def compile_body(self, block_node):
        self.compile_block(block_node)
        # Implicit return (void functions and fallthrough paths).
        self.emit(bc.CONST, 0)
        self.emit(bc.RET, line=self.func.line)
        return bc.CompiledFunction(
            name=self.func.name,
            params=[p.name for p in self.func.params],
            locals=list(self.locals),
            blocks=self.blocks,
            ret_type=self.func.ret_type,
            line=self.func.line,
        )

    def compile_block(self, block_node):
        for stmt in block_node.stmts:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt):
        method = getattr(self, "stmt_" + type(stmt).__name__, None)
        if method is None:
            self.error("cannot compile statement %s" % type(stmt).__name__, stmt)
        method(stmt)

    def stmt_Block(self, stmt):
        self.compile_block(stmt)

    def stmt_LocalDecl(self, stmt):
        self.declare_local(stmt.name, stmt)
        if stmt.init is not None:
            self.compile_expr(stmt.init)
        else:
            self.emit(bc.CONST, 0, line=stmt.line)
        self.emit(bc.STORE_LOCAL, stmt.name, line=stmt.line)

    def stmt_Assign(self, stmt):
        target = stmt.target
        if isinstance(target, ast.Name):
            kind = self.resolve(target.name, target)
            self.compile_expr(stmt.value)
            if kind == "local":
                self.emit(bc.STORE_LOCAL, target.name, line=stmt.line)
            else:
                info = self.data_global(target.name, target)
                if info.is_array:
                    self.error(
                        "array %r assigned without an index" % target.name, target
                    )
                self.emit(bc.STORE_GLOBAL, target.name, line=stmt.line)
        elif isinstance(target, ast.Index):
            info = self.data_global(target.name, target)
            if not info.is_array:
                self.error("%r is not an array" % target.name, target)
            self.compile_expr(target.index)
            self.compile_expr(stmt.value)
            self.emit(bc.STORE_ELEM, target.name, line=stmt.line)
        else:  # pragma: no cover - parser guarantees lvalues
            self.error("bad assignment target", stmt)

    def stmt_If(self, stmt):
        self.compile_expr(stmt.cond)
        then_block = self.new_block()
        else_block = self.new_block() if stmt.els is not None else None
        exit_block = self.new_block()
        self.emit(
            bc.BRANCH,
            then_block.id,
            else_block.id if else_block is not None else exit_block.id,
            line=stmt.line,
        )
        self.switch_to(then_block)
        self.compile_block(stmt.then)
        self.emit(bc.JUMP, exit_block.id, line=stmt.line)
        if else_block is not None:
            self.switch_to(else_block)
            self.compile_block(stmt.els)
            self.emit(bc.JUMP, exit_block.id, line=stmt.line)
        self.switch_to(exit_block)

    def stmt_While(self, stmt):
        header = self.new_block()
        body = self.new_block()
        exit_block = self.new_block()
        self.emit(bc.JUMP, header.id, line=stmt.line)
        self.switch_to(header)
        self.compile_expr(stmt.cond)
        self.emit(bc.BRANCH, body.id, exit_block.id, line=stmt.line)
        self.switch_to(body)
        self.compile_block(stmt.body)
        self.emit(bc.JUMP, header.id, line=stmt.line)  # the back edge
        self.switch_to(exit_block)

    def stmt_Return(self, stmt):
        if stmt.value is not None:
            self.compile_expr(stmt.value)
        else:
            self.emit(bc.CONST, 0, line=stmt.line)
        self.emit(bc.RET, line=stmt.line)
        # Continue compiling any (unreachable) trailing code in a fresh block
        # so that jump targets created later stay well formed.
        self.switch_to(self.new_block())

    def stmt_ExprStmt(self, stmt):
        self.compile_expr(stmt.expr)
        self.emit(bc.POP, line=stmt.line)

    def stmt_Spawn(self, stmt):
        func = self.pc.functions_ast.get(stmt.func)
        if func is None:
            self.error("spawn of undefined function %r" % stmt.func, stmt)
        if len(func.params) != len(stmt.args):
            self.error(
                "spawn %s expects %d args, got %d"
                % (stmt.func, len(func.params), len(stmt.args)),
                stmt,
            )
        for arg in stmt.args:
            self.compile_expr(arg)
        self.emit(bc.SPAWN, stmt.func, len(stmt.args), line=stmt.line)
        if stmt.target is not None:
            if self.resolve(stmt.target, stmt) == "local":
                self.emit(bc.STORE_LOCAL, stmt.target, line=stmt.line)
            else:
                self.data_global(stmt.target, stmt)
                self.emit(bc.STORE_GLOBAL, stmt.target, line=stmt.line)
        else:
            self.emit(bc.POP, line=stmt.line)

    def stmt_Join(self, stmt):
        self.compile_expr(stmt.handle)
        self.emit(bc.JOIN, line=stmt.line)

    def _sync_object(self, name, expected_type, node):
        info = self.pc.symbols.globals.get(name)
        if info is None or info.type != expected_type:
            self.error("%r is not a %s" % (name, expected_type), node)

    def stmt_LockStmt(self, stmt):
        self._sync_object(stmt.name, "mutex", stmt)
        self.emit(bc.LOCK, stmt.name, line=stmt.line)

    def stmt_UnlockStmt(self, stmt):
        self._sync_object(stmt.name, "mutex", stmt)
        self.emit(bc.UNLOCK, stmt.name, line=stmt.line)

    def stmt_WaitStmt(self, stmt):
        self._sync_object(stmt.cond, "cond", stmt)
        self._sync_object(stmt.mutex, "mutex", stmt)
        self.emit(bc.WAIT, stmt.cond, stmt.mutex, line=stmt.line)

    def stmt_SignalStmt(self, stmt):
        self._sync_object(stmt.cond, "cond", stmt)
        self.emit(bc.SIGNAL, stmt.cond, line=stmt.line)

    def stmt_BroadcastStmt(self, stmt):
        self._sync_object(stmt.cond, "cond", stmt)
        self.emit(bc.BROADCAST, stmt.cond, line=stmt.line)

    def stmt_AssertStmt(self, stmt):
        self.compile_expr(stmt.cond)
        self.emit(bc.ASSERT, stmt.message, line=stmt.line)

    def stmt_AssumeStmt(self, stmt):
        self.compile_expr(stmt.cond)
        self.emit(bc.ASSUME, line=stmt.line)

    def stmt_YieldStmt(self, stmt):
        self.emit(bc.YIELD, line=stmt.line)

    def stmt_FenceStmt(self, stmt):
        self.emit(bc.FENCE, line=stmt.line)

    def stmt_PrintStmt(self, stmt):
        for arg in stmt.args:
            self.compile_expr(arg)
        self.emit(bc.PRINT, len(stmt.args), line=stmt.line)

    # -- expressions ----------------------------------------------------------

    def compile_expr(self, expr):
        method = getattr(self, "expr_" + type(expr).__name__, None)
        if method is None:
            self.error("cannot compile expression %s" % type(expr).__name__, expr)
        method(expr)

    def expr_IntLit(self, expr):
        self.emit(bc.CONST, expr.value, line=expr.line)

    def expr_BoolLit(self, expr):
        self.emit(bc.CONST, 1 if expr.value else 0, line=expr.line)

    def expr_Name(self, expr):
        kind = self.resolve(expr.name, expr)
        if kind == "local":
            self.emit(bc.LOAD_LOCAL, expr.name, line=expr.line)
        else:
            info = self.data_global(expr.name, expr)
            if info.is_array:
                self.error("array %r used without an index" % expr.name, expr)
            self.emit(bc.LOAD_GLOBAL, expr.name, line=expr.line)

    def expr_Index(self, expr):
        info = self.data_global(expr.name, expr)
        if not info.is_array:
            self.error("%r is not an array" % expr.name, expr)
        self.compile_expr(expr.index)
        self.emit(bc.LOAD_ELEM, expr.name, line=expr.line)

    def expr_Unary(self, expr):
        self.compile_expr(expr.operand)
        self.emit(bc.UNOP, expr.op, line=expr.line)

    def expr_Binary(self, expr):
        self.compile_expr(expr.left)
        self.compile_expr(expr.right)
        self.emit(bc.BINOP, expr.op, line=expr.line)

    def expr_Call(self, expr):
        func = self.pc.functions_ast.get(expr.func)
        if func is None:
            self.error("call to undefined function %r" % expr.func, expr)
        if len(func.params) != len(expr.args):
            self.error(
                "%s expects %d args, got %d"
                % (expr.func, len(func.params), len(expr.args)),
                expr,
            )
        for arg in expr.args:
            self.compile_expr(arg)
        self.emit(bc.CALL, expr.func, len(expr.args), line=expr.line)


class _ProgramCompiler:
    def __init__(self, program):
        self.program = program
        self.symbols = SymbolTable()
        self.functions_ast = {f.name: f for f in program.functions}

    def compile(self):
        if "main" not in self.functions_ast:
            raise CompileError("program has no 'main' function", filename=self.program.name)
        for decl in self.program.globals:
            self._add_global(decl)
        for func in self.program.functions:
            self.symbols.functions[func.name] = (
                [p.name for p in func.params],
                func.ret_type,
            )
        compiled = {}
        for func in self.program.functions:
            compiled[func.name] = _FunctionCompiler(self, func).compile_body(func.body)
        return CompiledProgram(
            name=self.program.name,
            symbols=self.symbols,
            functions=compiled,
            ast=self.program,
        )

    def _add_global(self, decl):
        if decl.name in self.symbols.globals:
            raise CompileError(
                "duplicate global %r" % decl.name,
                line=decl.line,
                filename=self.program.name,
            )
        init = 0
        if decl.init is not None:
            init = _const_eval(decl.init, self.program.name)
        self.symbols.globals[decl.name] = GlobalInfo(
            name=decl.name,
            type=decl.type,
            size=decl.size,
            init=init,
            sharing=decl.sharing,
        )


def _const_eval(expr, filename):
    """Evaluate a global initializer, which must be a constant expression."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return 1 if expr.value else 0
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_const_eval(expr.operand, filename)
    if isinstance(expr, ast.Binary):
        left = _const_eval(expr.left, filename)
        right = _const_eval(expr.right, filename)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
        }
        if expr.op in ops:
            return ops[expr.op](left, right)
    raise CompileError(
        "global initializer must be a constant expression",
        line=expr.line,
        filename=filename,
    )


def compile_program(program):
    """Compile a parsed :class:`Program` into a :class:`CompiledProgram`."""
    return _ProgramCompiler(program).compile()
