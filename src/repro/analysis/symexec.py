"""Path-directed symbolic execution (the paper's modified KLEE).

Each thread's recorded path is re-executed symbolically and independently:

* the value returned by every shared read is a fresh :class:`Sym`;
* branch outcomes are dictated by the decoded path, and every branch whose
  condition is not concrete contributes a path condition (``Fpath``);
* all SAPs are collected with per-thread indices **identical** to the ones
  the runtime allocates (start/exit, wait desugaring, fork naming — see
  :mod:`repro.runtime.events`);
* the failing assertion contributes the bug predicate ``Fbug`` (the
  *negation* of its condition);
* thread-local state (locals and non-shared globals) is tracked exactly;
  thread-local arrays support symbolic indices by delayed resolution into
  ITE chains over the ordered write list (paper §5, "Symbolic Address
  Resolution").

Shared array accesses must have concrete indices (otherwise the per-address
grouping of the read-write constraints is impossible); this mirrors the
paper's reliance on concrete SAP addresses from the KLEE memory model.
"""

from dataclasses import dataclass, field

from repro.minilang import bytecode as bc
from repro.runtime import events as ev
from repro.analysis.symbolic import (
    Const,
    Sym,
    SymExpr,
    free_syms,
    mk_binop,
    mk_ite,
    mk_not,
    mk_unop,
    wrap,
)


class SymExecError(Exception):
    """The recorded path cannot be re-executed symbolically.

    ``thread`` names the offending thread when known — the trace store's
    recovery validation uses it to prune threads whose logs the truncated
    tail can no longer account for.
    """

    def __init__(self, message, thread=None):
        super().__init__(message)
        self.thread = thread


@dataclass(frozen=True)
class ThreadHandle:
    """The (concrete) value returned by spawn during symbolic execution."""

    name: str


@dataclass
class SymSAP:
    """A SAP reconstructed offline, with symbolic value information."""

    thread: str
    index: int
    kind: str
    addr: object = None
    value: SymExpr | None = None  # write: stored expr; read: its Sym
    line: int = 0
    deps: frozenset = frozenset()  # read-Sym names this SAP depends on
    # Emitted while executing a synthesized prefix (flight-recorder logs):
    # the access happened before the eviction horizon, so the encoder
    # relaxes its constraints — a synth read's value stays unconstrained
    # when no writer is chosen for it ("unknown entry state").
    synth: bool = False

    @property
    def uid(self):
        return (self.thread, self.index)

    @property
    def is_read(self):
        return self.kind == ev.READ

    @property
    def is_write(self):
        return self.kind == ev.WRITE

    @property
    def is_data(self):
        return self.kind in (ev.READ, ev.WRITE)

    def __repr__(self):
        addr = "" if self.addr is None else " %r" % (self.addr,)
        return "SymSAP(%s#%d %s%s)" % (self.thread, self.index, self.kind, addr)


@dataclass
class PathCondition:
    """One branch condition the computed execution must satisfy (truthy)."""

    expr: SymExpr
    thread: str
    after_index: int  # index of the last SAP emitted before this condition
    line: int = 0
    # Condition from a synthesized prefix block: the branch direction was
    # reconstructed, not recorded, so the encoder must not require it.
    synth: bool = False

    def __repr__(self):
        return "PathCondition(%s after %s#%d: %r)" % (
            self.thread,
            self.thread,
            self.after_index,
            self.expr,
        )


@dataclass
class ThreadSummary:
    """Everything the constraint encoder needs about one thread."""

    thread: str
    saps: list = field(default_factory=list)
    conditions: list = field(default_factory=list)
    bug_expr: SymExpr | None = None
    bug_line: int = 0
    reads: dict = field(default_factory=dict)  # sym name -> SymSAP
    children: list = field(default_factory=list)  # forked thread names
    # Every assert on the path, in execution order: (condition expr, line,
    # index into `conditions` before the provisional passing-condition was
    # appended).  The explore driver retargets one of these as the bug.
    asserts: list = field(default_factory=list)


class _Frame:
    def __init__(self, trace, func):
        self.trace = trace
        self.func = func
        self.block_pos = 0  # index into trace.blocks
        self.ip = 0
        self.locals = {}
        self.stack = []
        self.call_pos = 0  # next callee trace to consume
        # True when the whole activation is synthesized (or was entered
        # from inside a synthesized region of the caller).
        self.synth_all = trace.synthesized

    @property
    def block_id(self):
        return self.trace.blocks[self.block_pos]

    def instrs(self):
        return self.func.blocks[self.block_id].instrs


class SymbolicExecutor:
    """Re-executes one thread's decoded path, collecting SAPs + constraints.

    Parameters
    ----------
    program : CompiledProgram
    thread_name : str
    trace : DecodedThreadPath
    shared : set of shared global names
    bug : BugReport or None — the failure observed at runtime; when this
        thread and line match the last executed assert, that assert becomes
        the bug predicate instead of a path condition.
    locals_init : concrete arguments for the root function (spawn args must
        be concrete; the CLAP pipeline extracts them from the parent's
        symbolic state, see :func:`execute_recorded_paths`).
    """

    def __init__(
        self, program, thread_name, trace, shared, bug=None, args=(), resume=None
    ):
        self.program = program
        self.thread = thread_name
        self.trace = trace
        self.shared = shared
        self.bug = bug
        self.args = list(args)
        # Checkpoint resume: a ThreadSnapshot whose frames seed execution
        # (see repro.runtime.checkpoint); traces then start mid-path.
        self.resume = resume

        self.summary = ThreadSummary(thread=thread_name)
        self.sap_count = 0
        self.control_deps = set()  # Sym names from branch conditions so far
        self.child_count = 0
        # Thread-local globals view: addr -> expr; arrays may switch to an
        # ordered overlay of (index_expr, value_expr) writes.
        self.local_cells = {}
        self.array_overlays = {}  # array name -> list[(idx_expr, val_expr)]
        self._spawn_args = {}  # child name -> concrete args
        # True while the current position is inside a synthesized prefix
        # region; kept in sync with the top frame by _sync_synth.
        self._in_synth = False

        for info in program.symbols.globals.values():
            if not info.is_data or info.name in shared:
                continue
            if info.is_array:
                for i in range(info.size):
                    self.local_cells[(info.name, i)] = Const(0)
            else:
                self.local_cells[(info.name,)] = wrap(info.init)

    # ------------------------------------------------------------------ #

    def error(self, message, instr=None):
        where = " (line %d)" % instr.line if instr is not None else ""
        raise SymExecError(
            "thread %s%s: %s" % (self.thread, where, message), thread=self.thread
        )

    def emit(self, kind, addr=None, value=None, line=0, deps=frozenset()):
        sap = SymSAP(
            thread=self.thread,
            index=self.sap_count,
            kind=kind,
            addr=addr,
            value=value,
            line=line,
            deps=frozenset(deps) | frozenset(self.control_deps),
            synth=self._in_synth,
        )
        self.sap_count += 1
        self.summary.saps.append(sap)
        return sap

    def add_condition(self, expr, line=0):
        expr = wrap(expr)
        if isinstance(expr, Const):
            if not expr.value:
                if self._in_synth:
                    # A synthesized prefix is a candidate reconstruction,
                    # not a recorded fact; a concretely false branch there
                    # means the candidate is imperfect, which replay
                    # validation will judge — it is not log corruption.
                    return None
                self.error(
                    "recorded path is inconsistent: concrete condition is false"
                )
            return None
        cond = PathCondition(
            expr=expr,
            thread=self.thread,
            after_index=self.sap_count - 1,
            line=line,
            synth=self._in_synth,
        )
        self.summary.conditions.append(cond)
        self.control_deps |= free_syms(expr)
        return cond

    def _sync_synth(self, frames):
        if not frames:
            self._in_synth = False
            return
        frame = frames[-1]
        self._in_synth = (
            frame.synth_all or frame.block_pos < frame.trace.synth_blocks
        )

    # ------------------------------------------------------------------ #

    def run(self):
        """Execute the whole recorded path; returns the ThreadSummary."""
        self.emit(ev.START)
        if self.resume is not None:
            frames = self._build_resume_frames()
        else:
            root = _Frame(self.trace.root, self.program.function(self.trace.root.func))
            for pname, value in zip(root.func.params, self.args):
                root.locals[pname] = (
                    wrap(value) if not isinstance(value, ThreadHandle) else value
                )
            frames = [root]
        self._sync_synth(frames)
        while frames:
            frame = frames[-1]
            outcome = self._run_frame_step(frame, frames)
            if outcome == "done":
                break
        self._finalize_bug()
        return self.summary

    def _resume_value(self, value):
        if isinstance(value, tuple) and len(value) == 2 and value[0] == "handle":
            return ThreadHandle(value[1])
        return wrap(value)

    def _build_resume_frames(self):
        """Seed the frame stack from a checkpoint snapshot: the decoded
        trace chain of resumed activations pairs with the snapshotted
        frames (function, position, concrete locals and operand stack)."""
        self.child_count = self.resume.children
        frames = []
        node = self.trace.root
        for i, snap in enumerate(self.resume.frames):
            if node is None or not node.resumed:
                raise SymExecError(
                    "thread %s: checkpoint has %d open frames but the log "
                    "resumed only %d" % (self.thread, len(self.resume.frames), i),
                    thread=self.thread,
                )
            if node.func != snap.func:
                raise SymExecError(
                    "thread %s: resumed frame %s does not match snapshot %s"
                    % (self.thread, node.func, snap.func),
                    thread=self.thread,
                )
            frame = _Frame(node, self.program.function(snap.func))
            frame.ip = snap.ip
            frame.locals = {k: self._resume_value(v) for k, v in snap.locals.items()}
            frame.stack = [self._resume_value(v) for v in snap.stack]
            child = node.calls[0] if node.calls and node.calls[0].resumed else None
            if child is not None:
                frame.call_pos = 1
            frames.append(frame)
            node = child
        return frames

    def _run_frame_step(self, frame, frames):
        """Execute instructions of the current frame until it calls,
        returns, or the path ends."""
        trace = frame.trace
        while True:
            instrs = frame.instrs()
            # Stop position for incomplete frames.
            if (
                not trace.complete
                and frame.block_pos == len(trace.blocks) - 1
                and frame.ip >= (trace.stop_ip if trace.stop_ip is not None else 0)
            ):
                self._emit_wait_stage_saps(trace, instrs, frame)
                return "done"
            if frame.ip >= len(instrs):
                self.error(
                    "ran off the end of block %d in %s"
                    % (frame.block_id, frame.func.name)
                )
            instr = instrs[frame.ip]
            op = instr.op
            if op == bc.CALL:
                callee_name = instr.arg
                nargs = instr.arg2
                args = frame.stack[len(frame.stack) - nargs :] if nargs else []
                del frame.stack[len(frame.stack) - nargs :]
                if frame.call_pos >= len(trace.calls):
                    self.error("log has no activation for call to %s" % callee_name, instr)
                child_trace = trace.calls[frame.call_pos]
                frame.call_pos += 1
                if child_trace.func != callee_name:
                    self.error(
                        "log activation %s does not match call to %s"
                        % (child_trace.func, callee_name),
                        instr,
                    )
                frame.ip += 1  # return point
                child = _Frame(child_trace, self.program.function(callee_name))
                child.synth_all = child.synth_all or self._in_synth
                for pname, value in zip(child.func.params, args):
                    child.locals[pname] = value
                frames.append(child)
                self._sync_synth(frames)
                return "call"
            if op == bc.RET:
                value = frame.stack.pop()
                frames.pop()
                self._sync_synth(frames)
                if frames:
                    frames[-1].stack.append(value)
                    return "ret"
                self.emit(ev.EXIT)
                return "done"
            if op in (bc.JUMP, bc.BRANCH):
                self._exec_terminator(frame, instr)
                continue
            self._exec_straightline(frame, instr)
            frame.ip += 1

    def _advance_block(self, frame, expected_from):
        frame.block_pos += 1
        if frame.block_pos >= len(frame.trace.blocks):
            self.error(
                "path for %s ends inside block %d but control continues"
                % (frame.func.name, expected_from)
            )
        frame.ip = 0
        if not frame.synth_all:
            self._in_synth = frame.block_pos < frame.trace.synth_blocks

    def _exec_terminator(self, frame, instr):
        if instr.op == bc.JUMP:
            self._advance_block(frame, frame.block_id)
            if frame.block_id != instr.arg:
                self.error("decoded path disagrees with JUMP target", instr)
            return
        # BRANCH
        cond = frame.stack.pop()
        src = frame.block_id
        self._advance_block(frame, src)
        taken_block = frame.block_id
        if taken_block == instr.arg:
            expected_true = True
        elif taken_block == instr.arg2:
            expected_true = False
        else:
            self.error("decoded path disagrees with BRANCH targets", instr)
        cond = wrap(cond) if not isinstance(cond, ThreadHandle) else self.error(
            "thread handle used as branch condition", instr
        )
        self.add_condition(cond if expected_true else mk_not(cond), line=instr.line)

    # -- straight-line ops ---------------------------------------------------

    def _exec_straightline(self, frame, instr):
        op = instr.op
        handler = self._DISPATCH.get(op)
        if handler is None:
            self.error("unexpected opcode %s" % op, instr)
        handler(self, frame, instr)

    def _op_const(self, frame, instr):
        frame.stack.append(Const(instr.arg))

    def _op_load_local(self, frame, instr):
        try:
            frame.stack.append(frame.locals[instr.arg])
        except KeyError:
            self.error("read of unassigned local %r" % instr.arg, instr)

    def _op_store_local(self, frame, instr):
        frame.locals[instr.arg] = frame.stack.pop()

    def _op_binop(self, frame, instr):
        right = frame.stack.pop()
        left = frame.stack.pop()
        if isinstance(left, ThreadHandle) or isinstance(right, ThreadHandle):
            self.error("arithmetic on thread handles", instr)
        frame.stack.append(mk_binop(instr.arg, left, right))

    def _op_unop(self, frame, instr):
        operand = frame.stack.pop()
        if isinstance(operand, ThreadHandle):
            self.error("arithmetic on thread handles", instr)
        frame.stack.append(mk_unop(instr.arg, operand))

    def _op_pop(self, frame, instr):
        frame.stack.pop()

    # -- memory ---------------------------------------------------------------

    def _concrete_index(self, expr, instr):
        expr = wrap(expr)
        if not isinstance(expr, Const):
            return None
        return expr.value

    def _op_load_global(self, frame, instr):
        name = instr.arg
        if name in self.shared:
            sym = Sym("R.%s.%d" % (self.thread, self.sap_count))
            sap = self.emit(
                ev.READ, addr=(name,), value=sym, line=instr.line
            )
            self.summary.reads[sym.name] = sap
            frame.stack.append(sym)
        else:
            frame.stack.append(self.local_cells[(name,)])

    def _op_store_global(self, frame, instr):
        value = frame.stack.pop()
        name = instr.arg
        if name in self.shared:
            if isinstance(value, ThreadHandle):
                self.error("cannot store a thread handle to shared memory", instr)
            value = wrap(value)
            self.emit(
                ev.WRITE,
                addr=(name,),
                value=value,
                line=instr.line,
                deps=free_syms(value),
            )
        else:
            self.local_cells[(name,)] = value

    def _op_load_elem(self, frame, instr):
        index = frame.stack.pop()
        name = instr.arg
        if name in self.shared:
            idx = self._concrete_index(index, instr)
            if idx is None:
                self.error(
                    "shared array %r read with symbolic index (unsupported: "
                    "read-write constraints need concrete addresses)" % name,
                    instr,
                )
            self._check_bounds(name, idx, instr)
            sym = Sym("R.%s.%d" % (self.thread, self.sap_count))
            sap = self.emit(ev.READ, addr=(name, idx), value=sym, line=instr.line)
            self.summary.reads[sym.name] = sap
            frame.stack.append(sym)
            return
        frame.stack.append(self._local_array_read(name, index, instr))

    def _op_store_elem(self, frame, instr):
        value = frame.stack.pop()
        index = frame.stack.pop()
        name = instr.arg
        if name in self.shared:
            idx = self._concrete_index(index, instr)
            if idx is None:
                self.error(
                    "shared array %r written with symbolic index (unsupported)"
                    % name,
                    instr,
                )
            self._check_bounds(name, idx, instr)
            value = wrap(value)
            self.emit(
                ev.WRITE,
                addr=(name, idx),
                value=value,
                line=instr.line,
                deps=free_syms(value),
            )
            return
        self._local_array_write(name, index, value, instr)

    def _check_bounds(self, name, idx, instr):
        size = self.program.symbols.globals[name].size
        if not 0 <= idx < size:
            self.error("index %d out of bounds for %s[%d]" % (idx, name, size), instr)

    def _local_array_read(self, name, index, instr):
        """Delayed symbolic-address resolution (paper §5): fold the ordered
        write list into an ITE chain."""
        overlay = self.array_overlays.get(name)
        idx_expr = wrap(index)
        if overlay is None:
            idx = self._concrete_index(idx_expr, instr)
            if idx is None:
                # First symbolic access: build the chain over initial cells.
                self.array_overlays[name] = []
                overlay = self.array_overlays[name]
            else:
                self._check_bounds(name, idx, instr)
                return self.local_cells[(name, idx)]
        value = self._base_array_value(name, idx_expr, instr)
        for w_idx, w_val in overlay:
            value = mk_ite(mk_binop("==", idx_expr, w_idx), w_val, value)
        return value

    def _base_array_value(self, name, idx_expr, instr):
        idx = self._concrete_index(idx_expr, instr)
        if idx is not None:
            self._check_bounds(name, idx, instr)
            return self.local_cells[(name, idx)]
        # Fully symbolic base read: chain over every cell.
        size = self.program.symbols.globals[name].size
        value = Const(0)
        for i in range(size):
            value = mk_ite(
                mk_binop("==", idx_expr, Const(i)), self.local_cells[(name, i)], value
            )
        return value

    def _local_array_write(self, name, index, value, instr):
        idx_expr = wrap(index)
        overlay = self.array_overlays.get(name)
        idx = self._concrete_index(idx_expr, instr)
        if overlay is None:
            if idx is not None:
                self._check_bounds(name, idx, instr)
                self.local_cells[(name, idx)] = wrap(value)
                return
            self.array_overlays[name] = []
            overlay = self.array_overlays[name]
        overlay.append((idx_expr, wrap(value)))

    # -- synchronization --------------------------------------------------------

    def _op_spawn(self, frame, instr):
        nargs = instr.arg2
        args = frame.stack[len(frame.stack) - nargs :] if nargs else []
        del frame.stack[len(frame.stack) - nargs :]
        concrete_args = []
        for arg in args:
            if isinstance(arg, ThreadHandle):
                concrete_args.append(arg)
                continue
            arg = wrap(arg)
            if not isinstance(arg, Const):
                self.error(
                    "spawn argument is symbolic (depends on shared reads); "
                    "CLAP requires concrete thread arguments",
                    instr,
                )
            concrete_args.append(arg.value)
        self.child_count += 1
        child_name = "%s:%d" % (self.thread, self.child_count)
        self.summary.children.append(child_name)
        self._spawn_args[child_name] = (instr.arg, concrete_args)
        self.emit(ev.FORK, addr=child_name, line=instr.line)
        frame.stack.append(ThreadHandle(child_name))

    def _op_join(self, frame, instr):
        handle = frame.stack.pop()
        if not isinstance(handle, ThreadHandle):
            self.error("join target is not a concrete thread handle", instr)
        self.emit(ev.JOIN, addr=handle.name, line=instr.line)

    def _op_lock(self, frame, instr):
        self.emit(ev.LOCK, addr=instr.arg, line=instr.line)

    def _op_unlock(self, frame, instr):
        self.emit(ev.UNLOCK, addr=instr.arg, line=instr.line)

    def _op_wait(self, frame, instr):
        # Desugars exactly like the runtime: unlock, wait, lock.
        self.emit(ev.UNLOCK, addr=instr.arg2, line=instr.line)
        self.emit(ev.WAIT, addr=instr.arg, line=instr.line)
        self.emit(ev.LOCK, addr=instr.arg2, line=instr.line)

    def _op_signal(self, frame, instr):
        self.emit(ev.SIGNAL, addr=instr.arg, line=instr.line)

    def _op_broadcast(self, frame, instr):
        self.emit(ev.BROADCAST, addr=instr.arg, line=instr.line)

    def _emit_wait_stage_saps(self, trace, instrs, frame):
        """A thread stopped inside wait() already committed sub-SAPs."""
        if trace.wait_stage <= 0:
            return
        instr = instrs[frame.ip] if frame.ip < len(instrs) else None
        if instr is None or instr.op != bc.WAIT:
            raise SymExecError(
                "thread %s: wait_stage set but stop instruction is not WAIT"
                % self.thread,
                thread=self.thread,
            )
        self.emit(ev.UNLOCK, addr=instr.arg2, line=instr.line)
        if trace.wait_stage >= 2:
            self.emit(ev.WAIT, addr=instr.arg, line=instr.line)

    # -- checks -----------------------------------------------------------------

    def _op_assert(self, frame, instr):
        cond = frame.stack.pop()
        cond = wrap(cond)
        record = (cond, instr.line, len(self.summary.conditions))
        self.summary.asserts.append(record)
        # Provisionally treat it as a passing assert; _finalize_bug flips
        # the failing one.
        if not isinstance(cond, Const):
            self.add_condition(cond, line=instr.line)
        elif not cond.value and not self._matches_bug(instr.line) and not self._in_synth:
            self.error("recorded path has a concretely failing assert", instr)

    def _matches_bug(self, line):
        return (
            self.bug is not None
            and self.bug.thread == self.thread
            and self.bug.line == line
        )

    def _finalize_bug(self):
        if self.bug is None or self.bug.thread != self.thread:
            return
        for cond, line, _ in reversed(self.summary.asserts):
            if line == self.bug.line:
                self.summary.bug_expr = mk_not(cond)
                self.summary.bug_line = line
                # Remove the provisional passing-condition for this assert
                # (it is the last condition with that line, if symbolic).
                for i in range(len(self.summary.conditions) - 1, -1, -1):
                    c = self.summary.conditions[i]
                    if c.line == line and c.expr == cond:
                        del self.summary.conditions[i]
                        break
                return
        raise SymExecError(
            "bug at %s line %d not found on recorded path of thread %s"
            % (self.bug.message, self.bug.line, self.thread),
            thread=self.thread,
        )

    def _op_assume(self, frame, instr):
        cond = frame.stack.pop()
        self.add_condition(wrap(cond), line=instr.line)

    def _op_yield(self, frame, instr):
        self.emit(ev.YIELD, line=instr.line)

    def _op_fence(self, frame, instr):
        self.emit(ev.FENCE, line=instr.line)

    def _op_print(self, frame, instr):
        nargs = instr.arg
        if nargs:
            del frame.stack[len(frame.stack) - nargs :]

    _DISPATCH = {
        bc.CONST: _op_const,
        bc.LOAD_LOCAL: _op_load_local,
        bc.STORE_LOCAL: _op_store_local,
        bc.LOAD_GLOBAL: _op_load_global,
        bc.STORE_GLOBAL: _op_store_global,
        bc.LOAD_ELEM: _op_load_elem,
        bc.STORE_ELEM: _op_store_elem,
        bc.BINOP: _op_binop,
        bc.UNOP: _op_unop,
        bc.POP: _op_pop,
        bc.SPAWN: _op_spawn,
        bc.JOIN: _op_join,
        bc.LOCK: _op_lock,
        bc.UNLOCK: _op_unlock,
        bc.WAIT: _op_wait,
        bc.SIGNAL: _op_signal,
        bc.BROADCAST: _op_broadcast,
        bc.ASSERT: _op_assert,
        bc.ASSUME: _op_assume,
        bc.YIELD: _op_yield,
        bc.FENCE: _op_fence,
        bc.PRINT: _op_print,
    }


def execute_recorded_paths(program, decoded, shared, bug=None, checkpoint=None):
    """Symbolically execute every thread's recorded path.

    ``decoded`` is {thread_name: DecodedThreadPath}.  Spawn arguments flow
    from parent to child: a parent's executor records the concrete args of
    each fork, which seed the child's root frame.  Threads are therefore
    processed parents-first (names are hierarchical, so sorting by name
    depth works).

    When ``checkpoint`` is given (see :mod:`repro.runtime.checkpoint`),
    threads whose decoded root is *resumed* take their frames, locals and
    fork counters from the snapshot instead of spawn records.

    Returns {thread_name: ThreadSummary}.
    """
    summaries = {}
    spawn_args = {"1": ("main", [])}
    for name in sorted(decoded, key=lambda n: (n.count(":"), n)):
        trace = decoded[name]
        if trace.root.resumed:
            if checkpoint is None:
                raise SymExecError(
                    "thread %s log resumes mid-path but no checkpoint given" % name,
                    thread=name,
                )
            executor = SymbolicExecutor(
                program,
                name,
                trace,
                shared,
                bug=bug,
                resume=checkpoint.thread(name),
            )
            summaries[name] = executor.run()
            spawn_args.update(executor._spawn_args)
            continue
        if name not in spawn_args:
            raise SymExecError(
                "no spawn record for thread %s (parent missing from logs?)" % name,
                thread=name,
            )
        func_name, args = spawn_args[name]
        if trace.root.func != func_name:
            raise SymExecError(
                "thread %s log is for %s but parent spawned %s"
                % (name, trace.root.func, func_name),
                thread=name,
            )
        executor = SymbolicExecutor(
            program, name, trace, shared, bug=bug, args=args
        )
        summaries[name] = executor.run()
        spawn_args.update(executor._spawn_args)
    return summaries

