"""The scheduler-controlled concurrent interpreter for compiled MiniLang.

Execution proceeds one bytecode instruction at a time.  At every step the
scheduler picks among the enabled actions — stepping some runnable thread,
or flushing a buffered store (TSO/PSO).  This makes every interleaving the
CLAP constraint theory can describe reachable by some choice sequence, and
it gives the tracing hooks (Ball-Larus recorder, LEAP baseline) exact,
perturbation-free observation points.

Both choice sets are maintained as the run goes, not rebuilt per step: the
interpreter updates its runnable tids where a thread's status changes, and
the memory model its flushable buffer heads on every write and flush.

Ground-truth ordering: the interpreter appends every SAP to ``events`` in
*memory order* — sync ops and reads at execution time, writes at flush time
(immediately under SC).  CLAP itself never sees this list; it exists so
tests can check solver-computed schedules against a real feasible schedule.
"""

from bisect import insort
from dataclasses import dataclass, field

from repro.minilang import bytecode as bc
from repro.runtime import events as ev
from repro.runtime.errors import DeadlockError, MiniRuntimeError
from repro.runtime.memory import SC, PendingStore, make_memory
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.sync import SyncTable
from repro.runtime.thread_state import (
    BLOCKED,
    EXITED,
    ON_COND,
    ON_JOIN,
    ON_MUTEX,
    RUNNABLE,
    Frame,
    ThreadState,
)
from repro.runtime.values import _BINOPS, _UNOPS, truthy
from repro.runtime.checkpoint import TidHandle


class InterpreterError(Exception):
    """Internal interpreter failure (bad bytecode, step-limit, ...)."""


@dataclass
class ExecutionResult:
    """Everything observable about one finished execution."""

    program: object
    memory_model: str
    bug: ev.BugReport | None = None
    aborted: str | None = None  # 'step-limit' / 'assume-failed' / None
    steps: int = 0
    final_globals: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # SAPs in memory order
    saps_by_thread: dict = field(default_factory=dict)  # program-order SAPs
    output: list = field(default_factory=list)
    thread_names: dict = field(default_factory=dict)  # tid -> name
    stats: dict = field(default_factory=dict)  # name -> ThreadStats

    @property
    def ok(self):
        return self.bug is None and self.aborted is None

    def schedule(self):
        """The memory-order SAP uid sequence of this execution."""
        return [sap.uid for sap in self.events]

    def total_instructions(self):
        return sum(s.instructions for s in self.stats.values())

    def total_branches(self):
        return sum(s.branches for s in self.stats.values())

    def total_saps(self):
        return sum(len(saps) for saps in self.saps_by_thread.values())


class Interpreter:
    """Executes a :class:`~repro.minilang.compiler.CompiledProgram`.

    Parameters
    ----------
    program:
        The compiled program.
    memory_model:
        'sc', 'tso' or 'pso'.
    scheduler:
        A :class:`~repro.runtime.scheduler.Scheduler`; defaults to a seeded
        :class:`RandomScheduler`.
    shared:
        Set of global variable *names* to treat as shared data (SAPs).
        ``None`` means every data global is shared (maximally conservative).
    hooks:
        Recorder objects; any of the methods ``on_thread_start(thread)``,
        ``on_enter(thread, func)``, ``on_exit(thread, func)``,
        ``on_edge(thread, func, src_block, dst_block)`` and
        ``on_sap(thread, sap)`` they define will be invoked (looked up
        once, when the interpreter is built).
    max_steps:
        Abort threshold (returns ``aborted='step-limit'``).
    """

    def __init__(
        self,
        program,
        memory_model=SC,
        scheduler=None,
        shared=None,
        hooks=(),
        max_steps=2_000_000,
        collect_events=True,
        signal_wake_policy=None,
    ):
        self.program = program
        self.memory_model = memory_model
        self.scheduler = scheduler if scheduler is not None else RandomScheduler(0)
        self.shared_names = set(shared) if shared is not None else None
        shared_pred = None
        if self.shared_names is not None:
            names = self.shared_names
            shared_pred = lambda addr: addr[0] in names
        self.memory = make_memory(memory_model, program.symbols, shared_pred)
        self.sync = SyncTable(program.symbols)
        self.hooks = list(hooks)
        # Each hook method bound once: a tuple per event, empty when no
        # hook defines it.
        self._on_thread_start = self._bind_hooks("on_thread_start")
        self._on_enter = self._bind_hooks("on_enter")
        self._on_exit = self._bind_hooks("on_exit")
        self._on_edge = self._bind_hooks("on_edge")
        self._on_sap = self._bind_hooks("on_sap")
        self.max_steps = max_steps
        self.collect_events = collect_events
        # Which waiter a signal wakes is a scheduling choice; the replayer
        # overrides the default FIFO policy to follow the computed schedule.
        self.signal_wake_policy = signal_wake_policy
        # Recorders that add synchronization (LEAP) act as memory barriers
        # around every shared access — the "Heisenberg effect" the paper
        # warns about: such instrumentation forecloses TSO/PSO reorderings.
        self._fencing_hooks = any(
            getattr(hook, "fences_memory", False) for hook in self.hooks
        )

        self.threads = {}  # tid -> ThreadState
        self.threads_by_name = {}  # name -> ThreadState
        # Scheduling state kept in step with the threads' statuses: the
        # RUNNABLE tids in tid order, the number of threads not EXITED and
        # the runnable tids that have just yielded.
        self.runnable = []
        self.live = 0
        self.yielded = set()
        self.next_tid = 1
        self.steps = 0
        self.bug = None
        self.aborted = None
        self.events = []
        self.saps_by_thread = {}
        self.output = []

        main = self._spawn_thread("main", [], parent=None)
        assert main.tid == 1 and main.name == "1"

    # ------------------------------------------------------------------ #
    # Thread management
    # ------------------------------------------------------------------ #

    def _spawn_thread(self, func_name, args, parent):
        func = self.program.function(func_name)
        tid = self.next_tid
        self.next_tid += 1
        name = "1" if parent is None else parent.child_name()
        frame = Frame(func=func)
        for pname, value in zip(func.params, args):
            frame.locals[pname] = value
        thread = ThreadState(tid=tid, name=name, frames=[frame])
        self._add_thread(thread)
        for fn in self._on_thread_start:
            fn(thread)
        for fn in self._on_enter:
            fn(thread, func.name)
        return thread

    def _add_thread(self, thread):
        """Register ``thread`` (new, or restored from a checkpoint)."""
        self.threads[thread.tid] = thread
        self.threads_by_name[thread.name] = thread
        self.saps_by_thread[thread.name] = []
        if thread.status == RUNNABLE:
            insort(self.runnable, thread.tid)
        if thread.alive:
            self.live += 1

    # ------------------------------------------------------------------ #
    # Hook / event plumbing
    # ------------------------------------------------------------------ #

    def _bind_hooks(self, method):
        bound = (getattr(hook, method, None) for hook in self.hooks)
        return tuple(fn for fn in bound if fn is not None)

    def _emit_sap(self, thread, kind, addr=None, value=None, line=0, deferred=False):
        """Allocate the next SAP of ``thread``.

        ``deferred`` marks buffered writes whose memory-order event is
        appended later, at flush time.
        """
        sap = ev.SAP(thread.name, thread.next_sap_index(), kind, addr, value, line)
        self.saps_by_thread[thread.name].append(sap)
        stats = thread.stats
        stats.saps += 1
        if kind not in ev.DATA_KINDS:
            stats.sync_ops += 1
        if self.collect_events and not deferred:
            self.events.append(sap)
        for fn in self._on_sap:
            fn(thread, sap)
        return sap

    def _commit_flush(self, pending):
        self.memory.flush(pending)
        if self.collect_events and pending.sap is not None:
            self.events.append(pending.sap)

    def _fence(self, thread):
        """Drain the thread's store buffers, committing events in order:
        one head of each of its buffers per round."""
        heads = self.memory.thread_heads(thread.tid)
        while heads:
            for pending in heads:
                self._commit_flush(pending)
            heads = self.memory.thread_heads(thread.tid)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, step_hook=None):
        """Execute to completion.  ``step_hook(interp)``, if given, runs
        after every action — the checkpointing driver uses it to take
        snapshots at quiescent points."""
        self.scheduler.reset()
        pick = self.scheduler.pick
        step = self.step_thread
        commit = self._commit_flush
        runnable = self.runnable
        flushable = self.memory.flushable
        yielded = self.yielded
        threads = self.threads
        max_steps = self.max_steps
        while self.bug is None and self.aborted is None and self.live:
            if not runnable and not flushable:
                blocked = ", ".join(
                    "%s on %s %r" % (t.name, t.block_reason, t.block_target)
                    for t in threads.values()
                    if t.alive
                )
                self.bug = ev.BugReport(
                    kind="deadlock", message="deadlock: " + blocked
                )
                break
            if self.steps >= max_steps:
                self.aborted = "step-limit"
                break
            choice = pick(runnable, flushable, yielded)
            self.steps += 1
            # A flush is only chosen when one is offered, so under SC (and
            # whenever no store is buffered) the class test is skipped.
            if flushable and choice.__class__ is PendingStore:
                commit(choice)
            else:
                step(threads[choice])
            if step_hook is not None:
                step_hook(self)
        self.memory.drain_all()
        return self._result()

    def _result(self):
        stats = {t.name: t.stats for t in self.threads.values()}
        return ExecutionResult(
            program=self.program,
            memory_model=self.memory_model,
            bug=self.bug,
            aborted=self.aborted,
            steps=self.steps,
            final_globals=self.memory.snapshot(),
            events=self.events,
            saps_by_thread=self.saps_by_thread,
            output=self.output,
            thread_names={t.tid: t.name for t in self.threads.values()},
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Instruction execution
    # ------------------------------------------------------------------ #

    def step_thread(self, thread):
        """Execute one instruction (or one stage of a blocking op).

        This is the one step body: ``run``, the replayer and a restored
        interpreter all step threads through it.  The common step is an
        instruction of a running thread; the rare ones, a pending start
        SAP, a ``wait()`` resuming or a just-yielded thread, sit behind
        one test.  Each op handler advances ``frame.ip`` itself (or
        jumps, calls or returns).
        """
        if self.yielded or not thread.sap_count or thread.wait_resume is not None:
            self.yielded.discard(thread.tid)
            if not thread.sap_count:
                # The synthetic start SAP is a step of its own, so a schedule
                # can order it independently of the first real instruction.
                self._emit_sap(thread, ev.START)
                return
            if thread.wait_resume is not None:
                self._resume_wait(thread)
                return
        frame = thread.frames[-1]
        instr = frame.func.blocks[frame.block].instrs[frame.ip]
        thread.stats.instructions += 1
        _DISPATCH[instr.op](self, thread, frame, instr)

    def _is_shared(self, name):
        return self.shared_names is None or name in self.shared_names

    # -- straight-line data ops -------------------------------------------

    def _op_const(self, thread, frame, instr):
        frame.stack.append(instr.arg)
        frame.ip += 1

    def _op_load_local(self, thread, frame, instr):
        try:
            frame.stack.append(frame.locals[instr.arg])
        except KeyError:
            raise InterpreterError(
                "read of unassigned local %r in %s" % (instr.arg, frame.func.name)
            ) from None
        frame.ip += 1

    def _op_store_local(self, thread, frame, instr):
        frame.locals[instr.arg] = frame.stack.pop()
        frame.ip += 1

    def _op_load_global(self, thread, frame, instr):
        addr = (instr.arg,)
        value = self.memory.read(thread.tid, addr)
        if self._is_shared(instr.arg):
            self._emit_sap(thread, ev.READ, addr=addr, value=value, line=instr.line)
        frame.stack.append(value)
        frame.ip += 1

    def _op_store_global(self, thread, frame, instr):
        value = frame.stack.pop()
        addr = (instr.arg,)
        self._write(thread, addr, value, instr)
        frame.ip += 1

    def _op_load_elem(self, thread, frame, instr):
        index = frame.stack.pop()
        addr = (instr.arg, index)
        value = self.memory.read(thread.tid, addr)
        if self._is_shared(instr.arg):
            self._emit_sap(thread, ev.READ, addr=addr, value=value, line=instr.line)
        frame.stack.append(value)
        frame.ip += 1

    def _op_store_elem(self, thread, frame, instr):
        value = frame.stack.pop()
        index = frame.stack.pop()
        addr = (instr.arg, index)
        self._write(thread, addr, value, instr)
        frame.ip += 1

    def _write(self, thread, addr, value, instr):
        self.memory.check_addr(addr)
        if self._is_shared(addr[0]):
            sap = self._emit_sap(
                thread,
                ev.WRITE,
                addr=addr,
                value=value,
                line=instr.line,
                deferred=self.memory_model != SC,
            )
            self.memory.write(thread.tid, addr, value, sap=sap)
            if self._fencing_hooks:
                self._fence(thread)
        else:
            self.memory.write(thread.tid, addr, value)

    def _op_binop(self, thread, frame, instr):
        try:
            fn = _BINOPS[instr.arg]
        except KeyError:
            raise MiniRuntimeError("unknown binary operator %r" % instr.arg) from None
        stack = frame.stack
        right = stack.pop()
        stack[-1] = fn(stack[-1], right)
        frame.ip += 1

    def _op_unop(self, thread, frame, instr):
        try:
            fn = _UNOPS[instr.arg]
        except KeyError:
            raise MiniRuntimeError("unknown unary operator %r" % instr.arg) from None
        stack = frame.stack
        stack[-1] = fn(stack[-1])
        frame.ip += 1

    def _op_pop(self, thread, frame, instr):
        frame.stack.pop()
        frame.ip += 1

    # -- control flow ---------------------------------------------------------

    def _goto(self, thread, frame, dst):
        src = frame.block
        frame.block = dst
        frame.ip = 0
        for fn in self._on_edge:
            fn(thread, frame.func.name, src, dst)

    def _op_jump(self, thread, frame, instr):
        self._goto(thread, frame, instr.arg)

    def _op_branch(self, thread, frame, instr):
        cond = frame.stack.pop()
        thread.stats.branches += 1
        self._goto(thread, frame, instr.arg if truthy(cond) else instr.arg2)

    def _op_call(self, thread, frame, instr):
        func = self.program.function(instr.arg)
        nargs = instr.arg2
        args = frame.stack[len(frame.stack) - nargs :] if nargs else []
        del frame.stack[len(frame.stack) - nargs :]
        new_frame = Frame(func=func)
        for pname, value in zip(func.params, args):
            new_frame.locals[pname] = value
        frame.ip += 1  # return point: the instr after the call
        thread.frames.append(new_frame)
        for fn in self._on_enter:
            fn(thread, func.name)

    def _op_ret(self, thread, frame, instr):
        value = frame.stack.pop()
        func_name = frame.func.name
        exit_block = frame.block
        thread.frames.pop()
        for fn in self._on_exit:
            fn(thread, func_name, exit_block)
        if thread.frames:
            thread.frame.stack.append(value)
        else:
            self._exit_thread(thread)

    def _exit_thread(self, thread):
        self._fence(thread)
        self._emit_sap(thread, ev.EXIT)
        thread.status = EXITED
        self.runnable.remove(thread.tid)
        self.live -= 1
        for other in self.threads.values():
            if (
                other.status == BLOCKED
                and other.block_reason == ON_JOIN
                and other.block_target == thread.tid
            ):
                self._unblock(other)

    def _unblock(self, thread):
        thread.status = RUNNABLE
        thread.block_reason = None
        thread.block_target = None
        insort(self.runnable, thread.tid)

    def _block(self, thread, reason, target):
        thread.status = BLOCKED
        thread.block_reason = reason
        thread.block_target = target
        self.runnable.remove(thread.tid)

    # -- threading ------------------------------------------------------------

    def _op_spawn(self, thread, frame, instr):
        nargs = instr.arg2
        args = frame.stack[len(frame.stack) - nargs :] if nargs else []
        del frame.stack[len(frame.stack) - nargs :]
        self._fence(thread)
        child = self._spawn_thread(instr.arg, args, parent=thread)
        self._emit_sap(thread, ev.FORK, addr=child.name, line=instr.line)
        frame.stack.append(TidHandle(child.tid))
        frame.ip += 1

    def _op_join(self, thread, frame, instr):
        handle = frame.stack[-1]
        target = self.threads.get(handle)
        if target is None:
            raise MiniRuntimeError("join on invalid thread handle %r" % handle)
        if target.status != EXITED:
            self._block(thread, ON_JOIN, target.tid)
            return
        frame.stack.pop()
        self._fence(thread)
        self._emit_sap(thread, ev.JOIN, addr=target.name, line=instr.line)
        frame.ip += 1

    # -- mutexes ------------------------------------------------------------

    def _op_lock(self, thread, frame, instr):
        mutex = self.sync.mutex(instr.arg)
        if mutex.held:
            self._block(thread, ON_MUTEX, mutex.name)
            return
        mutex.owner = thread.tid
        self._fence(thread)
        self._emit_sap(thread, ev.LOCK, addr=mutex.name, line=instr.line)
        frame.ip += 1

    def _op_unlock(self, thread, frame, instr):
        mutex = self.sync.mutex(instr.arg)
        if mutex.owner != thread.tid:
            raise MiniRuntimeError(
                "thread %s unlocking %r it does not hold" % (thread.name, mutex.name)
            )
        self._fence(thread)
        self._emit_sap(thread, ev.UNLOCK, addr=mutex.name, line=instr.line)
        self._release_mutex(mutex)
        frame.ip += 1

    def _release_mutex(self, mutex):
        mutex.owner = None
        for other in self.threads.values():
            if (
                other.status == BLOCKED
                and other.block_reason == ON_MUTEX
                and other.block_target == mutex.name
            ):
                self._unblock(other)

    # -- condition variables -------------------------------------------------
    #
    # wait(cv, m) desugars into three SAPs: unlock(m), wait(cv), lock(m).
    # Stage 1 (first hit): fence, unlock SAP, join cv's waiter list, block.
    # Stage 2 (after signal): emit the wait SAP (so signal < wait in memory
    # order), then re-acquire the mutex like a normal lock.

    def _op_wait(self, thread, frame, instr):
        cv = self.sync.condvar(instr.arg)
        mutex = self.sync.mutex(instr.arg2)
        if mutex.owner != thread.tid:
            raise MiniRuntimeError(
                "thread %s waiting on %r without holding %r"
                % (thread.name, cv.name, mutex.name)
            )
        self._fence(thread)
        self._emit_sap(thread, ev.UNLOCK, addr=mutex.name, line=instr.line)
        self._release_mutex(mutex)
        cv.waiters.append(thread.tid)
        thread.wait_resume = ("signaled-pending", cv.name, mutex.name, instr.line)
        self._block(thread, ON_COND, cv.name)

    def _resume_wait(self, thread):
        stage, cv_name, mutex_name, line = thread.wait_resume
        if stage == "signaled-pending":
            self._emit_sap(thread, ev.WAIT, addr=cv_name, line=line)
            thread.wait_resume = ("reacquire", cv_name, mutex_name, line)
            stage = "reacquire"
        if stage == "reacquire":
            mutex = self.sync.mutex(mutex_name)
            if mutex.held:
                self._block(thread, ON_MUTEX, mutex.name)
                return
            mutex.owner = thread.tid
            self._emit_sap(thread, ev.LOCK, addr=mutex.name, line=line)
            thread.wait_resume = None
            thread.frames[-1].ip += 1

    def _op_signal(self, thread, frame, instr):
        cv = self.sync.condvar(instr.arg)
        self._fence(thread)
        self._emit_sap(thread, ev.SIGNAL, addr=cv.name, line=instr.line)
        if cv.waiters:
            if self.signal_wake_policy is not None:
                tid = self.signal_wake_policy(self, cv, list(cv.waiters))
            else:
                tid = cv.waiters[0]
            cv.waiters.remove(tid)
            self._unblock(self.threads[tid])
        frame.ip += 1

    def _op_broadcast(self, thread, frame, instr):
        cv = self.sync.condvar(instr.arg)
        self._fence(thread)
        self._emit_sap(thread, ev.BROADCAST, addr=cv.name, line=instr.line)
        while cv.waiters:
            self._unblock(self.threads[cv.waiters.pop(0)])
        frame.ip += 1

    # -- checks, misc ---------------------------------------------------------

    def _op_assert(self, thread, frame, instr):
        cond = frame.stack.pop()
        if not truthy(cond):
            self.bug = ev.BugReport(
                kind="assertion",
                message=instr.arg,
                thread=thread.name,
                line=instr.line,
            )
        frame.ip += 1

    def _op_assume(self, thread, frame, instr):
        cond = frame.stack.pop()
        if not truthy(cond):
            self.aborted = "assume-failed"
        frame.ip += 1

    def _op_yield(self, thread, frame, instr):
        # yield is a SAP: a must-interleave segment boundary (Section 4.2).
        # It is NOT a memory fence (sched_yield has no barrier semantics).
        self._emit_sap(thread, ev.YIELD, line=instr.line)
        self.yielded.add(thread.tid)
        frame.ip += 1

    def _op_fence(self, thread, frame, instr):
        # A full memory fence: drains this thread's store buffers, same as
        # the implicit fence before every sync SAP.
        self._fence(thread)
        self._emit_sap(thread, ev.FENCE, line=instr.line)
        frame.ip += 1

    def _op_print(self, thread, frame, instr):
        nargs = instr.arg
        args = frame.stack[len(frame.stack) - nargs :] if nargs else []
        del frame.stack[len(frame.stack) - nargs :]
        self.output.append((thread.name, tuple(args)))
        frame.ip += 1

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
        bc.JUMP: _op_jump,
        bc.BRANCH: _op_branch,
        bc.CALL: _op_call,
        bc.RET: _op_ret,
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


_DISPATCH = Interpreter._DISPATCH


def run_program(
    program,
    memory_model=SC,
    seed=0,
    shared=None,
    hooks=(),
    scheduler=None,
    max_steps=2_000_000,
    **scheduler_kwargs,
):
    """Convenience wrapper: run ``program`` once and return the result."""
    if scheduler is None:
        scheduler = RandomScheduler(seed, **scheduler_kwargs)
    interp = Interpreter(
        program,
        memory_model=memory_model,
        scheduler=scheduler,
        shared=shared,
        hooks=hooks,
        max_steps=max_steps,
    )
    return interp.run()
