"""Def-use value flow over MiniLang operand stacks, plus must-init facts.

Two small dataflow engines feed the SR3xx bug-pattern passes
(:mod:`repro.analysis.static_race.patterns`):

* **Value flow** (:func:`compute_value_flow`): per function, an abstract
  interpretation of the operand stack that tracks, for every stack slot
  and local, the set of *global-read points* that flowed into the value.
  Its outputs are ``write_deps`` (which reads feed each global write —
  the raw material for read-modify-write span detection) and
  ``branch_deps`` (which reads feed each branch condition — the raw
  material for check-then-act detection).  The analysis is
  intraprocedural: values returned from calls carry no read provenance,
  which can only *hide* RMW spans, never invent one — fine for a
  bug-pattern reporter that must not cry wolf.

* **Must-init** (:func:`compute_must_writes`): interprocedural
  "definitely written before this point" sets per program point, on the
  context-insensitive entry-meet skeleton it shares with the lockset
  engine (:mod:`repro.analysis.static_race.dataflow`): a thread root
  starts with nothing written, a callee's entry is the intersection over
  its call sites, and calls apply the callee's must-write summary.
  Intersection meets under-approximate, so "v is must-init here" is
  trustworthy while its absence merely *suspects* a use-before-init.

:func:`span_points` enumerates the program points on any intra-function
path between two sites — the region a lock must cover for an RMW span to
be atomic.
"""

from dataclasses import dataclass

from repro.minilang import bytecode as bc
from repro.analysis.static_race.dataflow import InterprocEngine

_EMPTY = frozenset()


@dataclass
class FunctionValueFlow:
    """Read-provenance facts for one function."""

    func: str
    # (func, block, index) of a global write -> frozenset of global-read
    # points whose values flow into the stored value.
    write_deps: dict
    # (func, block, index) of a BRANCH -> frozenset of global-read points
    # whose values flow into the condition.
    branch_deps: dict


def compute_value_flow(program):
    """{func name: FunctionValueFlow} for every function."""
    return {
        name: _FunctionFlow(program, name).run()
        for name in sorted(program.functions)
    }


class _FunctionFlow:
    """Fixpoint over (stack of read-sets, locals of read-sets)."""

    def __init__(self, program, name):
        self.program = program
        self.name = name
        self.func = program.functions[name]
        self.write_deps = {}
        self.branch_deps = {}

    def run(self):
        in_states = {0: ((), {})}
        worklist = [0]
        while worklist:
            block_id = worklist.pop()
            block = self.func.blocks[block_id]
            stack, locals_ = in_states[block_id]
            stack, locals_ = list(stack), dict(locals_)
            for idx, instr in enumerate(block.instrs):
                self._transfer(instr, (block_id, idx), stack, locals_)
            out = (tuple(stack), locals_)
            for succ in block.successors():
                prev = in_states.get(succ)
                merged = out if prev is None else _merge(prev, out)
                if merged != prev:
                    in_states[succ] = merged
                    worklist.append(succ)
        return FunctionValueFlow(
            func=self.name,
            write_deps=self.write_deps,
            branch_deps=self.branch_deps,
        )

    def _pop(self, stack):
        return stack.pop() if stack else _EMPTY

    def _note(self, table, point, deps):
        table[point] = table.get(point, _EMPTY) | deps

    def _transfer(self, instr, pos, stack, locals_):
        op = instr.op
        point = (self.name, pos[0], pos[1])
        if op == bc.CONST:
            stack.append(_EMPTY)
        elif op == bc.LOAD_LOCAL:
            stack.append(locals_.get(instr.arg, _EMPTY))
        elif op == bc.STORE_LOCAL:
            locals_[instr.arg] = self._pop(stack)
        elif op == bc.LOAD_GLOBAL:
            stack.append(frozenset({point}) if self._is_data(instr.arg) else _EMPTY)
        elif op == bc.LOAD_ELEM:
            idx_deps = self._pop(stack)
            base = frozenset({point}) if self._is_data(instr.arg) else _EMPTY
            stack.append(base | idx_deps)
        elif op == bc.STORE_GLOBAL:
            deps = self._pop(stack)
            if self._is_data(instr.arg):
                self._note(self.write_deps, point, deps)
        elif op == bc.STORE_ELEM:
            deps = self._pop(stack) | self._pop(stack)
            if self._is_data(instr.arg):
                self._note(self.write_deps, point, deps)
        elif op == bc.BINOP:
            stack.append(self._pop(stack) | self._pop(stack))
        elif op == bc.UNOP:
            stack.append(self._pop(stack))
        elif op == bc.BRANCH:
            self._note(self.branch_deps, point, self._pop(stack))
        elif op in (bc.CALL, bc.SPAWN):
            nargs = instr.arg2 or 0
            for _ in range(nargs):
                self._pop(stack)
            stack.append(_EMPTY)  # intraprocedural: callee values are opaque
        elif op in (bc.POP, bc.ASSERT, bc.ASSUME, bc.JOIN, bc.RET):
            self._pop(stack)
        elif op == bc.PRINT:
            for _ in range(instr.arg or 0):
                self._pop(stack)
        # LOCK/UNLOCK/WAIT/SIGNAL/BROADCAST/YIELD/JUMP: no stack effect.

    def _is_data(self, name):
        info = self.program.symbols.globals.get(name)
        return info is not None and info.is_data


def _merge(a, b):
    stack_a, locals_a = a
    stack_b, locals_b = b
    depth = max(len(stack_a), len(stack_b))
    stack = tuple(
        (stack_a[i] if i < len(stack_a) else _EMPTY)
        | (stack_b[i] if i < len(stack_b) else _EMPTY)
        for i in range(depth)
    )
    locals_ = {}
    for key in set(locals_a) | set(locals_b):
        merged = locals_a.get(key, _EMPTY) | locals_b.get(key, _EMPTY)
        if merged:
            locals_[key] = merged
    return stack, locals_


# -- span geometry -------------------------------------------------------


def span_points(func_obj, func_name, start, end):
    """Program points on any intra-function path from ``start`` to ``end``.

    ``start``/``end`` are (func, block, index) points inside ``func_obj``
    (endpoints included).  Returns None when ``end`` is not forward
    reachable from ``start`` (e.g. a loop back-edge pairing); callers
    then fall back to endpoint locksets only.
    """
    _f, sb, si = start
    _f2, eb, ei = end
    if sb == eb and si <= ei:
        # Same-block span: the direct segment IS the span.  (A loop may
        # also connect the pair the long way round, but the value-flow
        # pairing is same-iteration by construction, so charging the
        # loop-around path would only invent coverage gaps.)
        return {(func_name, sb, i) for i in range(si, ei + 1)}
    # Reachability over the *acyclic* CFG (loop back edges removed): the
    # value-flow pairing is same-iteration, so a loop-around path from
    # the read back to the write is never the span being checked and
    # would only charge the span with unlocked loop-management code.
    skip = _back_edges(func_obj)
    forward = _forward_reach(func_obj, sb, skip)
    if eb not in forward:
        return None
    backward = _backward_reach(func_obj, eb, skip)  # blocks reaching eb

    points = set()
    # Middle blocks: on a start->end path, so every instruction counts.
    for block in func_obj.blocks:
        if block.id in forward and block.id in backward:
            if block.id == sb or block.id == eb:
                continue  # endpoint blocks get partial ranges below
            points |= {
                (func_name, block.id, i) for i in range(len(block.instrs))
            }
    # Tail of the start block and head of the end block.
    points |= {
        (func_name, sb, i)
        for i in range(si, len(func_obj.blocks[sb].instrs))
    }
    points |= {(func_name, eb, i) for i in range(0, ei + 1)}
    return points


def _back_edges(func_obj):
    """DFS back edges of the CFG from the entry block."""
    back = set()
    color = {}  # block -> 1 (on stack) | 2 (done)
    stack = [(0, iter(func_obj.blocks[0].successors()))]
    color[0] = 1
    while stack:
        node, succs = stack[-1]
        advanced = False
        for succ in succs:
            state = color.get(succ)
            if state == 1:
                back.add((node, succ))
            elif state is None:
                color[succ] = 1
                stack.append((succ, iter(func_obj.blocks[succ].successors())))
                advanced = True
                break
        if not advanced:
            color[node] = 2
            stack.pop()
    return back


def _forward_reach(func_obj, start, skip_edges):
    """Blocks strictly reachable from ``start`` over non-back edges."""
    seen = set()
    stack = [
        s
        for s in func_obj.blocks[start].successors()
        if (start, s) not in skip_edges
    ]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(
            s
            for s in func_obj.blocks[b].successors()
            if (b, s) not in skip_edges
        )
    return seen


def _backward_reach(func_obj, end, skip_edges):
    preds = {}
    for block in func_obj.blocks:
        for succ in block.successors():
            if (block.id, succ) not in skip_edges:
                preds.setdefault(succ, set()).add(block.id)
    seen = set()
    stack = list(preds.get(end, ()))
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(preds.get(b, ()))
    return seen | {end}


# -- must-init ------------------------------------------------------------


@dataclass
class MustWriteResult:
    """Per-point sets of globals definitely written earlier by the same
    thread (context-insensitive, intersection meets — see module doc)."""

    at_point: dict  # (func, block, index) -> frozenset of var names
    entries: dict
    exits: dict
    converged: bool = True

    def written_before(self, point):
        return self.at_point.get(point, frozenset())


def compute_must_writes(program):
    """Run the must-written dataflow over every reachable function."""
    engine = _MustWriteEngine(program)
    if not engine.solve():
        return MustWriteResult(
            at_point={}, entries={}, exits={}, converged=False
        )
    return MustWriteResult(
        at_point=engine.at_point, entries=engine.entries, exits=engine.exits
    )


class _MustWriteEngine(InterprocEngine):
    """The shared interprocedural skeleton with a gen-only transfer
    (writes are never killed) and intersection meets."""

    def meet(self, a, b):
        return a & b

    def transfer(self, instr, state):
        if instr.op in (bc.STORE_GLOBAL, bc.STORE_ELEM):
            info = self.program.symbols.globals.get(instr.arg)
            if info is not None and info.is_data:
                return state | {instr.arg}
        return state

    def apply_summary(self, state, entry, exit_set):
        return state | (exit_set - entry)
