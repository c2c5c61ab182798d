"""The interprocedural forward dataflow skeleton shared by the lockset
(:mod:`~repro.analysis.static_race.locksets`) and must-init
(:mod:`~repro.analysis.static_race.valueflow`) engines.

States are frozensets.  Entry sets are context-insensitive: a thread
root's entry is empty, and a called function's entry is the meet over
all its call sites.  A call applies the callee's entry-to-exit summary;
a function whose RETs are unreachable contributes an identity effect.
The whole program iterates in rounds until entries and exits stabilise.

A subclass supplies the lattice and the instruction semantics:
:meth:`meet`, :meth:`transfer` for every instruction except calls to
program functions, and :meth:`apply_summary` for those calls.
"""

from repro.minilang import bytecode as bc
from repro.analysis.escape import thread_roots


class InterprocEngine:
    def __init__(self, program):
        self.program = program
        self.roots = {
            root for root in thread_roots(program) if root in program.functions
        }
        # func -> frozenset; a function never reached has no entry.
        self.entries = {root: frozenset() for root in self.roots}
        self.exits = {}  # func -> frozenset
        # (func, block, index) -> state BEFORE the instruction.
        self.at_point = {}

    def meet(self, a, b):
        raise NotImplementedError

    def transfer(self, instr, state):
        """The state after a non-call instruction."""
        return state

    def apply_summary(self, state, entry, exit_set):
        """The caller's state after a call whose callee maps ``entry`` to
        ``exit_set``."""
        raise NotImplementedError

    def solve(self):
        # Whole-program rounds until entries/exits stabilise.  Each round
        # re-derives call-site contributions from scratch so stale meets
        # never stick.  The lattice is finite (subsets of a finite name
        # set per function) and per-round updates are deterministic, so a
        # generous round cap doubles as a safety net for pathological
        # recursion.  Returns True on a reached fixpoint; False if the cap
        # ran out, in which case the caller must discard the partial state.
        for _ in range(len(self.program.functions) * 2 + 8):
            new_entries = {root: frozenset() for root in self.roots}
            changed = False
            for name in sorted(self.entries):
                entry = self.entries[name]
                exit_set = self._analyze_function(name, entry, new_entries)
                if self.exits.get(name) != exit_set:
                    self.exits[name] = exit_set
                    changed = True
            for name, entry in new_entries.items():
                if self.entries.get(name) != entry:
                    self.entries[name] = entry
                    changed = True
            if not changed:
                return True
        return False

    def _call(self, callee, state, new_entries):
        if callee in new_entries:
            new_entries[callee] = self.meet(new_entries[callee], state)
        else:
            new_entries[callee] = state
        entry = self.entries.get(callee)
        exit_set = self.exits.get(callee)
        if entry is None or exit_set is None:
            return state  # not analyzed yet: identity, refined next round
        return self.apply_summary(state, entry, exit_set)

    def _analyze_function(self, name, entry, new_entries):
        func = self.program.functions[name]
        in_states = {0: entry}
        worklist = [0]
        exit_state = None
        while worklist:
            block_id = worklist.pop()
            block = func.blocks[block_id]
            state = in_states[block_id]
            for idx, instr in enumerate(block.instrs):
                self.at_point[(name, block_id, idx)] = state
                if instr.op == bc.CALL and instr.arg in self.program.functions:
                    state = self._call(instr.arg, state, new_entries)
                else:
                    state = self.transfer(instr, state)
                if instr.op == bc.RET:
                    exit_state = (
                        state if exit_state is None else self.meet(exit_state, state)
                    )
            for succ in block.successors():
                prev = in_states.get(succ)
                merged = state if prev is None else self.meet(prev, state)
                if merged != prev:
                    in_states[succ] = merged
                    worklist.append(succ)
        return entry if exit_state is None else exit_state
