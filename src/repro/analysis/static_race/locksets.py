"""Interprocedural lockset dataflow over MiniLang CFGs (Locksmith-style).

Two variants of the same engine:

* **must** mode (``meet`` = set intersection): at a program point, the set
  of mutexes *provably held on every path*.  Used by the race detector —
  under-approximating held locks can only add race reports, never hide
  one, so the analysis stays conservative.
* **may** mode (``meet`` = union): mutexes *possibly held* — used by the
  lock-order (deadlock) pass, where over-approximating held locks can
  only add deadlock edges.

Transfer functions: ``LOCK m`` adds ``m``; ``UNLOCK m`` removes it;
``WAIT cv, m`` releases and re-acquires ``m`` (net identity at this
granularity — the critical-section *split* it causes is visible only
in a recorded trace, as the runtime's desugared unlock/wait/lock SAP
triple).  Calls apply the callee's gen/kill summary.

Interprocedural strategy: context-insensitive entry sets.  A thread
root's entry lockset is empty (threads start lock-free); a called
function's entry is the meet over all its call sites.  The whole program
iterates to a fixpoint, so mutually recursive call/entry/summary updates
settle; with intersection meets the result under-approximates every real
context (sound for must), with union it over-approximates (sound for may).
"""

from dataclasses import dataclass

from repro.minilang import bytecode as bc
from repro.analysis.escape import thread_roots

MUST = "must"
MAY = "may"


@dataclass
class LocksetResult:
    """Per-point held locksets plus per-function summaries."""

    mode: str
    # (func, block, index) -> frozenset of mutex names held BEFORE the instr.
    at_point: dict
    # func -> frozenset entry lockset (None: never reached).
    entries: dict
    # func -> frozenset exit lockset.
    exits: dict
    # False when the fixpoint hit its round cap; all locksets are then
    # bottom (empty) so consumers see no held locks rather than a
    # partially-converged over-approximation.
    converged: bool = True

    def held_before(self, point):
        return self.at_point.get(point, frozenset())


def compute_locksets(program, mode=MUST):
    """Run the lockset dataflow over every reachable function."""
    if mode not in (MUST, MAY):
        raise ValueError("mode must be 'must' or 'may'")
    engine = _Engine(program, mode)
    converged = engine.solve()
    if not converged:
        # Unconverged must-mode state can over-approximate held locks
        # (identity call-effect for an unstable callee that actually
        # unlocks), which would let the race detector mint common-lock
        # verdicts that read as proof.  Fail safe instead: bottom
        # everywhere — no common-lock verdicts.
        return LocksetResult(
            mode=mode, at_point={}, entries={}, exits={}, converged=False
        )
    return LocksetResult(
        mode=mode,
        at_point=engine.at_point,
        entries=engine.entries,
        exits=engine.exits,
    )


class _Engine:
    def __init__(self, program, mode):
        self.program = program
        self.mode = mode
        self.roots = set(thread_roots(program))
        self.entries = {}  # func -> frozenset | absent (unreached)
        self.exits = {}  # func -> frozenset
        self.at_point = {}
        for root in self.roots:
            if root in program.functions:
                self.entries[root] = frozenset()

    def meet(self, a, b):
        return (a & b) if self.mode == MUST else (a | b)

    def solve(self):
        # Whole-program rounds until entries/exits stabilise.  Each round
        # re-derives call-site contributions from scratch so stale meets
        # never stick.  The lattice is finite (subsets of the mutex set per
        # function) and per-round updates are deterministic, so a generous
        # round cap doubles as a safety net for pathological recursion.
        # Returns True on a reached fixpoint; False if the cap ran out,
        # in which case the caller must discard the partial state.
        for _ in range(len(self.program.functions) * 2 + 8):
            new_entries = {
                root: frozenset()
                for root in self.roots
                if root in self.program.functions
            }
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

    def _call_effect(self, callee, state):
        """Apply the callee's gen/kill summary to the caller's lockset."""
        entry = self.entries.get(callee)
        exit_set = self.exits.get(callee)
        if entry is None or exit_set is None:
            return state  # not analyzed yet: identity, refined next round
        gen = exit_set - entry
        kill = entry - exit_set
        return (state - kill) | gen

    def _transfer(self, instr, state, func_name, point, new_entries):
        self.at_point[point] = state
        op = instr.op
        if op == bc.LOCK:
            return state | {instr.arg}
        if op == bc.UNLOCK:
            return state - {instr.arg}
        if op == bc.CALL:
            callee = instr.arg
            if callee in self.program.functions:
                if callee in new_entries:
                    new_entries[callee] = self.meet(new_entries[callee], state)
                else:
                    new_entries[callee] = state
                return self._call_effect(callee, state)
        return state

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
                point = (name, block_id, idx)
                state = self._transfer(instr, state, name, point, new_entries)
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
        # A function that never returns (or whose RETs are unreachable)
        # contributes an identity effect.
        return entry if exit_state is None else exit_state
