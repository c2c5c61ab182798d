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
from repro.analysis.static_race.dataflow import InterprocEngine

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


class _Engine(InterprocEngine):
    def __init__(self, program, mode):
        super().__init__(program)
        self.mode = mode

    def meet(self, a, b):
        return (a & b) if self.mode == MUST else (a | b)

    def transfer(self, instr, state):
        if instr.op == bc.LOCK:
            return state | {instr.arg}
        if instr.op == bc.UNLOCK:
            return state - {instr.arg}
        return state

    def apply_summary(self, state, entry, exit_set):
        """Apply the callee's gen/kill summary to the caller's lockset."""
        gen = exit_set - entry
        kill = entry - exit_set
        return (state - kill) | gen
