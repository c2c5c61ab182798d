"""An incremental CDCL SAT solver (conflict-driven clause learning).

This is the boolean core of the CLAP solver stack — the role STP's SAT
engine plays in the paper's prototype.  Standard modern architecture,
tuned for the offline phase's re-solve-per-preemption-bound loop:

* two-watched-literal unit propagation over flat per-literal watch lists,
* first-UIP conflict analysis with non-chronological backjumping,
* VSIDS activity with exponential decay and an indexed binary max-heap
  (decisions are O(log n), not a linear scan over all variables),
* Luby-sequence restarts,
* phase saving,
* an optional in-search theory (:meth:`CDCLSolver.attach_theory`): after
  every unit-propagation fixpoint the theory sees the newly assigned
  literals and may answer with a clause.  The clause joins the clause
  database for good; when one of its literals is still unassigned it is
  a lemma that propagates that literal, otherwise it is a conflict,
  analysed and learned like a propagation conflict (or, when it lies
  wholly below the current decision level, backjumped over first) — the
  reads-from values (:mod:`repro.solver.values`), the lazy Frw clauses
  (:mod:`repro.solver.frw`) and the order theory
  (:mod:`repro.solver.order`) run here, composed on the one hook.
  Variables the loader keeps out of the decisions
  (:meth:`CDCLSolver.never_decide`) are left to the theory: once nothing
  is left to decide, it completes them from its own model and the core
  checks the completion (:meth:`CDCLSolver._complete`),
* an assumption interface — ``solve(assumptions=[...])`` searches under
  temporary unit hypotheses without committing them, which is what lets
  the bound loop retract "needs more than c switches" blocking clauses
  when it moves from bound ``c`` to ``c + 1`` while keeping every learned
  clause,
* per-phase counters (:class:`~repro.constraints.stats.SolverPhaseStats`):
  propagations, conflicts, decisions, restarts, learned clauses, and
  *reuse hits* — propagations whose reason clause was learned in an
  earlier ``solve()`` call, the direct measure of incremental reuse.

Variables are positive integers; a literal is ``+v`` or ``-v``.  Clauses
may be added between ``solve()`` calls; learned clauses are kept.  A
formula loader creates its variables in one step
(:meth:`CDCLSolver.ensure_var`), hands its clauses over in bulk
(:meth:`CDCLSolver.load`) and may keep variables no clause mentions out
of the decisions (:meth:`CDCLSolver.never_decide`).  An
UNSAT answer under assumptions does *not* poison the solver — only a
conflict derived at decision level 0 is permanent.

Internally a literal ``l`` indexes flat lists at ``(var << 1) | (l < 0)``
so the hot loops touch Python lists, not dicts keyed by signed ints.
"""

from repro.constraints.stats import SolverPhaseStats

SAT = "sat"
UNSAT = "unsat"

_RESTART_BASE = 100  # conflicts for the first Luby restart interval
_VAR_DECAY = 0.95  # VSIDS activity decay per conflict


def luby(i):
    """The ``i``-th term (1-based) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …"""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


class _VarHeap:
    """Indexed binary max-heap over variable activities.

    ``pos[var]`` is the variable's slot in ``heap`` (-1 when absent, -2
    when removed for good), so activity bumps can sift a resident variable
    up in O(log n).  Assigned variables may linger in the heap; the
    decision loop pops until it finds an unassigned one (MiniSat's lazy
    scheme).
    """

    __slots__ = ("heap", "pos", "activity")

    def __init__(self, activity):
        self.heap = []
        self.pos = [-1]  # var 0 unused
        self.activity = activity  # shared list, indexed by var

    def extend(self, first, last):
        """Add variables ``first … last``, all of activity 0: they go to
        the end of the heap, where one :meth:`insert` each would leave
        them (no activity is below 0)."""
        self.pos.extend(range(len(self.heap), len(self.heap) + last - first + 1))
        self.heap.extend(range(first, last + 1))

    def __bool__(self):
        return bool(self.heap)

    def insert(self, var):
        if self.pos[var] != -1:
            return
        self.heap.append(var)
        self.pos[var] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def pop(self):
        heap, pos = self.heap, self.pos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top

    def remove(self, variables):
        """Take ``variables`` out of the heap for good: :meth:`insert`
        leaves them out."""
        heap, pos = self.heap, self.pos
        for var in variables:
            pos[var] = -2
        heap[:] = [var for var in heap if pos[var] >= 0]
        for i, var in enumerate(heap):
            pos[var] = i
        for i in range(len(heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def bumped(self, var):
        """Restore heap order after ``activity[var]`` increased."""
        if self.pos[var] >= 0:
            self._sift_up(self.pos[var])

    def _sift_up(self, i):
        heap, pos, act = self.heap, self.pos, self.activity
        var = heap[i]
        key = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i):
        heap, pos, act = self.heap, self.pos, self.activity
        n = len(heap)
        var = heap[i]
        key = act[var]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and act[heap[right]] > act[heap[child]]:
                child = right
            cvar = heap[child]
            if act[cvar] <= key:
                break
            heap[i] = cvar
            pos[cvar] = i
            i = child
        heap[i] = var
        pos[var] = i


class CDCLSolver:
    """The solver."""

    def __init__(self):
        self.num_vars = 0
        self.clauses = []  # each clause: list of lits
        self.clause_birth = []  # solve() call that created the clause
        self.clause_learned = []  # True for learned clauses
        # (var << 1) | (lit < 0) -> clause indices; None until a clause
        # with that literal is attached.
        self.watches = [None, None]
        self.assign = [None]  # var -> True/False/None (index 0 unused)
        self.level = [0]  # var -> decision level
        self.reason = [None]  # var -> clause index (None for decisions)
        self.trail = []  # assigned lits in order
        self.trail_lim = []  # trail length at each decision level
        self.activity = [0.0]
        self.var_inc = 1.0
        self.phase = [False]  # saved phases
        self.order = _VarHeap(self.activity)
        self.propagate_head = 0
        self._unsat = False  # a level-0 contradiction was derived
        self.stats = SolverPhaseStats()
        self.theory = None
        self.theory_head = 0  # trail position the theory has consumed
        self._pending = None  # clauses added during a final check
        # Literals the theory's completion set true in ``assign``, off the
        # trail (see _complete); taken back by any backtrack.
        self._completed = []

    def attach_theory(self, theory):
        """Check ``theory`` inside the search.

        ``theory.assign(trail, start)`` asserts ``trail[start:]`` and
        returns ``(clause, stop)``: ``None``, or a clause whose literals
        are all false under the trail but at most one unassigned one, and
        the trail position consumed up to.
        ``theory.backtrack(trail_len)`` retracts everything asserted at
        trail positions ``>= trail_len``.  ``theory.phase(var, saved)``
        picks the polarity of a decision on ``var`` (``saved`` is the
        saved phase).  ``theory.complete(assign)`` runs when nothing is
        left to decide and the trail is at its fixpoint: it sets the
        unassigned variables it owns in ``assign`` and returns
        ``(literals, clause)``, the literals it set true and ``None`` or a
        clause of its own that the completed assignment falsifies.

        A conflict need not involve the current decision level.  One whose
        literals all sit below it is handled like a refuting clause of a
        ``final_check`` (see :meth:`_refine`): the search backjumps to the
        highest level among them, or below it when that level holds only
        one of them, which is then asserted.  A conflict with no literal
        above level 0 (the empty clause included) makes the solver
        UNSAT."""
        self.theory = theory
        self.theory_head = 0

    # ------------------------------------------------------------------ #

    def new_var(self):
        self.ensure_var(self.num_vars + 1)
        return self.num_vars

    def ensure_var(self, var):
        """Create the variables up to ``var``, all in one step: each is
        unassigned with phase False and activity 0."""
        count = var - self.num_vars
        if count <= 0:
            return
        first = self.num_vars + 1
        self.num_vars = var
        self.assign.extend([None] * count)
        self.level.extend([0] * count)
        self.reason.extend([None] * count)
        self.activity.extend([0.0] * count)
        self.phase.extend([False] * count)
        self.watches.extend([None] * (2 * count))
        self.order.extend(first, var)

    def never_decide(self, variables):
        """Keep ``variables`` out of the decision heap for good.  One that
        no clause, assumption or theory mentions stays unassigned, and
        :meth:`model` omits it.  The others are assigned by propagation
        or, once nothing is left to decide, by the theory's completion
        (:meth:`_complete`): the theory must own them."""
        self.order.remove(variables)

    def add_clause(self, lits):
        """Add a clause; may be called between solve() calls, and from a
        ``final_check`` (see :meth:`solve`), where it refines the search
        in place."""
        if self._pending is not None:
            self._pending.append(lits)
            return
        lits = list(dict.fromkeys(lits))  # dedupe, keep order
        for lit in lits:
            self.ensure_var(abs(lit))
        if any(-lit in lits for lit in lits):
            return  # tautology
        self.load([lits])

    def load(self, clauses):
        """Add a formula's clauses at level 0, in order: the loader's bulk
        path.

        The caller guarantees what :meth:`add_clause` checks: each
        clause's variables exist and are distinct, and no clause holds a
        literal and its negation.  The level-0 filter stays: a literal
        false at level 0 is dropped, a clause with a true one is skipped,
        a unit is assigned and an empty clause makes the solver UNSAT.
        Attached clauses are the lists passed in, so the caller must not
        reuse them."""
        self._backtrack(0)
        assign = self.assign
        for lits in clauses:
            for lit in lits:
                if assign[abs(lit)] is not None:
                    lits = self._level0(lits)
                    break
            if lits is None:
                continue
            if len(lits) > 1:
                self._attach(lits, learned=False)
            elif not lits or not self._enqueue(lits[0], None):
                self._unsat = True

    def _level0(self, lits):
        """``lits`` without its literals false at level 0, or None when
        one is true."""
        kept = []
        for lit in lits:
            value = self._value(lit)
            if value is True:
                return None
            if value is None:
                kept.append(lit)
        return kept

    def _attach(self, lits, learned):
        """Attach a clause of two literals or more.  Every literal of an
        attached clause has a watch list: propagation may move a watch to
        any of them."""
        index = len(self.clauses)
        self.clauses.append(lits)
        self.clause_birth.append(self.stats.solve_calls)
        self.clause_learned.append(learned)
        watches = self.watches
        for position, lit in enumerate(lits):
            slot = (abs(lit) << 1) | (lit < 0)
            watching = watches[slot]
            if watching is None:
                watching = watches[slot] = []
            if position < 2:
                watching.append(index)
        return index

    # ------------------------------------------------------------------ #

    def _value(self, lit):
        value = self.assign[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit, reason_idx):
        var = abs(lit)
        value = self.assign[var]
        if value is not None:
            return value is (lit > 0)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_idx
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause index or None."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        stats = self.stats
        solve_call = stats.solve_calls
        clause_birth = self.clause_birth
        clause_learned = self.clause_learned
        while self.propagate_head < len(trail):
            lit = trail[self.propagate_head]
            self.propagate_head += 1
            stats.propagations += 1
            false_lit = -lit
            widx = (abs(false_lit) << 1) | (false_lit < 0)
            watching = watches[widx]
            if not watching:
                continue
            keep = []
            i = 0
            n_watching = len(watching)
            while i < n_watching:
                ci = watching[i]
                i += 1
                clause = clauses[ci]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                value = assign[abs(first)]
                if value is not None and value is (first > 0):
                    keep.append(ci)
                    continue
                # Find a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    value = assign[abs(other)]
                    if value is None or value is (other > 0):
                        clause[1], clause[k] = other, clause[1]
                        watches[(abs(other) << 1) | (other < 0)].append(ci)
                        found = True
                        break
                if found:
                    continue
                keep.append(ci)
                # Clause is unit or conflicting.
                if not self._enqueue(first, ci):
                    keep.extend(watching[i:])
                    watches[widx] = keep
                    return ci
                if clause_learned[ci] and clause_birth[ci] != solve_call:
                    stats.reuse_hits += 1
            watches[widx] = keep
        return None

    # ------------------------------------------------------------------ #

    def _bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            activity = self.activity
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
        self.order.bumped(var)

    def _decay(self):
        self.var_inc /= _VAR_DECAY

    def _analyze(self, clause):
        """First-UIP learning from a conflicting clause (a list of
        literals, all false).  Returns (learned_clause, backjump_level)."""
        learned = []
        seen = set()
        counter = 0
        pivot = None  # the implied literal whose reason we resolve with
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        level = self.level
        while True:
            for lit in clause:
                if pivot is not None and lit == pivot:
                    continue  # skip the pivot's own occurrence in its reason
                var = abs(lit)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find next current-level literal on the trail to resolve out.
            while abs(self.trail[index]) not in seen:
                index -= 1
            pivot = self.trail[index]
            var_p = abs(pivot)
            seen.discard(var_p)
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[var_p]]
        learned.insert(0, -pivot)
        if len(learned) == 1:
            return learned, 0
        backjump = max(level[abs(l)] for l in learned[1:])
        # Put a literal of the backjump level at position 1 for watching.
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == backjump:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backjump

    def _backtrack(self, target_level):
        if self._completed:
            self._uncomplete()
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        assign = self.assign
        phase = self.phase
        reason = self.reason
        order = self.order
        for lit in self.trail[limit:]:
            var = abs(lit)
            phase[var] = assign[var]
            assign[var] = None
            reason[var] = None
            order.insert(var)
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        if self.propagate_head > limit:
            self.propagate_head = limit
        if self.theory_head > limit:
            self.theory_head = limit
        if self.theory is not None:
            self.theory.backtrack(limit)

    def _decide(self):
        assign = self.assign
        order = self.order
        while order:
            var = order.pop()
            if assign[var] is None:
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                phase = self.phase[var]
                if self.theory is not None:
                    phase = self.theory.phase(var, phase)
                self._enqueue(var if phase else -var, None)
                return True
        return False

    def _complete(self):
        """Complete a full trail with the theory's model and check it.

        The theory sets every variable left out of the decisions
        (:meth:`never_decide`) and checks its own constraints.  Then only
        the clauses watching a literal the completion made false are
        looked at: at a propagation fixpoint a clause with no true literal
        has both watched literals unassigned, so any other clause stays
        satisfied.  Returns None with the completion in place, for
        ``final_check`` and :meth:`model`, or the first clause found
        falsified with the completion taken back."""
        self._completed, clause = self.theory.complete(self.assign)
        if clause is None:
            assign, clauses, watches = self.assign, self.clauses, self.watches
            for lit in self._completed:
                # The watch list of -lit.
                watching = watches[(abs(lit) << 1) | (lit > 0)]
                if not watching:
                    continue
                for ci in watching:
                    for other in clauses[ci]:
                        if assign[abs(other)] is (other > 0):
                            break
                    else:
                        clause = clauses[ci]
                        break
                if clause is not None:
                    break
        if clause is not None:
            self._uncomplete()
        return clause

    def _uncomplete(self):
        assign = self.assign
        for lit in self._completed:
            assign[abs(lit)] = None
        self._completed = []

    def _decide_open(self, clause):
        """Decide the first literal of ``clause`` the completion set the
        way the completion set it, false: the clause's other open
        literals must now satisfy it."""
        for lit in clause:
            if self.assign[abs(lit)] is None:
                self.stats.decisions += 1
                self.stats.completion_decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(-lit, None)
                return
        raise RuntimeError("the completion falsified an assigned clause")

    # ------------------------------------------------------------------ #

    def solve(
        self, assumptions=(), max_conflicts=None, final_check=None, interrupt=None
    ):
        """Run CDCL search under the given assumption literals.

        Returns SAT, UNSAT, or None when ``max_conflicts`` is hit or
        ``interrupt`` stops the search.  UNSAT
        with assumptions means "unsatisfiable *under these assumptions*";
        the solver stays usable and keeps everything it learned.  Only a
        level-0 contradiction (UNSAT with no assumptions involved) is
        permanent.

        ``final_check()`` runs on every full assignment (the model is
        readable through :meth:`model`).  It returns True to accept the
        assignment (SAT), None to stop the search (``solve`` returns
        None), or False after refuting the assignment with clauses added
        through :meth:`add_clause`.  A refuting clause backjumps the search
        to where it stops being false instead of restarting it.

        ``interrupt()`` runs after each analysed conflict and each refuted
        assignment; a true answer stops the search (``solve`` returns
        None).  It is how a caller bounds a search whose theories refute
        partial assignments, which no ``final_check`` ever sees.
        """
        if self._unsat:
            return UNSAT
        self.stats.solve_calls += 1
        self._backtrack(0)
        assumptions = list(assumptions)
        for lit in assumptions:
            self.ensure_var(abs(lit))
        n_assumptions = len(assumptions)
        conflicts = 0
        restart_count = 0
        restart_number = 1
        restart_limit = _RESTART_BASE * luby(restart_number)
        theory = self.theory
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflict = self.clauses[conflict]
            elif theory is not None and self.theory_head < len(self.trail):
                conflict, self.theory_head = theory.assign(
                    self.trail, self.theory_head
                )
                if conflict is not None:
                    conflict = self._theory_clause(conflict)
                    if self._unsat:
                        return UNSAT
                    if conflict is None:
                        continue  # propagate the literal it asserted
            if conflict is None:
                # Re-establish assumption levels 1..n, then decide.
                lvl = len(self.trail_lim)
                pending = None
                failed = False
                while lvl < n_assumptions:
                    lit = assumptions[lvl]
                    value = self._value(lit)
                    if value is True:
                        # Already implied: give it its own (empty) level so
                        # level bookkeeping matches MiniSat's scheme.
                        self.trail_lim.append(len(self.trail))
                        lvl += 1
                    elif value is False:
                        failed = True
                        break
                    else:
                        pending = lit
                        break
                if failed:
                    # The assumption is falsified by the clauses plus the
                    # earlier assumptions: UNSAT under assumptions only.
                    self._backtrack(0)
                    return UNSAT
                if pending is not None:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(pending, None)
                    continue
                if self._decide():
                    continue
                if theory is not None:
                    violated = self._complete()
                    if violated is not None:
                        self._decide_open(violated)
                        continue
                if final_check is None:
                    return SAT
                self._pending = []
                try:
                    verdict = final_check()
                    refinements = self._pending
                finally:
                    self._pending = None
                if verdict:
                    if refinements:
                        raise RuntimeError("final_check accepted and refined")
                    return SAT
                if verdict is None:
                    self._backtrack(0)
                    return None
                if not refinements:
                    # The same full assignment would come straight back.
                    raise RuntimeError("final_check refuted without a clause")
                self._uncomplete()
                conflict = self._refine(refinements)
                if self._unsat:
                    return UNSAT
            if conflict is not None:
                conflicts += 1
                self.stats.conflicts += 1
                if not self.trail_lim:
                    self._unsat = True
                    return UNSAT
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._unsat = True
                        return UNSAT
                else:
                    index = self._attach(learned, learned=True)
                    self._enqueue(learned[0], index)
                self.stats.learned += 1
                self.stats.learned_literals += len(learned)
                self._decay()
                if max_conflicts is not None and conflicts >= max_conflicts:
                    self._backtrack(0)
                    return None
            if interrupt is not None and interrupt():
                self._backtrack(0)
                return None
            # A refuted model counts toward the next restart like a
            # conflict: a final check that keeps refuting models would
            # otherwise walk one corner of the space for good.
            restart_count += 1
            if restart_count >= restart_limit:
                restart_count = 0
                restart_number += 1
                restart_limit = _RESTART_BASE * luby(restart_number)
                self.stats.restarts += 1
                self._backtrack(0)

    def _theory_clause(self, lits):
        """Attach a clause a theory returned and classify it.

        Ordered for the watches — the unassigned literal first, then the
        false ones from the highest level down — it stays in the clause
        database for good.  With an unassigned literal it is a lemma:
        that literal is enqueued with the clause as its reason and None
        is returned.  Otherwise it is a conflict: returned for analysis
        when a literal sits on the current level, else backjumped over by
        :meth:`_refine`, which returns what is left to analyse (or None).
        A lemma has two literals or more; a one-literal conflict on the
        current level is not attached (analysis learns it as a unit)."""
        assign, level = self.assign, self.level
        current = len(self.trail_lim)
        lits = sorted(
            lits,
            key=lambda lit: current + 1
            if assign[abs(lit)] is None
            else level[abs(lit)],
            reverse=True,
        )
        if lits and assign[abs(lits[0])] is None:
            self.stats.lemmas += 1
            self._enqueue(lits[0], self._attach(lits, learned=False))
            return None
        self.stats.theory_conflicts += 1
        if lits and level[abs(lits[0])] == current:
            if len(lits) > 1:
                self._attach(lits, learned=False)
            return lits
        conflict = self._refine([lits])
        if conflict is None:
            self.stats.conflicts += 1  # settled by the backjump alone
        return conflict

    def _refine(self, refinements):
        """Add the clauses a final check refuted a full assignment with.

        One clause false under the assignment is kept in place: the
        search backjumps to the level below which the clause stops being
        false — asserting its last literal there when that literal is
        alone on its level, or returning the clause for conflict analysis
        when two share the top level.  One false only through the
        completion (see :meth:`_complete`, taken back by now) is watched on
        two of the literals it set, or asserts the one.  Anything else
        (several clauses, a clause not false) is added at level 0, as
        between ``solve()`` calls.  Returns the clause to analyse, or
        None."""
        lits = list(dict.fromkeys(refinements[0]))
        level = self.level
        if len(refinements) != 1 or not lits or any(
            abs(lit) > self.num_vars or self._value(lit) is True
            for lit in lits
        ):
            for clause in refinements:
                self.add_clause(clause)
            return None
        open_lits = [lit for lit in lits if self._value(lit) is None]
        if open_lits:
            if len(lits) == 1:
                self.add_clause(lits)
                return None
            false = [lit for lit in lits if self._value(lit) is False]
            false.sort(key=lambda lit: level[abs(lit)], reverse=True)
            index = self._attach(open_lits + false, learned=False)
            if len(open_lits) == 1:
                self._enqueue(open_lits[0], index)
            return None
        lits = [lit for lit in lits if level[abs(lit)] > 0]
        if not lits:
            self._unsat = True
            return None
        lits.sort(key=lambda lit: level[abs(lit)], reverse=True)
        if len(lits) == 1:
            self._backtrack(0)
            self._enqueue(lits[0], None)
            return None
        top = level[abs(lits[0])]
        second = level[abs(lits[1])]
        if top > second:
            self._backtrack(second)
            self._enqueue(lits[0], self._attach(lits, learned=False))
            return None
        self._backtrack(top)
        self._attach(lits, learned=False)
        return lits

    def model(self):
        """Assignment after SAT: {var: bool} (level-0 units included)."""
        assign = self.assign
        return {
            var: assign[var]
            for var in range(1, self.num_vars + 1)
            if assign[var] is not None
        }
