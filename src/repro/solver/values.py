"""Reads-from values as a theory, checked inside the CDCL search.

The paper's solver only has to pick a reads-from map and an order: once
every read has a source write, each read's value follows by evaluating
the source's stored expression, and ``Fpath ∧ Fbug`` is a plain
evaluation.  :class:`Values` is that evaluation, over a partial
reads-from map: evaluating an expression either gives its value and its
*cone* — the reads whose choices the value depends on, transitively
through the written expressions — or stops at the first read that has no
choice yet.  It is the one value evaluator: the in-search theory below
and the full-model check of the core without a theory hook
(:func:`check_values`, through
:meth:`repro.solver.smt.ClapSmtSolver._check_values`) both use it.

:class:`ValuesTheory` wraps the Frw theory
(:class:`~repro.solver.frw.FrwTheory`), which wraps the order theory, on
the core's one theory hook.  It lets them reach their fixpoint first —
a choice they refute is never evaluated — and then, for each reads-from
choice ``rf(r, w)`` that turned true, evaluates the path conditions and
bug expressions that were waiting for ``r``.  An expression whose cone is
complete and that is false — or whose evaluation raises a runtime error
or meets a cyclic value dependency — is a conflict over exactly its
cone's choice literals: the clause the full-model check blocks a model
with, found as soon as it is false.

Nothing is re-evaluated that backtracking did not touch:

* an expression that stopped at a read without a choice waits on that
  read, and is evaluated again when the read's choice turns true;
* every evaluation also parks the expression on the read it consulted
  that was chosen last (highest trail position).  Retracting that
  choice — the first of its cone to go — reopens the expression, which
  is evaluated again at the next call: its evaluation may now stop
  elsewhere, or finish without the read it waited on;
* a read's computed value is kept the same way, parked on the last
  chosen read of its own cone, and dropped when that choice goes.

An evaluation registers the expression under a stamp; evaluating it
again bumps the stamp, so its older registrations go stale.  A reopened
expression is evaluated at the next call, possibly after the search has
decided again, so its conflict can come late: with all its literals below
the current decision level.  The core backjumps over such a conflict
(:meth:`~repro.solver.cdcl.CDCLSolver.attach_theory`).

Propagation (forcing ``¬rf(r, w)`` when choosing ``w`` would falsify an
expression) was measured and left out: evaluating an expression under
each open candidate of the read it waits on cut conflicts, but cost
more time than it saved on racey, aget and sim_race.

The theory holds the core's stats object and plain data, never the core
or the solver: a back-reference would put every solver in a reference
cycle, left for the cyclic collector with its whole constraint system.
"""

from repro.analysis.symbolic import sym_eval
from repro.constraints.model import INIT
from repro.runtime.errors import MiniRuntimeError


class _Missing(Exception):
    """Evaluation reached a read that has no reads-from choice."""

    def __init__(self, read):
        self.read = read


class _Cycle(Exception):
    """A read's value depends on itself through the chosen writes."""


class Values(dict):
    """Fpath ∧ Fbug over a partial reads-from map.

    ``source`` maps a read uid to its chosen source (a write uid or
    :data:`INIT`); ``rank`` maps it to a number that orders the choices
    (the theory uses trail positions).  ``known`` caches, per read,
    ``(value, cone, top)``: ``cone`` the frozenset of reads the value
    depends on (the read included) and ``top`` its highest-ranked read.
    Reads whose value was computed since :attr:`computed` was last
    cleared are appended to it.

    The instance is itself the symbol environment :func:`sym_eval` reads:
    it stores nothing, so every symbol lookup comes through
    :meth:`__missing__` and is recorded in the current evaluation's
    ``touched`` list."""

    def __init__(self, system):
        super().__init__()
        self.exprs = [cond.expr for cond in system.conditions]
        self.reasons = ["path condition violated"] * len(self.exprs)
        self.exprs.extend(system.bug_exprs)
        self.reasons.extend(["bug predicate violated"] * len(system.bug_exprs))
        self.sym_read = {}
        for summary in system.summaries.values():
            for name, sap in summary.reads.items():
                self.sym_read[name] = sap.uid
        self.saps = system.saps
        self.initial = system.initial_values
        self.source = {}
        self.rank = {}
        self.known = {}
        self.computed = []
        self.touched = []
        self.resolving = set()

    def check(self, index):
        """Evaluate expression ``index``: ``(failure, touched, missing)``.

        ``missing`` is the read without a choice the evaluation stopped
        at, else None; ``failure`` is None when the expression holds (or
        could not be finished), else the reason it fails.  ``touched``
        lists the reads the evaluation consulted, in order; its cone (see
        :meth:`cone`) is what the outcome depends on."""
        self.touched = touched = []
        try:
            if sym_eval(self.exprs[index], self):
                return None, touched, None
            return self.reasons[index], touched, None
        except _Missing as missing:
            return None, touched, missing.read
        except _Cycle:
            return "cyclic value dependency", touched, None
        except MiniRuntimeError as exc:
            return str(exc), touched, None

    def cone(self, touched):
        """The reads whose choices decide an evaluation that touched
        ``touched``."""
        cone = set()
        known = self.known
        for read in touched:
            entry = known.get(read)
            if entry is None:
                cone.add(read)  # on the stack of a failed evaluation
            else:
                cone |= entry[1]
        return cone

    def top(self, touched):
        """The highest-ranked chosen read in the cone of ``touched``, or
        None."""
        known, rank = self.known, self.rank
        top = None
        for read in touched:
            entry = known.get(read)
            if entry is not None:
                read = entry[2]
            elif read not in rank:
                continue  # the read without a choice
            if top is None or rank[read] > rank[top]:
                top = read
        return top

    def __missing__(self, name):
        read = self.sym_read[name]
        self.touched.append(read)
        entry = self.known.get(read)
        if entry is not None:
            return entry[0]
        return self._resolve(read)

    def _resolve(self, read):
        if read in self.resolving:
            raise _Cycle()
        source = self.source.get(read)
        if source is None:
            raise _Missing(read)
        if source == INIT:
            value = self.initial[self.saps[read].addr]
            entry = (value, frozenset((read,)), read)
        else:
            outer = self.touched
            self.touched = inner = []
            self.resolving.add(read)
            try:
                value = sym_eval(self.saps[source].value, self)
            except (_Missing, _Cycle, MiniRuntimeError):
                # Where the evaluation stopped depends on what the write's
                # evaluation consulted: hand it to the caller's.
                outer.extend(inner)
                raise
            finally:
                self.touched = outer
                self.resolving.discard(read)
            known, rank = self.known, self.rank
            cone = {read}
            top = read
            for dep in inner:
                dep_entry = known[dep]
                cone |= dep_entry[1]
                if rank[dep_entry[2]] > rank[top]:
                    top = dep_entry[2]
            entry = (value, frozenset(cone), top)
        self.known[read] = entry
        self.computed.append(read)
        return entry[0]


def check_values(system, rf):
    """Evaluate Fpath ∧ Fbug under the full reads-from map ``rf``.

    Returns ``(cone, failure)``: ``failure`` is None when every
    expression holds, else the reason the first false one (in
    :attr:`Values.exprs` order) fails, and ``cone`` the reads whose
    choices decide it."""
    values = Values(system)
    values.source = rf
    values.rank = dict.fromkeys(rf, 0)
    for index in range(len(values.exprs)):
        failure, touched, missing = values.check(index)
        if missing is not None:
            raise KeyError(missing)
        if failure is not None:
            return values.cone(touched), failure
    return set(), None


class ValuesTheory:
    """Fpath ∧ Fbug checked as reads-from choices are made.

    ``choices`` maps each reads-from choice variable to its
    ``(read, source)``.  ``stats`` is the core's
    :class:`~repro.constraints.stats.SolverPhaseStats` (``value_conflicts``
    counts this theory's conflicts).  ``inner`` runs first: values are
    checked once it has nothing more to say about the trail."""

    def __init__(self, system, choices, stats, inner):
        self.values = Values(system)
        self.inner = inner
        self.stats = stats
        size = max(choices, default=0) + 1
        self.read_of = [None] * size
        self.source_of = [None] * size
        for var, (read, source) in choices.items():
            self.read_of[var] = read
            self.source_of[var] = source
        self.var_of = {}  # chosen read -> its true choice variable
        self.chosen = []  # chosen reads in trail order
        # An expression's evaluation registers it as ``(index, stamp)``:
        # on the read it stopped at, if any, and on the last chosen read
        # of what it consulted.  Evaluating it again bumps its stamp, so
        # older registrations go stale.
        self.stamp = [0] * len(self.values.exprs)
        self.waiting = {}  # read -> registrations waiting for its choice
        self.parked = {}  # read -> registrations its retraction reopens
        self.cached = {}  # read -> reads whose known value it chose last
        self.recheck = []  # registrations reopened by backtracking
        self.head = 0
        self.inner_head = 0
        # With no choice made yet, each expression waits on the first read
        # it needs.  One that needs none and is false makes the system
        # unsatisfiable: the caller adds the empty clause.
        conflict, _rest = self._drain([(index, 0) for index in range(len(self.stamp))])
        self.refuted = conflict is not None

    def assign(self, trail, start):
        """Run the inner theory to its fixpoint, then check the
        expressions backtracking reopened and those the choices on
        ``trail[self.head:]`` complete.  Returns ``(conflict, stop)``
        like the order theory; this theory and the inner one keep their
        own heads, and ``stop`` is the lower of the two."""
        conflict, self.inner_head = self.inner.assign(trail, self.inner_head)
        if conflict is not None:
            return conflict, min(self.head, self.inner_head)
        if self.recheck:
            conflict, self.recheck = self._drain(self.recheck)
            if conflict is not None:
                return conflict, self.head
        read_of = self.read_of
        size = len(read_of)
        position = self.head
        end = len(trail)
        while position < end:
            var = trail[position]
            if 0 < var < size and read_of[var] is not None:
                conflict = self._chosen(var, position)
                if conflict is not None:
                    self.head = position
                    return conflict, position
            position += 1
        self.head = end
        return None, end

    def _chosen(self, var, position):
        read = self.read_of[var]
        if read not in self.var_of:  # else resuming after a conflict
            self.var_of[read] = var
            self.values.source[read] = self.source_of[var]
            self.values.rank[read] = position
            self.chosen.append(read)
        waiting = self.waiting.pop(read, None)
        if not waiting:
            return None
        conflict, rest = self._drain(waiting)
        if rest:
            self.waiting[read] = rest
        return conflict

    def _drain(self, registrations):
        """Evaluate the expressions of the live ``registrations`` in
        order.  Returns ``(conflict, rest)``: the first conflict (or
        None) and the registrations not looked at yet."""
        values, stamp = self.values, self.stamp
        waiting, parked = self.waiting, self.parked
        for k, (index, mark) in enumerate(registrations):
            if stamp[index] != mark:
                continue
            mark += 1
            stamp[index] = mark
            failure, touched, missing = values.check(index)
            self._park_computed()
            if missing is not None:
                entry = waiting.get(missing)
                if entry is None:
                    waiting[missing] = [(index, mark)]
                else:
                    entry.append((index, mark))
            top = values.top(touched)
            if top is not None:
                entry = parked.get(top)
                if entry is None:
                    parked[top] = [(index, mark)]
                else:
                    entry.append((index, mark))
            if failure is None:
                continue
            self.stats.value_conflicts += 1
            # The cone is a set of uids, whose iteration order moves with
            # the hash seed: the clause lists its choices in trail order.
            var_of = self.var_of
            cone = sorted(values.cone(touched), key=values.rank.__getitem__)
            conflict = [-var_of[r] for r in cone]
            return conflict, registrations[k + 1:]
        return None, []

    def _park_computed(self):
        values = self.values
        known, cached = values.known, self.cached
        for read in values.computed:
            top = known[read][2]
            entry = cached.get(top)
            if entry is None:
                cached[top] = [read]
            else:
                entry.append(read)
        values.computed.clear()

    def phase(self, var, saved):
        return self.inner.phase(var, saved)

    def complete(self, assign):
        return self.inner.complete(assign)

    def backtrack(self, trail_len):
        chosen = self.chosen
        if chosen:
            values = self.values
            rank, source, known = values.rank, values.source, values.known
            var_of, parked, cached = self.var_of, self.parked, self.cached
            recheck = self.recheck
            while chosen and rank[chosen[-1]] >= trail_len:
                read = chosen.pop()
                del var_of[read], source[read], rank[read]
                stale = cached.pop(read, None)
                if stale:
                    for other in stale:
                        del known[other]
                reopened = parked.pop(read, None)
                if reopened:
                    recheck.extend(reopened)
        if self.head > trail_len:
            self.head = trail_len
        if self.inner_head > trail_len:
            self.inner_head = trail_len
        self.inner.backtrack(trail_len)
