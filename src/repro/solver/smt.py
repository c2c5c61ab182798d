"""The monolithic CLAP solver: CDCL(T) over order and value theories.

This plays the role of STP in the paper's prototype ("the sequential
solver" of Table 1/Table 3).  Architecture:

Boolean skeleton (CDCL)
    Variables for reads-from choices, signal-wait mappings, and order
    atoms ``O_a < O_b``.  Because the schedule totally orders distinct
    SAPs, ``¬(O_a < O_b) ≡ O_b < O_a`` — one SAT variable serves both
    directions.

Frw theory (lazy)
    Frw's no-middle clauses and the pairwise exclusions of large choice
    groups are not enumerated at build.  The solver hands
    :class:`~repro.solver.frw.FrwTheory` the structure they come from —
    per address the order literal of each pair of writes, per read one
    record per candidate write, each large choice group once — and
    counts the clauses the fixed-order closure decides with bitsets.  A
    clause is formed, and enters the SAT core, only when it propagates or
    conflicts.  The frozen reference core gets them all up front
    (:func:`_enumerate_no_middle`).  ``SmtResult.build_time`` is the
    construction time on its own.

Loading
    The encoder emits F as integers: its atom table numbers the
    variables, and the clauses are flat per-kind literal lists.  The
    solver folds the fixed-order closure's constants into them and hands
    the result to the core in one bulk
    :meth:`~repro.solver.cdcl.CDCLSolver.load`, which skips the
    per-clause dedupe and tautology scan the encoder makes unnecessary.

Order theory
    The fixed edges (Fmo + fixed Fso) form a DAG whose transitive closure
    is precomputed; order atoms implied either way become unit clauses up
    front.  The rest runs inside the CDCL search
    (:class:`~repro.solver.order.OrderTheory`): every assigned atom adds
    an edge to an incrementally maintained DAG, and an edge that closes a
    cycle yields a conflict clause over the atom literals on it, analysed
    like any other conflict.  No full assignment with a cyclic order ever
    reaches the schedule checks.  (The frozen reference core has no theory
    hook; for it the cycle check runs after each SAT solution.)

Value theory (in the search)
    Reads-from choices fix each read's source write, hence (recursively)
    reads' concrete values.  :class:`~repro.solver.values.ValuesTheory`
    sits in front of the Frw theory on the core's hook and evaluates each
    path condition and the bug predicate as soon as every read in its
    dependency cone has a choice; a false one is a conflict over exactly
    that cone's choice literals.  The frozen reference core evaluates
    them on each full model instead (:meth:`ClapSmtSolver._check_values`,
    the same evaluator) and blocks a refuted model with that clause.

The SAT core runs the schedule checks below as its ``final_check`` and
backjumps over a refuting clause instead of restarting the search from
decision level 0.

The satisfying total order is extracted by a greedy topological sort that
prefers staying on the current thread — linearizations of one solution
differ only in switch count, so greediness directly reduces the reported
``#cs`` — and the result is re-checked by the
:class:`~repro.solver.validate.ScheduleValidator` before being returned.

Incremental bound loop
    :func:`solve_constraints_bounded` realizes Section 4.2's
    minimal-context-switch loop on top of this solver.  One
    :class:`ClapSmtSolver` (hence one SAT instance, one variable
    numbering — the encoder's) serves every bound round
    ``c = 0, 1, 2, …``: each round gets a fresh *guard variable*
    ``g_c``, solutions that need more than ``c`` switches are blocked by
    guarded clauses ``¬g_c ∨ block`` active only while ``g_c`` is assumed,
    and moving to round ``c + 1`` simply drops the assumption — the
    blocks evaporate while every theory conflict clause and every clause
    the SAT core learned stays.  ``incremental=False`` rebuilds the
    encoder output into a fresh solver per round (the pre-incremental
    behavior), kept as the differential baseline and as the "old" column
    of ``BENCH_solver.json``.
"""

import time
from dataclasses import dataclass, field

from repro.runtime import events as ev
from repro.constraints.context_switch import count_context_switches
from repro.constraints.model import INIT, ORDER, RF, SW, clause_groups
from repro.solver.cdcl import CDCLSolver, SAT, UNSAT
from repro.solver.frw import FrwTheory, no_middle_clause
from repro.solver.order import OrderTheory
from repro.solver.validate import ScheduleValidator, StepModel
from repro.solver.values import ValuesTheory, check_values

# Iterations (see _Budget) the CEGAR loop may spend per solve before
# giving up with "iteration limit".
MAX_ITERATIONS = 100_000


@dataclass
class SmtResult:
    ok: bool
    reason: str = ""
    schedule: list = field(default_factory=list)
    reads_from: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    context_switches: int = -1
    # Reads-from combinations tried: models examined plus value conflicts
    # (see _Budget).
    iterations: int = 0
    solve_time: float = 0.0
    # Bound-loop extras (solve_constraints_bounded only): the round at
    # which the schedule was found, per-round counter/wall-time dicts,
    # and the SAT core's cumulative SolverPhaseStats as a dict.
    bound: int = -1
    round_stats: list = field(default_factory=list)
    sat_stats: dict = field(default_factory=dict)
    # How many of F's clauses the fixed-order closure satisfied when the
    # solver loaded the system (they never reach the SAT core).
    decided_clauses: int = 0
    # Seconds spent constructing the solver (closure, CNF and Frw
    # structure), included in ``solve_time``.
    build_time: float = 0.0
    # Portfolio extras (solve_constraints_portfolio only): the
    # PortfolioStats counters as a dict — winner identity, resolved
    # rungs, cancellations.
    portfolio: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


class _Budget:
    """The CEGAR loop's iteration count and stop rules.

    An iteration is one reads-from combination tried: a full model the
    loop examines, or a value conflict the values theory raised inside
    the search (the combination the reference core's post-hoc check
    meets as a refuted model).  ``spend(models)`` charges ``models``
    plus the value conflicts since the last charge and answers why to
    stop — ``""`` when the round's budget is spent, ``"timeout"``,
    ``"iteration limit"`` — or None."""

    def __init__(self, stats, start, max_seconds, max_iterations):
        self.stats = stats  # the core's SolverPhaseStats, or None
        self.charged = stats.value_conflicts if stats is not None else 0
        self.start = start
        self.max_seconds = max_seconds
        self.max_iterations = max_iterations
        self.iterations = 0
        self.round = 0  # iterations of the current round
        self.round_limit = None

    def new_round(self, limit):
        self.round = 0
        self.round_limit = limit

    def spend(self, models):
        if self.stats is not None:
            refuted = self.stats.value_conflicts - self.charged
            self.charged += refuted
            self.iterations += refuted
            self.round += refuted
        if self.round_limit is not None and self.round >= self.round_limit:
            return ""
        self.iterations += models
        self.round += models
        if (
            self.max_seconds is not None
            and time.monotonic() - self.start > self.max_seconds
        ):
            return "timeout"
        if self.iterations > self.max_iterations:
            return "iteration limit"
        return None


class _Reachability:
    """Transitive closure of the fixed order edges, via bitsets."""

    def __init__(self, uids, edges):
        self.index = {uid: i for i, uid in enumerate(uids)}
        n = len(uids)
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in edges:
            ia, ib = self.index[a], self.index[b]
            succ[ia].append(ib)
            indeg[ib] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
        if len(order) != n:
            raise ValueError("fixed order constraints are cyclic (unsat)")
        # Node -> bitset of the nodes it reaches / that reach it.
        self.reach = [0] * n
        for node in reversed(order):
            mask = 0
            for nxt in succ[node]:
                mask |= self.reach[nxt] | (1 << nxt)
            self.reach[node] = mask
        self.pred = [0] * n
        for node in order:
            mask = self.pred[node] | (1 << node)
            for nxt in succ[node]:
                self.pred[nxt] |= mask

    def reaches(self, a, b):
        return bool(self.reach[self.index[a]] >> self.index[b] & 1)


def _find_cycle(adjacency):
    """Iterative DFS cycle search.  ``adjacency``: node -> [(succ, lit)].
    Returns the list of atom literals on one cycle, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adjacency[root]))]
        path = [root]
        edge_lits = []
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ, lit in it:
                if color.get(succ, BLACK) == GRAY:
                    # Found a cycle: path from succ..node plus this edge.
                    start = path.index(succ)
                    lits = edge_lits[start:] + [lit]
                    return [l for l in lits if l is not None]
                if color.get(succ, BLACK) == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, iter(adjacency[succ])))
                    path.append(succ)
                    edge_lits.append(lit)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[node] = BLACK
                path.pop()
                if edge_lits:
                    edge_lits.pop()
    return None


def _enumerate_no_middle(records, before, out):
    """Append to ``out`` every no-middle clause of one write universe's
    ``(choices, afters, numbers)`` read records, with the closure's
    constants folded (:func:`no_middle_clause`); returns how many of them
    a constant satisfies."""
    decided = 0
    for choices, afters, ids in records:
        for p, i in enumerate(ids):
            not_rf = -choices[p]
            for q, j in enumerate(ids):
                if q == p:
                    continue
                clause = no_middle_clause(not_rf, before[(j, i)], afters[q])
                if clause is None:
                    decided += 1
                else:
                    out.append(clause)
    return decided


class ClapSmtSolver:
    """CDCL(T) solver for one :class:`ConstraintSystem`."""

    def __init__(self, system, sat_factory=None):
        start = time.monotonic()
        self.system = system
        self.sat = (sat_factory or CDCLSolver)()
        self.validator = ScheduleValidator(system)
        # The encoder's numbering is the core's: every solver built from
        # this system — fresh-per-round or incremental — uses identical
        # variable ids, which is what makes learned-clause and assumption
        # reuse across bound rounds sound and comparable.
        n_vars = system.n_vars
        self.sat.ensure_var(n_vars)
        uids = list(system.saps)
        self.fixed_edges = [(e.a, e.b) for e in system.hard_edges]
        # Raises ValueError on a cyclic recording: the unsat signal
        # callers expect.
        self.reach = _Reachability(uids, self.fixed_edges)
        # A core that can check a theory inside its search gets the lazy
        # Frw clauses in front of the order theory.
        self.order = None
        self.frw = None
        if hasattr(self.sat, "attach_theory"):
            self.order = self._order_theory(uids)
            self.frw = FrwTheory(self.sat.assign, self.order)
            self.sat.attach_theory(self.frw)
        # F's clauses the fixed-order closure satisfies at build.
        self.decided_clauses = 0
        self.fixed = self._closure_constants()
        # used[var]: the build met var other than as a closure constant.
        # Only these variables are atoms of the search.
        self.used = bytearray(n_vars + 1)
        self._rf_vars = None
        self._build()
        atoms, kinds, used = system.atoms, system.atom_kinds, self.used
        if self.order is not None:
            node = self._node
            reads = {}
            for var in range(1, n_vars + 1):
                if not used[var]:
                    continue
                if kinds[var] == ORDER:
                    lo, hi = atoms[var]
                    self.order.add_atom(var, node[lo], node[hi])
                elif kinds[var] == RF:
                    read, source = atoms[var]
                    reads.setdefault(read, []).append(
                        (var, -1 if source == INIT else node[source])
                    )
                else:
                    signal, wait = atoms[var]
                    reads.setdefault(wait, []).append((var, node[signal]))
            for read, choices in reads.items():
                self.order.add_read(node[read], choices)
        # The values theory goes in front of whatever Frw theory the build
        # attached: values -> Frw -> order, one hook.
        self.values = None
        if self.frw is not None:
            choices = {
                var: atoms[var]
                for var in range(1, n_vars + 1)
                if used[var] and kinds[var] == RF
            }
            self.values = ValuesTheory(
                system, choices, self.sat.stats, self.sat.theory
            )
            self.sat.attach_theory(self.values)
            if self.values.refuted:
                self.sat.add_clause([])
            # Atoms the build never met (the closure decided them) are in
            # no clause: deciding them would only add levels.  Order atoms
            # are read off the order theory once the choices are made.
            self.sat.never_decide(
                [
                    var
                    for var in range(1, n_vars + 1)
                    if not used[var] or kinds[var] == ORDER
                ]
            )
        self.build_time = time.monotonic() - start

    def _order_theory(self, uids):
        """The in-search order theory over the SAPs and fixed edges.

        Nodes are numbered threads-descending, program order within a
        thread, so until the search learns otherwise the completion runs
        later threads' SAPs first — whole threads at a time, the fewest
        switches — and a reads-from decision picks the write that order
        makes latest before its read (:meth:`OrderTheory.phase`)."""
        ranked = sorted(uids, key=lambda uid: uid[1])
        ranked.sort(key=lambda uid: uid[0], reverse=True)
        node = {uid: i for i, uid in enumerate(ranked)}
        self._node = node
        return OrderTheory(
            len(node), [(node[a], node[b]) for a, b in self.fixed_edges]
        )

    # -- loading --------------------------------------------------------------

    def _closure_constants(self):
        """Per variable, True or False when the fixed-order closure
        decides its order atom ``O_lo < O_hi``, else None."""
        atoms, kinds = self.system.atoms, self.system.atom_kinds
        reaches = self.reach.reaches
        fixed = [None] * len(atoms)
        for var in range(1, len(atoms)):
            if kinds[var] == ORDER:
                lo, hi = atoms[var]
                if reaches(lo, hi):
                    fixed[var] = True
                elif reaches(hi, lo):
                    fixed[var] = False
        return fixed

    def _constant(self, lit):
        """``lit``, or True/False when the closure decides it."""
        var = abs(lit)
        value = self.fixed[var]
        if value is None:
            self.used[var] = 1
            return lit
        return value if lit > 0 else not value

    def _fold(self, clauses, out):
        """Append ``clauses`` to ``out`` with the closure's constants
        folded: a false literal is dropped, and a clause with a true one
        is left out and counted in ``decided_clauses`` (the literals after
        that one are not looked at)."""
        fixed, used = self.fixed, self.used
        decided = 0
        for lits in clauses:
            clause = []
            for lit in lits:
                var = lit if lit > 0 else -lit
                value = fixed[var]
                if value is None:
                    used[var] = 1
                    clause.append(lit)
                elif value is (lit > 0):
                    decided += 1
                    break
            else:
                out.append(clause)
        self.decided_clauses += decided

    def _rf_clauses(self):
        """The rf-before and rf-init clauses, read by read."""
        system = self.system
        rf_before, rf_init = system.rf_before, system.rf_init
        start = 0
        for sources in system.rf_candidates.values():
            end = start + 2 * (len(sources) - 1)
            for i in range(start, end, 2):
                yield rf_before[i], rf_before[i + 1]
            for i in range(start, end, 2):
                yield rf_init[i], rf_init[i + 1]
            start = end

    def _build(self):
        """Load F's integer image into the SAT core.

        The clauses go to the core in the encoder's order — Fso, the rf
        clauses, the goals, the exactly-one groups — through one bulk
        :meth:`~repro.solver.cdcl.CDCLSolver.load` (a core without it gets
        them one :meth:`add_clause` at a time).  A choice group with more
        than two literals and Frw's no-middle clauses go to the Frw
        theory as structure instead, when the core has one; a core without
        a theory hook gets all their clauses up front."""
        system = self.system
        out = []
        self._fold(clause_groups(system.sync), out)
        self._fold(self._rf_clauses(), out)
        self._fold(clause_groups(system.goals), out)
        used = self.used
        for flat, exactly in (
            (system.rf_one, True),
            (system.sw_once, False),
            (system.rf_horizon, False),
        ):
            for group in clause_groups(flat):
                for var in group:  # choice variables, never constants
                    used[var] = 1
                if exactly:
                    out.append(group)
                self._exclude(group, out)
        self._no_middle(out)
        load = getattr(self.sat, "load", None)
        if load is not None:
            load(out)
        else:
            for clause in out:
                self.sat.add_clause(clause)

    def _exclude(self, group, out):
        """At most one of ``group``: a theory group beyond a pair,
        pairwise clauses otherwise."""
        if len(group) > 2 and self.frw is not None:
            self.frw.add_group(group)
            return
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                out.append([-group[i], -group[j]])

    def _no_middle(self, out):
        """Frw's no-middle clauses ``¬rf(r, w) ∨ O_w' < O_w ∨ O_r < O_w'``,
        for each read ``r`` and pair of its write candidates ``w ≠ w'``,
        from the encoder's write universes: per universe the literal of
        each pair of writes and per read its choice variables and
        ``O_r < O_w`` literals.

        With a Frw theory no clause is enumerated: the universe goes to
        the theory as structure.  The clauses the fixed-order closure
        decides are counted with the reachability bitsets: ``O_w' < O_w``
        is true for ``w'`` in pred(w) and false in succ(w), ``O_r < O_w'``
        is true for ``w'`` in succ(r) and false in pred(r).  A ``w'`` that
        makes both false reduces the clause to the unit ``¬rf(r, w)``.
        Without one every clause is enumerated into ``out``: one a
        constant satisfies is counted in ``decided_clauses``."""
        system = self.system
        constant = self._constant
        rf_before, rf_init = system.rf_before, system.rf_init
        index, succ, pred = self.reach.index, self.reach.reach, self.reach.pred
        lazy = self.frw is not None
        decided = units = 0
        for writes, pairs, reads in system.universes:
            before = {}
            for t in range(0, len(pairs), 3):
                j, i = pairs[t], pairs[t + 1]
                lit = before[(j, i)] = constant(pairs[t + 2])
                before[(i, j)] = (not lit) if lit is True or lit is False else -lit
            nodes = [index[w] for w in writes]
            records = []
            for read, offset, ids in reads:
                span = range(2 * offset, 2 * (offset + len(ids)), 2)
                choices = [-rf_before[p] for p in span]
                afters = [constant(rf_init[p + 1]) for p in span]
                records.append((choices, afters, ids))
                if not lazy:
                    continue
                node = index[read]
                candidates = 0
                for i in ids:
                    candidates |= 1 << nodes[i]
                after_true = succ[node] & candidates
                after_false = pred[node] & candidates
                for p, i in enumerate(ids):
                    node = nodes[i]
                    decided += (
                        (pred[node] & candidates | after_true) & ~(1 << node)
                    ).bit_count()
                    unit = (succ[node] & after_false).bit_count()
                    if unit:
                        units += unit
                        out.append([-choices[p]])
            if lazy:
                self.frw.add_universe(len(writes), before, records)
            else:
                decided += _enumerate_no_middle(records, before, out)
        if lazy:
            self.frw.no_middle_built += units
        self.decided_clauses += decided

    # -- theory checks ---------------------------------------------------------

    def _is_atom(self, var):
        """Whether ``var`` is an atom of the search (not a closure
        constant, not a bound-ladder variable)."""
        return var < len(self.used) and self.used[var]

    def _assigned_choices(self, model):
        """The reads-from map and signal-wait pairs of a SAT model."""
        atoms, kinds = self.system.atoms, self.system.atom_kinds
        rf = {}
        sw = []
        for var, value in model.items():
            if not value or not self._is_atom(var):
                continue
            kind = kinds[var]
            if kind == RF:
                read, source = atoms[var]
                rf[read] = source
            elif kind == SW:
                sw.append(atoms[var])
        return rf, sw

    def _order_edges(self, model):
        """The model's order atoms as ``(before, after, literal)`` edges."""
        atoms, kinds = self.system.atoms, self.system.atom_kinds
        edges = []
        for var, value in model.items():
            if self._is_atom(var) and kinds[var] == ORDER:
                lo, hi = atoms[var]
                if value:
                    edges.append((lo, hi, var))
                else:
                    edges.append((hi, lo, -var))
        return edges

    def _order_graph(self, atom_edges):
        """Adjacency of the fixed edges plus ``atom_edges``."""
        adjacency = {uid: [] for uid in self.system.saps}
        for a, b in self.fixed_edges:
            adjacency[a].append((b, None))
        for a, b, sat_lit in atom_edges:
            adjacency[a].append((b, sat_lit))
        return adjacency

    def _check_order(self, atom_edges):
        """The order graph and a conflict clause for one of its cycles
        (None when acyclic)."""
        adjacency = self._order_graph(atom_edges)
        cycle_lits = _find_cycle(adjacency)
        if cycle_lits is None:
            return adjacency, None
        return adjacency, [-l for l in cycle_lits]

    def _check_values(self, rf):
        """Evaluate Fpath ∧ Fbug under a full reads-from map, for the
        core without a theory hook.

        Returns ``(blamed_read_uids, failure_reason)``: on failure the
        blamed set is the *transitive* reads-from dependency cone of the
        first violated expression (:func:`repro.solver.values.check_values`,
        the evaluator the in-search values theory uses)."""
        return check_values(self.system, rf)

    def rf_var(self, read, source):
        """The variable of the choice ``rf(read <- source)``, or None."""
        if self._rf_vars is None:
            kinds = self.system.atom_kinds
            self._rf_vars = {
                atom: var
                for var, atom in enumerate(self.system.atoms)
                if var and kinds[var] == RF
            }
        return self._rf_vars.get((read, source))

    def _block_choices(self, rf, consulted):
        lits = []
        for read_uid in consulted:
            source = rf.get(read_uid)
            if source is None:
                continue
            var = self.rf_var(read_uid, source)
            if var is not None:
                lits.append(-var)
        if not lits:
            return False
        self.sat.add_clause(lits)
        return True

    # -- schedule extraction -------------------------------------------------

    def _linearize(self, adjacency, start_thread=None):
        """Greedy topological sort preferring the current thread."""
        indeg = {uid: 0 for uid in adjacency}
        succ = {uid: [] for uid in adjacency}
        for uid, out in adjacency.items():
            for nxt, _ in out:
                succ[uid].append(nxt)
                indeg[nxt] += 1
        ready = {uid for uid, d in indeg.items() if d == 0}
        schedule = []
        current_thread = start_thread
        while ready:
            same = [uid for uid in ready if uid[0] == current_thread]
            if same:
                pick = min(same, key=lambda u: u[1])
            else:
                pick = min(ready, key=lambda u: (u[0], u[1]))
                current_thread = pick[0]
            ready.discard(pick)
            schedule.append(pick)
            for nxt in succ[pick]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.add(nxt)
        if len(schedule) != len(adjacency):
            raise RuntimeError("linearization failed on an acyclic graph?")
        return schedule

    def _linearize_feasible(
        self, adjacency, rf, start_thread=None, wake_map=None, node_budget=1200
    ):
        """Topological sort that also honors the operational rules the
        combo's semantic edges alone cannot express: the SAP step model's
        lock exclusion and condvar park/wake (two critical sections on one
        mutex have no fixed relative order, yet must not interleave; a
        woken wait re-takes a free mutex in the same step), and the
        combo's reads-from map (the edge puts the source before the read,
        but nothing in the graph stops *another* write from landing in
        between and changing the value).

        Greedy thread-continuation with backtracking: taking a lock or
        ordering a write too early can wedge the walk, so dead ends back
        up and try the next thread.  ``wake_map`` maps a signal SAP uid to
        the wait SAP uid the combo pairs it with, steering each signal
        toward its intended waiter.  Deterministic; returns ``None`` when
        no completion is found within ``node_budget`` emitted-SAP
        attempts."""
        saps = self.system.saps
        blocking = StepModel.BLOCKING
        wake_map = wake_map or {}
        indeg = {uid: 0 for uid in adjacency}
        succ = {uid: [] for uid in adjacency}
        for uid, out in adjacency.items():
            for nxt, _ in out:
                succ[uid].append(nxt)
                indeg[nxt] += 1
        ready = {uid for uid, d in indeg.items() if d == 0}
        schedule = []
        budget = [node_budget]
        # addr -> the reads whose source the combo fixes.  Once a read's
        # source has run, no other write to the addr may land until the
        # read runs.
        fixed_reads = {}
        for read_uid in rf:
            sap = saps.get(read_uid)
            if sap is not None:
                fixed_reads.setdefault(sap.addr, []).append(read_uid)

        def runnable(model, uid):
            sap = saps[uid]
            if sap.kind in blocking and model.blocked(uid) is not None:
                return False
            if sap.kind == ev.READ and uid in rf:
                source = rf[uid]
                return model.last_writer.get(sap.addr) == (
                    None if source == INIT else source
                )
            if sap.kind == ev.WRITE:
                for read_uid in fixed_reads.get(sap.addr, ()):
                    if read_uid in model.done:
                        continue
                    source = rf[read_uid]
                    if source == INIT or (source != uid and source in model.done):
                        return False
            return True

        def wake(model, sap):
            """The thread signal ``sap`` wakes: its intended waiter if that
            one waits on the condvar, else the waiter with the smallest
            uid."""
            waiters = model.waiters(sap.addr)
            if not waiters:
                return None
            intended = wake_map.get(sap.uid)
            for w in waiters:
                if w.uid == intended:
                    return w.thread
            return min(waiters, key=lambda w: w.uid).thread

        def dfs(model, current_thread):
            relock = None
            if schedule:
                relock = model.forced_relock(schedule[-1])
            if not ready:
                return relock is None and len(schedule) == len(adjacency)
            eligible = sorted(
                (
                    uid
                    for uid in ready
                    if relock in (None, uid) and runnable(model, uid)
                ),
                key=lambda u: (u[0] != current_thread, u[0], u[1]),
            )
            last = eligible[-1] if eligible else None
            for uid in eligible:
                if budget[0] <= 0:
                    return False
                budget[0] -= 1
                # The last alternative may step this node's model itself.
                child = model if uid == last else model.clone()
                # Value failures are the validator's to report.
                sap = saps[uid]
                child.apply(
                    uid, wake(child, sap) if sap.kind == ev.SIGNAL else None
                )
                ready.discard(uid)
                schedule.append(uid)
                newly = []
                for nxt in succ[uid]:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        ready.add(nxt)
                        newly.append(nxt)
                if dfs(child, uid[0]):
                    return True
                schedule.pop()
                for nxt in newly:
                    ready.discard(nxt)
                for nxt in succ[uid]:
                    indeg[nxt] += 1
                ready.add(uid)
            return False

        if dfs(self.validator.model.clone(), start_thread):
            return schedule
        return None

    # -- main loop ----------------------------------------------------------

    def _try_model(self, combo_cache=None, reject_guard=None):
        """One CEGAR refinement step after a SAT answer.

        Returns ``((schedule, outcome, model, certified), None)`` on a
        theory-valid solution, ``(None, None)`` when a conflict clause was
        added and the search should continue, and ``(None, reason)`` on a
        fatal dead end (nothing left to block).  ``certified`` is True
        when the schedule (hence its switch count) is the combo's
        *canonical* one — a pure function of the reads-from/signal-wait
        choices, independent of which SAT model proposed them — and False
        when it is the fallback derived from this model's order atoms.
        Validator rejections depend on the model-derived schedule, so in
        the bound loop the resulting block must not outlive the round —
        another model of the same choices may linearize to a schedule the
        validator accepts; ``reject_guard`` (the round's ladder literal)
        scopes the block to the round instead of asserting it permanently.

        ``combo_cache`` (bound loop only) memoizes theory-valid
        reads-from/signal-wait combinations: when a later round retracts
        a combo's switch-bound block and the SAT core re-proposes it, the
        linearization and validation are served from the cache instead of
        being recomputed — theory-level reuse to match the SAT core's
        learned-clause reuse.  A cached schedule stays valid no matter
        which model re-proposed the combo, so skipping the per-model
        order-cycle check on a hit is sound (combos, not models, are what
        the bound loop blocks)."""
        model = self.sat.model()
        rf, sw = self._assigned_choices(model)
        combo_key = None
        if combo_cache is not None:
            combo_key = (frozenset(rf.items()), frozenset(sw))
            hit = combo_cache.get(combo_key)
            if hit is not None and hit is not False:
                schedule, outcome = hit
                return (schedule, outcome, model, True), None
        adjacency = None
        if self.order is None:
            # The frozen reference core checks the order after the fact.
            adjacency, conflict = self._check_order(self._order_edges(model))
            if conflict is not None:
                self.sat.add_clause(conflict)
                return None, None
        if self.values is None:
            # No values theory checked the expressions during the search.
            consulted, failure = self._check_values(rf)
            if failure is not None:
                if not self._block_choices(rf, consulted):
                    return None, (
                        "value conflict with no blockable choices: " + failure
                    )
                return None, None
        if combo_cache is not None and hit is not False:
            # The bound loop scores a combo by its schedule's switch
            # count, so derive the schedule from the combo's own semantic
            # edges where possible: the result is a function of the combo
            # alone, not of whichever SAT model happened to propose it —
            # fresh-per-round and incremental runs then agree on every
            # combo's cost, and the relaxed order usually needs fewer
            # switches than the model's arbitrary total order.  Only
            # canonical solutions are cached as solutions; a canonical
            # *failure* is cached as ``False`` so re-proposals of the
            # same combo skip the (expensive) feasibility walk.
            canonical = self._canonical_combo_solution(rf, sw)
            if canonical is not None:
                schedule, outcome = canonical
                combo_cache[combo_key] = (schedule, outcome)
                return (schedule, outcome, model, True), None
            combo_cache[combo_key] = False
        if adjacency is None:
            # The search kept the order acyclic.
            adjacency = self._order_graph(self._order_edges(model))
        schedule = self._linearize(adjacency)
        outcome = self.validator.validate(schedule)
        if not outcome.ok and combo_cache is None:
            # Single-shot mode blocks the whole combo below, so first give
            # the combo its own feasible walk: this model's order atoms may
            # be all that is wrong (e.g. a thread run between a wait and
            # the re-lock the runtime performs in the same step).
            canonical = self._canonical_combo_solution(rf, sw)
            if canonical is not None:
                schedule, outcome = canonical
                return (schedule, outcome, model, True), None
        if not outcome.ok:
            # The operational wait/signal semantics rejected this
            # solution.  The rejection is evidence against *this model's
            # schedule*, not against the whole choice combination —
            # another order-atom assignment of the same choices may
            # linearize to a schedule the validator accepts.  In the
            # bound loop (guard given) block just the model, scoped to
            # the round; in single-shot mode keep the coarser permanent
            # combo block (one solution is all that search needs).
            if reject_guard is not None:
                lits = self._model_block_lits(model)
                if not lits:
                    return None, (
                        "validator rejected and nothing to block: "
                        + outcome.reason
                    )
                self.sat.add_clause([reject_guard] + lits)
                return None, None
            lits = self._choice_block_lits(model)
            if not lits:
                return None, (
                    "validator rejected and nothing to block: " + outcome.reason
                )
            self.sat.add_clause(lits)
            return None, None
        return (schedule, outcome, model, False), None

    def _canonical_combo_solution(self, rf, sw):
        """Linearize a validated combo from its semantic edges only
        (reads-from, signal/wait, plus the fixed Fmo/Fso order) and
        re-validate.  Returns ``(schedule, outcome)`` or ``None`` when no
        relaxed schedule checks out — the caller falls back to the
        model-derived schedule.

        The relaxed order is linearized once per starting thread and the
        candidates validated cheapest-first (fewest context switches), so
        the canonical switch count is the best the greedy scheduler can do
        for this combo — deterministic, and as tight as the heuristic
        allows.  The bound loop's per-combo retirement level (hence the
        reported minimal bound) is minimal *relative to this canonical
        scheduler*; the incremental and the fresh-per-round paths share
        it, which is what makes their bounds comparable."""
        edges = []
        for read, source in rf.items():
            if source != INIT:
                edges.append((source, read, None))
        for signal, wait in sw:
            edges.append((signal, wait, None))
        adjacency, conflict = self._check_order(edges)
        if conflict is not None:
            return None
        wake_map = dict(sw)
        candidates = {}
        for start in sorted({uid[0] for uid in self.system.saps}):
            schedule = self._linearize_feasible(
                adjacency, rf, start_thread=start, wake_map=wake_map
            )
            if schedule is None:
                continue
            key = tuple(schedule)
            if key not in candidates:
                candidates[key] = count_context_switches(
                    schedule, self.system.summaries
                )
        for key, _ in sorted(candidates.items(), key=lambda kv: (kv[1], kv[0])):
            outcome = self.validator.validate(list(key))
            if outcome.ok:
                return list(key), outcome
        return None

    def _sat_stats(self):
        stats = getattr(self.sat, "stats", None)
        return stats.as_dict() if stats is not None else {}

    def _fail(self, reason, iterations, start, **extra):
        return SmtResult(
            False,
            reason=reason,
            iterations=iterations,
            solve_time=time.monotonic() - start,
            sat_stats=self._sat_stats(),
            decided_clauses=self.decided_clauses,
            build_time=self.build_time,
            **extra,
        )

    def _search(self, examine, interrupt, assumptions=None):
        """Run the SAT core until ``examine`` accepts a model (SAT), the
        space is exhausted (UNSAT) or ``examine`` or ``interrupt`` stops
        the search (None).

        ``examine()`` is one CEGAR step on the current model: True
        accepts it, False refutes it after adding a clause, None stops.
        A core with an in-search theory calls it on each full assignment
        and backjumps over each refutation, and asks ``interrupt()``
        after each conflict and refutation whether to stop; the frozen
        reference core, which has no theories, is re-solved from level 0
        after each refutation."""
        kwargs = {} if assumptions is None else {"assumptions": assumptions}
        if self.order is not None:
            return self.sat.solve(
                final_check=examine, interrupt=interrupt, **kwargs
            )
        while True:
            status = self.sat.solve(**kwargs)
            if status != SAT:
                return status
            verdict = examine()
            if verdict is not False:
                return SAT if verdict else None

    def solve(self, max_seconds=None, _start=None):
        start = time.monotonic() if _start is None else _start
        budget = _Budget(
            getattr(self.sat, "stats", None), start, max_seconds, MAX_ITERATIONS
        )
        found = None
        stop = None

        def examine():
            nonlocal found, stop
            stop = budget.spend(1)
            if stop is not None:
                return None
            found, stop = self._try_model()
            if stop is not None:
                return None
            return found is not None

        def interrupt():
            nonlocal stop
            stop = budget.spend(0)
            return stop is not None

        status = self._search(examine, interrupt)
        budget.spend(0)
        iterations = budget.iterations
        if status == UNSAT:
            return self._fail("unsatisfiable", iterations, start)
        if status is None:
            return self._fail(stop, iterations, start)
        schedule, outcome, _model, _certified = found
        return SmtResult(
            True,
            schedule=schedule,
            reads_from=outcome.reads_from,
            env=outcome.env,
            context_switches=outcome.context_switches,
            iterations=iterations,
            solve_time=time.monotonic() - start,
            sat_stats=self._sat_stats(),
            decided_clauses=self.decided_clauses,
            build_time=self.build_time,
        )

    # -- minimal-context-switch bound loop -----------------------------------

    def solve_bounded(
        self,
        max_cs,
        min_bound=0,
        max_iterations=MAX_ITERATIONS,
        max_seconds=None,
        round_iterations=2000,
        on_round=None,
        _start=None,
    ):
        """Section 4.2's incrementing loop over one solver instance.

        Rounds ``c = min_bound … max_cs`` each search for a theory-valid
        solution whose greedy linearization needs at most ``c`` context
        switches.  Solutions that need more are blocked by clauses guarded
        on the round's assumption variable, so the next round retracts
        them for free while keeping all learned clauses — the whole point
        of the incremental core.

        ``round_iterations`` caps the iterations each round spends
        (models examined plus value conflicts, see :class:`_Budget`).  An
        infeasible low bound can only be refuted by blocking theory-valid
        combinations one at a time, which on real traces is an enormous
        space; like the generate-and-validate driver's time-sliced rounds,
        an un-exhausted round is abandoned after its budget and the search
        moves to the next bound.  The result is then minimal with respect
        to the budget (best-effort), not a proof that smaller bounds are
        impossible.  Pass ``None`` for exhaustive rounds.

        ``on_round(entry)`` fires as each round closes with that round's
        stats entry (exhaustion evidence for the portfolio's minimality
        protocol)."""
        start = time.monotonic() if _start is None else _start
        # A SAT core without an assumption interface (the frozen reference
        # solver) cannot retract blocks between rounds: only a single
        # round — the fresh-solver-per-round driver's use — is sound.
        stats = getattr(self.sat, "stats", None)
        use_guard = stats is not None
        if not use_guard and max_cs > min_bound:
            raise TypeError(
                "multi-round bound search needs an assumption-capable SAT core"
            )
        budget = _Budget(stats, start, max_seconds, max_iterations)
        round_stats = []
        # Theory-level reuse across rounds: a combo's linearization and
        # validation are computed once and served from cache if the SAT
        # core ever re-proposes it.
        combo_cache = {}
        # Bound-ladder variables: ``ladder[j]`` reads "the current bound
        # is at least j".  Every round assumes the full ladder valuation
        # (true up to its own bound, false above), so a solution needing
        # k switches is retired with a single clause ``l_k ∨ ¬combo`` —
        # blocking it in every round below k at once.  No later round
        # wastes budget re-discovering it, and dropping the assumptions
        # retracts every block while the learned clauses stay.
        ladder = (
            {j: self.sat.new_var() for j in range(min_bound + 1, max_cs + 2)}
            if use_guard
            else {}
        )
        for c in range(min_bound, max_cs + 1):
            assumptions = (
                [
                    ladder[j] if j <= c else -ladder[j]
                    for j in range(min_bound + 1, max_cs + 2)
                ]
                if use_guard
                else None
            )
            round_start = time.monotonic()
            before = stats.snapshot() if use_guard else None
            budget.new_round(round_iterations)
            found = None
            # Why the round stopped early; "" = its budget is spent:
            # abandon this bound, try the next.
            stop = None

            def interrupt():
                nonlocal stop
                stop = budget.spend(0)
                return stop is not None

            def examine():
                nonlocal found, stop
                stop = budget.spend(1)
                if stop is not None:
                    return None
                solution, stop = self._try_model(
                    combo_cache=combo_cache,
                    reject_guard=ladder[c + 1] if use_guard else None,
                )
                if stop is not None:
                    return None
                if solution is None:
                    return False
                _schedule, outcome, model, certified = solution
                if outcome.context_switches <= c:
                    found = solution
                    return True
                if certified:
                    # This combo canonically needs ``k`` switches:
                    # ``l_k ∨ ¬combo`` blocks it exactly while the
                    # assumed bound is below k.  Once c reaches k the
                    # ladder assumption satisfies the clause and the
                    # combo becomes available again.
                    lits = self._choice_block_lits(model)
                    k = min(outcome.context_switches, max_cs + 1)
                else:
                    # A model-derived switch count is an artifact of this
                    # model's order atoms, not a property of the choice
                    # combination — block just the model, for this round
                    # only, so other orderings of the same choices stay
                    # enumerable.
                    lits = self._model_block_lits(model)
                    k = c + 1
                if not lits:
                    # Nothing to block: this solution shape is the only
                    # one; later rounds will accept it once c reaches its
                    # switch count.
                    stop = ""
                    return None
                self.sat.add_clause([ladder[k]] + lits if use_guard else lits)
                return False

            status = self._search(examine, interrupt, assumptions)
            budget.spend(0)  # charge the round's last value conflicts
            exhausted = status == UNSAT and not (use_guard and self.sat._unsat)
            entry = stats.delta(before) if use_guard else {}
            entry.update(
                bound=c,
                wall=time.monotonic() - round_start,
                iterations=budget.round,
                found=found is not None,
                exhausted=exhausted,
            )
            round_stats.append(entry)
            if on_round is not None:
                on_round(entry)
            if found is not None:
                schedule, outcome, _model, _certified = found
                return SmtResult(
                    True,
                    schedule=schedule,
                    reads_from=outcome.reads_from,
                    env=outcome.env,
                    context_switches=outcome.context_switches,
                    iterations=budget.iterations,
                    solve_time=time.monotonic() - start,
                    bound=c,
                    round_stats=round_stats,
                    sat_stats=self._sat_stats(),
                    decided_clauses=self.decided_clauses,
                    build_time=self.build_time,
                )
            if status == UNSAT and not exhausted:
                return self._fail(
                    "unsatisfiable", budget.iterations, start, round_stats=round_stats
                )
            if stop:
                return self._fail(
                    stop, budget.iterations, start, round_stats=round_stats
                )
        return self._fail(
            "no schedule within %d context switches" % max_cs,
            budget.iterations,
            start,
            round_stats=round_stats,
        )

    def _choice_block_lits(self, model):
        kinds = self.system.atom_kinds
        return [
            -var
            for var, value in model.items()
            if value and self._is_atom(var) and kinds[var] != ORDER
        ]

    def _model_block_lits(self, model):
        """Negation of the full atom assignment (choices *and* order
        atoms): blocks exactly this model, leaving every other ordering
        of the same choices enumerable."""
        return [
            -var if value else var
            for var, value in model.items()
            if self._is_atom(var)
        ]


def solve_constraints(system, max_seconds=None, sat_factory=None):
    """Solve a ConstraintSystem; returns an :class:`SmtResult`.

    ``solve_time`` covers formula construction (CNF build, transitive
    closure) as well as the search itself."""
    start = time.monotonic()
    try:
        solver = ClapSmtSolver(system, sat_factory=sat_factory)
    except ValueError as exc:
        return SmtResult(False, reason=str(exc), solve_time=time.monotonic() - start)
    return solver.solve(max_seconds=max_seconds, _start=start)


def solve_constraints_bounded(
    system,
    max_cs=4,
    incremental=True,
    sat_factory=None,
    max_seconds=None,
    round_iterations=2000,
):
    """Minimal-context-switch search with increasing bound rounds.

    ``incremental=True`` (the default) runs every round on one solver —
    stable variable numbering, learned clauses and VSIDS/phase state
    carried across rounds, per-round blocks retracted by dropping their
    guard assumption.  ``incremental=False`` re-encodes into a fresh
    solver for every round: the pre-incremental behavior, kept as the
    baseline the differential tests and ``BENCH_solver.json`` compare
    against.  Both paths apply the same per-round iteration budget
    (``round_iterations``, see :meth:`ClapSmtSolver.solve_bounded`) and
    must agree on the resulting switch count."""
    start = time.monotonic()
    if incremental:
        try:
            solver = ClapSmtSolver(system, sat_factory=sat_factory)
        except ValueError as exc:
            return SmtResult(
                False, reason=str(exc), solve_time=time.monotonic() - start
            )
        return solver.solve_bounded(
            max_cs,
            max_seconds=max_seconds,
            round_iterations=round_iterations,
            _start=start,
        )
    iterations = 0
    round_stats = []
    sat_stats = {}
    build_time = 0.0
    for c in range(max_cs + 1):
        try:
            solver = ClapSmtSolver(system, sat_factory=sat_factory)
        except ValueError as exc:
            return SmtResult(
                False, reason=str(exc), solve_time=time.monotonic() - start
            )
        build_time += solver.build_time
        remaining = None
        if max_seconds is not None:
            remaining = max_seconds - (time.monotonic() - start)
            if remaining <= 0:
                return SmtResult(
                    False,
                    reason="timeout",
                    iterations=iterations,
                    solve_time=time.monotonic() - start,
                    round_stats=round_stats,
                    sat_stats=sat_stats,
                    build_time=build_time,
                )
        result = solver.solve_bounded(
            c,
            min_bound=c,
            max_iterations=MAX_ITERATIONS - iterations,
            max_seconds=remaining,
            round_iterations=round_iterations,
        )
        iterations += result.iterations
        round_stats.extend(result.round_stats)
        sat_stats = result.sat_stats
        if result.ok or result.reason in (
            "unsatisfiable",
            "timeout",
            "iteration limit",
        ) or result.reason.startswith(("value conflict", "validator rejected")):
            result.iterations = iterations
            result.round_stats = round_stats
            result.solve_time = time.monotonic() - start
            result.build_time = build_time
            if result.ok:
                result.bound = c
            return result
    return SmtResult(
        False,
        reason="no schedule within %d context switches" % max_cs,
        iterations=iterations,
        solve_time=time.monotonic() - start,
        round_stats=round_stats,
        sat_stats=sat_stats,
        build_time=build_time,
    )
