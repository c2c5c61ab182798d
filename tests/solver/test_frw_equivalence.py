"""Structured Frw watches hand the core the same clauses as one virtual
clause each.

``_PerClauseFrw`` below keeps every exclusion and no-middle clause as its
own virtual clause, watched by the negations of its literals, and marks
a clause once it is handed over: the theory the solver used before the
structured watches of :mod:`repro.solver.frw`.  It lives here only, as
the reference.  ``_PerClauseSolver`` loads F the way that solver did:
clause by clause through ``add_clause``, with every no-middle clause
enumerated in the order of the eager build.

The structured theory must hand over the same lemmas and conflicts in
the same order, so every search counter, the fixed-order closure's
count, the schedule and its context switches must be identical — on
every Table-1 program, on ``flight`` recorded through a 40-byte ring at
10 and 15 loop iterations, and on two bound-ladder (``smt-inc``) runs.
"""

import pytest

from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.bench.workloads import HOT_VAR_TEMPLATE
from repro.constraints.model import INIT, clause_groups
from repro.constraints.rw import no_middle_count
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.solver.frw import FrwTheory
from repro.solver import smt
from repro.solver.smt import ClapSmtSolver

from tests.constraints.test_hb_differential import table1_artifacts


class _PerClauseFrw:
    """One virtual clause per exclusion and no-middle clause."""

    def __init__(self, assign, inner):
        self.value = assign
        self.inner = inner
        # Clause id -> its literals, or None once handed to the core.
        self.clauses = []
        self.virtual = []  # clause id -> its literals
        self.watch = {}  # assigned literal -> ids of clauses it falsifies
        self.head = 0  # trail positions before this one are checked
        self.cursor = 0  # next watch-list index at trail[head]
        self.inner_head = 0

    def add(self, lits):
        cid = len(self.clauses)
        self.clauses.append(lits)
        self.virtual.append(lits)
        for lit in lits:
            self.watch.setdefault(-lit, []).append(cid)

    def assign(self, trail, start):
        clauses, value, watch = self.clauses, self.value, self.watch
        position = self.head
        cursor = self.cursor
        end = len(trail)
        while position < end:
            ids = watch.get(trail[position])
            if ids:
                while cursor < len(ids):
                    clause = clauses[ids[cursor]]
                    cursor += 1
                    if clause is None:
                        continue
                    free = False
                    for lit in clause:
                        current = value[lit if lit > 0 else -lit]
                        if current is None:
                            if free:
                                break  # two unassigned literals
                            free = True
                        elif current is (lit > 0):
                            break  # satisfied
                    else:
                        clauses[ids[cursor - 1]] = None
                        self.head, self.cursor = position, cursor
                        return clause, min(position, self.inner_head)
            position += 1
            cursor = 0
        self.head, self.cursor = end, 0
        conflict, self.inner_head = self.inner.assign(trail, self.inner_head)
        return conflict, self.inner_head

    def phase(self, var, saved):
        return self.inner.phase(var, saved)

    def complete(self, assign):
        """The first clause, handed over or not, that the inner theory's
        completion falsifies."""
        completed, clause = self.inner.complete(assign)
        if clause is not None:
            return completed, clause
        for lits in self.virtual:
            if not any(assign[abs(lit)] is (lit > 0) for lit in lits):
                return completed, lits
        return completed, None

    def backtrack(self, trail_len):
        if self.head >= trail_len:
            self.head, self.cursor = trail_len, 0
        if self.inner_head > trail_len:
            self.inner_head = trail_len
        self.inner.backtrack(trail_len)


class _PerClauseSolver(ClapSmtSolver):
    """The default solver over the per-clause reference theory."""

    def _build(self):
        self.frw = _PerClauseFrw(self.sat.assign, self.order)
        self.sat.attach_theory(self.frw)
        system = self.system
        clauses = []
        self._fold(clause_groups(system.sync), clauses)
        self._fold(self._rf_clauses(), clauses)
        self._fold(clause_groups(system.goals), clauses)
        for flat, exactly in (
            (system.rf_one, True),
            (system.sw_once, False),
            (system.rf_horizon, False),
        ):
            for group in clause_groups(flat):
                for var in group:
                    self.used[var] = 1
                if exactly:
                    clauses.append(group)
                sink = self.frw.add if len(group) > 2 else clauses.append
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        sink([-group[i], -group[j]])
        frw, self.frw = self.frw, None
        no_middle = []
        self._no_middle(no_middle)
        self.frw = frw
        for clause in no_middle:
            (clauses.append if len(clause) == 1 else frw.add)(clause)
        for clause in clauses:
            self.sat.add_clause(clause)


def _outcome(solver, result):
    return {
        "ok": result.ok,
        "reason": result.reason,
        "sat_stats": result.sat_stats,
        "decided_clauses": result.decided_clauses,
        "schedule": result.schedule,
        "context_switches": result.context_switches,
        "bound": result.bound,
        "variables": solver.sat.num_vars,
    }


def assert_same_search(system, solve):
    structured = ClapSmtSolver(system)
    reference = _PerClauseSolver(system)
    assert isinstance(structured.frw, FrwTheory)
    assert structured.used == reference.used
    got = _outcome(structured, solve(structured))
    want = _outcome(reference, solve(reference))
    assert got == want
    assert got["ok"]
    return got


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_same_lemmas(name):
    _pipeline, _recorded, system = table1_artifacts(name)
    assert_same_search(system, lambda solver: solver.solve(max_seconds=120))


@pytest.mark.parametrize("iters", (10, 15))
def test_flight_ring_same_lemmas(iters):
    bench = get_benchmark("flight", iters=iters)
    config = ClapConfig(
        **dict(bench.config_kwargs(), ring_bytes=40, ring_segment_bytes=16)
    )
    pipeline = ClapPipeline(bench.compile(), config)
    system = pipeline.analyze(pipeline.record())
    got = assert_same_search(system, lambda solver: solver.solve(max_seconds=120))
    assert got["sat_stats"]["lemmas"] > 0


@pytest.mark.parametrize("name", ("pbzip2", "racey"))
def test_ladder_same_lemmas(name):
    _pipeline, _recorded, system = table1_artifacts(name)
    got = assert_same_search(
        system, lambda solver: solver.solve_bounded(4, max_seconds=120)
    )
    assert got["bound"] >= 0


def test_structure_is_linear_on_the_hot_variable(monkeypatch):
    """At size 12 of the hot-variable workload (Frw's ``4·Nr·Nw²`` worst
    case) the theory stores one entry per (read, candidate write) pair,
    per ordered pair of co-candidate writes and per group member, and the
    default build enumerates no (read, w, w') triple."""
    n = 12
    pipeline = ClapPipeline(
        compile_source(HOT_VAR_TEMPLATE % (n, n, 2 * n), name="hot%d" % n),
        ClapConfig(stickiness=0.3),
    )
    system = pipeline.analyze(pipeline.record())

    def no_triples(records, before, out):
        raise AssertionError("the default build enumerated triples")

    monkeypatch.setattr(smt, "_enumerate_no_middle", no_triples)
    solver = ClapSmtSolver(system)
    rw_pairs = 0
    write_pairs = set()
    for sources in system.rf_candidates.values():
        writes = [source for source in sources if source != INIT]
        if len(writes) < 2:
            continue
        rw_pairs += len(writes)
        write_pairs.update((a, b) for a in writes for b in writes if a != b)
    members = sum(len(group) for group in solver.frw.groups)
    stored = solver.frw.entries()
    assert stored <= rw_pairs + len(write_pairs) + members
    assert stored * 4 < no_middle_count(system.rf_candidates)
    # One watch list per literal at most.
    assert len(solver.frw.watch) <= 2 * solver.sat.num_vars
    assert solver.solve(max_seconds=120).ok
