"""CDCL SAT core: correctness against brute force + behavioural checks."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.cdcl import CDCLSolver, SAT, UNSAT, _VarHeap
from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL


def brute_force_sat(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses):
            return True
    return False


def model_satisfies(model, clauses):
    for clause in clauses:
        ok = False
        for lit in clause:
            value = model.get(abs(lit))
            if value is not None and value == (lit > 0):
                ok = True
                break
        if not ok:
            return False
    return True


def solve(clauses):
    solver = CDCLSolver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver, solver.solve()


def test_empty_problem_is_sat():
    solver = CDCLSolver()
    assert solver.solve() == SAT


def test_unit_clauses_propagate():
    solver, result = solve([[1], [-1, 2], [-2, 3]])
    assert result == SAT
    model = solver.model()
    assert model[1] and model[2] and model[3]


def test_trivially_unsat():
    _, result = solve([[1], [-1]])
    assert result == UNSAT


def test_empty_clause_is_unsat():
    _, result = solve([[1, 2], []])
    assert result == UNSAT


def test_tautology_ignored():
    solver, result = solve([[1, -1]])
    assert result == SAT


def test_pigeonhole_2_into_1_unsat():
    # p1 in h1, p2 in h1, not both.
    _, result = solve([[1], [2], [-1, -2]])
    assert result == UNSAT


def test_php_3_pigeons_2_holes():
    # var(p, h) for p in 0..2, h in 0..1
    def v(p, h):
        return p * 2 + h + 1

    clauses = []
    for p in range(3):
        clauses.append([v(p, 0), v(p, 1)])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                clauses.append([-v(p1, h), -v(p2, h)])
    _, result = solve(clauses)
    assert result == UNSAT


def test_incremental_clause_addition():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    assert solver.solve() == SAT
    solver.add_clause([-1])
    assert solver.solve() == SAT
    assert solver.model()[2] is True
    solver.add_clause([-2])
    assert solver.solve() == UNSAT


def test_blocking_clauses_enumerate_models():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    models = set()
    while solver.solve() == SAT:
        model = solver.model()
        key = (model.get(1, False), model.get(2, False))
        assert key not in models
        models.add(key)
        solver.add_clause([-1 if model.get(1) else 1, -2 if model.get(2) else 2])
    assert models == {(True, True), (True, False), (False, True)}


@pytest.mark.parametrize("seed", range(10))
def test_bulk_load_equals_clause_by_clause(seed):
    """``load`` of clauses without repeated variables leaves the core as
    the frozen reference core's ``add_clause``, one clause at a time,
    leaves its own: the same clause database, watch lists, level-0 trail
    and verdict."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(2, 12)
        clauses = []
        for _ in range(rng.randint(1, 30)):
            size = min(rng.choice((1, 1, 2, 2, 3, 4)), n)
            variables = rng.sample(range(1, n + 1), size)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        reference, bulk = ReferenceCDCL(), CDCLSolver()
        for clause in clauses:
            reference.add_clause(list(clause))
        bulk.ensure_var(n)
        bulk.load([list(clause) for clause in clauses])
        assert bulk.clauses == reference.clauses, clauses
        watched = {
            lit: indices
            for var in range(1, n + 1)
            for lit in (var, -var)
            if (indices := bulk.watches[(var << 1) | (lit < 0)])
        }
        assert watched == {lit: w for lit, w in reference.watches.items() if w}
        assert bulk.trail == reference.trail
        assert bulk._unsat == reference._false_clause
        assert bulk.solve() == reference.solve()


def test_bulk_variables_join_the_heap_as_single_inserts_would():
    """``ensure_var`` appends its new variables to the decision heap:
    the layout one ``insert`` per variable gives, with activities set."""
    rng = random.Random(7)
    solver = CDCLSolver()
    solver.ensure_var(20)
    for var in rng.sample(range(1, 21), 8):
        solver.activity[var] += rng.random()
        solver.order.bumped(var)
    oracle = _VarHeap(solver.activity + [0.0] * 30)
    oracle.heap, oracle.pos = list(solver.order.heap), list(solver.order.pos)
    for var in range(21, 51):
        oracle.pos.append(-1)
        oracle.insert(var)
    solver.ensure_var(50)
    assert solver.order.heap == oracle.heap
    assert solver.order.pos == oracle.pos


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_match_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 9)
        m = rng.randint(1, 35)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(m)
        ]
        solver, result = solve(clauses)
        expected = SAT if brute_force_sat(n, clauses) else UNSAT
        assert result == expected, clauses
        if result == SAT:
            assert model_satisfies(solver.model(), clauses), clauses


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_instances(data):
    n = data.draw(st.integers(1, 7))
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=25,
        )
    )
    solver, result = solve(clauses)
    expected = SAT if brute_force_sat(n, clauses) else UNSAT
    assert result == expected
    if result == SAT:
        assert model_satisfies(solver.model(), clauses)


def test_hard_random_3sat_near_threshold():
    rng = random.Random(7)
    n, m = 40, 170
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)] for _ in range(m)
    ]
    solver, result = solve(clauses)
    assert result in (SAT, UNSAT)
    if result == SAT:
        assert model_satisfies(solver.model(), clauses)


class _LateTheory:
    """Forbids every literal of ``clause`` being false, but looks only
    when ``trigger`` is assigned: the conflict it reports may lie wholly
    below the current decision level."""

    def __init__(self, solver, clause, trigger):
        self.value = solver.assign
        self.clause = clause
        self.trigger = trigger
        self.reported = 0

    def assign(self, trail, start):
        for lit in trail[start:]:
            if abs(lit) != self.trigger:
                continue
            if all(self.value[abs(l)] is (l < 0) for l in self.clause):
                self.reported += 1
                return list(self.clause), start
        return None, len(trail)

    def backtrack(self, trail_len):
        pass

    def phase(self, var, saved):
        return saved

    def complete(self, assign):
        return [], None


def _late(clause, trigger, clauses=()):
    solver = CDCLSolver()
    solver.ensure_var(4)
    for c in clauses:
        solver.add_clause(c)
    theory = _LateTheory(solver, clause, trigger)
    solver.attach_theory(theory)
    return solver, theory


def test_theory_conflict_below_current_level_backjumps():
    # 1 at level 1, 2 at level 2, the conflict [-1, -2] found at level 3:
    # the search backjumps to level 1 and asserts -2 there.
    solver, theory = _late([-1, -2], trigger=3)
    assert solver.solve(assumptions=[1, 2, 3]) == UNSAT
    assert theory.reported == 1
    assert solver.solve(assumptions=[1, 3]) == SAT
    model = solver.model()
    assert model[1] and model[3] and not model[2]
    assert solver.solve(assumptions=[2, 3]) == SAT
    assert not solver.model()[1]


def test_theory_conflict_sharing_its_top_level_is_analysed():
    # 1 and 2 both on level 1 (2 implied by 1); the conflict found at
    # level 2 backjumps to level 1 and is analysed there: -1 is learned.
    solver, theory = _late([-1, -2], trigger=3, clauses=[[-1, 2]])
    assert solver.solve(assumptions=[1, 3]) == UNSAT
    assert theory.reported == 1
    assert solver.solve(assumptions=[3]) == SAT
    assert solver.model()[1] is False
    assert solver.level[1] == 0


def test_theory_conflict_at_level_zero_is_unsat():
    # Every literal false at level 0: no search can satisfy the clause.
    solver, _theory = _late([-1, -2], trigger=3, clauses=[[1], [2]])
    assert solver.solve(assumptions=[3]) == UNSAT
    assert solver.solve() == UNSAT


def test_empty_theory_conflict_is_unsat():
    solver, _theory = _late([], trigger=3)
    assert solver.solve(assumptions=[3]) == UNSAT
    assert solver.solve() == UNSAT


class _RefuteEverything:
    """Refutes each full assignment of variables ``1 … n`` in the search,
    the way the values theory refutes a reads-from combination."""

    def __init__(self, solver, n):
        self.value = solver.assign
        self.n = n

    def assign(self, trail, start):
        values = self.value[1 : self.n + 1]
        if None in values:
            return None, len(trail)
        return [-v if value else v for v, value in enumerate(values, 1)], len(trail)

    def backtrack(self, trail_len):
        pass

    def phase(self, var, saved):
        return saved

    def complete(self, assign):
        return [], None


def test_interrupt_stops_a_search_of_theory_conflicts():
    solver = CDCLSolver()
    solver.ensure_var(4)
    solver.attach_theory(_RefuteEverything(solver, 4))
    calls = []

    def interrupt():
        calls.append(solver.stats.theory_conflicts)
        return len(calls) == 3

    assert solver.solve(interrupt=interrupt) is None
    assert len(calls) == 3
    assert calls == sorted(set(calls))  # one call per conflict
    assert solver.trail == []
    # The solver stays usable: run to the end, every assignment refuted.
    assert solver.solve() == UNSAT
