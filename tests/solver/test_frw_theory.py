"""Structured Frw watches: the CDCL core with the Frw theory vs the
all-eager core.

Each random instance has choice groups of three or more literals and
write universes (writes, reads choosing among them, order literals
between them), some of whose order literals are closure constants, over
a random CNF background.  The lazy core gets the background, the
no-middle units and the structure in a
:class:`~repro.solver.frw.FrwTheory`; the eager core gets the
background plus every exclusion and no-middle clause up front.  The lazy
core must behave as if every clause were loaded:

* SAT/UNSAT agree with the eager core;
* whenever the theory has caught up with the trail and hands nothing
  over, none of its clauses is unit or false (a clause it missed would
  still be found later, when its last literal is decided, so only this
  check sees a watch that never fires);
* every SAT model satisfies every clause, the theory's included;
* across three ``solve()`` calls under assumptions on one instance, each
  answer matches a fresh eager solver given the same assumptions.

The order theory on the same hook is covered by
``tests/solver/test_order_theory.py``; here the Frw theory's inner theory
is an order theory over no nodes, which asserts nothing.
"""

import random

import pytest

from repro.solver.cdcl import CDCLSolver, SAT
from repro.solver.frw import FrwTheory, no_middle_clause
from repro.solver.order import OrderTheory

from tests.solver.test_cdcl_fuzz import model_satisfies, random_cnf


def _unit_or_false(clause, value):
    free = 0
    for lit in clause:
        current = value[abs(lit)]
        if current is None:
            free += 1
        elif current is (lit > 0):
            return False
    return free <= 1


class _CheckedFrw(FrwTheory):
    """Asserts at every fixpoint that no clause it stands for is unit or
    false."""

    clauses = ()

    def assign(self, trail, start):
        clause, stop = super().assign(trail, start)
        if clause is None:
            missed = [c for c in self.clauses if _unit_or_false(c, self.value)]
            assert not missed, (missed, list(trail))
        return clause, stop


class _Instance:
    """Random structure over fresh variables above a random background."""

    def __init__(self, rng):
        self.n, self.background = random_cnf(rng)
        self.groups = []
        self.universes = []  # (n_writes, before, reads)
        choice_vars = []
        for _ in range(rng.randint(1, 2)):
            n_writes = rng.randint(2, 4)
            before = {}
            reads = []
            for _ in range(rng.randint(1, 3)):
                writes = rng.sample(range(n_writes), rng.randint(2, n_writes))
                choices = [self._var() for _ in writes]
                choice_vars += choices
                afters = [self._order_lit(rng) for _ in writes]
                reads.append((choices, afters, writes))
                for i in writes:
                    for j in writes:
                        if i < j and (i, j) not in before:
                            lit = self._order_lit(rng)
                            before[(i, j)] = lit
                            before[(j, i)] = (
                                not lit if lit is True or lit is False else -lit
                            )
            self.universes.append((n_writes, before, reads))
        for _ in range(rng.randint(0, 2)):
            if len(choice_vars) < 3:
                break
            members = rng.sample(choice_vars, rng.randint(3, min(5, len(choice_vars))))
            self.groups.append([v if rng.random() < 0.8 else -v for v in members])
        # Background clauses over the structure's variables too.
        for _ in range(rng.randint(0, self.n)):
            width = rng.randint(1, 3)
            picked = rng.sample(range(1, self.n + 1), min(width, self.n))
            self.background.append([v if rng.random() < 0.5 else -v for v in picked])
        self.units = []
        self.virtual = []
        for members in self.groups:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    self.virtual.append([-members[i], -members[j]])
        for _n_writes, before, reads in self.universes:
            for choices, afters, writes in reads:
                for p in range(len(writes)):
                    for q in range(len(writes)):
                        if p == q:
                            continue
                        clause = no_middle_clause(
                            -choices[p], before[(writes[q], writes[p])], afters[q]
                        )
                        if clause is None:
                            continue
                        (self.units if len(clause) == 1 else self.virtual).append(
                            clause
                        )

    def _var(self):
        self.n += 1
        return self.n

    def _order_lit(self, rng):
        roll = rng.random()
        if roll < 0.15:
            return True
        if roll < 0.3:
            return False
        return self._var() if rng.random() < 0.5 else -self._var()

    def clauses(self):
        return self.background + self.units + self.virtual

    def eager(self):
        solver = CDCLSolver()
        solver.ensure_var(self.n)
        for clause in self.clauses():
            solver.add_clause(clause)
        return solver

    def lazy(self):
        solver = CDCLSolver()
        solver.ensure_var(self.n)
        theory = _CheckedFrw(solver.assign, OrderTheory(0, []))
        theory.clauses = self.units + self.virtual
        solver.attach_theory(theory)
        for clause in self.background + self.units:
            solver.add_clause(clause)
        for members in self.groups:
            theory.add_group(members)
        for n_writes, before, reads in self.universes:
            theory.add_universe(n_writes, before, reads)
        return solver, theory


def random_assumptions(rng, n):
    k = rng.randint(0, min(4, n))
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]


# 20 × 12 = 240 instances.
@pytest.mark.parametrize("batch", range(20))
def test_virtual_clauses_match_the_eager_core(batch):
    rng = random.Random(41000 + batch)
    for _ in range(12):
        instance = _Instance(rng)
        clauses = instance.clauses()
        expected = instance.eager().solve()
        solver, theory = instance.lazy()
        status = solver.solve()
        assert status == expected, clauses
        if status == SAT:
            assert model_satisfies(solver.model(), clauses), clauses
        # Each clause the theory stands for reaches the core at most once.
        lemmas = solver.stats.lemmas + solver.stats.theory_conflicts
        assert lemmas <= len(instance.virtual)
        assert theory.no_middle_built <= lemmas


@pytest.mark.parametrize("batch", range(20))
def test_virtual_clauses_survive_across_solve_calls(batch):
    rng = random.Random(57000 + batch)
    for _ in range(12):
        instance = _Instance(rng)
        clauses = instance.clauses()
        solver, _theory = instance.lazy()
        for _ in range(3):
            assumptions = random_assumptions(rng, instance.n)
            expected = instance.eager().solve(assumptions=assumptions)
            status = solver.solve(assumptions=assumptions)
            assert status == expected, (clauses, assumptions)
            if status == SAT:
                model = solver.model()
                assert model_satisfies(model, clauses), clauses
                assert all(model.get(abs(lit)) == (lit > 0) for lit in assumptions)


def _one_read_two_writes():
    """rf(r, w) = 1, rf(r, w') = 4; O_w' < O_w = 2; O_r < O_w' = 3,
    O_r < O_w = 5.  The clauses: [-1, 2, 3] and [-4, -2, 5]."""
    solver = CDCLSolver()
    solver.ensure_var(5)
    theory = FrwTheory(solver.assign, OrderTheory(0, []))
    solver.attach_theory(theory)
    theory.add_universe(2, {(1, 0): 2, (0, 1): -2}, [([1, 4], [5, 3], [0, 1])])
    return solver, theory


def test_unit_lemma_propagates_with_its_clause_as_reason():
    solver, theory = _one_read_two_writes()
    solver.add_clause([1])
    solver.add_clause([-2])
    solver.add_clause([4])
    solver.add_clause([5])
    assert solver.solve() == SAT
    # 3 was propagated by the lemma, not decided.
    assert solver.stats.decisions == 0
    assert solver.stats.lemmas == 1
    assert theory.no_middle_built == 1
    assert sorted(solver.clauses[solver.reason[3]]) == [-1, 2, 3]


def test_write_order_event_propagates_not_rf():
    solver, theory = _one_read_two_writes()
    solver.add_clause([-3])
    solver.add_clause([4])
    solver.add_clause([5])
    # O_w' < O_w turns false at level 1, after O_r < O_w' is already
    # false at level 0: the write-pair walk hands [-1, 2, 3] over.
    assert solver.solve(assumptions=[-2]) == SAT
    assert solver.stats.decisions == 0
    assert solver.stats.lemmas == 1
    assert solver.assign[1] is False
    assert solver.level[1] == 1
    assert sorted(solver.clauses[solver.reason[1]]) == [-1, 2, 3]
