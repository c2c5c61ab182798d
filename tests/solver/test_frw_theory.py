"""Lazy clauses: the CDCL core with virtual clauses vs the all-eager core.

A random subset of each random CNF's clauses (two literals or more) is
held virtual in a :class:`~repro.solver.frw.FrwTheory`; the rest go to
the core as usual.  The core must then behave as if every clause were
loaded up front:

* SAT/UNSAT agree with a core that has every clause eagerly;
* every SAT model satisfies every clause, the virtual ones included;
* across three ``solve()`` calls under assumptions on one instance, each
  answer matches a fresh eager solver given the same assumptions.

The order theory on the same hook is covered by
``tests/solver/test_order_theory.py``; here the Frw theory's inner theory
is an order theory over no nodes, which asserts nothing.
"""

import random

import pytest

from repro.solver.cdcl import CDCLSolver, SAT
from repro.solver.frw import FrwTheory
from repro.solver.order import OrderTheory

from tests.solver.test_cdcl_fuzz import model_satisfies, random_cnf


def eager_solver(n, clauses):
    solver = CDCLSolver()
    solver.ensure_var(n)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def lazy_solver(rng, n, clauses):
    """A core with a random share of ``clauses`` held virtual."""
    solver = CDCLSolver()
    solver.ensure_var(n)
    theory = FrwTheory(solver.assign, OrderTheory(0, []))
    solver.attach_theory(theory)
    share = rng.random()
    for clause in clauses:
        if len(clause) >= 2 and rng.random() < share:
            theory.add(list(clause))
        else:
            solver.add_clause(clause)
    return solver, theory


def random_assumptions(rng, n):
    k = rng.randint(0, min(4, n))
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]


# 20 × 12 = 240 instances.
@pytest.mark.parametrize("batch", range(20))
def test_virtual_clauses_match_the_eager_core(batch):
    rng = random.Random(41000 + batch)
    for _ in range(12):
        n, clauses = random_cnf(rng)
        expected = eager_solver(n, clauses).solve()
        solver, theory = lazy_solver(rng, n, clauses)
        status = solver.solve()
        assert status == expected, (n, clauses)
        if status == SAT:
            assert model_satisfies(solver.model(), clauses), (n, clauses)
        # Each virtual clause reaches the core at most once.
        lemmas = solver.stats.lemmas + solver.stats.theory_conflicts
        assert lemmas <= len(theory.clauses)


@pytest.mark.parametrize("batch", range(20))
def test_virtual_clauses_survive_across_solve_calls(batch):
    rng = random.Random(57000 + batch)
    for _ in range(12):
        n, clauses = random_cnf(rng)
        solver, _theory = lazy_solver(rng, n, clauses)
        for _ in range(3):
            assumptions = random_assumptions(rng, n)
            expected = eager_solver(n, clauses).solve(assumptions=assumptions)
            status = solver.solve(assumptions=assumptions)
            assert status == expected, (n, clauses, assumptions)
            if status == SAT:
                model = solver.model()
                assert model_satisfies(model, clauses), (n, clauses)
                assert all(model.get(abs(lit)) == (lit > 0) for lit in assumptions)


def test_unit_lemma_propagates_with_its_clause_as_reason():
    solver = CDCLSolver()
    solver.ensure_var(3)
    theory = FrwTheory(solver.assign, OrderTheory(0, []))
    solver.attach_theory(theory)
    theory.add([-1, 2, 3])
    solver.add_clause([1])
    solver.add_clause([-2])
    assert solver.solve() == SAT
    # 3 was propagated by the lemma, not decided.
    assert solver.stats.decisions == 0
    assert solver.stats.lemmas == 1
    assert sorted(solver.clauses[solver.reason[3]]) == [-1, 2, 3]
