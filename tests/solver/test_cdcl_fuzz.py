"""Property-based CNF fuzzing of the incremental CDCL core.

~500 random small instances (≤ 12 variables) checked three ways against
ground truth:

* plain solving agrees with a truth-table oracle on SAT/UNSAT, and every
  SAT model actually satisfies every clause;
* solving under random assumptions agrees with the oracle applied to the
  CNF plus the assumptions as unit clauses, and an UNSAT-under-assumptions
  answer leaves the solver reusable (the incremental contract the bound
  loop depends on);
* interleaving clause additions with solve calls — the incremental usage
  pattern — never contradicts the oracle on any prefix, and agrees with
  the frozen reference solver run fresh on the same prefix;
* every clause learned while solving under assumptions is implied by the
  formula alone, so carrying it into a search under different
  assumptions never changes an answer.

The truth-table oracle enumerates all 2^n assignments as bitmasks: bit a
of a literal's mask says whether assignment a satisfies it, so a clause is
an OR of masks and the formula an AND — exact and fast at this size.
"""

import random

import pytest

from repro.solver.cdcl import CDCLSolver, SAT, UNSAT
from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL

MAX_VARS = 12


def literal_masks(n):
    """mask[v] = bitset over all 2^n assignments where var v is true."""
    full = (1 << (1 << n)) - 1
    masks = {}
    for v in range(1, n + 1):
        # Alternating blocks of 2^(v-1) zeros then ones, tiled to 2^n bits.
        block = (1 << (1 << (v - 1))) - 1
        period = block << (1 << (v - 1))
        mask = 0
        shift = 0
        while shift < (1 << n):
            mask |= period << shift
            shift += 2 << (v - 1)
        masks[v] = mask & full
    return masks, full


def oracle_sat(n, clauses, assumptions=()):
    masks, full = literal_masks(n)
    formula = full
    for clause in clauses:
        cm = 0
        for lit in clause:
            cm |= masks[abs(lit)] if lit > 0 else (full & ~masks[abs(lit)])
        formula &= cm
    for lit in assumptions:
        formula &= masks[abs(lit)] if lit > 0 else (full & ~masks[abs(lit)])
    return formula != 0


def model_satisfies(model, clauses):
    return all(
        any(model.get(abs(l)) == (l > 0) for l in clause) for clause in clauses
    )


def random_cnf(rng):
    n = rng.randint(1, MAX_VARS)
    # Around the 3-SAT phase transition half the time, easy otherwise.
    n_clauses = rng.randint(1, max(2, int(n * rng.uniform(1.0, 4.5))))
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, min(3, n))
        lits = []
        for v in rng.sample(range(1, n + 1), width):
            lits.append(v if rng.random() < 0.5 else -v)
        clauses.append(lits)
    return n, clauses


# 25 × 20 = 500 fuzzed instances.
@pytest.mark.parametrize("batch", range(25))
def test_fuzz_against_truth_table(batch):
    rng = random.Random(9000 + batch)
    for _ in range(20):
        n, clauses = random_cnf(rng)
        expected = oracle_sat(n, clauses)
        solver = CDCLSolver()
        for clause in clauses:
            solver.add_clause(clause)
        status = solver.solve()
        assert status == (SAT if expected else UNSAT), (n, clauses)
        if status == SAT:
            assert model_satisfies(solver.model(), clauses), (n, clauses)


@pytest.mark.parametrize("batch", range(10))
def test_fuzz_assumptions_against_truth_table(batch):
    rng = random.Random(17000 + batch)
    for _ in range(20):
        n, clauses = random_cnf(rng)
        solver = CDCLSolver()
        for clause in clauses:
            solver.add_clause(clause)
        # Several assumption sets against ONE solver instance: answers
        # under assumptions must match the oracle, and earlier UNSAT
        # answers must not poison later, weaker queries.
        for _ in range(4):
            k = rng.randint(0, min(4, n))
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), k)
            ]
            expected = oracle_sat(n, clauses, assumptions)
            status = solver.solve(assumptions=assumptions)
            assert status == (SAT if expected else UNSAT), (
                n,
                clauses,
                assumptions,
            )
            if status == SAT:
                model = solver.model()
                assert model_satisfies(model, clauses)
                for lit in assumptions:
                    assert model.get(abs(lit)) == (lit > 0), (
                        "assumption not honored",
                        lit,
                    )


@pytest.mark.parametrize("batch", range(10))
def test_fuzz_incremental_prefixes_against_reference(batch):
    rng = random.Random(33000 + batch)
    for _ in range(10):
        n, clauses = random_cnf(rng)
        incremental = CDCLSolver()
        added = []
        for clause in clauses:
            incremental.add_clause(clause)
            added.append(clause)
            if rng.random() < 0.4:
                continue  # batch a few additions between solves
            expected = oracle_sat(n, added)
            assert (incremental.solve() == SAT) == expected, (n, added)
            reference = ReferenceCDCL()
            for c in added:
                reference.add_clause(c)
            assert (reference.solve() == SAT) == expected, (n, added)
        expected = oracle_sat(n, added)
        assert (incremental.solve() == SAT) == expected, (n, added)


# -- learned clauses under assumptions ------------------------------------
#
# The bound ladder keeps every learned clause when it moves from one
# assumption set to the next, which is only sound if a clause learned
# under assumptions is valid for the whole formula.  The check splits the
# search space into prefix cubes (assignments to the first k variables,
# entered as *assumptions*), solves each cube on its own solver, and
# imports every clause one cube learned into the solvers of the others:
# that must never flip a SAT answer to UNSAT or vice versa.  ~500 fuzzed
# formulas at ≤ 14 variables, checked against the truth-table oracle.

CUBE_MAX_VARS = 14


def random_cube_cnf(rng):
    n = rng.randint(3, CUBE_MAX_VARS)
    n_clauses = rng.randint(2, max(3, int(n * rng.uniform(1.5, 4.5))))
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, min(3, n))
        clauses.append(
            [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), width)
            ]
        )
    return n, clauses


def learned_since(solver, cursor):
    """Learned clauses attached at or after clause index ``cursor``, and
    the next cursor."""
    learned = [
        tuple(solver.clauses[idx])
        for idx in range(cursor, len(solver.clauses))
        if solver.clause_learned[idx]
    ]
    return learned, len(solver.clauses)


def prefix_cubes(n, rng):
    """All sign assignments over the first k variables: disjoint and
    exhaustive by construction."""
    k = rng.randint(1, min(3, n))
    cubes = [[]]
    for v in range(1, k + 1):
        cubes = [cube + [sign * v] for cube in cubes for sign in (1, -1)]
    return cubes


# 25 × 20 = 500 fuzzed formulas.
@pytest.mark.parametrize("batch", range(25))
def test_fuzz_cube_solving_with_shared_clauses(batch):
    rng = random.Random(51000 + batch)
    for _ in range(20):
        n, clauses = random_cube_cnf(rng)
        cubes = prefix_cubes(n, rng)
        solvers = []
        for _ in cubes:
            solver = CDCLSolver()
            solver.ensure_var(n)
            for clause in clauses:
                solver.add_clause(clause)
            solvers.append(solver)
        shared = set()
        cursors = [0] * len(cubes)
        verdicts = [None] * len(cubes)
        # Two passes: the second pass re-solves with everything every
        # *other* cube learned in the first imported, which is where an
        # unsound exchange would flip an answer.
        for round_ in range(2):
            for i, (cube, solver) in enumerate(zip(cubes, solvers)):
                if round_:
                    for clause in shared:
                        solver.add_clause(list(clause))
                status = solver.solve(assumptions=cube)
                expected = oracle_sat(n, clauses, cube)
                assert status == (SAT if expected else UNSAT), (
                    n,
                    clauses,
                    cube,
                    round_,
                )
                if status == SAT:
                    model = solver.model()
                    assert model_satisfies(model, clauses)
                    for lit in cube:
                        assert model.get(abs(lit)) == (lit > 0)
                verdicts[i] = status
                learned, cursors[i] = learned_since(solver, cursors[i])
                for clause in learned:
                    # Every shared clause must itself be implied by the
                    # formula: formula ∧ ¬clause is UNSAT on the oracle.
                    negation = [-l for l in clause]
                    assert not oracle_sat(n, clauses, negation), (
                        "learned clause not implied",
                        clause,
                        clauses,
                    )
                    shared.add(clause)
        # Cube partition agreement: the formula is SAT iff some cube is.
        assert (SAT in verdicts) == oracle_sat(n, clauses), (n, clauses)


def test_learned_clause_reuse_is_visible_in_stats():
    # A pigeonhole-flavored instance forces conflicts; re-solving under
    # fresh assumptions must reuse previously learned clauses and count
    # the reuse.
    rng = random.Random(4242)
    solver = CDCLSolver()
    n, clauses = 0, []
    while True:
        n, clauses = random_cnf(rng)
        if n >= 6 and not oracle_sat(n, clauses):
            break
    guard = n + 1
    solver.ensure_var(guard)
    for clause in clauses:
        solver.add_clause([-guard] + clause)
    assert solver.solve(assumptions=[guard]) == UNSAT
    assert solver.stats.conflicts > 0
    before = solver.stats.snapshot()
    assert solver.solve(assumptions=[guard]) == UNSAT
    delta = solver.stats.delta(before)
    assert delta["reuse_hits"] > 0 or delta["propagations"] == 0
