"""The order theory inside the CDCL search, checked against brute force.

* :class:`~repro.solver.order.OrderTheory` on its own: random DAGs of
  fixed edges, random order atoms asserted and retracted in trail order.
  A conflict must be reported exactly when the asserted edges close a
  cycle, the conflict clause must name asserted atoms that close one,
  and the maintained node order must stay topological throughout.
* :class:`~repro.solver.cdcl.CDCLSolver` with the theory attached, on
  random CNF over order atoms: SAT exactly when some assignment satisfies
  the clauses with an acyclic order, under assumptions too.
* ``solve(final_check=...)``: refuting every model with a blocking clause
  enumerates exactly the truth-table models, so refinements that
  backjump instead of restarting lose and repeat nothing.
* The SMT layer: the in-search core and the frozen reference core (which
  checks the order lazily, after each full model) agree on every verdict
  over fuzzed programs, and both schedules pass the validator.
"""

import itertools
import random

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.constraints.encoder import encode
from repro.minilang import compile_source
from repro.solver.cdcl import CDCLSolver, SAT, UNSAT
from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL
from repro.solver.order import OrderTheory
from repro.solver.smt import solve_constraints
from repro.solver.validate import validate_schedule
from repro.tracing.decoder import decode_log

from tests.solver.test_cdcl_fuzz import literal_masks, model_satisfies
from tests.test_differential import generate_program, record


def has_cycle(n, edges):
    """Kahn's algorithm: True iff ``edges`` over ``n`` nodes is cyclic."""
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return seen != n


def random_clauses(rng, n, count):
    clauses = []
    for _ in range(count):
        width = rng.randint(1, min(3, n))
        clauses.append(
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]
        )
    return clauses


def random_order_problem(rng, max_nodes=8, max_atoms=10):
    """(n, fixed DAG edges, var -> (a, b) atom edges)."""
    n = rng.randint(2, max_nodes)
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    fixed = [
        (a, b)
        for a, b in pairs
        if rank[a] < rank[b] and rng.random() < 0.15
    ]
    unordered = [(a, b) for a, b in pairs if a < b]
    k = min(len(unordered), rng.randint(1, max_atoms))
    var_edges = {
        var: pair
        for var, pair in enumerate(rng.sample(unordered, k), start=1)
    }
    return n, fixed, var_edges


def order_theory(n, fixed, var_edges):
    theory = OrderTheory(n, fixed)
    for var, (a, b) in var_edges.items():
        theory.add_atom(var, a, b)
    return theory


def lit_edge(var_edges, lit):
    a, b = var_edges[abs(lit)]
    return (a, b) if lit > 0 else (b, a)


def assert_topological(theory, n):
    for node in range(n):
        for nxt, _ in theory.succ[node]:
            assert theory.ord[node] < theory.ord[nxt]
    assert sorted(theory.ord) == list(range(n))


@pytest.mark.parametrize("batch", range(10))
def test_order_theory_against_brute_force(batch):
    rng = random.Random(61000 + batch)
    for _ in range(30):
        n, fixed, var_edges = random_order_problem(rng)
        theory = order_theory(n, fixed, var_edges)
        trail = []
        head = 0
        for _ in range(40):
            if trail and rng.random() < 0.25:
                keep = rng.randint(0, len(trail) - 1)
                del trail[keep:]
                theory.backtrack(keep)
                head = min(head, keep)
                assert_topological(theory, n)
                continue
            free = [v for v in var_edges if v not in {abs(l) for l in trail}]
            if not free:
                continue
            var = rng.choice(free)
            trail.append(var if rng.random() < 0.5 else -var)
            conflict, head = theory.assign(trail, head)
            edges = fixed + [lit_edge(var_edges, l) for l in trail]
            if conflict is None:
                assert head == len(trail)
                assert not has_cycle(n, edges)
                assert_topological(theory, n)
                continue
            # The failing literal is the last one; its edge closes a cycle
            # that the conflict clause's atoms plus fixed edges witness.
            assert head == len(trail) - 1
            assert has_cycle(n, edges)
            assert -trail[-1] in conflict
            assert all(-lit in trail for lit in conflict)
            witness = fixed + [lit_edge(var_edges, -lit) for lit in conflict]
            assert has_cycle(n, witness), (fixed, var_edges, trail, conflict)
            trail.pop()
            theory.backtrack(len(trail))
            assert_topological(theory, n)


def order_oracle(n, fixed, var_edges, clauses, assumptions=()):
    """Some assignment satisfies the clauses and assumptions with an
    acyclic order."""
    variables = sorted(var_edges)
    for values in itertools.product((True, False), repeat=len(variables)):
        model = dict(zip(variables, values))
        if not model_satisfies(model, clauses):
            continue
        if not all(model[abs(l)] == (l > 0) for l in assumptions):
            continue
        edges = fixed + [
            lit_edge(var_edges, v if model[v] else -v) for v in variables
        ]
        if not has_cycle(n, edges):
            return True
    return False


@pytest.mark.parametrize("batch", range(10))
def test_cdcl_with_order_theory_against_oracle(batch):
    rng = random.Random(62000 + batch)
    for _ in range(20):
        n, fixed, var_edges = random_order_problem(rng, max_nodes=6)
        k = len(var_edges)
        clauses = random_clauses(rng, k, rng.randint(0, 2 * k))
        solver = CDCLSolver()
        solver.ensure_var(k)
        for clause in clauses:
            solver.add_clause(clause)
        solver.attach_theory(order_theory(n, fixed, var_edges))
        for _ in range(3):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, k + 1), rng.randint(0, min(2, k)))
            ]
            expected = order_oracle(n, fixed, var_edges, clauses, assumptions)
            status = solver.solve(assumptions=assumptions)
            assert status == (SAT if expected else UNSAT), (
                n, fixed, var_edges, clauses, assumptions,
            )
            if status == SAT:
                model = solver.model()
                assert model_satisfies(model, clauses)
                edges = fixed + [
                    lit_edge(var_edges, v if model[v] else -v) for v in var_edges
                ]
                assert not has_cycle(n, edges)


def count_models(n, clauses, assumptions=()):
    masks, full = literal_masks(n)
    formula = full
    for clause in list(clauses) + [[lit] for lit in assumptions]:
        mask = 0
        for lit in clause:
            mask |= masks[abs(lit)] if lit > 0 else full & ~masks[abs(lit)]
        formula &= mask
    return bin(formula).count("1")


@pytest.mark.parametrize("batch", range(10))
def test_final_check_enumerates_every_model(batch):
    rng = random.Random(63000 + batch)
    for _ in range(20):
        n = rng.randint(1, 8)
        clauses = random_clauses(rng, n, rng.randint(1, 3 * n))
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))
        ]
        solver = CDCLSolver()
        solver.ensure_var(n)
        for clause in clauses:
            solver.add_clause(clause)
        seen = set()

        def block_model():
            model = solver.model()
            assert model_satisfies(model, clauses)
            assert all(model[abs(l)] == (l > 0) for l in assumptions)
            key = tuple(model[v] for v in range(1, n + 1))
            assert key not in seen, "model enumerated twice"
            seen.add(key)
            solver.add_clause([-v if model[v] else v for v in range(1, n + 1)])
            return False

        status = solver.solve(assumptions=assumptions, final_check=block_model)
        assert status == UNSAT
        assert len(seen) == count_models(n, clauses, assumptions)
        assert solver.stats.solve_calls <= 1  # 0: unsat at level 0


def test_final_check_accepts_and_stops():
    solver = CDCLSolver()
    for clause in ([1, 2], [-1, 3], [2, -3]):
        solver.add_clause(clause)
    calls = []

    def stop():
        calls.append(solver.model())
        return None

    assert solver.solve(final_check=stop) is None
    assert len(calls) == 1
    assert solver.solve(final_check=lambda: True) == SAT
    assert model_satisfies(solver.model(), [[1, 2], [-1, 3], [2, -3]])
    # Refuting without a clause would hand the same model back forever.
    with pytest.raises(RuntimeError):
        solver.solve(final_check=lambda: False)


_FAILING_TRIALS = [2, 11, 13, 16, 17, 19, 29, 35]


@pytest.mark.parametrize("trial", _FAILING_TRIALS)
def test_in_search_and_lazy_order_checks_agree(trial):
    rng = random.Random(77000 + trial)
    program = compile_source(generate_program(rng), name="orderfuzz%d" % trial)
    shared = shared_variables(program)
    for seed in range(25):
        result, recorder = record(program, shared, seed, "sc")
        if result.bug is None or result.bug.kind != "assertion":
            continue
        summaries = execute_recorded_paths(
            program, decode_log(recorder), shared, bug=result.bug
        )
        system = encode(summaries, "sc", program.symbols, shared)
        in_search = solve_constraints(system, max_seconds=60)
        lazy = solve_constraints(system, max_seconds=60, sat_factory=ReferenceCDCL)
        assert in_search.ok == lazy.ok, (in_search.reason, lazy.reason)
        assert in_search.ok, in_search.reason  # recorded bugs reproduce
        for solved in (in_search, lazy):
            outcome = validate_schedule(system, solved.schedule)
            assert outcome.ok, outcome.reason
        # Order refinements never cost a model on the in-search core.
        assert in_search.sat_stats["solve_calls"] == 1
        return
    pytest.skip("no assertion failure manifested for this fuzzed program")


def test_reads_from_phase_picks_the_latest_write_before_the_read():
    """A reads-from decision is true for the candidate write the
    topological order places latest before its read, the initial value
    (node -1) when no write precedes it; other variables keep their
    saved phase."""
    theory = OrderTheory(4, [(0, 1), (1, 2), (2, 3)])
    theory.add_read(2, [(5, -1), (6, 0), (7, 1), (8, 3)])
    assert [theory.phase(var, False) for var in (5, 6, 7, 8)] == [
        False, False, True, False,
    ]
    theory.add_read(0, [(10, -1), (11, 1)])
    assert theory.phase(10, False) is True
    assert theory.phase(11, True) is False
    assert theory.phase(9, True) is True
