"""Unit tests for CDCL(T) internals: atom canonicalization, fixed-order
folding, and the targeted value-conflict blocking cone."""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.constraints.model import INIT, OLt, RFChoice
from repro.solver.smt import ClapSmtSolver

from tests.conftest import RACE_SRC


@pytest.fixture(scope="module")
def solver():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3))
    system = pipe.analyze(pipe.record())
    return ClapSmtSolver(system)


def test_order_atoms_share_one_variable_both_directions(solver):
    uids = list(solver.system.saps)
    # Pick two SAPs of different threads not ordered by fixed edges.
    a = next(u for u in uids if u[0] == "1:1" and u[1] == 2)
    b = next(u for u in uids if u[0] == "1:2" and u[1] == 2)
    lit_ab = solver._order_lit(OLt(a, b))
    lit_ba = solver._order_lit(OLt(b, a))
    assert lit_ab == -lit_ba, "negation must reuse the same variable"


def test_fixed_order_folds_to_constants(solver):
    # Program order within one thread is a fixed edge: the atom is decided.
    a = ("1:1", 1)
    b = ("1:1", 2)
    assert solver._order_lit(OLt(a, b)) is True
    assert solver._order_lit(OLt(b, a)) is False


def test_reflexive_atom_is_false(solver):
    a = ("1", 0)
    assert solver._order_lit(OLt(a, a)) is False


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
            var = solver.atom_var.get(RFChoice(read_uid, source))
            if var is not None:
                lits.append(-var)
        solver.sat.add_clause(lits)
    assert len(seen) >= 1
