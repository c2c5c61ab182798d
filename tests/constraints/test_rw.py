"""Frw: reads-from candidates and no-intervening-write clauses."""

from repro.analysis.symexec import SymSAP, ThreadSummary
from repro.constraints.model import INIT, AtomTable, ConstraintSystem, OLt, RFChoice
from repro.constraints.rw import encode_read_write as encode_numbered
from repro.constraints.rw import frw_universes, no_middle_count
from repro.runtime import events as ev
from repro.solver.smt import ClapSmtSolver

from tests.constraints.image import literal, pairs


def encode_read_write(summaries):
    """Frw's rf clauses decoded to atoms, its groups and candidates."""
    table = AtomTable()
    rf_before, rf_init, groups, rf = encode_numbered(summaries, table)
    return pairs(table, rf_before) + pairs(table, rf_init), groups, rf


def summary(thread, kinds_addrs):
    s = ThreadSummary(thread=thread)
    for i, (kind, addr) in enumerate(kinds_addrs):
        s.saps.append(SymSAP(thread=thread, index=i, kind=kind, addr=addr))
    return s


def test_read_candidates_include_init_and_writes():
    t1 = summary("1", [(ev.READ, ("x",))])
    t2 = summary("2", [(ev.WRITE, ("x",)), (ev.WRITE, ("x",))])
    clauses, eo, rf = encode_read_write({"1": t1, "2": t2})
    assert rf[("1", 0)] == [("2", 0), ("2", 1), INIT]
    assert len(eo) == 1
    assert len(eo[0]) == 3


def test_same_thread_later_write_pruned():
    # A read cannot return a program-order-later write of its own thread.
    t1 = summary("1", [(ev.READ, ("x",)), (ev.WRITE, ("x",))])
    clauses, eo, rf = encode_read_write({"1": t1})
    assert rf[("1", 0)] == [INIT]


def test_same_thread_earlier_write_is_candidate():
    t1 = summary("1", [(ev.WRITE, ("x",)), (ev.READ, ("x",))])
    _, _, rf = encode_read_write({"1": t1})
    assert rf[("1", 1)] == [("1", 0), INIT]


def test_different_addresses_do_not_mix():
    t1 = summary("1", [(ev.READ, ("x",))])
    t2 = summary("2", [(ev.WRITE, ("y",))])
    _, _, rf = encode_read_write({"1": t1, "2": t2})
    assert rf[("1", 0)] == [INIT]


def test_array_elements_are_distinct_addresses():
    t1 = summary("1", [(ev.READ, ("a", 0)), (ev.READ, ("a", 1))])
    t2 = summary("2", [(ev.WRITE, ("a", 0))])
    _, _, rf = encode_read_write({"1": t1, "2": t2})
    assert rf[("1", 0)] == [("2", 0), INIT]
    assert rf[("1", 1)] == [INIT]


def no_middle_clauses(summaries):
    """The solver-side no-middle clauses of ``summaries``' Frw, decoded
    back to atoms: ``[¬rf(r <- w), O_w' < O_w, O_r < O_w']`` each."""
    table = AtomTable()
    rf_before, rf_init, groups, rf = encode_numbered(summaries, table)
    system = ConstraintSystem(
        memory_model="sc",
        summaries=summaries,
        rf_before=rf_before,
        rf_init=rf_init,
        rf_candidates=rf,
    )
    for s in summaries.values():
        for sap in s.saps:
            system.saps[sap.uid] = sap
    system.universes = frw_universes(rf, system.saps, table)
    system.atoms, system.atom_kinds = table.atoms, table.kinds
    solver = ClapSmtSolver(system)
    solver.frw = None  # enumerate the clauses instead of handing them over
    triples = []
    solver._no_middle(triples)
    decoded = [[literal(table.atoms, table.kinds, lit) for lit in t] for t in triples]
    return decoded, rf


def test_no_intervening_write_clause_shape():
    t1 = summary("1", [(ev.READ, ("x",))])
    t2 = summary("2", [(ev.WRITE, ("x",)), (ev.WRITE, ("x",))])
    nomid, rf = no_middle_clauses({"1": t1, "2": t2})
    # For each of the 2 chosen writes, 1 other write -> 2 clauses.
    assert len(nomid) == 2 == no_middle_count(rf)
    r, w0, w1 = ("1", 0), ("2", 0), ("2", 1)
    assert nomid == [
        [("not", RFChoice(r, w0)), OLt(w1, w0), OLt(r, w1)],
        [("not", RFChoice(r, w1)), OLt(w0, w1), OLt(r, w0)],
    ]


def test_init_choice_orders_read_before_all_writes():
    t1 = summary("1", [(ev.READ, ("x",))])
    t2 = summary("2", [(ev.WRITE, ("x",)), (ev.WRITE, ("x",))])
    clauses, _, _ = encode_read_write({"1": t1, "2": t2})
    r, init = ("1", 0), ("not", RFChoice(("1", 0), INIT))
    init_clauses = [c for c in clauses if c[0] == init]
    assert init_clauses == [[init, OLt(r, ("2", 0))], [init, OLt(r, ("2", 1))]]


def test_clause_count_matches_quadratic_bound():
    # 1 read, n writes: 1 rf-before per write + (n-1) no-middle per write
    # + n rf-init = n + n(n-1) + n clauses.  The encoder builds the 2n
    # linear ones; the solver enumerates the n(n-1) no-middle ones.
    n = 5
    t1 = summary("1", [(ev.READ, ("x",))])
    t2 = summary("2", [(ev.WRITE, ("x",))] * n)
    clauses, _, _ = encode_read_write({"1": t1, "2": t2})
    assert len(clauses) == n + n
    nomid, rf = no_middle_clauses({"1": t1, "2": t2})
    assert len(nomid) == no_middle_count(rf) == n * (n - 1)
