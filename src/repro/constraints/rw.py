"""Read-write constraints Frw (paper Section 3.2).

For every read ``r`` on address ``A`` with writes ``W = {w1..wn}`` on ``A``:

* ``r`` reads from exactly one source — some ``wi`` or the initial value;
* choosing ``wi`` requires ``O_wi < O_r`` and, for every other ``wj``,
  ``O_wj < O_wi ∨ O_r < O_wj`` (no write in between);
* choosing the initial value requires ``O_r < O_wj`` for every write
  (the paper's first case: the read precedes all writes).

Same-thread candidates are pruned when program order already contradicts
them (a read can never return a same-thread write that program-order
follows it, under any of SC/TSO/PSO — R->W order is preserved by all
three).  The worst-case size is 4·Nr·Nw², cubic in the number of SAPs,
which is the paper's complexity analysis.

The no-middle clauses — the ``Nw²`` factor — are not built here: they
are a function of ``rf_candidates`` alone.  The SMT solver keeps only
the structure they come from, O(Nr·Nw + Nw²) entries per address, and
forms a clause when the search reaches it (:mod:`repro.solver.frw`).
:func:`no_middle_count` gives their number for the statistics.
"""

from repro.constraints.model import (
    INIT,
    Clause,
    ExactlyOne,
    Lit,
    OLt,
    RFChoice,
    addr_key,
)


def no_middle_count(rf_candidates):
    """Frw's no-middle clauses: ``k·(k−1)`` per read with ``k`` write
    candidates, one per (chosen write, other write) pair."""
    total = 0
    for sources in rf_candidates.values():
        k = len(sources) - (INIT in sources)
        total += k * (k - 1)
    return total


def encode_read_write(summaries):
    """Build Frw without its no-middle clauses.  Returns (clauses,
    exactly_one, rf_candidates)."""
    clauses = []
    exactly_one = []
    rf_candidates = {}

    reads_by_addr = {}
    writes_by_addr = {}
    for summary in summaries.values():
        for sap in summary.saps:
            if sap.is_read:
                reads_by_addr.setdefault(sap.addr, []).append(sap)
            elif sap.is_write:
                writes_by_addr.setdefault(sap.addr, []).append(sap)

    for addr, reads in sorted(reads_by_addr.items(), key=lambda kv: addr_key(kv[0])):
        writes = writes_by_addr.get(addr, [])
        for read in reads:
            candidates = [
                w
                for w in writes
                if not (w.thread == read.thread and w.index > read.index)
            ]
            rf_candidates[read.uid] = [w.uid for w in candidates] + [INIT]
            lits = []
            for w in candidates:
                choice = RFChoice(read.uid, w.uid)
                lits.append(Lit(choice))
                clauses.append(
                    Clause(
                        [Lit(choice, False), Lit(OLt(w.uid, read.uid))],
                        origin="rf-before",
                    )
                )
            init_choice = RFChoice(read.uid, INIT)
            lits.append(Lit(init_choice))
            for w in candidates:
                clauses.append(
                    Clause(
                        [Lit(init_choice, False), Lit(OLt(read.uid, w.uid))],
                        origin="rf-init",
                    )
                )
            exactly_one.append(ExactlyOne(lits, origin="rf-one"))
    return clauses, exactly_one, rf_candidates
