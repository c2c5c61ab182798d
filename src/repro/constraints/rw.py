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
are a function of ``rf_candidates`` alone.  :func:`frw_universes` emits
the structure they come from, O(Nr·Nw + Nw²) entries per address, and
the SMT solver forms a clause when the search reaches it
(:mod:`repro.solver.frw`).  :func:`no_middle_count` gives their number
for the statistics.
"""

from repro.constraints.model import INIT, addr_key


def no_middle_count(rf_candidates):
    """Frw's no-middle clauses: ``k·(k−1)`` per read with ``k`` write
    candidates, one per (chosen write, other write) pair."""
    total = 0
    for sources in rf_candidates.values():
        k = len(sources) - (INIT in sources)
        total += k * (k - 1)
    return total


def encode_read_write(summaries, table):
    """Build Frw without its no-middle clauses, numbering its atoms in
    ``table`` (an :class:`~repro.constraints.model.AtomTable`).

    Returns ``(rf_before, rf_init, groups, rf_candidates)``: the flat
    clause pairs, and per read (in ``rf_candidates`` order) its
    exactly-one group.  A read with no write candidate has ``rf(r,
    init)`` in its group only; that choice is left unnumbered (0) for the
    caller, which places the group."""
    rf_before = []
    rf_init = []
    groups = []
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
            r = read.uid
            sources = [
                w.uid
                for w in writes
                if not (w.thread == read.thread and w.index > read.index)
            ]
            group = []
            for w in sources:
                choice = table.rf(r, w)
                group.append(choice)
                rf_before += (-choice, table.order(w, r))
            if sources:
                init = table.rf(r, INIT)
                for p in range(len(rf_before) - 2 * len(sources), len(rf_before), 2):
                    rf_init += (-init, -rf_before[p + 1])
            else:
                init = 0
            group.append(init)
            groups.append(group)
            sources.append(INIT)
            rf_candidates[r] = sources
    return rf_before, rf_init, groups, rf_candidates


def frw_universes(rf_candidates, saps, table):
    """Frw's write universes (``ConstraintSystem.universes``).

    Numbers in ``table`` the order atom of each pair of writes that are
    both candidates of one read, in the order the reads meet them: per
    read, per candidate write ``w`` in order, each later candidate ``w'``
    whose pair with ``w`` is new gives ``O_w' < O_w``."""
    universes = {}
    offset = 0
    for read, sources in rf_candidates.items():
        k = len(sources) - 1
        if k >= 2:
            addr = saps[read].addr
            universe = universes.get(addr)
            if universe is None:
                universe = universes[addr] = ({}, [], [], [])
            numbers, paired, pairs, reads = universe
            ids = []
            later = 0
            for w in sources[:k]:
                number = numbers.get(w)
                if number is None:
                    number = numbers[w] = len(numbers)
                    paired.append(0)
                ids.append(number)
                later |= 1 << number
            for p in range(k):
                i = ids[p]
                later &= ~(1 << i)
                missing = later & ~paired[i]
                if not missing:
                    continue
                for q in range(p + 1, k):
                    j = ids[q]
                    if missing >> j & 1:
                        pairs += (j, i, table.order(sources[q], sources[p]))
                        paired[i] |= 1 << j
                        paired[j] |= 1 << i
            reads.append((read, offset, ids))
        offset += k
    return [
        (list(numbers), pairs, reads)
        for numbers, _paired, pairs, reads in universes.values()
    ]
