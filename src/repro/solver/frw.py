"""Frw as a lazily generated theory, checked inside the CDCL search.

Frw's no-middle clauses ``¬rf(r, w) ∨ O_w' < O_w ∨ O_r < O_w'`` are the
``4·Nr·Nw²`` term of the paper's §4.1, and most of them never matter:
a search decides a handful of reads-from choices and the rest of the
clauses stay satisfied by their ``¬rf`` literal.  The pairwise
exclusions of a large choice group are the same story.  So the solver
keeps both kinds out of the SAT core and hands one over only when it
propagates or conflicts (lazy clause generation, Ohrimenko, Stuckey and
Codish, *Constraints* 2009).

Neither kind is stored clause by clause.  The theory keeps the structure
the clauses come from, and watches that walk it when a literal is
assigned:

* a **choice group** of three or more literals is stored once.  When a
  member becomes true, the other members are walked in index order,
  each standing for the exclusion ``¬li ∨ ¬lj``;
* a **write universe** (one address: its writes, numbered ``0 … n-1``)
  stores ``O_wi < O_wj`` once per ordered pair of writes that are both
  candidates of some read, and each read stores one record per
  candidate write: the choice variable ``rf(r, wj)``, the literal
  ``O_r < O_wj`` and the write's number (indexed by read, and by write
  for the reads that may choose it).  A no-middle clause is formed from
  them when a walk reaches it:

  - ``rf(r, w)`` true walks ``r``'s other candidates ``w'``;
  - ``O_w' < O_w`` false walks the reads that may choose ``w`` and have
    ``w'`` as a candidate too;
  - ``O_r < O_w'`` false walks ``r``'s candidates ``w ≠ w'``.

  So the theory stores O(R·W + W²) entries per address instead of the
  R·W² clauses.  A literal the fixed-order closure decides is a Python
  constant in these tables: a clause with a true constant is satisfied
  for good and skipped, a false constant is dropped from the clause
  (:func:`no_middle_clause`).

Each walk visits the clauses containing the falsified literal in the
order a clause-by-clause theory with watch lists would (groups first,
then no-middle clauses by read, chosen write, other write), and a
clause that is unit or false under the trail is handed to the core:
as a lemma, which the core attaches and propagates, or as a conflict.
A handed clause needs no flag.  The core holds it from then on and
propagates to its fixpoint before it calls the theory again, so a walk
that reaches it finds it satisfied or with two unassigned literals.

Every trail entry the theory has not checked yet is on the current
decision level (the core lets the theory catch up before it decides), so
checking a clause against the whole trail when one of its literals is
falsified finds it exactly when it first becomes unit or false.

The theory sits in front of the order theory
(:class:`~repro.solver.order.OrderTheory`) on the core's one theory
hook: it catches up on the trail first, then lets the order theory
assert the same literals.  The values theory
(:class:`~repro.solver.values.ValuesTheory`) wraps both and runs them
to their fixpoint before it checks values.
"""

def no_middle_clause(not_rf, before, after):
    """The no-middle clause ``[¬rf(r, w), O_w' < O_w, O_r < O_w']`` with
    the fixed-order closure's constants dropped.

    ``before`` and ``after`` are literals or ``True``/``False``.  Returns
    ``None`` when a constant satisfies the clause, else the list of its
    remaining literals (``[not_rf]`` alone when both are false)."""
    if before is True or after is True:
        return None
    clause = [not_rf]
    if before is not False:
        clause.append(before)
    if after is not False:
        clause.append(after)
    return clause


class FrwTheory:
    """Choice groups and no-middle structure over the SAT core's
    variables, plus an inner theory.

    ``assign`` is the core's variable -> ``True``/``False``/``None`` list,
    read (never written) to evaluate clauses.  ``inner`` is the theory
    that sees the trail after this one has caught up.  Add structure
    before the search starts: a literal the theory has already checked on
    the trail is not looked at again."""

    def __init__(self, assign, inner):
        self.value = assign
        self.inner = inner
        self.watch = {}  # assigned literal -> walks its assignment starts
        self.groups = []  # member tuples
        self.reads = []  # per read: (choices, afters, writes, position, table, n)
        self.befores = []  # per universe: {i * n + j: O_wi < O_wj}
        # No-middle clauses in the core: units the solver added at build
        # (see ``add_universe``) plus the ones handed over since.
        self.no_middle_built = 0
        self.head = 0  # trail positions before this one are checked
        self.walk = 0  # next watch entry of trail[head]
        self.cursor = 0  # next index within that walk
        self.inner_head = 0

    def _watch(self, lit, entry):
        entries = self.watch.get(lit)
        if entries is None:
            self.watch[lit] = [entry]
        else:
            entries.append(entry)

    def entries(self):
        """Stored entries: one per group member, one per (read, candidate
        write) record and one per ordered write pair.  The per-write
        index of the records and the watches refer to these entries."""
        return (
            sum(len(members) for members in self.groups)
            + sum(len(record[2]) for record in self.reads)
            + sum(len(before) for before in self.befores)
        )

    def add_group(self, lits):
        """At most one of ``lits`` (three or more literals)."""
        members = tuple(lits)
        self.groups.append(members)
        for index, lit in enumerate(members):
            self._watch(lit, (FrwTheory._group, members, index))

    def add_universe(self, n, before, reads):
        """The no-middle clauses of one write universe.

        ``n`` writes are numbered ``0 … n-1``.  ``before`` maps ``(i, j)``
        to the literal or constant ``O_wi < O_wj``, for every ordered pair
        of distinct writes that are both candidates of one read.  ``reads``
        lists, per read with two write candidates or more, the triple
        ``(choices, afters, writes)``: per candidate write in order, the
        variable ``rf(r, w)``, the literal or constant ``O_r < O_w`` and
        the write's number.  Reads are walked in list order."""
        table = {i * n + j: lit for (i, j), lit in before.items()}
        self.befores.append(table)
        # Write number -> (rf(r, w), r's record) per read r choosing among
        # it, in read order: the same records, indexed by write.
        choosers = [[] for _ in range(n)]
        for choices, afters, writes in reads:
            position = {write: p for p, write in enumerate(writes)}
            record = (choices, afters, writes, position, table, n)
            self.reads.append(record)
            for p, var in enumerate(choices):
                self._watch(var, (FrwTheory._chosen, record, p))
                choosers[writes[p]].append((var, record))
            for q, after in enumerate(afters):
                if after is not True and after is not False:
                    self._watch(-after, (FrwTheory._after, record, q))
        for (i, j), lit in before.items():
            if lit is not True and lit is not False:
                self._watch(-lit, (FrwTheory._before, choosers[j], i, lit))

    def assign(self, trail, start):
        """Check the clauses ``trail[self.head:]`` falsifies, then run the
        inner theory.  Returns ``(clause, stop)`` like the order theory,
        where ``clause`` may also be a unit lemma: every literal false
        but one, which is unassigned.  ``start`` is ``stop`` from the
        previous call; this theory and the inner one keep their own
        heads, and ``stop`` is the lower of the two."""
        watch = self.watch
        position, walk, cursor = self.head, self.walk, self.cursor
        end = len(trail)
        while position < end:
            entries = watch.get(trail[position])
            if entries is not None:
                n_entries = len(entries)
                while walk < n_entries:
                    entry = entries[walk]
                    clause, cursor = entry[0](self, entry, cursor)
                    if clause is not None:
                        self.head, self.walk, self.cursor = position, walk, cursor
                        return clause, min(position, self.inner_head)
                    walk += 1
            position += 1
            walk = 0
        self.head, self.walk, self.cursor = end, 0, 0
        conflict, self.inner_head = self.inner.assign(trail, self.inner_head)
        return conflict, self.inner_head

    # A watch entry is ``(walk, ...)``.  Each walk takes its entry and the
    # index to resume at, and returns ``(clause, next index)`` for the
    # first clause that is unit or false, or ``(None, 0)`` at the end.

    def _group(self, entry, cursor):
        """A member became true: its exclusions with the others."""
        _, members, index = entry
        value = self.value
        for other in range(cursor, len(members)):
            if other == index:
                continue
            lit = members[other]
            current = value[lit if lit > 0 else -lit]
            if current is None or current is (lit > 0):
                mine = members[index]
                if other < index:
                    return [-lit, -mine], other + 1
                return [-mine, -lit], other + 1
        return None, 0

    def _chosen(self, entry, cursor):
        """``rf(r, w)`` became true: ``w'`` runs over r's other writes."""
        _, record, p = entry
        clause, cursor = self._no_middle(record, p, cursor)
        if clause is not None:
            self.no_middle_built += 1
        return clause, cursor

    def _no_middle(self, record, p, cursor):
        """The first no-middle clause of ``rf(r, w)`` (``w`` is r's write
        ``p``), from r's write ``cursor`` on, that is false or unit, and
        the cursor past it; ``(None, 0)`` if there is none."""
        choices, afters, writes, _position, table, n = record
        value = self.value
        column = writes[p]
        for q in range(cursor, len(writes)):
            if q == p:
                continue
            before = table[writes[q] * n + column]
            after = afters[q]
            if before is True or after is True:
                continue
            if before is False:
                if after is False:
                    continue  # a unit the solver added at build
                current = value[after if after > 0 else -after]
                if current is not None and current is (after > 0):
                    continue
            elif after is False:
                current = value[before if before > 0 else -before]
                if current is not None and current is (before > 0):
                    continue
            else:
                first = value[before if before > 0 else -before]
                if first is not None and first is (before > 0):
                    continue
                second = value[after if after > 0 else -after]
                if second is not None and second is (after > 0):
                    continue
                if first is None and second is None:
                    continue
            return no_middle_clause(-choices[p], before, after), q + 1
        return None, 0

    def _after(self, entry, cursor):
        """``O_r < O_w'`` became false: ``w`` runs over r's other writes."""
        _, (choices, afters, writes, _position, table, n), q = entry
        value = self.value
        after = afters[q]
        row = writes[q] * n
        for p in range(cursor, len(writes)):
            if p == q:
                continue
            before = table[row + writes[p]]
            if before is True:
                continue
            chosen = value[choices[p]]
            if chosen is False:
                continue
            if before is not False:
                current = value[before if before > 0 else -before]
                if current is not None and current is (before > 0):
                    continue
                if current is None and chosen is None:
                    continue
            self.no_middle_built += 1
            return no_middle_clause(-choices[p], before, after), p + 1
        return None, 0

    def _before(self, entry, cursor):
        """``O_wi < O_wj`` became false: the reads that may choose ``wj``
        and have ``wi`` as a candidate too."""
        _, choosers, i, before = entry
        value = self.value
        for t in range(cursor, len(choosers)):
            choice, record = choosers[t]
            chosen = value[choice]
            if chosen is False:
                continue
            q = record[3].get(i)
            if q is None:
                continue
            after = record[1][q]
            if after is True:
                continue
            if after is not False:
                current = value[after if after > 0 else -after]
                if current is not None and current is (after > 0):
                    continue
                if current is None and chosen is None:
                    continue
            self.no_middle_built += 1
            return no_middle_clause(-choice, before, after), t + 1
        return None, 0

    def phase(self, var, saved):
        return self.inner.phase(var, saved)

    def complete(self, assign):
        """Let the inner theory complete ``assign``, then return its
        answer, or the first no-middle clause of a chosen read that the
        completion falsifies (with every variable assigned, a clause
        :meth:`_no_middle` finds is false).  The groups need no look: they
        hold choice literals only, all assigned and checked by now."""
        completed, clause = self.inner.complete(assign)
        if clause is not None:
            return completed, clause
        value = self.value
        for record in self.reads:
            for p, var in enumerate(record[0]):
                if value[var]:
                    clause = self._no_middle(record, p, 0)[0]
                    if clause is not None:
                        return completed, clause
                    break
        return completed, None

    def backtrack(self, trail_len):
        if self.head >= trail_len:
            self.head, self.walk, self.cursor = trail_len, 0, 0
        if self.inner_head > trail_len:
            self.inner_head = trail_len
        self.inner.backtrack(trail_len)
