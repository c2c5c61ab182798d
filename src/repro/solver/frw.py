"""Frw as a lazily generated theory, checked inside the CDCL search.

Frw's no-middle clauses ``¬rf(r, w) ∨ O_w' < O_w ∨ O_r < O_w'`` are the
``4·Nr·Nw²`` term of the paper's §4.1, and most of them never matter:
a search decides a handful of reads-from choices and the rest of the
clauses stay satisfied by their ``¬rf`` literal.  The pairwise
exclusions of a large choice group are the same story.  So the solver
keeps both kinds as *virtual* clauses here instead of loading them into
the SAT core (lazy clause generation, Ohrimenko, Stuckey and Codish,
*Constraints* 2009):

* each virtual clause is watched by the negations of its literals, so it
  is looked at only when one of its literals becomes false;
* a clause that is then unit under the trail is handed to the core as a
  lemma, which the core attaches and propagates; a clause that is false
  is handed over as a conflict.  Either way it becomes an ordinary clause
  of the core and is never handed over again;
* a clause with a true literal or two unassigned ones stays virtual.

Every trail entry the theory has not checked yet is on the current
decision level (the core lets the theory catch up before it decides), so
checking a clause against the whole trail when one of its literals is
falsified finds it exactly when it first becomes unit or false.

The theory sits in front of the order theory
(:class:`~repro.solver.order.OrderTheory`) on the core's one theory
hook: it catches up on the trail first, then lets the order theory
assert the same literals.
"""


class FrwTheory:
    """Virtual clauses over the SAT core's variables, plus an inner theory.

    ``assign`` is the core's variable -> ``True``/``False``/``None`` list,
    read (never written) to evaluate clauses.  ``inner`` is the theory
    that sees the trail after this one has caught up."""

    def __init__(self, assign, inner):
        self.value = assign
        self.inner = inner
        # Clause id -> its literals, or None once handed to the core.
        self.clauses = []
        self.watch = {}  # assigned literal -> ids of clauses it falsifies
        self.head = 0  # trail positions before this one are checked
        self.cursor = 0  # next watch-list index at trail[head]
        self.inner_head = 0

    def add(self, lits):
        """Keep the clause ``lits`` (two or more literals) virtual.  Add
        clauses before the search starts: a literal the theory has already
        checked on the trail is not looked at again."""
        cid = len(self.clauses)
        self.clauses.append(lits)
        watch = self.watch
        for lit in lits:
            ids = watch.get(-lit)
            if ids is None:
                watch[-lit] = [cid]
            else:
                ids.append(cid)

    def assign(self, trail, start):
        """Check the clauses ``trail[self.head:]`` falsifies, then run the
        inner theory.  Returns ``(clause, stop)`` like the order theory,
        where ``clause`` may also be a unit lemma: every literal false
        but one, which is unassigned.  ``start`` is ``stop`` from the
        previous call; this theory and the inner one keep their own
        heads, and ``stop`` is the lower of the two."""
        clauses, value, watch = self.clauses, self.value, self.watch
        position = self.head
        cursor = self.cursor
        end = len(trail)
        while position < end:
            ids = watch.get(trail[position])
            if ids:
                n_ids = len(ids)
                while cursor < n_ids:
                    clause = clauses[ids[cursor]]
                    cursor += 1
                    if clause is None:
                        continue
                    free = False
                    for lit in clause:
                        current = value[lit if lit > 0 else -lit]
                        if current is None:
                            if free:
                                break  # two unassigned literals
                            free = True
                        elif current is (lit > 0):
                            break  # satisfied
                    else:
                        clauses[ids[cursor - 1]] = None
                        self.head, self.cursor = position, cursor
                        return clause, min(position, self.inner_head)
            position += 1
            cursor = 0
        self.head, self.cursor = end, 0
        conflict, self.inner_head = self.inner.assign(trail, self.inner_head)
        return conflict, self.inner_head

    def phase(self, var, saved):
        return self.inner.phase(var, saved)

    def backtrack(self, trail_len):
        if self.head >= trail_len:
            self.head, self.cursor = trail_len, 0
        if self.inner_head > trail_len:
            self.inner_head = trail_len
        self.inner.backtrack(trail_len)
