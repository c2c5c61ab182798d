"""The order theory, checked inside the CDCL search.

Every order atom ``O_a < O_b`` the SAT core assigns adds one directed
edge between two SAPs; the fixed edges (Fmo plus fixed Fso) are always
present.  A schedule exists only while this digraph stays acyclic, so
the theory's job is incremental cycle detection under assertion and
backtracking:

* the graph keeps a topological order of its nodes (Pearce–Kelly
  dynamic topological sort).  An edge ``x → y`` with ``y`` already
  after ``x`` cannot close a cycle and costs O(1).  Otherwise a forward
  search from ``y``, bounded to nodes ordered before ``x``, either
  reaches ``x`` — the path plus the new edge is a cycle — or proves
  there is none, and the affected region is reordered;
* backtracking pops edges in trail order.  Removing an edge never
  invalidates a topological order, so it is O(1) per edge;
* a cycle is returned as a conflict clause: the negations of the atom
  literals on it.  Fixed edges carry no literal.

:class:`~repro.solver.cdcl.CDCLSolver` calls :meth:`OrderTheory.assign`
after each unit-propagation fixpoint and analyses the conflict clause
like any other, so an order refinement costs one backjump instead of a
fresh ``solve()`` from decision level 0.  The core never decides an
order atom on its own: once the choices are made, :meth:`OrderTheory.complete`
sets every open atom from the topological order (see
:meth:`~repro.solver.cdcl.CDCLSolver._complete`).  The same order picks
the polarity of a reads-from decision (:meth:`OrderTheory.phase`), so the
first reads-from map is the one the order it completes to implies.
"""

import heapq


class OrderTheory:
    """Incremental acyclicity of fixed edges plus assigned order atoms.

    ``n_nodes`` nodes are numbered ``0 … n_nodes-1``, and the initial
    topological order prefers lower numbers; ``fixed_edges`` is an
    iterable of ``(a, b)`` node pairs forming a DAG.  Order atoms are
    registered with :meth:`add_atom`; other variables are ignored."""

    def __init__(self, n_nodes, fixed_edges):
        succ = [[] for _ in range(n_nodes)]
        pred = [[] for _ in range(n_nodes)]
        indeg = [0] * n_nodes
        for a, b in fixed_edges:
            succ[a].append((b, 0))
            pred[b].append(a)
            indeg[b] += 1
        # Kahn's algorithm, lowest-numbered ready node first.
        ready = [node for node in range(n_nodes) if indeg[node] == 0]
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for nxt, _ in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != n_nodes:
            raise ValueError("fixed order constraints are cyclic (unsat)")
        self.ord = [0] * n_nodes
        for position, node in enumerate(order):
            self.ord[node] = position
        self.succ = succ  # node -> [(successor, literal or 0)]
        self.pred = pred  # node -> [predecessor]
        # var -> the nodes its positive literal orders, tail before head;
        # -1 for a variable that is no order atom.
        self.tail = [-1]
        self.head = [-1]
        self.atoms = []  # registered variables, in registration order
        # Reads-from choice var -> (read node, its read's (var, write
        # node) choices); see add_read.
        self.choices = {}
        self.asserted = []  # (tail, head, trail position) in trail order

    def add_atom(self, var, a, b):
        """Track ``var``: its positive literal orders node ``a`` before
        ``b``, its negative literal ``b`` before ``a``."""
        if var >= len(self.tail):
            missing = var + 1 - len(self.tail)
            self.tail.extend([-1] * missing)
            self.head.extend([-1] * missing)
        self.tail[var] = a
        self.head[var] = b
        self.atoms.append(var)

    def add_read(self, read, choices):
        """Track the reads-from choices of the read at node ``read``:
        ``choices`` lists ``(var, write)``, a choice variable and its
        source write's node (-1 for the initial value, which precedes
        every node)."""
        group = tuple(choices)
        for var, _ in group:
            self.choices[var] = (read, group)

    def assign(self, trail, start):
        """Assert the order atoms on ``trail[start:]``.

        Returns ``(conflict, stop)``: ``conflict`` is ``None`` or a
        clause whose literals are all false under the trail, and
        ``stop`` is the trail position the theory has consumed up to —
        the failing literal's position on a conflict, ``len(trail)``
        otherwise."""
        tail, head = self.tail, self.head
        n_vars = len(tail)
        for position in range(start, len(trail)):
            lit = trail[position]
            var = lit if lit > 0 else -lit
            if var >= n_vars:
                continue
            a = tail[var]
            if a < 0:
                continue
            if lit > 0:
                b = head[var]
            else:
                a, b = head[var], a
            conflict = self._add_edge(a, b, lit, position)
            if conflict is not None:
                return conflict, position
        return None, len(trail)

    def phase(self, var, saved):
        """Decide a reads-from choice the way the current topological
        order places its read: true for the candidate write ordered
        latest before the read, false for the others.  When that write is
        refuted, every other candidate is decided false until the group
        forces its last open member.  Other variables keep ``saved``."""
        choice = self.choices.get(var)
        if choice is None:
            return saved
        read, group = choice
        ord_ = self.ord
        limit = ord_[read]
        latest, pick = -2, 0
        for other, write in group:
            position = ord_[write] if write >= 0 else -1
            if latest < position < limit:
                latest, pick = position, other
        return pick == var

    def complete(self, assign):
        """Assign every unassigned order atom in ``assign`` the way the
        topological order places its nodes.  Every edge then runs forward
        in that order, so the completed order is acyclic.
        Returns ``(literals set true, None)``."""
        tail, head, ord_ = self.tail, self.head, self.ord
        completed = []
        for var in self.atoms:
            if assign[var] is None:
                if ord_[tail[var]] < ord_[head[var]]:
                    assign[var] = True
                    completed.append(var)
                else:
                    assign[var] = False
                    completed.append(-var)
        return completed, None

    def backtrack(self, trail_len):
        """Drop every edge asserted at trail position ``>= trail_len``."""
        asserted = self.asserted
        succ, pred = self.succ, self.pred
        while asserted and asserted[-1][2] >= trail_len:
            a, b, _ = asserted.pop()
            succ[a].pop()
            pred[b].pop()

    def _add_edge(self, x, y, lit, position):
        ord_ = self.ord
        upper = ord_[x]
        lower = ord_[y]
        if lower < upper:
            # Forward from y over nodes ordered before x: nodes ordered
            # after x cannot reach it.  Breadth-first, so the reported
            # cycle has the fewest edges the search can show.
            parent = {y: None}
            frontier = [y]
            succ = self.succ
            for node in frontier:
                for nxt, edge_lit in succ[node]:
                    rank = ord_[nxt]
                    if rank == upper:
                        return self._cycle(parent, node, edge_lit, lit)
                    if rank < upper and nxt not in parent:
                        parent[nxt] = (node, edge_lit)
                        frontier.append(nxt)
            # No cycle: nodes reaching x from after y move in front of
            # everything y reaches, each group keeping its own order.
            back = [x]
            seen = {x}
            pred = self.pred
            for node in back:
                for prev in pred[node]:
                    if ord_[prev] > lower and prev not in seen:
                        seen.add(prev)
                        back.append(prev)
            back.sort(key=ord_.__getitem__)
            frontier.sort(key=ord_.__getitem__)
            moved = back + frontier
            slots = sorted(ord_[node] for node in moved)
            for node, slot in zip(moved, slots):
                ord_[node] = slot
        self.succ[x].append((y, lit))
        self.pred[y].append(x)
        self.asserted.append((x, y, position))
        return None

    @staticmethod
    def _cycle(parent, node, edge_lit, lit):
        """The conflict clause for path ``y ⇝ node → x`` plus ``x → y``."""
        clause = [-lit]
        if edge_lit:
            clause.append(-edge_lit)
        step = parent[node]
        while step is not None:
            node, edge_lit = step
            if edge_lit:
                clause.append(-edge_lit)
            step = parent[node]
        return clause
