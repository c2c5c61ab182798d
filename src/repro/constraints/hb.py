"""Happens-before closure of the hard order edges, with O(1) queries.

The encoder accumulates *hard* edges — Fmo's per-model program order plus
Fso's fork/start/exit/join must-edges — before Frw is built.  Those edges
hold in **every** model of the system, so their transitive closure is a
certificate usable for pruning: any reads-from candidate or clause the
closure already decides can be dropped from the encoding without changing
satisfiability (see :class:`HBPruner`).

The closure is computed once per encoding as a *chain decomposition with
per-node chain clocks*, the vector-clock generalization that stays exact
on partial per-thread orders:

1. Topologically sort the hard-edge DAG (Kahn).
2. Greedily decompose it into chains (vertex-disjoint paths): each node
   extends a chain whose current tail is one of its predecessors, else it
   starts a new chain.  Under SC the chains are essentially the threads;
   under TSO/PSO — where one thread's hard order splits into read and
   per-address write chains — the decomposition follows those sub-chains
   automatically.  This matters for soundness: a plain per-thread
   ``(thread, index)`` interval comparison would claim orderings TSO/PSO
   do not guarantee.
3. For every node ``b`` keep a clock: ``clock[b][c]`` = the maximum chain
   position among chain-``c`` nodes that provably happen before ``b``.

``must_before(a, b)`` is then one array lookup: ``a`` happens before
``b`` iff ``clock[b][chain(a)] >= pos(a)`` — exact in both directions
because every chain is a real path of hard edges.  Construction is
O((V + E) · chains); queries are O(1).

A cyclic hard-edge set means the recording itself is inconsistent; the
closure fails safe (``cyclic`` set, no ordering claims) and the solver's
own reachability pass still reports the contradiction as unsat.
"""

from dataclasses import dataclass


@dataclass
class PruneStats:
    """Counters surfaced through ``constraints.stats.ConstraintStats``.

    All counts are relative to the *raw* (``hb=False``, completely
    unpruned) encoding.
    """

    candidates_pruned: int = 0  # write candidates removed (R1/R2)
    init_pruned: int = 0  # INIT options removed (R3)
    clauses_pruned: int = 0  # rf clauses skipped as hard-edge implied
    pairs_considered: int = 0  # (read, candidate) pairs examined

    @property
    def choice_vars_pruned(self):
        """Reduction in n_choice_vars vs. the unpruned encoding."""
        return self.candidates_pruned + self.init_pruned


class HBClosure:
    """Transitive closure of the hard edges via chain clocks."""

    def __init__(self, uids, hard_edges):
        index = {}
        for uid in uids:
            if uid not in index:
                index[uid] = len(index)
        # Hard edges may mention uids the caller did not list (defensive);
        # include them so closure queries never KeyError.
        pairs = set()
        for edge in hard_edges:
            a, b = (edge.a, edge.b) if hasattr(edge, "a") else edge
            if a not in index:
                index[a] = len(index)
            if b not in index:
                index[b] = len(index)
            pairs.add((index[a], index[b]))
        n = len(index)
        self._index = index
        self.n_nodes = n
        succ = [[] for _ in range(n)]
        preds = [[] for _ in range(n)]
        indeg = [0] * n
        for ia, ib in pairs:
            succ[ia].append(ib)
            preds[ib].append(ia)
            indeg[ib] += 1

        # Kahn topological order.  FIFO over node creation order keeps the
        # traversal deterministic and roughly program-ordered, which keeps
        # the greedy chain count near the per-thread minimum.
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        degree = list(indeg)
        while head < len(order):
            node = order[head]
            head += 1
            for nxt in succ[node]:
                degree[nxt] -= 1
                if degree[nxt] == 0:
                    order.append(nxt)
        self.cyclic = len(order) != n
        if self.cyclic:
            # Fail safe: claim nothing.  The solver's reachability pass
            # independently detects the cycle and reports unsat.
            self._chain = self._pos = self._clock = None
            self.n_chains = 0
            return

        # Greedy chain decomposition in topological order.
        chain = [-1] * n
        pos = [0] * n
        tails = []  # chain id -> current tail node
        for node in order:
            best = -1
            for p in preds[node]:
                if tails[chain[p]] == p and (best < 0 or pos[p] > pos[best]):
                    best = p
            if best >= 0:
                chain[node] = chain[best]
                pos[node] = pos[best] + 1
                tails[chain[best]] = node
            else:
                chain[node] = len(tails)
                tails.append(node)
        k = len(tails)
        self._chain = chain
        self._pos = pos
        self.n_chains = k

        # Clock propagation: clock[b][c] = max position of a chain-c node
        # that strictly happens before b (-1 when none does).
        clock = [None] * n
        for node in order:
            row = [-1] * k
            for p in preds[node]:
                prow = clock[p]
                for c in range(k):
                    if prow[c] > row[c]:
                        row[c] = prow[c]
                if pos[p] > row[chain[p]]:
                    row[chain[p]] = pos[p]
            clock[node] = row
        self._clock = clock

    def must_before(self, a, b):
        """True iff hard edges force SAP ``a`` strictly before ``b``."""
        if self.cyclic:
            return False
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None or ia == ib:
            return False
        return self._clock[ib][self._chain[ia]] >= self._pos[ia]

    # The SMT solver's fixed-order reachability interface.
    reaches = must_before


def _must_order_closure(hard_edges):
    """{uid: set of uids provably after it} from the hard-edge DAG.

    The set-based reference implementation of the transitive closure —
    :class:`repro.constraints.hb.HBClosure` replaces it on the encoding
    hot path, and the differential tests check the two agree edge for
    edge.  Falls back to an empty closure (no pruning) if the edges are
    somehow cyclic.
    """
    unique = {(edge.a, edge.b) for edge in hard_edges}
    succs = {}
    indegree = {}
    for a, b in unique:
        succs.setdefault(a, set()).add(b)
        indegree.setdefault(a, indegree.get(a, 0))
        indegree[b] = indegree.get(b, 0) + 1
    nodes = set(indegree)
    # Kahn topological order.
    order = []
    ready = sorted((n for n in nodes if indegree[n] == 0), reverse=True)
    degree = dict(indegree)
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in succs.get(node, ()):
            degree[succ] -= 1
            if degree[succ] == 0:
                ready.append(succ)
    if len(order) != len(nodes):
        return {}  # cycle: refuse to prune anything
    descendants = {}
    for node in reversed(order):
        acc = set()
        for succ in succs.get(node, ()):
            acc.add(succ)
            acc |= descendants.get(succ, set())
        if acc:
            descendants[node] = acc
    return descendants


class HBPruner:
    """Always-on Frw pruning from the hard-edge must-order alone.

    Every rule removes only reads-from candidates (or clauses) that are
    *false in every model* (or true in every model) of the remaining
    system, so the pruned encoding is equisatisfiable with the full one
    and yields the same schedules — no static race-freeness certificate
    is needed, because hard edges hold unconditionally:

    * R1: ``rf(r <- w)`` is impossible when ``must(r -> w)`` (a read
      cannot return a write that is forced after it);
    * R2: ``w`` is *shadowed* when some other candidate ``w'`` satisfies
      ``must(w -> w') ∧ must(w' -> r)`` — ``w'`` always sits in between,
      so the rf-nomid clause for ``w`` can never hold;
    * R3: the INIT option is impossible when some candidate satisfies
      ``must(w -> r)`` (a write always precedes the read).

    Dropping a shadowed candidate also drops the rf-nomid clauses in
    which it appears as the *middle* write; those remain implied because
    for any kept choice the shadowing chain ends in a kept candidate
    whose own nomid clause subsumes them.

    This is the encoding's only Frw pruner; the closure it queries is
    computed once per encoding by the encoder.
    """

    def __init__(self, closure):
        self.hb = closure
        self.stats = PruneStats()

    def must_before(self, uid_a, uid_b):
        return self.hb.must_before(uid_a, uid_b)

    # -- the filter ------------------------------------------------------

    def filter_candidates(self, read, candidates):
        """Return (kept_candidates, include_init)."""
        self.stats.pairs_considered += len(candidates) + 1

        kept = []
        for w in candidates:
            if self._candidate_impossible(read, w, candidates):
                self.stats.candidates_pruned += 1
            else:
                kept.append(w)

        include_init = True
        if any(self.must_before(w.uid, read.uid) for w in kept):
            include_init = False  # R3: some write always precedes the read
            self.stats.init_pruned += 1
        if not kept and not include_init:
            include_init = True  # defensive: never leave a read sourceless
            self.stats.init_pruned -= 1
        return kept, include_init

    def _candidate_impossible(self, read, w, candidates):
        if self.must_before(read.uid, w.uid):
            return True  # R1
        for other in candidates:
            if other is w:
                continue
            if self.must_before(w.uid, other.uid) and self.must_before(
                other.uid, read.uid
            ):
                return True  # R2: shadowed
        return False

    # -- clause-level skips (redundant, not just impossible) -------------

    def nomid_clause_redundant(self, read, w, other):
        """rf-nomid(read<-w vs other) holds in every model?"""
        if self.must_before(other.uid, w.uid) or self.must_before(
            read.uid, other.uid
        ):
            self.stats.clauses_pruned += 1
            return True
        return False

    def before_clause_redundant(self, read, w):
        """rf-before(read<-w) holds in every model?"""
        if self.must_before(w.uid, read.uid):
            self.stats.clauses_pruned += 1
            return True
        return False

    def init_clause_redundant(self, read, w):
        """rf-init's OLt(read, w) disjunct holds in every model?"""
        if self.must_before(read.uid, w.uid):
            self.stats.clauses_pruned += 1
            return True
        return False
