"""Ball-Larus efficient path profiling on MiniLang CFGs.

Implements the classical algorithm (Ball & Larus, MICRO'96) that CLAP's
online phase extends: acyclic intra-procedural paths get dense integer ids
such that the id of a path is the sum of the values of its edges.  Loops
are handled with the standard pseudo-edge trick:

* each back edge ``u -> v`` is removed from the DAG and replaced by pseudo
  edges ``ENTRY -> v`` and ``u -> EXIT``;
* at runtime, taking the back edge emits the current path id plus
  ``val(u -> EXIT)`` and restarts the counter at ``val(ENTRY -> v)``.

The id space of each function is ``[0, num_paths)``; ids regenerate the
exact block sequence (including *prefix* paths, which CLAP needs because a
crashed execution stops threads mid-path — see :func:`BallLarus.decode`).
"""

from dataclasses import dataclass, field

from repro.minilang import bytecode as bc

# Synthetic exit node id (no real block may use it).
EXIT_NODE = -1

# Edge kinds.
REAL = "real"
TO_EXIT = "to-exit"  # real edge from a RET block to EXIT_NODE
PSEUDO_ENTRY = "pseudo-entry"  # ENTRY -> back-edge target
PSEUDO_EXIT = "pseudo-exit"  # back-edge source -> EXIT


@dataclass(frozen=True)
class DagEdge:
    src: int
    dst: int
    kind: str


class BallLarus:
    """Ball-Larus numbering for one compiled function."""

    def __init__(self, func):
        self.func = func
        self.back_edges = self._find_back_edges()
        self.dag = self._build_dag()
        self.num_paths, self.edge_val = self._assign_values()
        # Successor adjacency (value-sorted descending) for decoding.
        self._succ = {}
        for edge in self.dag:
            self._succ.setdefault(edge.src, []).append(edge)
        for edges in self._succ.values():
            edges.sort(key=lambda e: self.edge_val[e], reverse=True)
        # Runtime lookup tables.
        self.real_edge_val = {
            (e.src, e.dst): self.edge_val[e] for e in self.dag if e.kind == REAL
        }
        self.ret_edge_val = {
            e.src: self.edge_val[e] for e in self.dag if e.kind == TO_EXIT
        }
        self.backedge_reset = {}  # (u, v) -> (emit_add, new_counter)
        pseudo_exit_val = {
            e.src: self.edge_val[e] for e in self.dag if e.kind == PSEUDO_EXIT
        }
        pseudo_entry_val = {
            e.dst: self.edge_val[e] for e in self.dag if e.kind == PSEUDO_ENTRY
        }
        for (u, v) in self.back_edges:
            self.backedge_reset[(u, v)] = (pseudo_exit_val[u], pseudo_entry_val[v])
        # Count of instrumentation sites (edges with a non-zero increment
        # plus one emit per back edge / exit) — the overhead model.
        self.instrumented_edges = sum(
            1 for e in self.dag if e.kind == REAL and self.edge_val[e] != 0
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _cfg_succ(self, block_id):
        return self.func.blocks[block_id].successors()

    def _find_back_edges(self):
        """DFS from entry; an edge to a node on the current DFS stack is a
        back edge (sufficient for the reducible CFGs our compiler emits)."""
        back = set()
        on_stack = set()
        visited = set()

        # Iterative DFS to survive deep CFGs.
        stack = [(0, iter(self._cfg_succ(0)))]
        visited.add(0)
        on_stack.add(0)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ in on_stack:
                    back.add((node, succ))
                elif succ not in visited:
                    visited.add(succ)
                    on_stack.add(succ)
                    stack.append((succ, iter(self._cfg_succ(succ))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_stack.discard(node)
        self._reachable = visited
        return back

    def _build_dag(self):
        edges = []
        for block in self.func.blocks:
            if block.id not in self._reachable:
                continue
            term = block.terminator
            if term is not None and term.op == bc.RET:
                edges.append(DagEdge(block.id, EXIT_NODE, TO_EXIT))
            for succ in block.successors():
                if (block.id, succ) in self.back_edges:
                    continue
                edges.append(DagEdge(block.id, succ, REAL))
        # Deduplicate pseudo edges: two back edges sharing a target (or a
        # source) must share one pseudo edge, or values would double-count.
        for v in sorted({v for (_, v) in self.back_edges}):
            edges.append(DagEdge(0, v, PSEUDO_ENTRY))
        for u in sorted({u for (u, _) in self.back_edges}):
            edges.append(DagEdge(u, EXIT_NODE, PSEUDO_EXIT))
        return edges

    def _assign_values(self):
        """Topological NumPaths computation; edge values are prefix sums."""
        succ = {}
        indeg = {EXIT_NODE: 0}
        for node in self._reachable:
            indeg.setdefault(node, 0)
        for edge in self.dag:
            succ.setdefault(edge.src, []).append(edge)
            indeg[edge.dst] = indeg.get(edge.dst, 0) + 1

        # Kahn topological order.
        order = []
        ready = [n for n, d in sorted(indeg.items()) if d == 0]
        indeg = dict(indeg)
        while ready:
            node = ready.pop()
            order.append(node)
            for edge in succ.get(node, ()):
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(indeg):
            raise ValueError(
                "CFG of %s is not reducible to a DAG (irreducible loop?)"
                % self.func.name
            )

        num_paths = {EXIT_NODE: 1}
        edge_val = {}
        for node in reversed(order):
            if node == EXIT_NODE:
                continue
            out = succ.get(node, [])
            if not out:
                # A dead-end block (unreachable-in-practice); give it one
                # path so decoding stays total.
                num_paths[node] = 1
                continue
            total = 0
            # Deterministic order: by (dst, kind) so runtime and decoder agree.
            for edge in sorted(out, key=lambda e: (e.dst, e.kind)):
                edge_val[edge] = total
                total += num_paths[edge.dst]
            num_paths[node] = total
        return num_paths[0], edge_val

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def decode(self, path_id, stop_block=None, start_block=None):
        """Regenerate the block sequence of ``path_id``.

        For a complete path (``stop_block is None``) the walk runs from
        ENTRY to EXIT.  For a *prefix* path — a thread stopped mid-path by
        the failure — ``stop_block`` names the block where execution
        stopped, and the walk ends there.  Prefix decoding is unique: two
        distinct prefixes ending at the same block with the same value
        would extend to two complete paths with the same id.

        ``start_block`` decodes a *suffix* segment beginning at an
        arbitrary block — the first segment after a checkpoint resume,
        whose counter restarted at 0 mid-path.  Suffix sums from a node m
        are unique in [0, NumPaths(m)) by the same Ball-Larus invariant.

        Returns ``(blocks, ended_by_back_edge)`` where ``blocks`` is the
        sequence of real block ids visited by this path segment.
        """
        blocks = []
        resumed = start_block is not None
        node = start_block if resumed else 0
        remaining = path_id
        first = not resumed
        ended_by_back_edge = False
        while True:
            if node != EXIT_NODE:
                is_pseudo_start = False
                if first:
                    # A segment that starts after a back edge begins with
                    # the pseudo ENTRY edge; take it if its value fits and
                    # it is the greedy choice.
                    pass
                blocks.append(node)
            if stop_block is not None and node == stop_block and remaining == 0:
                break
            if node == EXIT_NODE:
                break
            out = self._succ.get(node)
            if not out:
                break
            chosen = None
            for edge in out:  # sorted by value, descending
                if first and edge.kind == PSEUDO_EXIT:
                    continue  # cannot end before starting
                if resumed and edge.kind == PSEUDO_ENTRY:
                    continue  # suffix segments start mid-path, physically
                if self.edge_val[edge] <= remaining:
                    chosen = edge
                    break
            if chosen is None:
                raise ValueError(
                    "cannot decode path id %d in %s at block %d"
                    % (path_id, self.func.name, node)
                )
            remaining -= self.edge_val[chosen]
            if chosen.kind == PSEUDO_ENTRY:
                blocks.pop()  # ENTRY was not really visited by this segment
                node = chosen.dst
                first = False
                continue
            if chosen.kind == PSEUDO_EXIT:
                ended_by_back_edge = True
                break
            node = chosen.dst
            first = False
        return blocks, ended_by_back_edge


@dataclass
class ProgramPaths:
    """Ball-Larus numberings for every function of a program.  A compiled
    program keeps its own
    (:attr:`~repro.minilang.compiler.CompiledProgram.paths`)."""

    by_func: dict = field(default_factory=dict)

    @classmethod
    def build(cls, program):
        paths = cls()
        for name, func in program.functions.items():
            paths.by_func[name] = BallLarus(func)
        return paths

    def __getitem__(self, func_name):
        return self.by_func[func_name]

    def static_path_counts(self):
        return {name: bl.num_paths for name, bl in self.by_func.items()}
