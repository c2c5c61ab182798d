"""Cross-cutting property-based tests (hypothesis).

These target the invariants the whole system leans on:

* varint and token-stream encodings round-trip;
* Ball-Larus ids are dense and decode uniquely on random CFG shapes;
* C division/modulo satisfy the Euclidean identity;
* randomly scheduled executions of a data-race-free program always produce
  the same final state (determinism of the DRF substrate);
* ground-truth schedules of arbitrary seeded executions always replay.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.minilang import compile_source
from repro.runtime.interpreter import run_program
from repro.runtime.replay import replay_schedule
from repro.runtime.values import c_div, c_mod
from repro.tracing.ball_larus import BallLarus
from repro.tracing.logfmt import decode_tokens, encode_tokens


@given(st.integers(-(10**9), 10**9), st.integers(-(10**6), 10**6))
def test_cdiv_cmod_euclidean_identity(a, b):
    if b == 0:
        return
    q, r = c_div(a, b), c_mod(a, b)
    assert q * b + r == a
    assert abs(r) < abs(b)
    # Truncation toward zero.
    assert q == int(a / b)


_token = st.one_of(
    st.tuples(st.just("enter"), st.integers(0, 2**20)),
    st.tuples(st.just("path"), st.integers(0, 2**40)),
    st.tuples(st.just("exit")),
    st.tuples(
        st.just("partial"),
        st.integers(0, 2**30),
        st.integers(0, 500),
        st.integers(0, 500),
        st.integers(0, 2),
    ),
)


@given(st.lists(_token, max_size=60))
def test_token_streams_roundtrip(tokens):
    assert decode_tokens(encode_tokens(tokens)) == tokens


@st.composite
def branchy_bodies(draw):
    """Random nest of if/else and while over a few locals."""
    depth = draw(st.integers(1, 4))

    def stmt(d):
        kind = draw(st.integers(0, 3 if d > 0 else 1))
        if kind == 0:
            return "a = a + 1;"
        if kind == 1:
            return "b = b + a;"
        if kind == 2:
            inner = " ".join(stmt(d - 1) for _ in range(draw(st.integers(1, 2))))
            return "if (a %% 2 == 0) { %s } else { b = b - 1; }" % inner
        inner = " ".join(stmt(d - 1) for _ in range(draw(st.integers(1, 2))))
        return "while (a < %d) { a = a + 2; %s }" % (draw(st.integers(1, 5)), inner)

    return " ".join(stmt(depth) for _ in range(draw(st.integers(1, 3))))


@settings(max_examples=40, deadline=None)
@given(branchy_bodies())
def test_ball_larus_ids_dense_and_unique(body):
    src = "int main() { int a = 0; int b = 0; %s return 0; }" % body
    prog = compile_source(src)
    bl = BallLarus(prog.main)
    # Enumerate ALL DAG paths (real + pseudo edges): ids must be exactly
    # the dense range [0, num_paths).
    ids = []

    def walk(node, total):
        if node == -1:
            ids.append(total)
            return
        for edge in bl._succ.get(node, []):
            walk(edge.dst, total + bl.edge_val[edge])

    walk(0, 0)
    assert sorted(ids) == list(range(bl.num_paths))


DRF_TEMPLATE = """
int total = 0;
mutex m;
void worker(int k) {
    for (int i = 0; i < %d; i++) {
        lock(m);
        total = total + k;
        unlock(m);
    }
}
int main() {
    int t1 = 0; int t2 = 0; int t3 = 0;
    t1 = spawn worker(1);
    t2 = spawn worker(2);
    t3 = spawn worker(3);
    join(t1); join(t2); join(t3);
    assert(total == %d);
    return 0;
}
"""


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 4))
def test_drf_program_is_schedule_deterministic(seed, iters):
    src = DRF_TEMPLATE % (iters, 6 * iters)
    prog = compile_source(src)
    res = run_program(prog, seed=seed, stickiness=0.3)
    assert res.ok, (seed, res.bug)
    assert res.final_globals[("total",)] == 6 * iters


RACY_TEMPLATE = """
int c = 0;
void w(int n) { for (int i = 0; i < n; i++) { int r = c; c = r + 1; } }
int main() {
    int t1 = 0; int t2 = 0;
    t1 = spawn w(2); t2 = spawn w(2);
    join(t1); join(t2);
    assert(c == 4);
    return 0;
}
"""


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.sampled_from(["sc", "tso", "pso"]))
def test_every_ground_truth_schedule_replays(seed, model):
    """Property: the memory-order event sequence of ANY execution is a
    schedule the replayer can enforce, reproducing the same outcome."""
    prog = compile_source(RACY_TEMPLATE)
    original = run_program(
        prog, model, seed=seed, stickiness=0.4, flush_prob=0.2
    )
    outcome = replay_schedule(
        prog, original.schedule(), model, expected_bug=original.bug
    )
    if original.bug is not None:
        assert outcome.reproduced
    else:
        assert outcome.result.bug is None
        assert outcome.result.final_globals == original.final_globals


# -- Lazy Frw preserves the encoding's models --------------------------

_PRUNE_BENCHMARKS = ["sim_race", "swarm", "pfscan", "bbuf", "aget", "figure2"]


@pytest.mark.parametrize("name", _PRUNE_BENCHMARKS)
def test_hb_prune_preserves_satisfiability_and_reproduction(name):
    """Property: for a seeded benchmark bug, the system is satisfiable
    with Frw's no-middle clauses generated lazily (the default core's
    theory) iff it is with all of them built up front (the reference
    core, which has no theory hook), and both schedules pass the
    validator and replay the failure.  This is the gate behind the lazy
    Frw theory staying sound.  (The name predates the theory: the same
    gate once guarded the happens-before pruner it replaced.)"""
    from repro.bench.programs import get_benchmark
    from repro.core.clap import ClapConfig, ClapPipeline
    from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL
    from repro.solver.smt import solve_constraints
    from repro.solver.validate import ScheduleValidator

    bench = get_benchmark(name)
    program = bench.compile()
    pipeline = ClapPipeline(program, ClapConfig(**bench.config_kwargs()))
    recorded = pipeline.record()
    system = pipeline.analyze(recorded)

    lazy = solve_constraints(system)
    eager = solve_constraints(system, sat_factory=ReferenceCDCL)
    assert lazy.ok == eager.ok
    assert lazy.ok, name  # recorded bugs are always reproducible

    for solved in (lazy, eager):
        assert ScheduleValidator(system).validate(solved.schedule).ok, name
        outcome = pipeline.replay(solved.schedule, recorded.bug)
        assert outcome.reproduced, name
