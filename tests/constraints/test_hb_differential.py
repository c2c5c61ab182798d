"""Differential: Frw generated lazily vs Frw built up front.

The default CDCL core keeps Frw's no-middle clauses and the pairwise
exclusions of large choice groups virtual (:mod:`repro.solver.frw`) and
materializes one only when it propagates or conflicts; the reference
core, which has no theory hook, gets every one of them before the
search.  Both must agree on satisfiability, and every schedule either
returns must pass the validator and replay the recorded failure.
Checked on litmus-shaped assert programs under all three memory models
(the TSO/PSO runs exercise the partial per-thread orders the fixed-order
closure must not over-order) and on the full Table-1 suite.  "hb" in
the test names is that fixed-order (happens-before) closure: the
encodings compared differ only in what it settles before the search.
"""

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.constraints.encoder import encode
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.replay import replay_schedule
from repro.runtime.scheduler import RandomScheduler
from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL
from repro.solver.smt import ClapSmtSolver, solve_constraints
from repro.solver.validate import ScheduleValidator
from repro.tracing.decoder import decode_log
from repro.tracing.recorder import PathRecorder

# Litmus shapes instrumented with a failing assert.  Which models can
# manifest each bug differs (SB/MP need store-buffer reordering), so the
# record loop skips model/program pairs whose bug never shows up.
RACY_INCR_SRC = """
int x = 0;
void w() { int r = x; yield; x = r + 1; }
int main() {
    int t1 = 0;
    int t2 = 0;
    t1 = spawn w();
    t2 = spawn w();
    join(t1);
    join(t2);
    assert(x == 2);
    return 0;
}
"""

SB_ASSERT_SRC = """
int x = 0;
int y = 0;
int r1 = 0;
int r2 = 0;
void t1() { x = 1; r1 = y; }
void t2() { y = 1; r2 = x; }
int main() {
    int h1 = 0;
    int h2 = 0;
    h1 = spawn t1();
    h2 = spawn t2();
    join(h1);
    join(h2);
    assert(r1 + r2 > 0);
    return 0;
}
"""

MP_ASSERT_SRC = """
int data = 0;
int flag = 0;
int seen = 0;
int got = 0;
void prod() { data = 42; flag = 1; }
void cons() { seen = flag; got = data; }
int main() {
    int h1 = 0;
    int h2 = 0;
    h1 = spawn prod();
    h2 = spawn cons();
    join(h1);
    join(h2);
    assert(seen == 0 || got == 42);
    return 0;
}
"""

LITMUS_SOURCES = {
    "racy_incr": RACY_INCR_SRC,
    "sb": SB_ASSERT_SRC,
    "mp": MP_ASSERT_SRC,
}


def record_failure(src, memory_model, seeds=range(400)):
    """(program, shared, summaries, bug) of a failing run, or None."""
    prog = compile_source(src)
    shared = shared_variables(prog)
    for seed in seeds:
        recorder = PathRecorder(prog)
        interp = Interpreter(
            prog,
            memory_model=memory_model,
            scheduler=RandomScheduler(seed, stickiness=0.4, flush_prob=0.25),
            shared=shared,
            hooks=[recorder],
        )
        result = interp.run()
        recorder.finalize(interp)
        if result.bug is not None and result.bug.kind == "assertion":
            summaries = execute_recorded_paths(
                prog, decode_log(recorder), shared, bug=result.bug
            )
            return prog, shared, summaries, result.bug
    return None


def assert_lazy_matches_eager(prog, shared, system, bug, memory_model):
    lazy = solve_constraints(system, max_seconds=60)
    eager = solve_constraints(system, max_seconds=60, sat_factory=ReferenceCDCL)
    assert lazy.ok == eager.ok
    if not lazy.ok:
        return
    for solved in (lazy, eager):
        assert ScheduleValidator(system).validate(solved.schedule).ok
        outcome = replay_schedule(
            prog,
            solved.schedule,
            memory_model,
            shared=shared,
            expected_bug=bug,
        )
        assert outcome.reproduced, outcome


@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
@pytest.mark.parametrize("name", sorted(LITMUS_SOURCES))
def test_litmus_hb_encoding_equisatisfiable(name, memory_model):
    recorded = record_failure(LITMUS_SOURCES[name], memory_model)
    if recorded is None:
        pytest.skip("%s bug does not manifest under %s" % (name, memory_model))
    prog, shared, summaries, bug = recorded
    system = encode(summaries, memory_model, prog.symbols, shared)
    assert_lazy_matches_eager(prog, shared, system, bug, memory_model)


_TABLE1 = {}


def table1_artifacts(name):
    """One recorded failure per Table-1 benchmark, cached for the module."""
    if name not in _TABLE1:
        bench = get_benchmark(name)
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
        recorded = pipeline.record()
        _TABLE1[name] = (pipeline, recorded, pipeline.analyze(recorded))
    return _TABLE1[name]


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_hb_encoding_equisatisfiable(name):
    pipeline, recorded, system = table1_artifacts(name)
    assert_lazy_matches_eager(
        pipeline.program,
        pipeline.shared,
        system,
        recorded.bug,
        pipeline.config.memory_model,
    )


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_hb_closure_prunes_something(name):
    _pipeline, _recorded, system = table1_artifacts(name)
    # Every benchmark forks and joins, so the fixed-order closure always
    # satisfies some of F's clauses before they reach the SAT core.
    assert ClapSmtSolver(system).decided_clauses > 0
