"""HB-prune correctness: the pruned Frw is equisatisfiable and smaller."""

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.constraints.encoder import encode
from repro.constraints.model import INIT
from repro.constraints.stats import compute_stats
from repro.minilang import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.scheduler import RandomScheduler
from repro.solver.smt import solve_constraints
from repro.tracing.decoder import decode_log
from repro.tracing.recorder import PathRecorder

from tests.conftest import LOCKED_SRC, RACE_SRC

JOIN_READ_SRC = """
int x = 0;
int y = 0;
void w1() { x = 7; int r = y; yield; y = r + 1; }
void w2() { int r = y; yield; y = r + 1; }
int main() {
    int t1 = 0;
    int t2 = 0;
    x = 1;
    t1 = spawn w1();
    t2 = spawn w2();
    join(t1);
    join(t2);
    int v = x;
    assert(y == 2);
    return 0;
}
"""


def record(src, memory_model="sc", require_bug=True, seeds=range(300)):
    prog = compile_source(src)
    shared = shared_variables(prog)
    for seed in seeds:
        recorder = PathRecorder(prog)
        interp = Interpreter(
            prog,
            memory_model=memory_model,
            scheduler=RandomScheduler(seed, stickiness=0.3),
            shared=shared,
            hooks=[recorder],
        )
        result = interp.run()
        recorder.finalize(interp)
        if not require_bug or result.bug is not None:
            summaries = execute_recorded_paths(
                prog, decode_log(recorder), shared, bug=result.bug
            )
            return prog, shared, summaries
    raise AssertionError("bug never manifested")


def encode_both(src, memory_model="sc", **kwargs):
    """(raw, pruned): the unpruned and the HB-closed encoding."""
    prog, shared, summaries = record(src, memory_model=memory_model, **kwargs)
    raw = encode(summaries, memory_model, prog.symbols, shared, hb=False)
    pruned = encode(summaries, memory_model, prog.symbols, shared)
    return raw, pruned


def test_pruned_candidates_are_subset():
    raw, pruned = encode_both(RACE_SRC)
    for read_uid, sources in pruned.rf_candidates.items():
        assert set(sources) <= set(raw.rf_candidates[read_uid])
    assert pruned.prune_stats is not None  # HB pruning is always on
    assert raw.prune_stats is None  # hb=False is the one raw escape hatch


def test_stats_account_for_every_removed_candidate():
    raw, pruned = encode_both(RACE_SRC)
    sraw, sp = compute_stats(raw), compute_stats(pruned)
    # Prune counters are always relative to the raw encoding.
    assert sraw.n_choice_vars - sp.n_choice_vars == sp.n_pruned_choice_vars
    assert sp.n_pruned_choice_vars > 0  # fork/join always proves something
    assert sraw.n_clauses >= sp.n_clauses


def test_join_read_prunes_init_and_is_forced_to_write():
    raw, pruned = encode_both(JOIN_READ_SRC)
    # main's post-join read of x: the HB closure drops INIT and the
    # shadowed pre-spawn write, leaving exactly the worker write.
    post_join_reads = [
        uid
        for uid, sources in raw.rf_candidates.items()
        if len(sources) >= 3
        and any(s == INIT for s in sources)
        and raw.sap(uid).addr == ("x",)
    ]
    assert post_join_reads
    for uid in post_join_reads:
        assert len(pruned.rf_candidates[uid]) < len(raw.rf_candidates[uid])
        assert INIT not in pruned.rf_candidates[uid]


@pytest.mark.parametrize("src", [RACE_SRC, LOCKED_SRC, JOIN_READ_SRC])
@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
def test_pruned_encoding_equisatisfiable(src, memory_model):
    try:
        raw, pruned = encode_both(src, memory_model=memory_model)
    except AssertionError:
        pytest.skip("bug did not manifest under %s" % memory_model)
    r_raw = solve_constraints(raw)
    r_pruned = solve_constraints(pruned)
    assert r_raw.ok == r_pruned.ok


def test_pruned_solution_satisfies_unpruned_system():
    raw, pruned = encode_both(RACE_SRC)
    solved = solve_constraints(pruned)
    assert solved.ok
    # The schedule from the pruned system must be a schedule of the full
    # system too: same SAP set, all hard edges respected.
    position = {uid: i for i, uid in enumerate(solved.schedule)}
    assert set(position) == set(raw.saps)
    for edge in raw.hard_edges:
        assert position[edge.a] < position[edge.b]


def test_pruner_never_leaves_a_read_sourceless():
    prog, shared, summaries = record(RACE_SRC)
    system = encode(summaries, "sc", prog.symbols, shared)
    for sources in system.rf_candidates.values():
        assert sources
