"""Ablation — checkpointing (the paper's Section 6.4 plan, implemented).

"For very long runs ... we need to break up the execution so that each
execution segment has tractable size of constraints."  This ablation
scales a long-warm-up program and compares constraint-system size and
solve time for whole-trace CLAP vs checkpointed-suffix CLAP.

Expected shape: the whole-trace system grows linearly with the warm-up
length while the suffix system stays flat; both reproduce the failure.
"""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.solver.smt import solve_constraints

from conftest import emit

TEMPLATE = """
int warmup = 0;
int c = 0;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int w = warmup;
        warmup = w + 1;
    }
    int r = c;
    yield;
    c = r + 1;
}
int main() {
    int t1 = 0;
    int t2 = 0;
    t1 = spawn worker(%d);
    t2 = spawn worker(%d);
    join(t1);
    join(t2);
    assert(c == 2);
    return 0;
}
"""

WARMUPS = (10, 30, 60)
_ROWS = []


@pytest.mark.parametrize("warmup", WARMUPS)
def test_checkpoint_bounds_constraint_growth(benchmark, warmup):
    program = compile_source(TEMPLATE % (warmup, warmup), name="warmup%d" % warmup)
    config = ClapConfig(stickiness=0.35)

    def once():
        pipeline = ClapPipeline(program, config)
        full_system = pipeline.analyze(pipeline.record())
        full_solved = solve_constraints(full_system, max_seconds=120)

        cp_rec = pipeline.record(checkpoint_steps=150)
        cp = pipeline.reproduce_offline(cp_rec)
        return (
            warmup,
            len(full_system.saps),
            full_solved.solve_time,
            cp_rec.n_checkpoints,
            cp.n_saps,
            cp.time_solve,
            cp.reproduced,
        )

    row = benchmark.pedantic(once, rounds=1, iterations=1)
    _ROWS.append(row)
    assert row[6], "checkpointed suffix must still reproduce the failure"
    if row[3] >= 1:
        assert row[4] < row[1], "suffix must be smaller than the full trace"


def test_ablation_render(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        "Ablation: checkpointing (Section 6.4)",
        "%-8s %12s %12s %8s %12s %12s %6s"
        % ("warmup", "full SAPs", "full t(s)", "#cps", "suffix SAPs", "suffix t(s)", "ok"),
    ]
    for (w, fs, ft, ncp, ss, st, ok) in sorted(_ROWS):
        lines.append(
            "%-8d %12d %12.2f %8d %12d %12.2f %6s"
            % (w, fs, ft, ncp, ss, st, "Y" if ok else "N")
        )
    emit("ablation_checkpoint.txt", "\n".join(lines))
    # Growth shape: full grows with warmup, suffix stays roughly flat.
    rows = sorted(_ROWS)
    if len(rows) >= 2 and rows[0][3] >= 1 and rows[-1][3] >= 1:
        full_growth = rows[-1][1] / max(rows[0][1], 1)
        suffix_growth = rows[-1][4] / max(rows[0][4], 1)
        assert suffix_growth < full_growth
