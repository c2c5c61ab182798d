"""End-to-end CLAP pipeline tests (record -> solve -> replay)."""

import pytest

from repro import ClapConfig, ClapPipeline, reproduce_bug
from repro.core.clap import ClapError
from repro.solver.smt import solve_constraints_bounded

from tests.conftest import LOCKED_SRC, MP_SRC, RACE_SRC, SB_SRC


def test_reproduce_race_with_smt():
    report = reproduce_bug(RACE_SRC, "sc", solver="smt", stickiness=0.3)
    assert report.reproduced
    assert report.bug.kind == "assertion"
    assert report.n_threads == 3
    assert report.n_saps > 0
    assert report.n_constraints > 0
    assert report.schedule
    assert report.log_bytes > 0


def test_reproduce_race_with_genval_minimal_cs():
    report = reproduce_bug(RACE_SRC, "sc", solver="genval", stickiness=0.3)
    assert report.reproduced
    assert report.context_switches == 1
    assert report.solver_detail["rounds"] == 1


def test_reproduce_sb_bug_under_tso():
    report = reproduce_bug(
        SB_SRC, "tso", solver="smt", stickiness=0.5, flush_prob=0.05,
        seeds=range(400),
    )
    assert report.reproduced


def test_reproduce_mp_bug_under_pso():
    report = reproduce_bug(
        MP_SRC, "pso", solver="smt", stickiness=0.5, flush_prob=0.05,
        seeds=range(400),
    )
    assert report.reproduced


def test_correct_program_raises_no_failure():
    with pytest.raises(ClapError):
        ClapPipeline(
            LOCKED_SRC, ClapConfig(seeds=range(20), stickiness=0.3)
        ).reproduce()


def test_record_keeps_smallest_trace():
    pipe = ClapPipeline(
        RACE_SRC, ClapConfig(stickiness=0.3, record_candidates=4)
    )
    recorded = pipe.record()
    # Any other candidate from the same seed range is at least as large.
    count = 0
    for seed in pipe.config.seeds:
        other = pipe.record_once(seed)
        if other.bug is not None and other.bug.kind == "assertion":
            count += 1
            assert recorded.result.total_saps() <= other.result.total_saps()
            if count >= 4:
                break


def test_report_timings_populated():
    report = reproduce_bug(RACE_SRC, "sc", stickiness=0.3)
    assert report.time_record >= 0
    assert report.time_symbolic >= 0
    assert report.time_solve >= 0


def test_pipeline_accepts_compiled_program():
    from repro.minilang import compile_source

    prog = compile_source(RACE_SRC)
    report = reproduce_bug(prog, "sc", stickiness=0.3)
    assert report.reproduced


def test_unknown_solver_rejected():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(solver="magic", stickiness=0.3))
    with pytest.raises(ClapError):
        pipe.reproduce()


def _race_solve(**config):
    """(pipeline, recorded run, its constraint system, solver result)."""
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3, **config))
    recorded = pipe.record()
    system = pipe.analyze(recorded)
    return pipe, recorded, system, pipe.solve(system)


def test_smt_inc_with_workers_races_the_ladder():
    pipe, recorded, _system, result = _race_solve(solver="smt-inc", workers=2)
    assert result.ok
    assert result.portfolio["workers"] == 2
    assert pipe.replay(result.schedule, recorded.bug).reproduced


def test_smt_inc_in_process_matches_the_bound_ladder():
    pipe, _recorded, system, result = _race_solve(solver="smt-inc", workers=0)
    ladder = solve_constraints_bounded(system, max_cs=pipe.config.max_cs)
    assert result.ok and ladder.ok
    assert result.schedule == ladder.schedule
    assert result.bound == ladder.bound
    assert result.iterations == ladder.iterations
