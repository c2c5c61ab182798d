"""Generate-and-validate driver (sequential and parallel modes)."""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.constraints.context_switch import count_context_switches
from repro.runtime.replay import replay_schedule
from repro.solver.parallel import solve_generate_validate
from repro.solver.validate import ScheduleValidator, validate_schedule

from tests.conftest import RACE_SRC


@pytest.fixture(scope="module")
def race_setup():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3))
    recorded = pipe.record()
    system = pipe.analyze(recorded)
    return pipe, recorded, system


def test_sequential_solve_finds_minimal_schedule(race_setup):
    pipe, recorded, system = race_setup
    result = solve_generate_validate(system)
    assert result.ok
    assert result.context_switches == 1, "race needs exactly one preemption"
    assert result.rounds == 1
    assert result.generated > 0
    assert result.good >= 1


def test_solution_is_valid_and_replayable(race_setup):
    pipe, recorded, system = race_setup
    result = solve_generate_validate(system)
    assert validate_schedule(system, result.schedule).ok
    outcome = replay_schedule(
        pipe.program,
        result.schedule,
        "sc",
        shared=pipe.shared,
        expected_bug=recorded.bug,
    )
    assert outcome.reproduced


def test_all_good_schedules_manifest_bug(race_setup):
    pipe, recorded, system = race_setup
    result = solve_generate_validate(system)
    validator = ScheduleValidator(system)
    for schedule in result.good_schedules:
        # The validator accepts only schedules whose final state satisfies
        # the bug predicate.
        outcome = validator.validate(schedule)
        assert outcome.ok, outcome.reason
        assert (
            count_context_switches(schedule, system.summaries)
            >= result.context_switches
        )


def test_zero_budget_round_cannot_find_race(race_setup):
    pipe, recorded, system = race_setup
    result = solve_generate_validate(system, max_cs=0)
    assert not result.ok
    assert result.generated > 0, "zero-preemption schedules exist, just no bug"


def test_timeout(race_setup):
    pipe, recorded, system = race_setup
    result = solve_generate_validate(system, max_seconds=0.0)
    assert not result.ok
    assert result.reason == "timeout"


@pytest.mark.slow
def test_parallel_mode_matches_sequential(race_setup):
    pipe, recorded, system = race_setup
    seq = solve_generate_validate(system)
    par = solve_generate_validate(system, workers=2, probes_per_round=8)
    assert seq.ok and par.ok
    assert par.context_switches == seq.context_switches


def test_solve_time_includes_formula_construction(race_setup, monkeypatch):
    """Regression: ``solve_time`` must charge generator/validator
    construction (the formula build) to the solver, and ``encode_time``
    must report it — Table 2's overhead split depends on both."""
    import time as time_mod

    import repro.solver.parallel as parallel_mod
    from repro.solver.schedule_gen import ScheduleGenerator

    pipe, recorded, system = race_setup
    delay = 0.05
    original_init = ScheduleGenerator.__init__

    def slow_init(self, *args, **kwargs):
        time_mod.sleep(delay)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleGenerator, "__init__", slow_init)
    result = parallel_mod.solve_generate_validate(system)
    assert result.ok
    assert result.encode_time >= delay
    assert result.solve_time >= result.encode_time


def test_generator_and_validator_built_once(race_setup, monkeypatch):
    """The sequential driver must reuse one generator/validator across all
    probes and bound rounds instead of rebuilding them per probe."""
    import repro.solver.parallel as parallel_mod
    from repro.solver.schedule_gen import ScheduleGenerator
    from repro.solver.validate import ScheduleValidator

    pipe, recorded, system = race_setup
    counts = {"gen": 0, "val": 0}
    gen_init = ScheduleGenerator.__init__
    val_init = ScheduleValidator.__init__

    def counting_gen_init(self, *args, **kwargs):
        counts["gen"] += 1
        gen_init(self, *args, **kwargs)

    def counting_val_init(self, *args, **kwargs):
        counts["val"] += 1
        val_init(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleGenerator, "__init__", counting_gen_init)
    monkeypatch.setattr(ScheduleValidator, "__init__", counting_val_init)
    result = parallel_mod.solve_generate_validate(system, probes_per_round=8)
    assert result.ok
    assert counts == {"gen": 1, "val": 1}
