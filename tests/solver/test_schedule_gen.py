"""Preemption-bounded schedule generation."""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime.replay import replay_schedule
from repro.constraints.context_switch import count_context_switches
from repro.solver.schedule_gen import ScheduleGenerator
from repro.solver.validate import ScheduleValidator

from tests.conftest import CONDVAR_SRC, RACE_SRC


@pytest.fixture(scope="module")
def race_system():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3))
    return pipe.analyze(pipe.record())


def test_generated_schedules_are_complete_and_valid_fmo(race_system):
    gen = ScheduleGenerator(race_system)
    validator = ScheduleValidator(race_system)
    count = 0
    for schedule in gen.generate(max_preemptions=1, max_schedules=200):
        count += 1
        assert sorted(schedule) == sorted(race_system.saps)
        # Per-thread SC order respected.
        pos = {uid: i for i, uid in enumerate(schedule)}
        for thread, edges in race_system.thread_order.items():
            for a, b in edges:
                assert pos[a] < pos[b]
    assert count > 0


def test_budget_bounds_interleaved_segments(race_system):
    gen = ScheduleGenerator(race_system)
    for c in (0, 1, 2):
        for schedule in gen.generate(max_preemptions=c, max_schedules=100):
            assert (
                count_context_switches(schedule, race_system.summaries) <= c
            )


def test_exact_budget_filters(race_system):
    gen = ScheduleGenerator(race_system)
    for schedule in gen.generate(
        max_preemptions=1, exact_preemptions=True, max_schedules=50
    ):
        assert count_context_switches(schedule, race_system.summaries) == 1


def test_value_guided_pruning_respects_path_conditions(race_system):
    gen = ScheduleGenerator(race_system)
    validator = ScheduleValidator(race_system)
    for schedule in gen.generate(max_preemptions=1, max_schedules=100):
        outcome = validator.validate(schedule)
        # Path conditions hold on every generated schedule (the bug
        # predicate may or may not).
        assert outcome.ok or outcome.reason == "bug predicate not satisfied"


def test_generation_deterministic_without_seed(race_system):
    gen = ScheduleGenerator(race_system)
    a = [tuple(s) for s in gen.generate(max_preemptions=1, max_schedules=30)]
    b = [tuple(s) for s in gen.generate(max_preemptions=1, max_schedules=30)]
    assert a == b


def test_order_seed_changes_exploration(race_system):
    gen = ScheduleGenerator(race_system)
    a = [tuple(s) for s in gen.generate(max_preemptions=1, max_schedules=30)]
    b = [
        tuple(s)
        for s in gen.generate(max_preemptions=1, max_schedules=30, order_seed=5)
    ]
    assert a != b


def test_max_schedules_budget(race_system):
    gen = ScheduleGenerator(race_system)
    schedules = list(gen.generate(max_preemptions=2, max_schedules=7))
    assert len(schedules) == 7


def test_max_steps_budget(race_system):
    gen = ScheduleGenerator(race_system)
    unbounded = len(list(gen.generate(max_preemptions=1, max_schedules=200)))
    bounded = len(
        list(gen.generate(max_preemptions=1, max_schedules=200, max_steps=60))
    )
    # The step budget cuts the search off early.
    assert bounded < unbounded


def condvar_system():
    """(pipeline, system) of a passing condvar run, bug predicate left out."""
    pipe = ClapPipeline(CONDVAR_SRC, ClapConfig(stickiness=0.4))
    recorded = pipe.record_once(3)
    assert recorded.bug is None
    from repro.analysis.symexec import execute_recorded_paths
    from repro.constraints.memory_order import encode_memory_order
    from repro.constraints.model import ConstraintSystem
    from repro.tracing.decoder import decode_log

    summaries = execute_recorded_paths(
        pipe.program, decode_log(recorded.recorder), pipe.shared, bug=None
    )
    system = ConstraintSystem(memory_model="sc", summaries=summaries)
    for summary in summaries.values():
        for sap in summary.saps:
            system.saps[sap.uid] = sap
        system.conditions.extend(summary.conditions)
    for info in pipe.program.symbols.globals.values():
        if info.is_data and info.name in pipe.shared:
            system.initial_values[(info.name,)] = info.init
    edges, per_thread = encode_memory_order(summaries, "sc")
    system.hard_edges.extend(edges)
    system.thread_order = per_thread
    return pipe, system


def test_condvar_program_generates_feasible_schedules():
    _pipe, system = condvar_system()
    gen = ScheduleGenerator(system)
    validator = ScheduleValidator(system)
    found = 0
    for schedule in gen.generate(max_preemptions=2, max_schedules=500):
        outcome = validator.validate(schedule)
        if outcome.ok:
            found += 1
    assert found > 0, "wait/signal program must admit feasible schedules"


def test_generated_waits_retake_a_free_mutex_at_once():
    """A woken wait re-takes its free mutex in the same runtime step; the
    generator does the same, so the validator never rejects a generated
    schedule for it and every schedule it accepts replays exactly."""
    pipe, system = condvar_system()
    validator = ScheduleValidator(system)
    replayed = 0
    for schedule in ScheduleGenerator(system).generate(
        max_preemptions=3, max_schedules=300
    ):
        outcome = validator.validate(schedule)
        assert "re-take" not in outcome.reason, schedule
        if outcome.ok:
            replay_schedule(pipe.program, schedule, "sc", shared=pipe.shared)
            replayed += 1
    assert replayed > 0


SINGLE_THREAD_SRC = """
int x = 0;
int main() {
    x = x + 1;
    x = x + 2;
    assert(x == 0);
    return 0;
}
"""


@pytest.fixture(scope="module")
def single_thread_system():
    pipe = ClapPipeline(SINGLE_THREAD_SRC, ClapConfig())
    return pipe.analyze(pipe.record())


def test_single_thread_program_yields_exactly_program_order(
    single_thread_system,
):
    gen = ScheduleGenerator(single_thread_system)
    schedules = [
        tuple(s) for s in gen.generate(max_preemptions=0, max_schedules=50)
    ]
    # One thread, SC: the program order is the only schedule.
    assert len(schedules) == 1
    pos = {uid: i for i, uid in enumerate(schedules[0])}
    for thread, edges in single_thread_system.thread_order.items():
        for a, b in edges:
            assert pos[a] < pos[b]


def test_single_thread_program_has_no_exact_preemption_schedules(
    single_thread_system,
):
    gen = ScheduleGenerator(single_thread_system)
    # There is no second thread to charge a segment: demanding exactly one
    # interleaving must produce nothing, and the walk must terminate.
    stats = {}
    schedules = list(
        gen.generate(
            max_preemptions=1, exact_preemptions=True, stats=stats
        )
    )
    assert schedules == []
    assert stats["capped"] is False, "space must be exhausted, not cut off"


def test_zero_preemption_round_with_unsatisfiable_bug(race_system):
    """c = 0 on the race program: schedules exist, none manifests the bug
    (the race needs a preemption), and the bounded space exhausts."""
    gen = ScheduleGenerator(race_system)
    stats = {}
    n = 0
    for state in gen.walk(max_preemptions=0, stats=stats):
        n += 1
        assert state.model.bug_reason() == "bug predicate not satisfied"
    assert n > 0
    assert stats["capped"] is False


def test_no_duplicate_schedules_emitted(race_system):
    gen = ScheduleGenerator(race_system)
    for kwargs in (
        dict(max_preemptions=1, max_schedules=300),
        dict(max_preemptions=2, exact_preemptions=True, max_schedules=300),
        dict(max_preemptions=1, max_schedules=300, order_seed=7),
    ):
        schedules = [tuple(s) for s in gen.generate(**kwargs)]
        assert len(schedules) == len(set(schedules)), kwargs


# Two waiters and two signalers on one condvar: branches that assign the
# two signals to the two waiters in swapped ways can pop the exact same
# SAP sequence — the canonical duplicate-producing shape (without the
# generator's seen-set, ~1 in 6 of this program's yields is a repeat).
TWO_WAITER_SRC = """
int go = 0;
int served = 0;
mutex m;
cond cv;
void waiter() {
    lock(m);
    while (go == 0) { wait(cv, m); }
    served = served + 1;
    unlock(m);
}
void signaler() {
    lock(m);
    go = 1;
    signal(cv);
    unlock(m);
}
int main() {
    int w1 = 0;
    int w2 = 0;
    int s1 = 0;
    int s2 = 0;
    w1 = spawn waiter();
    w2 = spawn waiter();
    s1 = spawn signaler();
    s2 = spawn signaler();
    join(w1);
    join(w2);
    join(s1);
    join(s2);
    assert(served == 2);
    return 0;
}
"""


def test_no_duplicate_schedules_with_signal_wake_choices():
    """Wake choices (which waiter a signal wakes, or none) fork branches
    that can converge on the same SAP sequence; the generator must
    suppress the re-yields."""
    pipe = ClapPipeline(TWO_WAITER_SRC, ClapConfig(stickiness=0.4))
    recorded = pipe.record_once(0)
    from repro.analysis.symexec import execute_recorded_paths
    from repro.constraints.memory_order import encode_memory_order
    from repro.constraints.model import ConstraintSystem
    from repro.tracing.decoder import decode_log

    summaries = execute_recorded_paths(
        pipe.program, decode_log(recorded.recorder), pipe.shared, bug=None
    )
    system = ConstraintSystem(memory_model="sc", summaries=summaries)
    for summary in summaries.values():
        for sap in summary.saps:
            system.saps[sap.uid] = sap
        system.conditions.extend(summary.conditions)
    for info in pipe.program.symbols.globals.values():
        if info.is_data and info.name in pipe.shared:
            system.initial_values[(info.name,)] = info.init
    edges, per_thread = encode_memory_order(summaries, "sc")
    system.hard_edges.extend(edges)
    system.thread_order = per_thread

    gen = ScheduleGenerator(system)
    schedules = [
        tuple(s) for s in gen.generate(max_preemptions=3, max_schedules=3000)
    ]
    assert schedules, "condvar program must generate schedules"
    assert len(schedules) == len(set(schedules))
