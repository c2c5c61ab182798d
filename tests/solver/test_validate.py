"""Schedule validator: accepts feasible bug schedules, rejects broken ones."""

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime.replay import ReplayError, replay_schedule
from repro.solver.smt import solve_constraints
from repro.solver.validate import ScheduleValidator, validate_schedule

from tests.conftest import CONDVAR_SRC, RACE_SRC


@pytest.fixture(scope="module")
def race_system():
    pipe = ClapPipeline(RACE_SRC, ClapConfig(stickiness=0.3))
    recorded = pipe.record()
    return pipe.analyze(recorded)


@pytest.fixture(scope="module")
def race_solution(race_system):
    result = solve_constraints(race_system)
    assert result.ok
    return result


def test_smt_schedule_validates(race_system, race_solution):
    outcome = validate_schedule(race_system, race_solution.schedule)
    assert outcome.ok
    assert outcome.context_switches >= 1


def test_incomplete_schedule_rejected(race_system, race_solution):
    outcome = validate_schedule(race_system, race_solution.schedule[:-2])
    assert not outcome.ok
    assert "cover" in outcome.reason


def test_duplicated_sap_rejected(race_system, race_solution):
    schedule = list(race_solution.schedule)
    schedule[-1] = schedule[0]
    outcome = validate_schedule(race_system, schedule)
    assert not outcome.ok


def test_start_before_fork_rejected(race_system, race_solution):
    schedule = list(race_solution.schedule)
    # Move a child's start SAP to the very front, before main's fork.
    start = next(
        uid
        for uid in schedule
        if uid[0] != "1" and race_system.saps[uid].kind == "start"
    )
    schedule.remove(start)
    schedule.insert(0, start)
    outcome = validate_schedule(race_system, schedule)
    assert not outcome.ok


def test_program_order_permutation_caught_by_semantics(race_system, race_solution):
    # Swapping a read with the write that produced its observed value makes
    # path/bug constraints fail (or sync checks, depending on the pair).
    schedule = list(race_solution.schedule)
    schedule.reverse()
    outcome = validate_schedule(race_system, schedule)
    assert not outcome.ok


def test_reads_from_extracted(race_system, race_solution):
    outcome = validate_schedule(race_system, race_solution.schedule)
    reads = [uid for uid, sap in race_system.saps.items() if sap.is_read]
    assert set(outcome.reads_from) == set(reads)


def test_env_contains_every_read_value(race_system, race_solution):
    outcome = validate_schedule(race_system, race_solution.schedule)
    n_reads = sum(1 for sap in race_system.saps.values() if sap.is_read)
    assert len(outcome.env) == n_reads


def condvar_system():
    pipe = ClapPipeline(CONDVAR_SRC, ClapConfig(stickiness=0.4))
    # The condvar program is correct; fabricate a "bug" by treating the
    # ground-truth schedule of a clean run as the thing to validate.
    recorded = pipe.record_once(3)
    assert recorded.bug is None
    from repro.analysis.symexec import execute_recorded_paths
    from repro.tracing.decoder import decode_log

    summaries = execute_recorded_paths(
        pipe.program, decode_log(recorded.recorder), pipe.shared, bug=None
    )
    from repro.constraints import encoder
    from repro.constraints.model import ConstraintSystem

    # Bypass the bug-predicate requirement for this structural test.
    system = ConstraintSystem(memory_model="sc", summaries=summaries)
    for summary in summaries.values():
        for sap in summary.saps:
            system.saps[sap.uid] = sap
        system.conditions.extend(summary.conditions)
    for info in pipe.program.symbols.globals.values():
        if info.is_data and info.name in pipe.shared:
            if info.is_array:
                for i in range(info.size):
                    system.initial_values[(info.name, i)] = 0
            else:
                system.initial_values[(info.name,)] = info.init
    from repro.constraints.memory_order import encode_memory_order

    edges, per_thread = encode_memory_order(summaries, "sc")
    system.hard_edges.extend(edges)
    system.thread_order = per_thread
    return system, recorded


def test_wait_signal_semantics_validated():
    system, recorded = condvar_system()
    schedule = recorded.result.schedule()
    outcome = validate_schedule(system, schedule)
    assert outcome.ok, outcome.reason
    # Moving the wait SAP before its signal breaks feasibility.
    wait_uid = next(
        uid for uid, sap in system.saps.items() if sap.kind == "wait"
    )
    signal_uid = next(
        uid for uid, sap in system.saps.items() if sap.kind == "signal"
    )
    bad = list(schedule)
    if bad.index(wait_uid) > bad.index(signal_uid):
        bad.remove(wait_uid)
        bad.insert(bad.index(signal_uid), wait_uid)
        outcome = validate_schedule(system, bad)
        assert not outcome.ok


def test_wait_must_retake_free_mutex_at_once():
    """A woken wait re-takes a free mutex in the same runtime step, so a
    schedule that runs another thread's SAP in between is infeasible:
    the validator rejects it exactly as the replayer does."""
    system, recorded = condvar_system()
    schedule = [tuple(uid) for uid in recorded.result.schedule()]
    at = next(i for i, uid in enumerate(schedule) if system.saps[uid].kind == "wait")
    wait = system.saps[schedule[at]]
    # No other thread holds m at the wait in this run, so the re-lock
    # follows it directly.
    assert schedule[at + 1] == (wait.thread, wait.index + 1)
    assert system.saps[schedule[at + 1]].kind == "lock"
    # Pull the next other-thread SAP in between; per-thread program order
    # is unchanged, since only the waiter's SAPs are crossed.
    other = next(
        i for i in range(at + 2, len(schedule)) if schedule[i][0] != wait.thread
    )
    bad = list(schedule)
    bad.insert(at + 1, bad.pop(other))
    outcome = validate_schedule(system, bad)
    assert not outcome.ok
    assert "re-take" in outcome.reason
    pipe = ClapPipeline(CONDVAR_SRC, ClapConfig(stickiness=0.4))
    with pytest.raises(ReplayError, match="schedule mismatch"):
        replay_schedule(pipe.program, bad, "sc", shared=pipe.shared)
    replay_schedule(pipe.program, schedule, "sc", shared=pipe.shared)


def test_lock_exclusion_validated():
    system, recorded = condvar_system()
    schedule = list(recorded.result.schedule())
    locks = [uid for uid in schedule if system.saps[uid].kind == "lock"]
    if len(locks) >= 2:
        # Place the second lock right after the first: two holders at once.
        second = locks[1]
        schedule.remove(second)
        schedule.insert(schedule.index(locks[0]) + 1, second)
        outcome = validate_schedule(system, schedule)
        assert not outcome.ok
