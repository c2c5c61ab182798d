"""Deterministic schedule replay.

This is CLAP's phase 3: given the SAP ordering computed by the solver, drive
the interpreter so the SAPs hit memory in exactly that order, and check that
the same failure occurs.  The enforcement discipline follows the paper's
Tinertia-based scheduler: before each SAP, a thread is only allowed to
proceed if it is its turn; otherwise it is postponed.

Under TSO/PSO the memory-order event of a *write* SAP is its store-buffer
flush, not its execution, so the replayer distinguishes the two: when the
schedule's next entry is a write that is already sitting in a buffer, the
replayer flushes that specific pending store; when it is not yet buffered,
the replayer steps the owning thread (stores execute into the buffer along
the way) until the event commits.  This is how a schedule that reorders one
thread's writes (the PSO witness of Figure 2) is physically realized.
"""

from dataclasses import dataclass

from repro.runtime.interpreter import Interpreter
from repro.runtime.thread_state import RUNNABLE


class ReplayError(Exception):
    """The schedule could not be enforced (invalid or infeasible)."""


@dataclass
class ReplayOutcome:
    """Result of one replay attempt."""

    result: object  # ExecutionResult
    reproduced: bool  # expected bug observed?
    consumed: int  # schedule entries enforced

    @property
    def bug(self):
        return self.result.bug


# Cap on interpreter steps between two consecutive SAP commits; a valid
# schedule only needs straight-line steps in between, so a generous constant
# suffices to call a replay wedged.
_MAX_STEPS_BETWEEN_SAPS = 200_000


def replay_schedule(
    program,
    schedule,
    memory_model="sc",
    shared=None,
    expected_bug=None,
    hooks=(),
    checkpoint=None,
):
    """Replay ``schedule`` (a list of SAP uids) and return a ReplayOutcome.

    ``expected_bug`` is the BugReport from the original run; ``reproduced``
    is True when a failure with the same site occurs (or, if no expectation
    is given, when any failure occurs).
    """
    position = [0]  # shared with the wake policy below

    def wake_policy(interp, cv, waiter_tids):
        # Wake the waiter whose next scheduled SAP comes first: a blocked
        # waiter's next SAP is exactly its wait SAP on this condvar.
        names = {interp.threads[tid].name: tid for tid in waiter_tids}
        for entry in schedule[position[0]:]:
            tid = names.get(entry[0])
            if tid is not None:
                return tid
        return waiter_tids[0]

    if checkpoint is not None:
        from repro.runtime.checkpoint import restore_interpreter

        interp = restore_interpreter(
            program,
            checkpoint,
            memory_model=memory_model,
            scheduler=None,
            shared=shared,
            hooks=hooks,
            collect_events=True,
            signal_wake_policy=wake_policy,
        )
    else:
        interp = Interpreter(
            program,
            memory_model=memory_model,
            scheduler=None,
            shared=shared,
            hooks=hooks,
            collect_events=True,
            signal_wake_policy=wake_policy,
        )
    pos = 0
    while pos < len(schedule) and interp.bug is None:
        expected = tuple(schedule[pos])
        n_before = len(interp.events)
        pending = _find_pending(interp, expected)
        if pending is not None:
            interp._commit_flush(pending)
        else:
            _step_until_event(interp, expected, n_before)
        # One step/flush may commit several events (e.g. a fence ahead of a
        # sync SAP drains writes); verify each against the schedule.
        for sap in interp.events[n_before:]:
            if pos >= len(schedule) or sap.uid != tuple(schedule[pos]):
                want = schedule[pos] if pos < len(schedule) else "<end>"
                raise ReplayError(
                    "schedule mismatch at position %d: expected %r, got %r"
                    % (pos, want, sap.uid)
                )
            pos += 1
            position[0] = pos
    # The failing assert usually sits after the failing thread's last SAP;
    # let threads coast (without committing new SAPs) so it can fire.
    _coast(interp)
    interp.memory.drain_all()
    # Hooks with a finalize step (e.g. a PathRecorder re-recording the
    # replayed run) need the interpreter to dump still-open frames.
    for hook in hooks:
        finalize = getattr(hook, "finalize", None)
        if finalize is not None:
            finalize(interp)
    result = interp._result()
    if expected_bug is not None:
        reproduced = expected_bug.same_failure(result.bug)
    else:
        reproduced = result.bug is not None
    return ReplayOutcome(result=result, reproduced=reproduced, consumed=pos)


def _find_pending(interp, uid):
    for pending in interp.memory.pending_stores():
        if pending.sap is not None and pending.sap.uid == uid:
            if pending not in interp.memory.flushable:
                raise ReplayError(
                    "schedule flushes %r out of store-buffer FIFO order" % (uid,)
                )
            return pending
    return None


def _step_until_event(interp, expected, n_before):
    thread_name = expected[0]
    try:
        thread = interp.threads_by_name[thread_name]
    except KeyError:
        raise ReplayError(
            "schedule names thread %r before it was forked" % thread_name
        ) from None
    steps = 0
    while len(interp.events) == n_before and interp.bug is None:
        if thread.status != RUNNABLE:
            raise ReplayError(
                "thread %s is %s (on %r) but schedule expects %r"
                % (thread.name, thread.status, thread.block_target, expected)
            )
        interp.step_thread(thread)
        # The expected event may be a write that just entered the store
        # buffer; it must be flushed *now*, before a later read of the same
        # thread commits ahead of it.
        pending = _find_pending(interp, expected)
        if pending is not None:
            interp._commit_flush(pending)
            return
        steps += 1
        if steps > _MAX_STEPS_BETWEEN_SAPS:
            raise ReplayError(
                "thread %s ran %d steps without reaching %r"
                % (thread.name, steps, expected)
            )


def _coast(interp):
    """Step every runnable thread until it would commit another SAP."""
    if interp.bug is not None:
        return
    for thread in list(interp.threads.values()):
        steps = 0
        while (
            thread.status == RUNNABLE
            and interp.bug is None
            and steps < _MAX_STEPS_BETWEEN_SAPS
        ):
            n_before = len(interp.events)
            sap_before = thread.sap_count
            interp.step_thread(thread)
            steps += 1
            if len(interp.events) > n_before or thread.sap_count > sap_before:
                # It committed or produced a SAP past the schedule: the
                # recorded path for this thread is over; stop driving it.
                break
        if interp.bug is not None:
            break
