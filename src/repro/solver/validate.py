"""Concrete schedule validation.

A candidate schedule (a total order of all SAP uids) is checked by one
linear scan that *simulates* it — this is the cheap per-candidate check of
the paper's generate-and-validate algorithm (Section 4.3), and also the
final sanity gate of the CDCL(T) solver:

* reads return the most recent write's concrete value (Frw semantics by
  construction);
* writes evaluate their symbolic value expression with the read values so
  far (a KeyError means the schedule ran a write before the reads its
  value needs — invalid);
* every path condition must hold as soon as its thread passes the
  condition's position (Fpath), and the bug predicate must hold at the end
  (Fbug);
* lock/unlock, fork/start, exit/join and wait/signal feasibility mirror
  the deterministic replayer exactly (Fso) — in particular a signal wakes
  the *parked* waiter whose wait SAP comes earliest in the remaining
  schedule, which is precisely the replayer's wake policy — and a woken
  wait whose mutex is free re-takes it in the same step, so its re-lock
  must come next.
"""

from dataclasses import dataclass, field

from repro.runtime import events as ev
from repro.runtime.errors import MiniRuntimeError
from repro.analysis.symbolic import sym_eval
from repro.constraints.context_switch import count_context_switches


@dataclass
class ValidationResult:
    ok: bool
    reason: str = ""
    env: dict = field(default_factory=dict)  # sym name -> concrete value
    reads_from: dict = field(default_factory=dict)  # read uid -> write uid/INIT
    context_switches: int = -1

    def __bool__(self):
        return self.ok


class ScheduleValidator:
    """Validates candidate schedules against one ConstraintSystem."""

    def __init__(self, system):
        self.system = system
        # thread -> {after_index: [PathCondition]}
        self.cond_index = {}
        for cond in system.conditions:
            self.cond_index.setdefault(cond.thread, {}).setdefault(
                cond.after_index, []
            ).append(cond)
        # fork SAP uid per child thread, exit SAP uid per thread.
        self.fork_of = {}
        self.exit_of = {}
        for summary in system.summaries.values():
            for sap in summary.saps:
                if sap.kind == ev.FORK:
                    self.fork_of[sap.addr] = sap.uid
                elif sap.kind == ev.EXIT:
                    self.exit_of[sap.thread] = sap.uid

    def validate(self, schedule, check_complete=True):
        system = self.system
        if check_complete:
            if len(schedule) != len(system.saps) or set(schedule) != set(
                system.saps
            ):
                return ValidationResult(False, "schedule does not cover all SAPs")
        position = {uid: i for i, uid in enumerate(schedule)}
        memory = dict(system.initial_values)
        env = {}
        reads_from = {}
        last_writer = {}
        locks = {}  # mutex -> thread or None
        done = set()  # processed uids
        parked = {}  # thread -> True once its wait-release ran, until woken
        signaled = set()  # threads woken by a signal, pending their wait SAP

        for i, uid in enumerate(schedule):
            sap = system.saps.get(uid)
            if sap is None:
                return ValidationResult(False, "unknown SAP %r" % (uid,))
            thread = sap.thread
            kind = sap.kind
            if kind == ev.READ:
                value = memory.get(sap.addr)
                if value is None:
                    return ValidationResult(False, "read of unknown addr %r" % (sap.addr,))
                env[sap.value.name] = value
                reads_from[uid] = last_writer.get(sap.addr, "<init>")
            elif kind == ev.WRITE:
                try:
                    value = sym_eval(sap.value, env)
                except KeyError:
                    return ValidationResult(
                        False, "write %r runs before its dependent reads" % (uid,)
                    )
                except MiniRuntimeError as exc:
                    return ValidationResult(False, "write %r: %s" % (uid, exc))
                memory[sap.addr] = value
                last_writer[sap.addr] = uid
            elif kind == ev.LOCK:
                if locks.get(sap.addr) is not None:
                    return ValidationResult(
                        False, "lock %r taken while held" % (sap.addr,)
                    )
                locks[sap.addr] = thread
            elif kind == ev.UNLOCK:
                if locks.get(sap.addr) != thread:
                    return ValidationResult(
                        False, "unlock %r by non-owner" % (sap.addr,)
                    )
                locks[sap.addr] = None
                # If this unlock is a wait-release (next same-thread SAP is
                # the wait), the thread parks on the condvar now.
                nxt = system.saps.get((thread, sap.index + 1))
                if nxt is not None and nxt.kind == ev.WAIT:
                    parked[thread] = nxt
            elif kind == ev.WAIT:
                if thread not in signaled:
                    return ValidationResult(
                        False, "wait %r runs without a wake-up signal" % (uid,)
                    )
                signaled.discard(thread)
                relock = forced_relock(system.saps, sap, locks)
                if relock is not None and (
                    i + 1 == len(schedule) or tuple(schedule[i + 1]) != relock
                ):
                    return ValidationResult(
                        False,
                        "wait %r does not re-take its free mutex at once" % (uid,),
                    )
            elif kind in (ev.SIGNAL, ev.BROADCAST):
                waiters = [
                    w
                    for t, w in parked.items()
                    if w is not None and w.addr == sap.addr
                ]
                if kind == ev.BROADCAST:
                    chosen = waiters
                else:
                    # Replayer policy: wake the parked waiter whose wait SAP
                    # comes earliest in the remaining schedule.
                    waiters.sort(key=lambda w: position.get(w.uid, len(schedule)))
                    chosen = waiters[:1]
                for w in chosen:
                    parked[w.thread] = None
                    signaled.add(w.thread)
            elif kind == ev.START:
                fork = self.fork_of.get(thread)
                if fork is not None and fork not in done:
                    return ValidationResult(
                        False, "thread %s starts before its fork" % thread
                    )
            elif kind == ev.JOIN:
                exit_uid = self.exit_of.get(sap.addr)
                if exit_uid is None:
                    if sap.addr not in system.preexited:
                        return ValidationResult(
                            False, "join of %s with no exit" % sap.addr
                        )
                elif exit_uid not in done:
                    return ValidationResult(
                        False, "join of %s before its exit" % sap.addr
                    )
            # FORK and EXIT need no feasibility check of their own.
            done.add(uid)
            # Path conditions positioned after this SAP.
            for cond in self.cond_index.get(thread, {}).get(sap.index, ()):
                try:
                    value = sym_eval(cond.expr, env)
                except KeyError:
                    return ValidationResult(
                        False,
                        "condition after %r references unassigned reads" % (uid,),
                    )
                except MiniRuntimeError as exc:
                    return ValidationResult(False, "condition: %s" % exc)
                if not value:
                    return ValidationResult(
                        False, "path condition after %r violated" % (uid,)
                    )

        for bug_expr in self.system.bug_exprs:
            try:
                value = sym_eval(bug_expr, env)
            except (KeyError, MiniRuntimeError) as exc:
                return ValidationResult(False, "bug predicate: %s" % exc)
            if not value:
                return ValidationResult(False, "bug predicate not satisfied")

        switches = count_context_switches(schedule, self.system.summaries)
        return ValidationResult(
            True, env=env, reads_from=reads_from, context_switches=switches
        )


def forced_relock(saps, last, locks):
    """The uid of the SAP that must run right after SAP ``last``, or None.

    The runtime runs a woken ``wait(cv, m)`` and, when ``m`` is free (per
    ``locks``: mutex -> holder or None), its re-lock of ``m`` in one step,
    so nothing can be scheduled in between.  The uid is missing from
    ``saps`` when the recorded path ends at the wait: no schedule that
    runs that wait with ``m`` free can be replayed."""
    if last.kind != ev.WAIT:
        return None
    uid = (last.thread, last.index + 1)
    # m is the re-lock's mutex, or the releasing unlock's just before.
    for sap in (saps.get(uid), saps.get((last.thread, last.index - 1))):
        if sap is not None and sap.kind in (ev.LOCK, ev.UNLOCK):
            return uid if locks.get(sap.addr) is None else None
    return None


def validate_schedule(system, schedule, check_complete=True):
    """One-shot helper around :class:`ScheduleValidator`."""
    return ScheduleValidator(system).validate(schedule, check_complete)
