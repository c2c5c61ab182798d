"""The SAP step model and concrete schedule validation.

:class:`StepModel` is the one statement of what running a SAP does — the
operational semantics behind Frw, Fpath, Fbug and Fso — and its state is
one schedule prefix: memory, the read environment, reads-from, the last
writer of each address, lock owners, parked waiters, signalled threads
and the SAPs done.  It answers:

* why a SAP is blocked: a lock held, a wait with no wake-up, a start
  before its fork, a join before its exit;
* what a SAP does: reads return the most recent write's concrete value;
  writes evaluate their symbolic value with the reads so far (a write
  that needs a read not yet run breaks the path); an unlock followed by
  its thread's wait parks the thread; a signal wakes the parked waiter
  the caller picks and a broadcast all of them; the path conditions
  positioned after the SAP must hold (Fpath);
* which SAP is forced next: the runtime runs a woken wait and, when its
  mutex is free, the re-lock in one step;
* whether the bug predicate holds on the final state (Fbug).

Three searches drive it: the validator below, the generate-and-validate
generator (:mod:`repro.solver.schedule_gen`) and the SMT solver's
canonical linearizer (:mod:`repro.solver.smt`).  Branching searches
``clone()`` the model.

:class:`ScheduleValidator` checks one candidate schedule (a total order of
all SAP uids) by a linear scan that runs it on the model — the cheap
per-candidate check of the paper's generate-and-validate algorithm
(Section 4.3) and the final check of the CDCL(T) solver.  On top of the
model it checks coverage, unknown SAPs and unlocks by a non-owner, and it
applies the deterministic replayer's wake policy: a signal wakes the
parked waiter whose wait SAP comes earliest in the remaining schedule.
The replayer (:mod:`repro.runtime.replay`) runs the program itself and is
the independent check.
"""

from dataclasses import dataclass, field

from repro.runtime import events as ev
from repro.runtime.errors import MiniRuntimeError
from repro.analysis.symbolic import sym_eval
from repro.constraints.context_switch import count_context_switches
from repro.constraints.model import INIT


@dataclass
class ValidationResult:
    ok: bool
    reason: str = ""
    env: dict = field(default_factory=dict)  # sym name -> concrete value
    reads_from: dict = field(default_factory=dict)  # read uid -> write uid/INIT
    context_switches: int = -1

    def __bool__(self):
        return self.ok


class _Rules:
    """The per-system tables the step rules consult (read-only)."""

    def __init__(self, system):
        self.saps = system.saps
        self.preexited = system.preexited
        self.bug_exprs = system.bug_exprs
        # uid of the SAP a condition follows -> [PathCondition]
        self.conditions = {}
        for cond in system.conditions:
            self.conditions.setdefault(
                (cond.thread, cond.after_index), []
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


class StepModel:
    """One schedule prefix of a ConstraintSystem under the SAP step rules.

    Build one per system, then ``clone()`` it per schedule or branch."""

    # The SAP kinds :meth:`blocked` may refuse; the others always run.
    BLOCKING = frozenset((ev.LOCK, ev.WAIT, ev.START, ev.JOIN))

    __slots__ = (
        "rules",
        "memory",
        "env",
        "reads_from",
        "last_writer",
        "locks",
        "parked",
        "signaled",
        "done",
    )

    def __init__(self, system):
        self.rules = _Rules(system)
        self.memory = dict(system.initial_values)  # addr -> value
        self.env = {}  # sym name -> value
        self.reads_from = {}  # read uid -> write uid or INIT
        self.last_writer = {}  # addr -> write uid
        self.locks = {}  # mutex -> owning thread or None
        self.parked = {}  # thread -> its wait SAP once released, until woken
        self.signaled = set()  # threads woken, pending their wait SAP
        self.done = set()  # uids run

    def clone(self):
        other = StepModel.__new__(StepModel)
        other.rules = self.rules
        other.memory = dict(self.memory)
        other.env = dict(self.env)
        other.reads_from = dict(self.reads_from)
        other.last_writer = dict(self.last_writer)
        other.locks = dict(self.locks)
        other.parked = dict(self.parked)
        other.signaled = set(self.signaled)
        other.done = set(self.done)
        return other

    def blocked(self, uid):
        """Why SAP ``uid`` cannot run now, or None when it can."""
        rules = self.rules
        sap = rules.saps[uid]
        kind = sap.kind
        if kind == ev.LOCK:
            if self.locks.get(sap.addr) is not None:
                return "lock %r taken while held" % (sap.addr,)
        elif kind == ev.WAIT:
            if sap.thread not in self.signaled:
                return "wait %r runs without a wake-up signal" % (uid,)
        elif kind == ev.START:
            # No fork in the system means main or a checkpoint-resumed
            # thread: its (re)start is unconstrained.
            fork = rules.fork_of.get(sap.thread)
            if fork is not None and fork not in self.done:
                return "thread %s starts before its fork" % sap.thread
        elif kind == ev.JOIN:
            exit_uid = rules.exit_of.get(sap.addr)
            if exit_uid is None:
                if sap.addr not in rules.preexited:
                    return "join of %s with no exit" % sap.addr
            elif exit_uid not in self.done:
                return "join of %s before its exit" % sap.addr
        return None

    def waiters(self, cond):
        """The wait SAPs parked on condvar ``cond``."""
        return [w for w in self.parked.values() if w is not None and w.addr == cond]

    def apply(self, uid, wake=None):
        """Run SAP ``uid``; the caller checks :meth:`blocked` first.

        A signal wakes the parked thread ``wake`` (None: the signal is
        lost); a broadcast wakes every waiter on its condvar.  Returns why
        the step leaves the recorded path — an unknown address, a write
        whose value cannot be evaluated, a violated path condition after
        the SAP — or None.  The state records the step either way."""
        rules = self.rules
        sap = rules.saps[uid]
        kind = sap.kind
        reason = None
        if kind == ev.READ:
            value = self.memory.get(sap.addr)
            if value is None:
                reason = "read of unknown addr %r" % (sap.addr,)
            else:
                self.env[sap.value.name] = value
            self.reads_from[uid] = self.last_writer.get(sap.addr, INIT)
        elif kind == ev.WRITE:
            self.last_writer[sap.addr] = uid
            try:
                self.memory[sap.addr] = sym_eval(sap.value, self.env)
            except KeyError:
                reason = "write %r runs before its dependent reads" % (uid,)
            except MiniRuntimeError as exc:
                reason = "write %r: %s" % (uid, exc)
        elif kind == ev.LOCK:
            self.locks[sap.addr] = sap.thread
        elif kind == ev.UNLOCK:
            self.locks[sap.addr] = None
            # An unlock right before its thread's wait is the wait's
            # release: the thread parks on the condvar now.
            nxt = rules.saps.get((sap.thread, sap.index + 1))
            if nxt is not None and nxt.kind == ev.WAIT:
                self.parked[sap.thread] = nxt
        elif kind == ev.WAIT:
            self.signaled.discard(sap.thread)
        elif kind == ev.SIGNAL:
            if wake is not None:
                self.parked[wake] = None
                self.signaled.add(wake)
        elif kind == ev.BROADCAST:
            for w in self.waiters(sap.addr):
                self.parked[w.thread] = None
                self.signaled.add(w.thread)
        # FORK, EXIT, START, JOIN and YIELD change no state of their own.
        self.done.add(uid)
        if reason is not None:
            return reason
        for cond in rules.conditions.get(uid, ()):
            try:
                value = sym_eval(cond.expr, self.env)
            except KeyError:
                return "condition after %r references unassigned reads" % (uid,)
            except MiniRuntimeError as exc:
                return "condition: %s" % exc
            if not value:
                return "path condition after %r violated" % (uid,)
        return None

    def forced_relock(self, uid):
        """The uid of the SAP that must run right after SAP ``uid``, or None.

        The runtime runs a woken ``wait(cv, m)`` and, when ``m`` is free,
        its re-lock of ``m`` in one step, so nothing can be scheduled in
        between.  The uid is missing from the system when the recorded
        path ends at the wait: no schedule that runs that wait with ``m``
        free can be replayed."""
        saps = self.rules.saps
        sap = saps[uid]
        if sap.kind != ev.WAIT:
            return None
        thread, index = uid
        relock = (thread, index + 1)
        # m is the re-lock's mutex, or the releasing unlock's just before.
        for other in (saps.get(relock), saps.get((thread, index - 1))):
            if other is not None and other.kind in (ev.LOCK, ev.UNLOCK):
                return relock if self.locks.get(other.addr) is None else None
        return None

    def bug_reason(self):
        """Why the bug predicate fails on this state, or None if it holds."""
        for bug_expr in self.rules.bug_exprs:
            try:
                value = sym_eval(bug_expr, self.env)
            except (KeyError, MiniRuntimeError) as exc:
                return "bug predicate: %s" % exc
            if not value:
                return "bug predicate not satisfied"
        return None


class ScheduleValidator:
    """Validates candidate schedules against one ConstraintSystem."""

    def __init__(self, system):
        self.system = system
        self.model = StepModel(system)

    def validate(self, schedule, check_complete=True):
        system = self.system
        if check_complete:
            if len(schedule) != len(system.saps) or set(schedule) != set(
                system.saps
            ):
                return ValidationResult(False, "schedule does not cover all SAPs")
        position = {uid: i for i, uid in enumerate(schedule)}
        model = self.model.clone()
        saps = system.saps
        apply = model.apply
        for i, uid in enumerate(schedule):
            sap = saps.get(uid)
            if sap is None:
                return ValidationResult(False, "unknown SAP %r" % (uid,))
            kind = sap.kind
            reason = None
            if kind in StepModel.BLOCKING:
                reason = model.blocked(uid)
            wake = None
            if kind == ev.UNLOCK:
                if model.locks.get(sap.addr) != sap.thread:
                    reason = "unlock %r by non-owner" % (sap.addr,)
            elif kind == ev.WAIT and reason is None:
                relock = model.forced_relock(uid)
                if relock is not None and (
                    i + 1 == len(schedule) or tuple(schedule[i + 1]) != relock
                ):
                    reason = "wait %r does not re-take its free mutex at once" % (
                        uid,
                    )
            elif kind == ev.SIGNAL:
                # Replayer policy: wake the parked waiter whose wait SAP
                # comes earliest in the remaining schedule.
                waiters = model.waiters(sap.addr)
                if waiters:
                    wake = min(
                        waiters, key=lambda w: position.get(w.uid, len(schedule))
                    ).thread
            if reason is None:
                reason = apply(uid, wake)
            if reason is not None:
                return ValidationResult(False, reason)
        reason = model.bug_reason()
        if reason is not None:
            return ValidationResult(False, reason)
        switches = count_context_switches(schedule, system.summaries)
        return ValidationResult(
            True,
            env=model.env,
            reads_from=model.reads_from,
            context_switches=switches,
        )


def validate_schedule(system, schedule, check_complete=True):
    """One-shot helper around :class:`ScheduleValidator`."""
    return ScheduleValidator(system).validate(schedule, check_complete)
