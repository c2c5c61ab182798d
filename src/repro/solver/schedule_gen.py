"""Preemption-bounded schedule generation (paper Section 4.3).

The search enumerates schedules whose number of *interleaved segments* —
the paper's Section 4.2 measure of preemptive context switches — is at
most ``c``:

* each thread's SAPs form a partial order: the program-order *stack* for
  SC, the *SAP-tree* (the per-thread Fmo DAG: read chains, write chains,
  fences, same-address adjacency) for TSO/PSO; only minimal elements may
  be popped, so every generated schedule satisfies Fmo by construction;
* each thread's SAP list is split into *segments* at must-interleave
  operations (wait, join, yield, fork, start, exit); a segment becomes
  *interleaved* the moment another thread pops a SAP while the segment is
  open (some but not all of its SAPs popped).  Interleaving a segment
  consumes one unit of the budget; branches that would exceed it are
  pruned — so the generator's bound equals by construction the
  ``count_context_switches`` number the validator reports;
* under TSO/PSO a thread may have several minimal SAPs (a buffered store
  can drain now or later); each choice forks a branch at no cost — these
  are reorderings, not context switches.

Two engineering refinements over the paper's description (documented in
DESIGN.md):

* **structural pruning** — lock/fork/join/wait enabledness is tracked
  while popping, so structurally infeasible schedules are never emitted;
* **value-guided pruning** — read values and path conditions are evaluated
  *during* generation (the paper validates complete candidates only);
  a branch dies at the first violated branch condition instead of
  generating an exponential family of doomed completions.  The final bug
  predicate is still checked on complete schedules, so the generated /
  good split of Table 3 remains meaningful: "generated" counts complete
  path-consistent schedules, "good" the ones that also manifest the bug.

The CSP triple (t1, k, t2) — "t1's open segment is first interleaved by
``t2`` popping its k-th SAP" — is the *parallel partitioning key*: giving
each worker a distinct first-interleaving triple partitions the bounded
search space like the paper's per-CSP-set processes.
"""

import random
from dataclasses import dataclass

from repro.runtime import events as ev
from repro.runtime.errors import MiniRuntimeError
from repro.analysis.symbolic import sym_eval
from repro.constraints.context_switch import thread_segments
from repro.solver.validate import forced_relock


@dataclass
class _GenState:
    ready: dict  # thread -> set of that thread's ready uids
    indeg: dict  # uid -> remaining in-degree (within its thread)
    popped_count: dict  # thread -> number of SAPs popped
    locks: dict  # mutex -> owning thread or None
    parked: dict  # thread -> parked wait sap or None
    signaled: set  # threads woken, pending their wait SAP
    done: set  # popped uids
    schedule: list
    current: str
    # Segment bookkeeping.
    seg_counts: dict  # (thread, seg_id) -> SAPs popped from that segment
    open_segment: dict  # thread -> open segment id or None
    marked: dict  # thread -> set of segment ids already charged
    interleaved: int
    first_mark: tuple | None  # (t1, k, t2) of the first charging event
    memory: dict  # addr -> concrete value (value-guided mode)
    env: dict  # sym name -> concrete value

    def clone(self):
        return _GenState(
            ready={t: set(s) for t, s in self.ready.items()},
            indeg=dict(self.indeg),
            popped_count=dict(self.popped_count),
            locks=dict(self.locks),
            parked=dict(self.parked),
            signaled=set(self.signaled),
            done=set(self.done),
            schedule=list(self.schedule),
            current=self.current,
            seg_counts=dict(self.seg_counts),
            open_segment=dict(self.open_segment),
            marked={t: set(m) for t, m in self.marked.items()},
            interleaved=self.interleaved,
            first_mark=self.first_mark,
            memory=dict(self.memory),
            env=dict(self.env),
        )


class ScheduleGenerator:
    def __init__(self, system, value_guided=True):
        self.system = system
        self.value_guided = value_guided
        self.threads = sorted(system.summaries)
        self.sap_count = len(system.saps)
        self.succ = {uid: [] for uid in system.saps}
        base_indeg = {uid: 0 for uid in system.saps}
        for thread, edges in system.thread_order.items():
            for a, b in edges:
                self.succ[a].append(b)
                base_indeg[b] += 1
        self.base_indeg = base_indeg
        self.fork_of = {}
        self.exit_of = {}
        for summary in system.summaries.values():
            for sap in summary.saps:
                if sap.kind == ev.FORK:
                    self.fork_of[sap.addr] = sap.uid
                elif sap.kind == ev.EXIT:
                    self.exit_of[sap.thread] = sap.uid
        # Segment map: uid -> segment id; (thread, seg id) -> length.
        self.segment_of = {}
        self.segment_len = {}
        for thread, summary in system.summaries.items():
            for seg_id, seg in enumerate(thread_segments(summary.saps)):
                self.segment_len[(thread, seg_id)] = len(seg)
                for uid in seg:
                    self.segment_of[uid] = seg_id
        # thread -> {sap index: [PathCondition]} for value-guided pruning.
        self.cond_index = {}
        for cond in system.conditions:
            self.cond_index.setdefault(cond.thread, {}).setdefault(
                cond.after_index, []
            ).append(cond)

    # ------------------------------------------------------------------ #

    def initial_state(self):
        ready = {t: set() for t in self.threads}
        for uid, deg in self.base_indeg.items():
            if deg == 0:
                ready[uid[0]].add(uid)
        return _GenState(
            ready=ready,
            indeg=dict(self.base_indeg),
            popped_count={t: 0 for t in self.threads},
            locks={},
            parked={t: None for t in self.threads},
            signaled=set(),
            done=set(),
            schedule=[],
            current="1",
            seg_counts={},
            open_segment={t: None for t in self.threads},
            marked={t: set() for t in self.threads},
            interleaved=0,
            first_mark=None,
            memory=dict(self.system.initial_values),
            env={},
        )

    def _enabled(self, state, uid):
        sap = self.system.saps[uid]
        kind = sap.kind
        if kind == ev.LOCK:
            return state.locks.get(sap.addr) is None
        if kind == ev.WAIT:
            return sap.thread in state.signaled
        if kind == ev.START:
            # No fork in the system means main or a checkpoint-resumed
            # thread: its (re)start is unconstrained.
            fork = self.fork_of.get(sap.thread)
            return fork is None or fork in state.done
        if kind == ev.JOIN:
            exit_uid = self.exit_of.get(sap.addr)
            if exit_uid is None:
                return sap.addr in self.system.preexited
            return exit_uid in state.done
        return True

    def _enabled_saps(self, state, thread):
        return sorted(uid for uid in state.ready[thread] if self._enabled(state, uid))

    def _charge(self, state, thread, budget):
        """Charge other threads' open segments for a pop by ``thread``.
        Returns False when the interleaving budget would be exceeded."""
        for other in self.threads:
            if other == thread:
                continue
            seg_id = state.open_segment.get(other)
            if seg_id is None or seg_id in state.marked[other]:
                continue
            state.marked[other].add(seg_id)
            state.interleaved += 1
            if state.first_mark is None:
                state.first_mark = (other, state.popped_count[thread] + 1, thread)
            if state.interleaved > budget:
                return False
        return True

    def _pop(self, state, uid, budget, wake=None):
        """Charge, then apply one SAP.  Returns False when the budget or
        value-guided pruning kills the branch."""
        sap = self.system.saps[uid]
        thread = sap.thread
        if not self._charge(state, thread, budget):
            return False
        state.current = thread
        state.ready[thread].discard(uid)
        state.done.add(uid)
        state.schedule.append(uid)
        state.popped_count[thread] += 1
        for nxt in self.succ[uid]:
            state.indeg[nxt] -= 1
            if state.indeg[nxt] == 0:
                state.ready[nxt[0]].add(nxt)
        seg_id = self.segment_of[uid]
        key = (thread, seg_id)
        n = state.seg_counts.get(key, 0) + 1
        state.seg_counts[key] = n
        state.open_segment[thread] = None if n >= self.segment_len[key] else seg_id
        kind = sap.kind
        if kind == ev.READ:
            if self.value_guided:
                state.env[sap.value.name] = state.memory[sap.addr]
        elif kind == ev.WRITE:
            if self.value_guided:
                try:
                    state.memory[sap.addr] = sym_eval(sap.value, state.env)
                except (KeyError, MiniRuntimeError):
                    return False
        elif kind == ev.LOCK:
            state.locks[sap.addr] = thread
        elif kind == ev.UNLOCK:
            state.locks[sap.addr] = None
            nxt = self.system.saps.get((thread, sap.index + 1))
            if nxt is not None and nxt.kind == ev.WAIT:
                state.parked[thread] = nxt
        elif kind == ev.WAIT:
            state.signaled.discard(thread)
        elif kind == ev.BROADCAST:
            for t, w in list(state.parked.items()):
                if w is not None and w.addr == sap.addr:
                    state.parked[t] = None
                    state.signaled.add(t)
        elif kind == ev.SIGNAL:
            if wake is not None:
                state.parked[wake] = None
                state.signaled.add(wake)
        if self.value_guided:
            for cond in self.cond_index.get(thread, {}).get(sap.index, ()):
                try:
                    if not sym_eval(cond.expr, state.env):
                        return False
                except (KeyError, MiniRuntimeError):
                    return False
        return True

    def _signal_wake_choices(self, state, sap):
        """Parked waiters a plain signal could wake (None = signal lost)."""
        waiters = sorted(
            t
            for t, w in state.parked.items()
            if w is not None and w.addr == sap.addr
        )
        return waiters if waiters else [None]

    # ------------------------------------------------------------------ #

    def generate(
        self,
        max_preemptions=0,
        exact_preemptions=False,
        first_preemption=None,
        max_schedules=None,
        max_steps=None,
        order_seed=None,
        stats=None,
    ):
        """Yield complete schedules with at most ``max_preemptions``
        interleaved segments (exactly that many if ``exact_preemptions``).

        ``first_preemption`` — an optional triple (t1, k, t2) pinning the
        first segment-interleaving event (t2's k-th pop charges t1's open
        segment); used to partition the bounded search across parallel
        workers.  ``max_steps`` bounds total pops across all branches.
        ``order_seed`` randomizes the exploration order at every node:
        distinct seeds give independent probes of the bounded space, which
        is how the parallel driver samples large traces.
        ``stats`` (a dict, optional) receives ``steps`` and ``capped`` —
        whether the walk ended because a budget was hit; an uncapped walk
        with no yields means the bounded space is exhausted, so further
        probes of the same bound are pointless.
        """
        rng = random.Random(order_seed) if order_seed is not None else None
        if stats is not None:
            stats["steps"] = 0
            stats["capped"] = False
        produced = 0
        steps = 0
        # Distinct branches can converge on the same SAP sequence — e.g. a
        # lost-signal wake choice whose woken thread never runs again, or
        # exact-bound branches that charge the same segments in a
        # different order.  Suppress re-yields: downstream bug checks and
        # validation are pure functions of the sequence.
        seen = set()
        def finish(capped):
            if stats is not None:
                stats["steps"] = steps
                stats["capped"] = capped

        stack = [self.initial_state()]
        while stack:
            if max_schedules is not None and produced >= max_schedules:
                finish(True)
                return
            if max_steps is not None and steps >= max_steps:
                finish(True)
                return
            state = stack.pop()
            alive = True
            while alive:
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    finish(True)
                    return
                relock = None
                if state.schedule:
                    relock = forced_relock(
                        self.system.saps,
                        self.system.saps[state.schedule[-1]],
                        state.locks,
                    )
                if len(state.schedule) == self.sap_count:
                    if relock is None and (
                        not exact_preemptions
                        or state.interleaved == max_preemptions
                    ) and (
                        first_preemption is None
                        or state.first_mark == first_preemption
                    ):
                        key = tuple(state.schedule)
                        if key not in seen:
                            seen.add(key)
                            produced += 1
                            yield state.schedule
                    break
                candidates = []
                cur = state.current
                if relock is not None:
                    if relock in state.ready[cur]:
                        candidates.append((relock, None))
                else:
                    for uid, wake in self._pop_choices(
                        state, self._enabled_saps(state, cur)
                    ):
                        candidates.append((uid, wake))
                    for thread in self.threads:
                        if thread == cur:
                            continue
                        for uid, wake in self._pop_choices(
                            state, self._enabled_saps(state, thread)
                        ):
                            candidates.append((uid, wake))
                if not candidates:
                    break  # structural dead end
                if rng is not None and len(candidates) > 1:
                    rng.shuffle(candidates)
                # LIFO order: branches are pushed in reverse so the current
                # thread's first choice is continued inline — staying put
                # avoids spending the interleaving budget on noise.
                for uid, wake in reversed(candidates[1:]):
                    branch = state.clone()
                    if self._pop(branch, uid, max_preemptions, wake=wake):
                        stack.append(branch)
                uid, wake = candidates[0]
                alive = self._pop(state, uid, max_preemptions, wake=wake)
        finish(False)

    def _pop_choices(self, state, enabled):
        """Expand signal wake-choices into the pop alternatives."""
        choices = []
        for uid in enabled:
            sap = self.system.saps[uid]
            if sap.kind == ev.SIGNAL:
                for wake in self._signal_wake_choices(state, sap):
                    choices.append((uid, wake))
            else:
                choices.append((uid, None))
        return choices


def csp_universe(system):
    """All (t1, k, t2) first-interleaving keys (the CSP universe)."""
    threads = sorted(system.summaries)
    universe = []
    for t1 in threads:
        for t2 in threads:
            if t2 == t1:
                continue
            n = len(system.summaries[t2].saps)
            for k in range(1, n + 1):
                universe.append((t1, k, t2))
    return universe
