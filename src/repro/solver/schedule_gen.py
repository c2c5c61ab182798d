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

Each branch steps a :class:`~repro.solver.validate.StepModel`, the same
SAP step rules the validator applies, which gives two engineering
refinements over the paper's description (documented in DESIGN.md):

* **structural pruning** — only SAPs the model does not block are
  popped, and a woken wait is followed by its forced re-lock, so
  structurally infeasible schedules are never emitted;
* **value-guided pruning** — read values and path conditions are evaluated
  *during* generation (the paper validates complete candidates only);
  a branch dies at the first violated branch condition instead of
  generating an exponential family of doomed completions.  The bug
  predicate is left to the validator on complete schedules, so the
  generated / good split of Table 3 remains meaningful: "generated"
  counts complete path-consistent schedules, "good" the ones that also
  manifest the bug.

What stays here is the search itself: the per-thread ready sets, the
signal wake choices and the segment-budget charging.
"""

import random

from repro.runtime import events as ev
from repro.constraints.context_switch import thread_segments
from repro.solver.validate import StepModel


class _GenState:
    """One branch of the bounded DFS."""

    __slots__ = (
        "model",
        "ready",
        "indeg",
        "schedule",
        "current",
        "seg_counts",
        "open_segment",
        "marked",
        "interleaved",
    )

    def __init__(self, model, ready, indeg, threads):
        self.model = model  # memory, locks, condvars and done SAPs
        self.ready = ready  # thread -> set of that thread's ready uids
        self.indeg = indeg  # uid -> remaining in-degree (within its thread)
        self.schedule = []
        self.current = "1"
        # Segment bookkeeping.
        self.seg_counts = {}  # (thread, seg_id) -> SAPs popped from it
        self.open_segment = {t: None for t in threads}  # thread -> seg id
        # thread -> charged seg ids; frozen, so clones can share them.
        self.marked = {t: frozenset() for t in threads}
        self.interleaved = 0

    def clone(self):
        other = _GenState.__new__(_GenState)
        other.model = self.model.clone()
        other.ready = {t: set(s) for t, s in self.ready.items()}
        other.indeg = dict(self.indeg)
        other.schedule = list(self.schedule)
        other.current = self.current
        other.seg_counts = dict(self.seg_counts)
        other.open_segment = dict(self.open_segment)
        other.marked = dict(self.marked)
        other.interleaved = self.interleaved
        return other


class ScheduleGenerator:
    def __init__(self, system):
        self.system = system
        self.model = StepModel(system)
        self.threads = sorted(system.summaries)
        self.sap_count = len(system.saps)
        self.succ = {uid: [] for uid in system.saps}
        base_indeg = {uid: 0 for uid in system.saps}
        for thread, edges in system.thread_order.items():
            for a, b in edges:
                self.succ[a].append(b)
                base_indeg[b] += 1
        self.base_indeg = base_indeg
        # Segment map: uid -> segment id; (thread, seg id) -> length.
        self.segment_of = {}
        self.segment_len = {}
        for thread, summary in system.summaries.items():
            for seg_id, seg in enumerate(thread_segments(summary.saps)):
                self.segment_len[(thread, seg_id)] = len(seg)
                for uid in seg:
                    self.segment_of[uid] = seg_id

    # ------------------------------------------------------------------ #

    def initial_state(self):
        ready = {t: set() for t in self.threads}
        for uid, deg in self.base_indeg.items():
            if deg == 0:
                ready[uid[0]].add(uid)
        return _GenState(
            self.model.clone(), ready, dict(self.base_indeg), self.threads
        )

    def _charge(self, state, thread, budget):
        """Charge other threads' open segments for a pop by ``thread``.
        Returns False when the interleaving budget would be exceeded."""
        for other in self.threads:
            if other == thread:
                continue
            seg_id = state.open_segment.get(other)
            if seg_id is None or seg_id in state.marked[other]:
                continue
            state.marked[other] = state.marked[other] | {seg_id}
            state.interleaved += 1
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
        state.schedule.append(uid)
        for nxt in self.succ[uid]:
            state.indeg[nxt] -= 1
            if state.indeg[nxt] == 0:
                state.ready[nxt[0]].add(nxt)
        seg_id = self.segment_of[uid]
        key = (thread, seg_id)
        n = state.seg_counts.get(key, 0) + 1
        state.seg_counts[key] = n
        state.open_segment[thread] = None if n >= self.segment_len[key] else seg_id
        return state.model.apply(uid, wake) is None

    # ------------------------------------------------------------------ #

    def generate(self, *args, **kwargs):
        """Yield the complete schedules of :meth:`walk` (same arguments)."""
        for state in self.walk(*args, **kwargs):
            yield state.schedule

    def walk(
        self,
        max_preemptions=0,
        exact_preemptions=False,
        max_schedules=None,
        max_steps=None,
        order_seed=None,
        stats=None,
    ):
        """Yield the branch state of each complete schedule with at most
        ``max_preemptions`` interleaved segments (exactly that many if
        ``exact_preemptions``): ``state.schedule`` and the final
        ``state.model``.

        ``max_steps`` bounds total pops across all branches.
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
                    relock = state.model.forced_relock(state.schedule[-1])
                if len(state.schedule) == self.sap_count:
                    if relock is None and (
                        not exact_preemptions
                        or state.interleaved == max_preemptions
                    ):
                        key = tuple(state.schedule)
                        if key not in seen:
                            seen.add(key)
                            produced += 1
                            yield state
                    break
                cur = state.current
                if relock is not None:
                    candidates = []
                    if relock in state.ready[cur]:
                        candidates.append((relock, None))
                else:
                    candidates = self._pop_choices(state, cur)
                    for thread in self.threads:
                        if thread != cur:
                            candidates.extend(self._pop_choices(state, thread))
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

    def _pop_choices(self, state, thread):
        """The pop alternatives of ``thread``: its ready SAPs the model
        does not block, in uid order, with a signal's wake choices."""
        saps = self.system.saps
        blocked = state.model.blocked
        choices = []
        for uid in sorted(state.ready[thread]):
            if blocked(uid) is not None:
                continue
            sap = saps[uid]
            if sap.kind == ev.SIGNAL:
                # Any waiter on the condvar may be the one woken, or
                # none (the signal is lost).
                waiters = sorted(w.thread for w in state.model.waiters(sap.addr))
                for wake in waiters or [None]:
                    choices.append((uid, wake))
            else:
                choices.append((uid, None))
        return choices

