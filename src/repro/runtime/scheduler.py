"""Thread schedulers for the MiniLang interpreter.

At every step the interpreter calls :meth:`Scheduler.pick` with

* ``tids`` — the runnable thread ids, in tid order;
* ``flushes`` — the flushable store-buffer heads (TSO/PSO only; each a
  :class:`~repro.runtime.memory.PendingStore`), in buffer-creation order;
* ``yielded`` — the set of runnable tids that have just executed a
  ``yield`` (almost always empty).

It returns a tid, to execute one instruction of that thread, or one of
``flushes``, to make that buffered store globally visible.  The lists are
the interpreter's own, maintained incrementally: a scheduler reads them
and must not keep or mutate them.

Because every instruction is a potential preemption point and store-buffer
flushes are explicit choices, every SC/TSO/PSO interleaving the constraint
theory can express is reachable by some scheduler choice sequence — which
is what makes the seeded :class:`RandomScheduler` an adequate stand-in for
the paper's "insert timing delays and run many times" bug-triggering setup.
"""

import random


class Scheduler:
    """Base class: subclasses override :meth:`pick`."""

    def pick(self, tids, flushes, yielded):
        raise NotImplementedError

    def reset(self):
        """Called once before an execution starts."""


class RandomScheduler(Scheduler):
    """Seeded random scheduler with a stickiness bias.

    With probability ``stickiness`` the previously running thread keeps
    running (when still enabled); otherwise a uniformly random runnable
    thread is taken.  Low stickiness yields heavy interleaving; high
    stickiness yields long thread bursts (more realistic, fewer races hit).
    ``flush_prob`` biases how eagerly store buffers drain: 1.0 approximates
    SC even on TSO/PSO; small values keep stores buffered long enough for
    relaxed-memory reorderings to be observable.

    The random draws per decision are fixed: one ``random()`` for the
    flush coin when both kinds of choice exist, an index draw among the
    flushes, or else one ``random()`` for stickiness when there is a
    previous thread and an index draw unless it sticks.  Every recorded
    run depends on this sequence.

    An index draw below ``n`` is what ``rng.choice`` makes on CPython
    (``Random._randbelow_with_getrandbits``): ``getrandbits(k)`` with
    ``k = n.bit_length()``, redrawn until it is below ``n``, so a
    one-element pool still consumes one 1-bit draw.  ``pick`` makes it
    inline, without the two Python calls of ``choice``.
    """

    def __init__(self, seed=0, stickiness=0.7, flush_prob=0.35):
        self.seed = seed
        self.stickiness = stickiness
        self.flush_prob = flush_prob
        self.rng = random.Random(seed)
        self.last_tid = None

    def reset(self):
        self.rng = random.Random(self.seed)
        self.last_tid = None

    def pick(self, tids, flushes, yielded):
        rng = self.rng
        if flushes and (not tids or rng.random() < self.flush_prob):
            pool = flushes
        else:
            # Honour sched_yield: a thread that just yielded loses its turn
            # when any other thread can run.
            pool = tids
            if yielded:
                pool = [tid for tid in tids if tid not in yielded] or tids
            last = self.last_tid
            if last is not None and rng.random() < self.stickiness and last in pool:
                return last
        n = len(pool)
        k = n.bit_length()
        index = rng.getrandbits(k)
        while index >= n:
            index = rng.getrandbits(k)
        if pool is flushes:
            return flushes[index]
        tid = self.last_tid = pool[index]
        return tid


class RoundRobinScheduler(Scheduler):
    """Deterministic round-robin with a per-thread quantum; flushes happen
    whenever a thread's quantum expires (and at the very end)."""

    def __init__(self, quantum=1):
        self.quantum = quantum
        self.remaining = quantum
        self.last_tid = None

    def reset(self):
        self.remaining = self.quantum
        self.last_tid = None

    def pick(self, tids, flushes, yielded):
        if not tids:
            return flushes[0]
        last = self.last_tid
        if last is not None and self.remaining > 0 and last in tids:
            self.remaining -= 1
            return last
        if flushes:
            return flushes[0]
        tid = tids[0]
        if last is not None:
            tid = next((t for t in tids if t > last), tid)
        self.last_tid = tid
        self.remaining = self.quantum - 1
        return tid


class FixedScheduler(Scheduler):
    """Plays back an explicit decision list (used by unit tests).

    Each decision is ``("step", tid)`` or ``("flush", addr)``; a flush
    decision matches the pending store with that address.  When decisions
    run out, falls back to the lowest runnable tid, then the first flush.
    """

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.pos = 0

    def reset(self):
        self.pos = 0

    def pick(self, tids, flushes, yielded):
        while self.pos < len(self.decisions):
            kind, arg = self.decisions[self.pos]
            self.pos += 1
            if kind == "step":
                if arg in tids:
                    return arg
            else:
                for pending in flushes:
                    if pending.addr == arg:
                        return pending
            # Decision not currently enabled: skip it (keeps tests terse).
        return tids[0] if tids else flushes[0]


def find_buggy_seed(
    program,
    memory_model="sc",
    seeds=range(200),
    stickiness=0.7,
    flush_prob=0.35,
    max_steps=2_000_000,
    shared=None,
):
    """Search seeded random schedules for one that manifests a failure.

    This plays the role of the paper's bug-triggering setup ("we typically
    inserted timing delays at key places and ran it many times until the
    bug occurred").  Returns ``(seed, ExecutionResult)`` for the first seed
    whose execution ends with a bug, or ``None`` if none of the seeds hits.
    """
    from repro.runtime.interpreter import Interpreter

    for seed in seeds:
        sched = RandomScheduler(seed, stickiness=stickiness, flush_prob=flush_prob)
        interp = Interpreter(
            program,
            memory_model=memory_model,
            scheduler=sched,
            max_steps=max_steps,
            shared=shared,
        )
        result = interp.run()
        if result.bug is not None:
            return seed, result
    return None
