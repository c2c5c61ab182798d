"""The interpreter's incremental scheduling state and the scheduler entry point.

The interpreter keeps its runnable tids, live-thread count, just-yielded
set and name index up to date where thread statuses change, and each
memory model keeps its flushable store-buffer heads up to date on every
write and flush.  These tests check after every step of SC, TSO and PSO
runs that the maintained state equals a fresh scan, and that
``RandomScheduler.pick`` makes the same choice with the same random draws
as the tuple-list ``choose`` it replaced, which drew with ``rng.choice``,
at every pool size around the powers of two.
"""

import random
from types import SimpleNamespace

import pytest

from repro.bench.programs import get_benchmark
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.runtime.checkpoint import restore_interpreter
from repro.runtime.interpreter import Interpreter
from repro.runtime.litmus import LITMUS_TESTS
from repro.runtime.memory import PendingStore
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.thread_state import RUNNABLE

from tests.conftest import CONDVAR_SRC, LOCKED_SRC
from tests.core.test_checkpoint import LONG_RACE_SRC

MODELS = ("sc", "tso", "pso")

ABBA_SRC = """
int c = 0;
mutex a;
mutex b;
void left() { lock(a); yield; lock(b); c = c + 1; unlock(b); unlock(a); }
void right() { lock(b); yield; lock(a); c = c + 1; unlock(a); unlock(b); }
int main() {
    int t1 = 0; int t2 = 0;
    t1 = spawn left(); t2 = spawn right();
    join(t1); join(t2);
    return 0;
}
"""


def check_state(interp):
    """The maintained scheduling state equals a fresh scan."""
    threads = interp.threads
    assert interp.runnable == [
        tid for tid, thread in threads.items() if thread.status == RUNNABLE
    ]
    assert interp.live == sum(thread.alive for thread in threads.values())
    assert interp.yielded <= set(interp.runnable)
    assert len(interp.threads_by_name) == len(threads)
    for thread in threads.values():
        assert interp.threads_by_name[thread.name] is thread
    heads = interp.memory.flush_choices()
    flushable = interp.memory.flushable
    assert len(flushable) == len(heads)
    assert all(a is b for a, b in zip(flushable, heads))


def _programs():
    for src, _ in LITMUS_TESTS.values():
        yield compile_source(src), {}
    for src in (LOCKED_SRC, CONDVAR_SRC, ABBA_SRC):
        yield compile_source(src), {}
    for name in ("pbzip2", "bbuf", "apache", "bakery", "dekker", "peterson", "figure2"):
        yield get_benchmark(name).compile(), {"max_steps": 4_000}


@pytest.mark.parametrize("model", MODELS)
def test_maintained_state_matches_fresh_scan(model):
    seen = {"yielded": 0, "blocked": 0, "flushable": 0, "deadlock": 0}

    def step_hook(interp):
        check_state(interp)
        seen["yielded"] += bool(interp.yielded)
        seen["blocked"] += len(interp.runnable) < interp.live
        seen["flushable"] += len(interp.memory.flushable) > 1

    for program, kwargs in _programs():
        for seed in range(4):
            interp = Interpreter(
                program,
                memory_model=model,
                scheduler=RandomScheduler(seed, stickiness=0.4, flush_prob=0.1),
                **kwargs,
            )
            check_state(interp)
            result = interp.run(step_hook=step_hook)
            check_state(interp)
            seen["deadlock"] += result.bug is not None and result.bug.kind == "deadlock"
    assert seen["yielded"] and seen["blocked"] and seen["deadlock"]
    assert bool(seen["flushable"]) == (model != "sc")


def test_maintained_state_after_restore():
    pipeline = ClapPipeline(LONG_RACE_SRC, ClapConfig(memory_model="tso"))
    recorded = pipeline.record_once(1, checkpoint_steps=150)
    assert recorded.checkpoint is not None
    interp = restore_interpreter(
        pipeline.program,
        recorded.checkpoint,
        memory_model="tso",
        scheduler=RandomScheduler(5, stickiness=0.4, flush_prob=0.1),
        shared=pipeline.shared,
    )
    check_state(interp)
    result = interp.run(step_hook=check_state)
    assert result.steps > 0


def _choose_oracle(self, actions, interp, drawn):
    """The former ``RandomScheduler.choose`` body, over
    ``("step", tid)`` / ``("flush", pending)`` action tuples.  Appends
    ``(kind, pool size)`` to ``drawn`` for each ``choice`` it makes."""
    flushes = [a for a in actions if a[0] == "flush"]
    steps = [a for a in actions if a[0] == "step"]
    if flushes and (not steps or self.rng.random() < self.flush_prob):
        drawn.append(("flush", len(flushes)))
        return self.rng.choice(flushes)
    # Honour sched_yield: a thread that just yielded loses its turn
    # when any other thread can run.
    fresh = [
        a for a in steps if not interp.threads[a[1]].just_yielded
    ]
    pool = fresh or steps
    if self.last_tid is not None and self.rng.random() < self.stickiness:
        for action in pool:
            if action[1] == self.last_tid:
                return action
    drawn.append(("step", len(pool)))
    action = self.rng.choice(pool)
    self.last_tid = action[1]
    return action


# Pool sizes around the powers of two, where an index draw of
# ``n.bit_length()`` bits is redrawn (every size but 1, 2, 4, 8 and 16
# can overshoot; 1 still takes a 1-bit draw).
POOL_SIZES = (*range(1, 10), 16, 17)


def test_randbelow_is_the_getrandbits_draw():
    """``RandomScheduler.pick`` draws an index as ``Random.choice`` does
    through ``Random._randbelow_with_getrandbits``.  A Python whose
    ``choice`` draws otherwise would move every recorded run, so it must
    fail here first."""
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def test_pick_matches_choose_draw_for_draw():
    gen = random.Random(20130616)
    decisions = 0
    drawn = []
    for _ in range(300):
        seed = gen.randrange(1 << 30)
        stickiness = gen.choice((0.0, 0.3, 0.7, 1.0))
        flush_prob = gen.choice((0.0, 0.05, 0.35, 1.0))
        new = RandomScheduler(seed, stickiness=stickiness, flush_prob=flush_prob)
        old = RandomScheduler(seed, stickiness=stickiness, flush_prob=flush_prob)
        for _ in range(40):
            tids = sorted(gen.sample(range(1, 20), gen.choice((0,) + POOL_SIZES)))
            flushes = [
                PendingStore(gen.randint(1, 19), ("x", i), i)
                for i in range(gen.choice((0,) + POOL_SIZES))
            ]
            if not tids and not flushes:
                continue
            yielded = {tid for tid in tids if gen.random() < 0.2}
            if gen.random() < 0.3:
                # A sticky last thread: runnable, yielded, or gone.
                last = gen.choice(tids + [None, 99])
                new.last_tid = old.last_tid = last
            actions = [("step", tid) for tid in tids]
            actions += [("flush", pending) for pending in flushes]
            interp = SimpleNamespace(
                threads={
                    tid: SimpleNamespace(just_yielded=tid in yielded)
                    for tid in tids
                }
            )
            kind, expected = _choose_oracle(old, actions, interp, drawn)
            got = new.pick(tids, flushes, yielded)
            if kind == "flush":
                assert got is expected
            else:
                assert not isinstance(got, PendingStore) and got == expected
            assert new.rng.getstate() == old.rng.getstate()
            assert new.last_tid == old.last_tid
            decisions += 1
    assert decisions > 10_000
    for kind in ("step", "flush"):
        sizes = {size for k, size in drawn if k == kind}
        assert set(POOL_SIZES) <= sizes, (kind, sorted(sizes))
