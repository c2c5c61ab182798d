import pytest

from repro.minilang import compile_source
from repro.runtime import events as ev
from repro.runtime.errors import MiniRuntimeError
from repro.runtime.interpreter import Interpreter, run_program
from repro.runtime.scheduler import FixedScheduler, RandomScheduler, RoundRobinScheduler


def run_src(src, **kwargs):
    return run_program(compile_source(src), **kwargs)


def test_sequential_arithmetic():
    res = run_src(
        """
        int out = 0;
        int main() {
            int a = 7;
            int b = a * 3 - 1;
            out = b / 2;
            return 0;
        }
        """
    )
    assert res.ok
    assert res.final_globals[("out",)] == 10


def test_loops_and_arrays():
    res = run_src(
        """
        int a[5];
        int sum = 0;
        int main() {
            for (int i = 0; i < 5; i++) { a[i] = i * i; }
            for (int i = 0; i < 5; i++) { sum = sum + a[i]; }
            return 0;
        }
        """
    )
    assert res.final_globals[("sum",)] == 0 + 1 + 4 + 9 + 16


def test_function_calls_and_returns():
    res = run_src(
        """
        int out = 0;
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { out = fib(10); return 0; }
        """
    )
    assert res.final_globals[("out",)] == 55


def test_division_by_zero_is_runtime_error():
    prog = compile_source("int x = 0; int main() { x = 1 / x; }")
    with pytest.raises(MiniRuntimeError):
        run_program(prog)


@pytest.mark.parametrize(
    "src, op, message",
    [
        ("int x = 2; int main() { x = x * 3; }", "*", "unknown binary operator '**'"),
        ("int x = 2; int main() { x = -x; }", "-", "unknown unary operator '**'"),
    ],
)
def test_unknown_operator_is_runtime_error(src, op, message):
    prog = compile_source(src)
    instrs = [i for b in prog.function("main").blocks for i in b.instrs]
    (instr,) = [i for i in instrs if i.op in ("BINOP", "UNOP") and i.arg == op]
    instr.arg = "**"
    with pytest.raises(MiniRuntimeError, match=message.replace("*", r"\*")):
        run_program(prog)


def test_assert_failure_reported():
    res = run_src("int main() { assert(1 == 2); return 0; }")
    assert res.bug is not None
    assert res.bug.kind == "assertion"


def test_assume_failure_aborts_silently():
    res = run_src("int main() { assume(1 == 2); return 0; }")
    assert res.bug is None
    assert res.aborted == "assume-failed"


def test_print_collects_output():
    res = run_src("int main() { print(1, 2); print(3); return 0; }")
    assert res.output == [("1", (1, 2)), ("1", (3,))]


def test_thread_naming_is_hierarchical():
    res = run_src(
        """
        void child() { }
        void parent() {
            int t = 0;
            t = spawn child();
            join(t);
        }
        int main() {
            int t = 0;
            t = spawn parent();
            join(t);
            return 0;
        }
        """
    )
    assert set(res.thread_names.values()) == {"1", "1:1", "1:1:1"}


def test_join_waits_for_child():
    res = run_src(
        """
        int x = 0;
        void child() { x = 42; }
        int main() {
            int t = 0;
            t = spawn child();
            join(t);
            assert(x == 42);
            return 0;
        }
        """,
        seed=3,
    )
    assert res.ok, res.bug


def test_mutex_enforces_exclusion():
    # With the lock, the counter cannot lose updates under any schedule.
    src = """
    int c = 0;
    mutex m;
    void w() {
        for (int i = 0; i < 3; i++) {
            lock(m);
            int r = c;
            c = r + 1;
            unlock(m);
        }
    }
    int main() {
        int a = 0; int b = 0;
        a = spawn w(); b = spawn w();
        join(a); join(b);
        assert(c == 6);
        return 0;
    }
    """
    prog = compile_source(src)
    for seed in range(30):
        res = run_program(prog, seed=seed, stickiness=0.2)
        assert res.ok, (seed, res.bug)


def test_unlock_by_non_owner_is_error():
    prog = compile_source(
        """
        mutex m;
        void w() { unlock(m); }
        int main() {
            lock(m);
            int t = 0;
            t = spawn w();
            join(t);
            return 0;
        }
        """
    )
    with pytest.raises(MiniRuntimeError):
        run_program(prog)


def test_deadlock_detected():
    prog = compile_source(
        """
        mutex a;
        mutex b;
        void t1() { lock(a); lock(b); unlock(b); unlock(a); }
        void t2() { lock(b); lock(a); unlock(a); unlock(b); }
        int main() {
            int x = 0; int y = 0;
            x = spawn t1(); y = spawn t2();
            join(x); join(y);
            return 0;
        }
        """
    )
    found = False
    for seed in range(100):
        res = run_program(prog, seed=seed, stickiness=0.2)
        if res.bug is not None and res.bug.kind == "deadlock":
            found = True
            break
    assert found, "AB/BA deadlock never manifested in 100 seeds"


def test_step_limit_aborts():
    prog = compile_source("int x = 0; int main() { while (x == 0) { yield; } }")
    res = run_program(prog, max_steps=500)
    assert res.aborted == "step-limit"


def test_sap_events_have_consistent_uids(race_program):
    res = run_program(race_program, seed=1, stickiness=0.3)
    for thread, saps in res.saps_by_thread.items():
        assert [s.index for s in saps] == list(range(len(saps)))
        if saps:
            assert saps[0].kind == ev.START


def test_memory_order_events_match_sc_program_order(race_program):
    res = run_program(race_program, seed=1, stickiness=0.3)
    # Under SC, each thread's events appear in its program order.
    seen = {}
    for sap in res.events:
        last = seen.get(sap.thread, -1)
        assert sap.index > last
        seen[sap.thread] = sap.index


def test_shared_set_limits_saps():
    src = """
    int shared_x = 0;
    int private_y = 0;
    void w() { shared_x = 1; private_y = 2; }
    int main() {
        int t = 0;
        t = spawn w();
        join(t);
        return 0;
    }
    """
    prog = compile_source(src)
    res = run_program(prog, shared={"shared_x"})
    kinds = [(s.kind, s.addr) for s in res.saps_by_thread["1:1"]]
    assert (ev.WRITE, ("shared_x",)) in kinds
    assert all(addr != ("private_y",) for _, addr in kinds)


def test_round_robin_scheduler_is_deterministic(race_program):
    r1 = run_program(race_program, scheduler=RoundRobinScheduler(3))
    r2 = run_program(race_program, scheduler=RoundRobinScheduler(3))
    assert r1.schedule() == r2.schedule()


def test_random_scheduler_same_seed_same_run(race_program):
    r1 = run_program(race_program, seed=11, stickiness=0.4)
    r2 = run_program(race_program, seed=11, stickiness=0.4)
    assert r1.schedule() == r2.schedule()
    assert (r1.bug is None) == (r2.bug is None)


def test_condvar_producer_consumer(condvar_program):
    for seed in range(25):
        res = run_program(condvar_program, seed=seed, stickiness=0.3)
        assert res.ok, (seed, res.bug)
        assert res.final_globals[("y",)] == 10


def test_broadcast_wakes_all_waiters():
    src = """
    int go = 0;
    int woke = 0;
    mutex m;
    cond cv;
    void waiter() {
        lock(m);
        while (go == 0) { wait(cv, m); }
        woke = woke + 1;
        unlock(m);
    }
    int main() {
        int a = 0; int b = 0; int c = 0;
        a = spawn waiter(); b = spawn waiter(); c = spawn waiter();
        lock(m);
        go = 1;
        broadcast(cv);
        unlock(m);
        join(a); join(b); join(c);
        assert(woke == 3);
        return 0;
    }
    """
    prog = compile_source(src)
    for seed in range(20):
        res = run_program(prog, seed=seed, stickiness=0.4)
        assert res.ok, (seed, res.bug)
