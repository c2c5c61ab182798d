"""The paper's benchmark suite, re-expressed in MiniLang.

Each program preserves the *bug pattern* and sharing/synchronization
structure of the original (Section 6 of the paper); sizes are scaled so a
pure-Python solver stack remains tractable.  Parameters are exposed so the
harness can sweep them (e.g. ``racey`` loop counts).

=============  ===========================================================
sim_race       unprotected racy updates of two shared variables
pbzip2         order violation: main invalidates the queue mutex while
               consumers still use it (the pbzip2-0.9.4 crash)
aget           racy read-modify-write of the shared download progress
bbuf           bounded buffer whose producers update a counter outside
               the critical section (seeded atomicity violation)
swarm          worker publishes "done" before publishing its result
               (order violation)
pfscan         matches counter: read under lock, write outside it
apache         bug #45605: multi-variable atomicity violation on the
               idlers counter between listener threads
racey          the deterministic-replay stress benchmark: dense races on
               an array, reproduced via its output signature
bakery         Lamport's bakery — correct on SC, broken on TSO/PSO
dekker         Dekker's algorithm — correct on SC, broken on TSO/PSO
peterson       Peterson's algorithm — correct on SC, broken on TSO/PSO
figure2        the paper's running example: assert1 fails under an SC
               interleaving, assert2 only under PSO write reordering
=============  ===========================================================
"""

import functools
from dataclasses import dataclass, field


@dataclass
class BenchProgram:
    """One benchmark: source plus bug-triggering configuration."""

    name: str
    source: str
    memory_model: str = "sc"
    description: str = ""
    # Scheduler settings that manifest the failure quickly.
    seeds: range = field(default_factory=lambda: range(500))
    stickiness: float = 0.5
    flush_prob: float = 0.25
    max_steps: int = 2_000_000
    # Solver settings.
    max_cs: int = 4
    pin_observed_reads: bool = False
    params: dict = field(default_factory=dict)

    def compile(self):
        from repro.minilang import compile_source

        return compile_source(self.source, name=self.name)

    def config_kwargs(self):
        return dict(
            memory_model=self.memory_model,
            seeds=self.seeds,
            stickiness=self.stickiness,
            flush_prob=self.flush_prob,
            max_steps=self.max_steps,
            max_cs=self.max_cs,
            pin_observed_reads=self.pin_observed_reads,
        )


# --------------------------------------------------------------------------
# sim_race
# --------------------------------------------------------------------------


def sim_race(workers=4, iters=1):
    body = "\n".join(
        "    t%d = spawn racer(%d);" % (i, i + 1) for i in range(workers)
    )
    decls = "\n".join("    int t%d = 0;" % i for i in range(workers))
    joins = "\n".join("    join(t%d);" % i for i in range(workers))
    expected = sum(range(1, workers + 1)) * iters
    source = """
int x = 0;
int y = 0;

void racer(int id) {
    for (int i = 0; i < %d; i++) {
        int a = x;
        x = a + id;
        int b = y;
        y = b + id;
    }
}

int main() {
%s
%s
%s
    assert(x == %d && y == %d);
    return 0;
}
""" % (iters, decls, body, joins, expected, expected)
    return BenchProgram(
        name="sim_race",
        source=source,
        description="unprotected updates of two shared variables",
        stickiness=0.3,
        params={"workers": workers},
    )


# --------------------------------------------------------------------------
# pbzip2 — order violation on the queue mutex's validity
# --------------------------------------------------------------------------


def pbzip2(consumers=2, items=3):
    decls = "\n".join("    int c%d = 0;" % i for i in range(consumers))
    spawns = "\n".join("    c%d = spawn consumer();" % i for i in range(consumers))
    joins = "\n".join("    join(c%d);" % i for i in range(consumers))
    source = """
int slot = 0;
int full = 0;
int allDone = 0;
int mutexValid = 1;
int consumed = 0;
mutex m;
cond notEmpty;
cond notFull;

void consumer() {
    int run = 1;
    while (run == 1) {
        int v = mutexValid;
        assert(v == 1);
        lock(m);
        while (full == 0 && allDone == 0) { wait(notEmpty, m); }
        if (full == 1) {
            int item = slot;
            full = 0;
            consumed = consumed + 1;
            signal(notFull);
        } else {
            run = 0;
        }
        unlock(m);
    }
}

int main() {
%s
%s
    for (int i = 0; i < %d; i++) {
        lock(m);
        while (full == 1) { wait(notFull, m); }
        slot = i + 10;
        full = 1;
        signal(notEmpty);
        unlock(m);
    }
    lock(m);
    allDone = 1;
    broadcast(notEmpty);
    unlock(m);
    mutexValid = 0;
%s
    return 0;
}
""" % (decls, spawns, items, joins)
    return BenchProgram(
        name="pbzip2",
        source=source,
        description="main invalidates the consumer queue mutex too early",
        stickiness=0.4,
        params={"consumers": consumers, "items": items},
    )


# --------------------------------------------------------------------------
# aget — racy download-progress accounting
# --------------------------------------------------------------------------


def aget(workers=3, chunks=4):
    decls = "\n".join("    int t%d = 0;" % i for i in range(workers))
    spawns = "\n".join(
        "    t%d = spawn downloader(%d);" % (i, i) for i in range(workers)
    )
    joins = "\n".join("    join(t%d);" % i for i in range(workers))
    total = workers * chunks * 2
    source = """
int bwritten = 0;
int chunk[%d];
mutex m;

void downloader(int id) {
    for (int i = 0; i < %d; i++) {
        chunk[id] = chunk[id] + 2;
        int b = bwritten;
        bwritten = b + 2;
    }
}

int main() {
%s
%s
%s
    assert(bwritten == %d);
    return 0;
}
""" % (workers, chunks, decls, spawns, joins, total)
    return BenchProgram(
        name="aget",
        source=source,
        description="shared progress counter updated without the lock",
        stickiness=0.3,
        params={"workers": workers, "chunks": chunks},
    )


# --------------------------------------------------------------------------
# bbuf — bounded buffer with a seeded atomicity violation
# --------------------------------------------------------------------------


def bbuf(producers=2, consumers=2, items_each=2):
    total = producers * items_each
    per_consumer = total // consumers
    decls = "\n".join(
        ["    int p%d = 0;" % i for i in range(producers)]
        + ["    int c%d = 0;" % i for i in range(consumers)]
    )
    spawns = "\n".join(
        ["    p%d = spawn producer(%d, %d);" % (i, items_each, (i + 1) * 10) for i in range(producers)]
        + ["    c%d = spawn consumer(%d);" % (i, per_consumer) for i in range(consumers)]
    )
    joins = "\n".join(
        ["    join(p%d);" % i for i in range(producers)]
        + ["    join(c%d);" % i for i in range(consumers)]
    )
    source = """
int slot = 0;
int full = 0;
int produced = 0;
int consumed = 0;
mutex m;
cond notFull;
cond notEmpty;

void producer(int n, int base) {
    for (int i = 0; i < n; i++) {
        lock(m);
        while (full == 1) { wait(notFull, m); }
        slot = base + i;
        full = 1;
        signal(notEmpty);
        unlock(m);
        int p = produced;
        yield;
        produced = p + 1;
    }
}

void consumer(int n) {
    for (int i = 0; i < n; i++) {
        lock(m);
        while (full == 0) { wait(notEmpty, m); }
        int v = slot;
        full = 0;
        consumed = consumed + 1;
        signal(notFull);
        unlock(m);
    }
}

int main() {
%s
%s
%s
    assert(produced == %d);
    return 0;
}
""" % (decls, spawns, joins, total)
    return BenchProgram(
        name="bbuf",
        source=source,
        description="producers bump the produced counter outside the lock",
        stickiness=0.35,
        params={
            "producers": producers,
            "consumers": consumers,
            "items_each": items_each,
        },
    )


# --------------------------------------------------------------------------
# swarm — completion signalled before the result is published
# --------------------------------------------------------------------------


def swarm(cells=8):
    half = cells // 2
    expected = sum(range(1, cells + 1))
    source = """
int arr[%d];
int sum0 = 0;
int sum1 = 0;

void sorter(int id) {
    int s = 0;
    for (int i = 0; i < %d; i++) {
        s = s + arr[id * %d + i];
    }
    if (id == 0) { sum0 = s; } else { sum1 = s; }
}

int main() {
    for (int i = 0; i < %d; i++) { arr[i] = i + 1; }
    int t0 = 0;
    int t1 = 0;
    t0 = spawn sorter(0);
    t1 = spawn sorter(1);
    join(t0);
    int total = sum0 + sum1;
    assert(total == %d);
    join(t1);
    return 0;
}
""" % (cells, half, half, cells, expected)
    return BenchProgram(
        name="swarm",
        source=source,
        description="order violation: main merges after joining only one worker",
        stickiness=0.45,
        params={"cells": cells},
    )


# --------------------------------------------------------------------------
# pfscan — matches counter read under lock, written outside it
# --------------------------------------------------------------------------


def pfscan(workers=2, chunk=6, unroll=1):
    chunk = chunk - chunk % unroll if chunk % unroll else chunk
    cells = workers * chunk
    decls = "\n".join("    int t%d = 0;" % i for i in range(workers))
    spawns = "\n".join(
        "    t%d = spawn scanner(%d);" % (i, i) for i in range(workers)
    )
    joins = "\n".join("    join(t%d);" % i for i in range(workers))
    # text[i] = i % 4; pattern 3 -> one match per 4 cells.
    expected = sum(1 for i in range(cells) if i % 4 == 3)
    source = """
int text[%d];
int matches = 0;
mutex m;

void scanner(int id) {
    int found = 0;
    for (int i = 0; i < %d; i++) {
%s
    }
    lock(m);
    int v = matches;
    unlock(m);
    matches = v + found;
}

int main() {
    for (int i = 0; i < %d; i++) { text[i] = i %% 4; }
%s
%s
%s
    assert(matches == %d);
    return 0;
}
""" % (
        cells,
        chunk // unroll,
        "\n".join(
            "        if (text[id * %d + i * %d + %d] == 3) { found = found + 1; }"
            % (chunk, unroll, u)
            for u in range(unroll)
        ),
        cells,
        decls,
        spawns,
        joins,
        expected,
    )
    return BenchProgram(
        name="pfscan",
        source=source,
        description="matches counter: read under lock, write outside",
        stickiness=0.35,
        params={"workers": workers, "chunk": chunk},
    )


# --------------------------------------------------------------------------
# apache — bug #45605, multi-variable atomicity violation on idlers
# --------------------------------------------------------------------------


def apache(listeners=2, workers=2, requests_each=2):
    capacity = listeners * requests_each
    decls = "\n".join(
        ["    int l%d = 0;" % i for i in range(listeners)]
        + ["    int w%d = 0;" % i for i in range(workers)]
    )
    spawns = "\n".join(
        ["    w%d = spawn worker();" % i for i in range(workers)]
        + ["    l%d = spawn listener(%d);" % (i, requests_each) for i in range(listeners)]
    )
    source = """
int idlers = 0;
int queued = 0;
int handled = 0;
int shutdown = 0;
mutex qm;
cond qcond;

void worker() {
    int run = 1;
    while (run == 1) {
        lock(qm);
        idlers = idlers + 1;
        while (queued == 0 && shutdown == 0) { wait(qcond, qm); }
        if (shutdown == 1) {
            run = 0;
        } else {
            queued = queued - 1;
            handled = handled + 1;
        }
        unlock(qm);
    }
}

void listener(int n) {
    for (int i = 0; i < n; i++) {
        int idle = idlers;
        if (idle > 0) {
            idlers = idlers - 1;
            int chk = idlers;
            assert(chk >= 0);
            lock(qm);
            queued = queued + 1;
            signal(qcond);
            unlock(qm);
        }
    }
}

int main() {
%s
%s
%s
    lock(qm);
    shutdown = 1;
    broadcast(qcond);
    unlock(qm);
%s
    return 0;
}
""" % (
        decls,
        spawns,
        "\n".join("    join(l%d);" % i for i in range(listeners)),
        "\n".join("    join(w%d);" % i for i in range(workers)),
    )
    return BenchProgram(
        name="apache",
        source=source,
        description="bug #45605: idlers checked and decremented non-atomically",
        stickiness=0.4,
        params={
            "listeners": listeners,
            "workers": workers,
            "requests_each": requests_each,
        },
    )


# --------------------------------------------------------------------------
# racey — the replay stress benchmark
# --------------------------------------------------------------------------


def _racey_source(loops, cells, expected):
    return """
int sig[%d];
int out = 0;

void mix(int id) {
    for (int i = 0; i < %d; i++) {
        int j = (id * 7 + i * 3) %% %d;
        int k = (id * 5 + i * 2 + 1) %% %d;
        int a = sig[j];
        int b = sig[k];
        sig[(j + k) %% %d] = a + b + 1;
    }
}

int main() {
    for (int i = 0; i < %d; i++) { sig[i] = i; }
    int t0 = 0;
    int t1 = 0;
    t0 = spawn mix(0);
    t1 = spawn mix(1);
    join(t0);
    join(t1);
    int signature = 0;
    for (int i = 0; i < %d; i++) {
        signature = signature + sig[i] * (i + 1);
    }
    out = signature;
    assert(signature == %s);
    return 0;
}
""" % (cells, loops, cells, cells, cells, cells, cells, expected)


@functools.lru_cache(maxsize=None)
def _racey_signature(loops, cells):
    """The output of racey run serially: one thread at a time, to the end.
    A function of ``(loops, cells)`` alone, so each size runs it once."""
    from repro.minilang import compile_source
    from repro.runtime.interpreter import run_program
    from repro.runtime.scheduler import RoundRobinScheduler

    probe = compile_source(
        _racey_source(loops, cells, "0 - 1"), name="racey-probe"
    )
    serial = run_program(
        probe, "sc", scheduler=RoundRobinScheduler(quantum=10**9)
    )
    return serial.final_globals[("out",)]


def racey(loops=10, cells=8):
    """racey's bug predicate is its output *signature*: the assertion pins
    the signature of a race-free (serialized) execution, so any racy
    interleaving fails it and CLAP must reconstruct a racy schedule."""
    expected = _racey_signature(loops, cells)
    source = _racey_source(loops, cells, str(expected))
    return BenchProgram(
        name="racey",
        source=source,
        description="dense array races; reproduced to the exact observed output",
        stickiness=0.2,
        max_cs=8,
        pin_observed_reads=True,
        params={"loops": loops, "cells": cells, "serial_signature": expected},
    )


# --------------------------------------------------------------------------
# Mutual-exclusion trio (relaxed-memory bugs)
# --------------------------------------------------------------------------


def bakery(customers=3, rounds=1, memory_model="tso"):
    expected = customers * rounds
    decls = "\n".join("    int t%d = 0;" % i for i in range(customers))
    spawns = "\n".join(
        "    t%d = spawn customer(%d);" % (i, i) for i in range(customers)
    )
    joins = "\n".join("    join(t%d);" % i for i in range(customers))
    source = """
int number[%d];
int choosing[%d];
int count = 0;

void customer(int id) {
    for (int r = 0; r < %d; r++) {
        choosing[id] = 1;
        int max = 0;
        for (int j = 0; j < %d; j++) {
            int n = number[j];
            if (n > max) { max = n; }
        }
        number[id] = max + 1;
        choosing[id] = 0;
        for (int j = 0; j < %d; j++) {
            if (j != id) {
                while (choosing[j] == 1) { yield; }
                int nj = number[j];
                int ni = number[id];
                while (nj != 0 && (nj < ni || (nj == ni && j < id))) {
                    yield;
                    nj = number[j];
                    ni = number[id];
                }
            }
        }
        int c = count;
        count = c + 1;
        number[id] = 0;
    }
}

int main() {
%s
%s
%s
    assert(count == %d);
    return 0;
}
""" % (
        customers,
        customers,
        rounds,
        customers,
        customers,
        decls,
        spawns,
        joins,
        expected,
    )
    return BenchProgram(
        name="bakery",
        source=source,
        memory_model=memory_model,
        description="Lamport's bakery: safe on SC, broken by store buffering",
        seeds=range(1000),
        stickiness=0.5,
        flush_prob=0.02,
        params={"customers": customers, "rounds": rounds},
    )


def dekker(rounds=2, memory_model="tso"):
    source = """
int flag[2];
int turn = 0;
int count = 0;

void actor(int id) {
    int other = 1 - id;
    for (int k = 0; k < %d; k++) {
        flag[id] = 1;
        while (flag[other] == 1) {
            if (turn != id) {
                flag[id] = 0;
                while (turn != id) { yield; }
                flag[id] = 1;
            }
        }
        int c = count;
        count = c + 1;
        turn = other;
        flag[id] = 0;
    }
}

int main() {
    int t0 = 0;
    int t1 = 0;
    t0 = spawn actor(0);
    t1 = spawn actor(1);
    join(t0);
    join(t1);
    assert(count == %d);
    return 0;
}
""" % (rounds, 2 * rounds)
    return BenchProgram(
        name="dekker",
        source=source,
        memory_model=memory_model,
        description="Dekker's algorithm: safe on SC, broken by store buffering",
        seeds=range(1000),
        stickiness=0.5,
        flush_prob=0.02,
        params={"rounds": rounds},
    )


def peterson(rounds=2, memory_model="tso"):
    source = """
int flag[2];
int turn = 0;
int count = 0;

void actor(int id) {
    int other = 1 - id;
    for (int k = 0; k < %d; k++) {
        flag[id] = 1;
        turn = other;
        while (flag[other] == 1 && turn == other) { yield; }
        int c = count;
        count = c + 1;
        flag[id] = 0;
    }
}

int main() {
    int t0 = 0;
    int t1 = 0;
    t0 = spawn actor(0);
    t1 = spawn actor(1);
    join(t0);
    join(t1);
    assert(count == %d);
    return 0;
}
""" % (rounds, 2 * rounds)
    return BenchProgram(
        name="peterson",
        source=source,
        memory_model=memory_model,
        description="Peterson's algorithm: safe on SC, broken by store buffering",
        seeds=range(1000),
        stickiness=0.5,
        flush_prob=0.02,
        params={"rounds": rounds},
    )


# --------------------------------------------------------------------------
# figure2 — the paper's running example (Figures 2-4)
# --------------------------------------------------------------------------


def figure2(memory_model="sc"):
    """assert1 (in main) fails under an SC-reachable interleaving; assert2
    (in t2) can only fail when t1's two stores drain out of order — PSO."""
    source = """
int x = 0;
int y = 0;
int c = 0;

void t1() {
    int a = c;
    c = a + 1;
    x = 1;
    y = 1;
}

void t2() {
    int b = c;
    c = b + 1;
    int f = y;
    int d = x;
    if (f == 1) {
        assert(d == 1);
    }
}

int main() {
    int h1 = 0;
    int h2 = 0;
    h1 = spawn t1();
    h2 = spawn t2();
    join(h1);
    join(h2);
    assert(c == 2);
    return 0;
}
"""
    return BenchProgram(
        name="figure2",
        source=source,
        memory_model=memory_model,
        description="paper's example: assert1 is an SC race, assert2 is PSO-only",
        stickiness=0.35,
        flush_prob=0.1,
        params={},
    )


# --------------------------------------------------------------------------
# flight — long call-in-loop prelude, race at the very end
# --------------------------------------------------------------------------


def flight(iters=40):
    """Flight-recorder stress benchmark.

    Each worker runs a long loop that *calls* a helper every iteration —
    the ``enter``/``exit`` tokens defeat the encoder's run-length folding,
    so a bounded ring genuinely evicts the loop's prefix (a straight-line
    loop like ``sim_race``'s folds into one REPEAT record and never
    fills a ring).  The racy accesses sit after the loop, in the retained
    suffix; reproducing the failure from a small ring exercises anchored
    suffix decoding plus prefix synthesis end to end.
    """
    source = """
int x = 0;
int y = 0;

void bump(int id) {
    int a = x;
    x = a + id;
}

void worker(int id) {
    for (int i = 0; i < %d; i++) {
        bump(id);
    }
    int b = y;
    bump(id);
    y = b + id;
}

int main() {
    int t0 = 0;
    int t1 = 0;
    t0 = spawn worker(1);
    t1 = spawn worker(2);
    join(t0);
    join(t1);
    assert(y == 3);
    return 0;
}
""" % iters
    return BenchProgram(
        name="flight",
        source=source,
        description="call-heavy loop prelude with an end-of-run race",
        stickiness=0.2,
        params={"iters": iters},
    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_BUILDERS = {
    "sim_race": sim_race,
    "pbzip2": pbzip2,
    "aget": aget,
    "bbuf": bbuf,
    "swarm": swarm,
    "pfscan": pfscan,
    "apache": apache,
    "racey": racey,
    "bakery": bakery,
    "dekker": dekker,
    "peterson": peterson,
    "figure2": figure2,
    "flight": flight,
}

BENCHMARK_NAMES = tuple(_BUILDERS)

# The 11 programs of Table 1 (figure2 is the worked example, not a table row).
TABLE1_NAMES = (
    "sim_race",
    "pbzip2",
    "aget",
    "bbuf",
    "swarm",
    "pfscan",
    "apache",
    "racey",
    "bakery",
    "dekker",
    "peterson",
)

# The 8 programs of Table 2 (runtime/space overhead comparison).
TABLE2_NAMES = (
    "sim_race",
    "bbuf",
    "swarm",
    "pbzip2",
    "aget",
    "pfscan",
    "apache",
    "racey",
)

# Production-scale parameterizations used when measuring recording
# overhead (Table 2).  The bug-reproduction configs above stay small so
# the pure-Python solvers remain tractable; overhead measurement has no
# solver in the loop and wants realistic run lengths and shared-access
# densities (the paper's Table 2 machines ran full workloads too).
TABLE2_PARAMS = {
    "sim_race": {"workers": 4, "iters": 60},
    "bbuf": {"producers": 2, "consumers": 2, "items_each": 25},
    "swarm": {"cells": 64},
    "pbzip2": {"consumers": 2, "items": 40},
    "aget": {"workers": 3, "chunks": 80},
    "pfscan": {"workers": 2, "chunk": 128, "unroll": 4},
    "apache": {"listeners": 2, "workers": 2, "requests_each": 30},
    "racey": {"loops": 150, "cells": 16},
}


def get_benchmark(name, **params):
    """Build one benchmark by name with optional parameter overrides."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            "unknown benchmark %r (have: %s)" % (name, ", ".join(_BUILDERS))
        ) from None
    return builder(**params)


def all_benchmarks(names=BENCHMARK_NAMES):
    """Build the named benchmarks (default: all)."""
    return {name: get_benchmark(name) for name in names}
