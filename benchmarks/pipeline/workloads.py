"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload turns ``--seed N`` into its inputs during set-up; the
pipeline only ever receives the generated scheduler seeds and
recordings.  A pass runs every input once through the public pipeline
API and returns the pass's exact counts, which must repeat on every
pass.

* ``record``  — seven Table-2 programs at production sizes, scheduler
  seeds ``3N..3N+2``, each recorded classically and through a 64-byte
  flight-recorder ring that evicts.  Only the interpreter and the
  recorder hooks run.
* ``table1``  — the 11 Table-1 failures, several traces each, reproduced
  offline with the default solver.  Many small traces, so the fixed
  per-trace costs (pipeline construction, decode, symexec) are visible
  next to the solver.
* ``flight``  — ``flight`` recorded through 40- and 64-byte rings at
  three loop lengths, plus one unbounded recording.  The only workload
  that runs anchored decode and prefix synthesis, and the one where
  encoding is a large share.

Failing runs are chosen as ``ClapPipeline.record()`` chooses among its
candidates, fewest SAPs first, and vetted during set-up: one whose
offline reproduction fails is left out and listed with its reason, so
every operation of a pass is expected to succeed.
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime.interpreter import Interpreter
from repro.runtime.replay import replay_schedule
from repro.runtime.scheduler import RandomScheduler
from repro.tracing.decoder import decode_log
from repro.tracing.recorder import FastPathRecorder, PathRecorder

# ``--seed N`` moves every scheduler-seed search window by N * SEED_STRIDE.
SEED_STRIDE = 10_000
SEARCH_LIMIT = 5_000

# Production sizes of the Table-2 programs, as in the recorder benchmark
# (benchmarks/test_recorder_perf.py): long enough that hook costs matter.
# apache is left out: at this size every run fails in a listener within
# the first 113 to 4.5k instructions, so its time is set by when the
# race fires, not by the recorder.
RECORD_SIZES = {
    "sim_race": {"workers": 4, "iters": 400},
    "bbuf": {"producers": 2, "consumers": 2, "items_each": 80},
    "swarm": {"cells": 256},
    "pbzip2": {"consumers": 2, "items": 150},
    "aget": {"workers": 3, "chunks": 300},
    "pfscan": {"workers": 2, "chunk": 512, "unroll": 4},
    "racey": {"loops": 600, "cells": 16},
}
RECORD_RING = {"ring_bytes": 64, "ring_segment_bytes": 16}

# Scheduler settings that make rare failures cheap to find.  dekker's
# failing runs end within about 1k steps, but a passing run can spin
# for the whole 2M-step budget; bakery fails in about 1 run of 200 at
# its Table-1 flush probability and in about 1 of 6 at 0.005.
SEARCH_OVERRIDES = {
    "dekker": {"max_steps": 20_000},
    "bakery": {"flush_prob": 0.005},
}

# Several traces per program, so that the per-program median latency
# does not hang on one unusually hard or easy interleaving.
TABLE1_TRACES = 16

# (loop iterations, ring bytes or None for unbounded); 16-byte segments.
FLIGHT_CONFIGS = (
    (10, 40), (10, 64), (15, 40), (15, 64), (20, 40), (20, 64), (10, None),
)
FLIGHT_SEGMENT = 16

SMOKE_TABLE1 = ("sim_race", "aget", "apache")
SMOKE_FLIGHT = ((10, 40), (10, 64), (10, None))

# Hook-tape replay: at most this many events per tape, best of ROUNDS.
HOOK_TAPE_EVENTS = 20_000
HOOK_ROUNDS = 3


class SetupError(Exception):
    """The seed's window did not yield the inputs a workload needs."""


@dataclass
class Item:
    """One operation's input: ``group`` is the program it belongs to."""

    group: str
    label: str
    program: object
    config: ClapConfig
    payload: object
    seed: int


def _config(bench, **extra):
    kwargs = bench.config_kwargs()
    kwargs.update(SEARCH_OVERRIDES.get(bench.name, {}))
    kwargs.update(extra)
    return ClapConfig(**kwargs)


def _vet(pipeline, recorded):
    """Why ``recorded`` cannot be reproduced offline, or '' if it can."""
    try:
        report = pipeline.reproduce_offline(recorded)
    except Exception as exc:  # an input filter: record the reason, go on
        return "%s: %s" % (type(exc).__name__, exc)
    return "" if report.reproduced else report.failure_reason or "not reproduced"


def failing_runs(program, config, start, count, rejected, label):
    """``count`` reproducible failing runs from seed ``start`` on.

    Failing runs are taken twice as many as needed at a time, in seed
    order, and tried fewest SAPs first: like ``ClapPipeline.record()``,
    which keeps the smallest of its candidates, this keeps one rare
    long interleaving from setting a program's cost.
    """
    pipeline = ClapPipeline(program, config)
    seeds = iter(range(start, start + SEARCH_LIMIT))
    found = []
    while len(found) < count:
        batch = []
        for seed in seeds:
            recorded = pipeline.record_once(seed)
            if recorded.bug is not None and recorded.bug.kind == "assertion":
                batch.append(recorded)
                if len(batch) == 2 * (count - len(found)):
                    break
        if not batch:
            raise SetupError(
                "%s: %d of %d reproducible failing runs in seeds %d..%d"
                % (label, len(found), count, start, start + SEARCH_LIMIT - 1)
            )
        for recorded in sorted(batch, key=lambda r: (r.result.total_saps(), r.seed)):
            if len(found) == count:
                break
            reason = _vet(pipeline, recorded)
            if reason:
                rejected.append("%s/s%d: %s" % (label, recorded.seed, reason))
            else:
                found.append(recorded)
    return found


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


# -- record ------------------------------------------------------------------


class RecordWorkload:
    name = "record"

    def __init__(self, seed, smoke):
        self.seeds = range(3 * seed, 3 * seed + (1 if smoke else 3))
        self.smoke = smoke
        self.rejected = []

    def setup(self):
        items = []
        for name in RECORD_SIZES:
            bench = get_benchmark(name, **({} if self.smoke else RECORD_SIZES[name]))
            program = bench.compile()
            kwargs = bench.config_kwargs()
            variants = (
                ("classic", ClapPipeline(program, ClapConfig(**kwargs))),
                ("ring", ClapPipeline(program, ClapConfig(**kwargs, **RECORD_RING))),
            )
            for seed in self.seeds:
                for variant, pipeline in variants:
                    items.append(
                        Item(name, "%s/s%d/%s" % (name, seed, variant),
                             program, pipeline.config, pipeline, seed)
                    )
        return items

    def run_pass(self, items, p, check):
        recorded = []
        with p.timed():
            for item in items:
                with p.op(item.group, item.label):
                    recorded.append((item, item.payload.record_once(item.seed)))
        counts = {}
        for item, rec in recorded:
            _add(counts, "runtime.instructions", rec.result.total_instructions())
            if rec.ring is None:
                _add(counts, "tracing.log_bytes", rec.log_size_bytes())
            else:
                for info in rec.ring["threads"].values():
                    _add(counts, "tracing.ring.segments_evicted",
                         info.get("segments_evicted", 0))
                    _add(counts, "tracing.ring.bytes_retained",
                         info.get("retained_bytes", 0))
        if check:
            self._check(recorded, p)
        return counts

    @staticmethod
    def _check(recorded, p):
        """The ring keeps a suffix of the classic log of the same run."""
        classic = {}
        for item, rec in recorded:
            key = (item.group, item.seed)
            if rec.ring is None:
                classic[key] = rec
                try:
                    decode_log(rec.recorder)
                except Exception as exc:
                    p.problem("%s: classic log does not decode: %s" % (item.label, exc))
                continue
            base = classic.get(key)
            if base is None:
                continue
            if base.result.total_instructions() != rec.result.total_instructions():
                p.problem("%s: ring run diverged from the classic run" % item.label)
            for thread, suffix in rec.recorder.logs.items():
                full = base.recorder.logs.get(thread, [])
                if suffix and full[len(full) - len(suffix):] != suffix:
                    p.problem("%s: %s: ring suffix is not the tail of the "
                              "classic log" % (item.label, thread))

    def hook_runs(self, items):
        return [(i.program, i.config, i.seed) for i in items
                if i.label.endswith("/classic") and i.seed == self.seeds[0]]


# -- table1 and flight -------------------------------------------------------


class _OfflineWorkload:
    """Offline reproduction of recorded traces with the default solver."""

    def setup(self):
        self.rejected = []
        items = []
        for group, bench, config, count in self.sources():
            program = bench.compile()
            for rec in failing_runs(program, config, self.start, count,
                                    self.rejected, group):
                items.append(
                    Item(group, "%s/s%d" % (group, rec.seed), program, config,
                         rec, rec.seed)
                )
        return items

    def run_pass(self, items, p, check):
        reports = []
        with p.timed():
            for item in items:
                with p.op(item.group, item.label) as op:
                    report = ClapPipeline(item.program, item.config).reproduce_offline(
                        item.payload
                    )
                    reports.append((item, report))
                    if not report.reproduced:
                        op.fail(report.failure_reason or "not reproduced")
        counts = {}
        for item, report in reports:
            _add(counts, "runtime.instructions", report.n_instructions)
            _add(counts, "tracing.log_bytes", report.log_bytes)
            _add(counts, "tracing.ring.segments_evicted",
                 report.recorder_metrics.get("segments_evicted", 0))
            _add(counts, "tracing.ring.bytes_retained",
                 report.recorder_metrics.get("bytes_retained", 0))
            _add(counts, "store.synth_blocks",
                 sum(t.get("synth_blocks", 0) for t in report.synthesis.values()))
            _add(counts, "constraints.constraints", report.n_constraints)
            _add(counts, "constraints.variables", report.n_variables)
            _add(counts, "constraints.pruned_clauses", report.n_pruned_clauses)
            _add(counts, "solver.cs_total", max(report.context_switches, 0))
            sat = report.solver_detail.get("sat_stats") or {}
            for key in ("decisions", "conflicts", "propagations", "solve_calls"):
                _add(counts, "solver." + key, sat.get(key, 0))
        if check:
            for item, report in reports:
                if not report.reproduced:
                    continue
                replayed = replay_schedule(
                    item.program,
                    report.schedule,
                    memory_model=item.config.memory_model,
                    shared=item.payload.shared,
                    expected_bug=item.payload.bug,
                )
                if not replayed.reproduced:
                    p.problem("%s: the reported schedule does not replay the "
                              "failure" % item.label)
        return counts

    def hook_runs(self, items):
        firsts = {}
        for item in items:
            firsts.setdefault(item.group, (item.program, item.config, item.seed))
        return list(firsts.values())


class Table1Workload(_OfflineWorkload):
    name = "table1"

    def __init__(self, seed, smoke):
        self.start = seed * SEED_STRIDE
        self.names = SMOKE_TABLE1 if smoke else TABLE1_NAMES
        self.count = 1 if smoke else TABLE1_TRACES

    def sources(self):
        for name in self.names:
            bench = get_benchmark(name)
            yield name, bench, _config(bench), self.count


class FlightWorkload(_OfflineWorkload):
    name = "flight"

    def __init__(self, seed, smoke):
        self.start = seed * SEED_STRIDE
        self.configs = SMOKE_FLIGHT if smoke else FLIGHT_CONFIGS

    def sources(self):
        for iters, ring in self.configs:
            bench = get_benchmark("flight", iters=iters)
            if ring is None:
                yield "i%d-unbounded" % iters, bench, _config(bench), 1
            else:
                config = _config(bench, ring_bytes=ring,
                                 ring_segment_bytes=FLIGHT_SEGMENT)
                yield "i%d-r%d" % (iters, ring), bench, config, 1


WORKLOADS = {cls.name: cls for cls in (RecordWorkload, Table1Workload, FlightWorkload)}


# -- recorder hook cost ------------------------------------------------------


class _HookTape:
    """Captures one run's control-flow hook events for replay."""

    def __init__(self):
        self.events = []

    def on_thread_start(self, thread):
        self.events.append(("on_thread_start", thread.name))

    def on_enter(self, thread, func_name):
        self.events.append(("on_enter", thread.name, func_name))

    def on_edge(self, thread, func_name, src, dst):
        self.events.append(("on_edge", thread.name, func_name, src, dst))

    def on_exit(self, thread, func_name, exit_block):
        self.events.append(("on_exit", thread.name, func_name, exit_block))


def _replay_ns(recorder, events):
    # Fresh thread stand-ins: the fast recorder caches by thread object.
    threads = {e[1]: SimpleNamespace(name=e[1]) for e in events}
    calls = [(getattr(recorder, e[0]), threads[e[1]], e[2:]) for e in events]
    start = time.perf_counter_ns()
    for hook, thread, args in calls:
        hook(thread, *args)
    return time.perf_counter_ns() - start


def hook_ns_per_event(runs):
    """Per-event cost of the classic and fast recorder hooks.

    Each run is re-executed with a tape hook; both recorders then replay
    the identical event stream and only the hook bodies are timed (best
    of ``HOOK_ROUNDS``), because whole-run wall clock cannot resolve a
    cost this far below interpretation.
    """
    events_total = 0
    best = {"classic": 0, "fast": 0}
    for program, config, seed in runs:
        tape = _HookTape()
        Interpreter(
            program,
            memory_model=config.memory_model,
            scheduler=RandomScheduler(
                seed, stickiness=config.stickiness, flush_prob=config.flush_prob
            ),
            hooks=[tape],
            max_steps=config.max_steps,
            collect_events=False,
        ).run()
        events = tape.events[:HOOK_TAPE_EVENTS]
        events_total += len(events)
        for key, cls in (("classic", PathRecorder), ("fast", FastPathRecorder)):
            best[key] += min(
                _replay_ns(cls(program), events) for _ in range(HOOK_ROUNDS)
            )
    return {key: value / max(events_total, 1) for key, value in best.items()}
