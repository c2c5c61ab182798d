"""Golden digests of seeded recorded runs.

Every seed-dependent artifact — Tables 1-3, the corpus bytes, the failing
runs the pipeline benchmark picks — rests on the scheduler making the same
choices, with the same random draws, at the same granularity.  This test
pins that down: for each case it digests ``ClapPipeline.record_once``
output (``ExecutionResult.steps``, the bug's kind and message, the
memory-order SAP uids of ``ExecutionResult.schedule()``, the final
globals, the program output, every thread's ``ThreadStats``, every
thread's log tokens and the ring section) with sha256 and compares it
with ``schedule_golden.json``.

The cases:

* ``record`` — the seven Table-2 programs at the pipeline benchmark's
  production sizes, seeds 0-11 (the ``record`` seeds of ``--seed`` 0-3),
  recorded classically and through a 64-byte ring;
* ``table1`` — every Table-1 program with its ``config_kwargs`` and the
  benchmark's search overrides, over its first 50 seeds;
* ``table2`` — the Table-2 programs at ``TABLE2_PARAMS`` under seed 0;
* ``flight`` — ``flight`` at each ring configuration of the ``flight``
  workload, seeds 0-19.

A change that moves any schedule fails with the diverging cases named.
Regenerate only after an intended change of scheduling semantics::

    REGEN_SCHEDULE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/runtime/test_schedule_golden.py
"""

import hashlib
import json
import os

from repro.bench.programs import (
    TABLE1_NAMES,
    TABLE2_NAMES,
    TABLE2_PARAMS,
    get_benchmark,
)
from repro.core.clap import ClapConfig, ClapPipeline

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schedule_golden.json")
REGEN = bool(os.environ.get("REGEN_SCHEDULE_GOLDEN"))

# The pipeline benchmark's inputs (benchmarks/pipeline/workloads.py),
# copied so that the golden does not move when the benchmark does.
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
RECORD_SEEDS = range(12)
SEARCH_OVERRIDES = {
    "dekker": {"max_steps": 20_000},
    "bakery": {"flush_prob": 0.005},
}
TABLE1_SEEDS = 50
FLIGHT_CONFIGS = (
    (10, 40), (10, 64), (15, 40), (15, 64), (20, 40), (20, 64), (10, None),
)
FLIGHT_SEGMENT = 16
FLIGHT_SEEDS = range(20)


def _cases():
    """``(label, pipeline, seed)`` for every digested run."""
    for name, size in RECORD_SIZES.items():
        bench = get_benchmark(name, **size)
        program = bench.compile()
        kwargs = bench.config_kwargs()
        for variant, config in (
            ("classic", ClapConfig(**kwargs)),
            ("ring", ClapConfig(**kwargs, **RECORD_RING)),
        ):
            pipeline = ClapPipeline(program, config)
            for seed in RECORD_SEEDS:
                yield "record/%s/%s/s%d" % (name, variant, seed), pipeline, seed
    for name in TABLE1_NAMES:
        bench = get_benchmark(name)
        kwargs = bench.config_kwargs()
        kwargs.update(SEARCH_OVERRIDES.get(name, {}))
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**kwargs))
        for seed in bench.seeds[:TABLE1_SEEDS]:
            yield "table1/%s/s%d" % (name, seed), pipeline, seed
    for name in TABLE2_NAMES:
        bench = get_benchmark(name, **TABLE2_PARAMS.get(name, {}))
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
        yield "table2/%s/s0" % name, pipeline, 0
    for iters, ring in FLIGHT_CONFIGS:
        bench = get_benchmark("flight", iters=iters)
        kwargs = bench.config_kwargs()
        if ring is not None:
            kwargs.update(ring_bytes=ring, ring_segment_bytes=FLIGHT_SEGMENT)
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**kwargs))
        group = "i%d-%s" % (iters, "unbounded" if ring is None else "r%d" % ring)
        for seed in FLIGHT_SEEDS:
            yield "flight/%s/s%d" % (group, seed), pipeline, seed


def _json_default(obj):
    return obj.to_json()  # SegmentAnchor


def run_digest(recorded):
    """sha256 over one recorded run's scheduling-dependent output."""
    h = hashlib.sha256()
    result = recorded.result
    bug = result.bug
    h.update(repr(result.steps).encode())
    h.update(repr(None if bug is None else (bug.kind, bug.message)).encode())
    h.update(repr(result.schedule()).encode())
    h.update(repr(sorted(result.final_globals.items())).encode())
    h.update(repr(result.output).encode())
    for thread in sorted(result.stats):
        stats = result.stats[thread]
        h.update(
            repr(
                (thread, stats.instructions, stats.branches, stats.saps, stats.sync_ops)
            ).encode()
        )
    for thread in sorted(recorded.recorder.logs):
        h.update(repr((thread, recorded.recorder.logs[thread])).encode())
    h.update(
        json.dumps(recorded.ring, sort_keys=True, default=_json_default).encode()
    )
    return h.hexdigest()


def test_schedules_match_golden():
    digests = {
        label: run_digest(pipeline.record_once(seed))
        for label, pipeline, seed in _cases()
    }
    if REGEN:
        with open(GOLDEN, "w") as fh:
            json.dump(digests, fh, indent=0, sort_keys=True)
            fh.write("\n")
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(digests) == sorted(golden), "case list differs from the golden"
    diverged = [label for label in golden if digests[label] != golden[label]]
    assert not diverged, "%d runs diverged: %s" % (len(diverged), ", ".join(diverged))
