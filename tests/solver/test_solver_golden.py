"""Golden counts of the default solver on seeded failing recordings.

The constraint system and the search behind every Table-1 and ``flight``
reproduction must not move when the encoder or the solver's loading path
is rewritten for speed.  For each case this test records a failing run,
analyses it, solves it with the default solver and compares with
``solver_golden.json``:

* ``#Constr``, ``#Vars`` (:func:`compute_stats`) and the clauses the
  fixed-order closure decided at build (``decided_clauses``);
* the SAT core's decisions, conflicts, propagations and ``solve_calls``;
* the reported switch count and the sha256 of the schedule;
* for the first run of the programs in ``BOUNDED``, the same counts of
  the incremental bound loop (:func:`solve_constraints_bounded`), whose
  ladder variables join the core after the build.

The cases:

* ``table1`` — every Table-1 program with its ``config_kwargs`` and the
  pipeline benchmark's search overrides: its first ``TABLE1_RUNS``
  failing runs among its first ``SEED_WINDOW`` seeds;
* ``flight`` — ``flight`` at each configuration of the ``flight``
  workload: the first ``FLIGHT_RUNS`` failing runs among seeds
  ``0 … SEED_WINDOW-1``.

No count depends on the hash seed: the cases run in the test's own
process, and ``python -m tests.solver.test_solver_golden`` prints the same
records under any ``PYTHONHASHSEED``.

A change that moves any count fails with the diverging cases named.
Regenerate only after an intended change of the encoding or the search::

    REGEN_SOLVER_GOLDEN=1 PYTHONPATH=src python -m pytest tests/solver/test_solver_golden.py
"""

import hashlib
import json
import os
import sys

from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.constraints.stats import compute_stats
from repro.core.clap import ClapConfig, ClapPipeline
from repro.solver.smt import solve_constraints_bounded

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "solver_golden.json")
REGEN = bool(os.environ.get("REGEN_SOLVER_GOLDEN"))

# The pipeline benchmark's inputs (benchmarks/pipeline/workloads.py),
# copied so that the golden does not move when the benchmark does.
SEARCH_OVERRIDES = {
    "dekker": {"max_steps": 20_000},
    "bakery": {"flush_prob": 0.005},
}
FLIGHT_CONFIGS = (
    (10, 40), (10, 64), (15, 40), (15, 64), (20, 40), (20, 64), (10, None),
)
FLIGHT_SEGMENT = 16
SEED_WINDOW = 200
TABLE1_RUNS = 6
FLIGHT_RUNS = 4
SAT_COUNTERS = ("decisions", "conflicts", "propagations", "solve_calls")
# Programs whose bound loop settles within about a second.
BOUNDED = ("pbzip2", "swarm", "pfscan", "apache", "racey", "dekker")


def _pipelines():
    """``(group, pipeline, seeds, runs)`` for every program and config."""
    for name in TABLE1_NAMES:
        bench = get_benchmark(name)
        kwargs = bench.config_kwargs()
        kwargs.update(SEARCH_OVERRIDES.get(name, {}))
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**kwargs))
        yield "table1/" + name, pipeline, bench.seeds[:SEED_WINDOW], TABLE1_RUNS
    for iters, ring in FLIGHT_CONFIGS:
        bench = get_benchmark("flight", iters=iters)
        kwargs = bench.config_kwargs()
        if ring is not None:
            kwargs.update(ring_bytes=ring, ring_segment_bytes=FLIGHT_SEGMENT)
        pipeline = ClapPipeline(bench.compile(), ClapConfig(**kwargs))
        group = "i%d-%s" % (iters, "unbounded" if ring is None else "r%d" % ring)
        yield "flight/" + group, pipeline, range(SEED_WINDOW), FLIGHT_RUNS


def _failing_runs(pipeline, seeds, runs):
    found = []
    for seed in seeds:
        recorded = pipeline.record_once(seed)
        if recorded.bug is not None and recorded.bug.kind == "assertion":
            found.append(recorded)
            if len(found) == runs:
                break
    return found


def _result_record(solved):
    sat = solved.sat_stats or {}
    return {
        "pruned": solved.decided_clauses,
        "sat": [sat.get(key, 0) for key in SAT_COUNTERS],
        "ok": solved.ok,
        "cs": solved.context_switches,
        "schedule": hashlib.sha256(repr(solved.schedule).encode()).hexdigest(),
    }


def solve_record(pipeline, recorded, bounded=False):
    """The counts one failing run's analysis and solve produce."""
    system = pipeline.analyze(recorded)
    stats = compute_stats(system)
    record = {"constraints": stats.n_constraints, "variables": stats.n_variables}
    record.update(_result_record(pipeline.solve(system)))
    if bounded:
        record["bounded"] = _result_record(solve_constraints_bounded(system))
    return record


def solve_records():
    records = {}
    for group, pipeline, seeds, runs in _pipelines():
        bounded = group.split("/")[1] in BOUNDED
        for recorded in _failing_runs(pipeline, seeds, runs):
            label = "%s/s%d" % (group, recorded.seed)
            records[label] = solve_record(pipeline, recorded, bounded)
            bounded = False
    return records


def test_solver_counts_match_golden():
    records = solve_records()
    if REGEN:
        with open(GOLDEN, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(records) == sorted(golden), "case list differs from the golden"
    diverged = [label for label in golden if records[label] != golden[label]]
    assert not diverged, "%d cases diverged: %s" % (
        len(diverged),
        ", ".join(diverged),
    )


if __name__ == "__main__":
    json.dump(solve_records(), sys.stdout)
