"""Encoding front-end performance: raw Frw vs the HB-closed front end.

Three sections, all emitted to ``results/encoding_perf.txt`` and
machine-readable as ``results/BENCH_encoding.json`` (parsed by the CI
``encoding-perf`` job):

* **scaling** — the hot-variable workload (Frw's ``4·Nr·Nw²`` worst
  case) measured end-to-end offline (symexec + encode + solve), old
  (``encode(..., hb=False)``) vs new (HB closure on).  The CI gate
  fails when the largest size's end-to-end speedup drops below
  ``GATE_MIN_SPEEDUP``.
* **table1** — per-benchmark clause counts: the HB closure must drop
  strictly more than zero Frw clauses on *every* entry, never increase
  the total clause count, and every entry must still reproduce from the
  HB-closed system's schedule.  Its prune counters must equal the raw
  minus the pruned choice variables, and it must drop strictly more
  than zero choice variables on the lock-based entries (``LOCK_BASED``).
* **cache** — a two-entry corpus run through ``run_batch`` twice: the
  second run must be all cache hits and its JSONL must match the first
  modulo volatile fields (wall clocks, pids, cache counters) — the
  "byte-for-byte" claim is over that normalized form.
"""

import json
import os
import time

from repro.analysis.symexec import execute_recorded_paths
from repro.bench.programs import TABLE1_NAMES
from repro.bench.workloads import HOT_VAR_TEMPLATE
from repro.constraints.encoder import encode
from repro.constraints.stats import compute_stats
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.service.batch import JsonlSink, run_batch
from repro.solver.smt import solve_constraints
from repro.store import Corpus
from repro.tracing.decoder import decode_log

from conftest import emit, pipeline_artifacts

SCALING_SIZES = (4, 8, 12)
LOCK_BASED = ("pbzip2", "bbuf", "pfscan", "apache")
MAX_SECONDS = 120
# CI gate on the largest scaling size.  Measured headroom: the HB
# closure lands 1.5-1.8x end-to-end on this workload; 1.25x leaves
# room for noisy runners.
GATE_MIN_SPEEDUP = 1.25

RF_ORIGINS = ("rf-before", "rf-nomid", "rf-init")

VOLATILE_FIELDS = ("wall_time", "time_symbolic", "time_solve", "worker_pid", "cache")

_PAYLOAD = {}

RACE_SRC = """
int c = 0;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int r = c;
        c = r + 1;
    }
}
int main() {
    int t1 = 0;
    int t2 = 0;
    t1 = spawn worker(2);
    t2 = spawn worker(2);
    join(t1);
    join(t2);
    assert(c == 4);
    return 0;
}
"""

ORDER_SRC = """
int ready = 0;
int data = 0;
void producer() {
    data = 41;
    ready = 1;
}
int main() {
    int t = 0;
    t = spawn producer();
    if (ready == 1) {
        assert(data == 42);
    }
    join(t);
    return 0;
}
"""


def _rf_clauses(system):
    return sum(1 for c in system.clauses if c.origin in RF_ORIGINS)


def _front_end(pipeline, recorded, hb):
    """One end-to-end offline pass; returns (seconds, system, result)."""
    t0 = time.monotonic()
    decoded = decode_log(recorded.recorder)
    summaries = execute_recorded_paths(
        pipeline.program, decoded, pipeline.shared, bug=recorded.bug
    )
    system = encode(
        summaries,
        pipeline.config.memory_model,
        pipeline.program.symbols,
        pipeline.shared,
        hb=hb,
    )
    result = solve_constraints(system, max_seconds=MAX_SECONDS)
    return time.monotonic() - t0, system, result


def test_scaling_speedup():
    rows = []
    for n in SCALING_SIZES:
        src = HOT_VAR_TEMPLATE % (n, n, 2 * n)
        pipeline = ClapPipeline(
            compile_source(src, name="hot%d" % n), ClapConfig(stickiness=0.3)
        )
        recorded = pipeline.record()
        old_seconds, raw, old_result = _front_end(pipeline, recorded, hb=False)
        new_seconds, hb, new_result = _front_end(pipeline, recorded, hb=True)
        assert old_result.ok and new_result.ok, n
        sraw, shb = compute_stats(raw), compute_stats(hb)
        rows.append(
            {
                "size": n,
                "old_clauses": sraw.n_clauses,
                "new_clauses": shb.n_clauses,
                "old_choice_vars": sraw.n_choice_vars,
                "new_choice_vars": shb.n_choice_vars,
                "old_seconds": round(old_seconds, 4),
                "new_seconds": round(new_seconds, 4),
                "speedup": round(old_seconds / max(new_seconds, 1e-9), 2),
            }
        )
    _PAYLOAD["scaling"] = {
        "workload": "hot_variable",
        "sizes": list(SCALING_SIZES),
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "rows": rows,
    }
    gate_row = rows[-1]
    assert gate_row["new_clauses"] < gate_row["old_clauses"]
    assert gate_row["speedup"] >= GATE_MIN_SPEEDUP, (
        "HB-closed front end regressed at size %d: %.2fx < %.2fx gate"
        % (gate_row["size"], gate_row["speedup"], GATE_MIN_SPEEDUP)
    )


def test_table1_clause_counts():
    rows = []
    for name in TABLE1_NAMES:
        bench, pipeline, recorded, _system = pipeline_artifacts(name)
        decoded = decode_log(recorded.recorder)
        summaries = execute_recorded_paths(
            pipeline.program, decoded, pipeline.shared, bug=recorded.bug
        )
        args = (
            summaries,
            pipeline.config.memory_model,
            pipeline.program.symbols,
            pipeline.shared,
        )
        raw = encode(*args, hb=False)
        hb = encode(*args)
        raw_rf, hb_rf = _rf_clauses(raw), _rf_clauses(hb)
        sraw, shb = compute_stats(raw), compute_stats(hb)
        # Strictly fewer Frw clauses on every entry, no total regression.
        assert hb_rf < raw_rf, name
        assert shb.n_clauses <= sraw.n_clauses, name
        # Prune counters are totals relative to the raw encoding.
        assert (
            sraw.n_choice_vars - shb.n_choice_vars == shb.n_pruned_choice_vars
        ), name
        if name in LOCK_BASED:
            assert shb.n_pruned_choice_vars > 0, name
        solved = solve_constraints(hb, max_seconds=MAX_SECONDS)
        assert solved.ok, name
        outcome = pipeline.replay(solved.schedule, recorded.bug)
        assert outcome.reproduced, name
        rows.append(
            {
                "name": name,
                "memory_model": bench.memory_model,
                "raw_rf_clauses": raw_rf,
                "hb_rf_clauses": hb_rf,
                "raw_clauses": sraw.n_clauses,
                "hb_clauses": shb.n_clauses,
                "reproduced": outcome.reproduced,
            }
        )
    _PAYLOAD["table1"] = {"rows": rows}


def _normalized(records):
    out = []
    for record in sorted(records, key=lambda r: r["entry_id"]):
        out.append(
            {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        )
    return out


def test_cached_batch(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("encperf_corpus"))
    corpus = Corpus.create(root)
    corpus.add(RACE_SRC, name="race", config=ClapConfig(seeds=range(50)))
    corpus.add(ORDER_SRC, name="order", config=ClapConfig(seeds=range(200)))
    sink1 = os.path.join(root, "run1.jsonl")
    sink2 = os.path.join(root, "run2.jsonl")

    t0 = time.monotonic()
    _results1, agg1 = run_batch(root, jobs=2, sink_path=sink1)
    first_seconds = time.monotonic() - t0
    t0 = time.monotonic()
    _results2, agg2 = run_batch(root, jobs=2, sink_path=sink2)
    second_seconds = time.monotonic() - t0

    assert agg1["reproduced"] == 2 and agg2["reproduced"] == 2
    assert agg1["cache"]["misses"] == 2
    assert agg2["cache"]["hits"] == 2 and agg2["cache"]["misses"] == 0
    n1 = _normalized(JsonlSink.read(sink1))
    n2 = _normalized(JsonlSink.read(sink2))
    assert [json.dumps(r, sort_keys=True) for r in n1] == [
        json.dumps(r, sort_keys=True) for r in n2
    ]
    _PAYLOAD["cache"] = {
        "entries": 2,
        "first_run_seconds": round(first_seconds, 4),
        "second_run_seconds": round(second_seconds, 4),
        "second_run_hits": agg2["cache"]["hits"],
        "bytes_written": agg1["cache"]["bytes_written"],
        "bytes_read": agg2["cache"]["bytes_read"],
        "normalized_jsonl_equal": True,
        "volatile_fields": list(VOLATILE_FIELDS),
    }


def test_encoding_perf_render():
    missing = [k for k in ("scaling", "table1", "cache") if k not in _PAYLOAD]
    assert not missing, "sections missing (run the whole module): %s" % missing

    lines = [
        "Encoding front end: raw Frw vs happens-before-closed encoding",
        "",
        "scaling (hot variable, end-to-end offline: symexec+encode+solve)",
        "%6s %9s %9s %9s %9s %8s"
        % ("size", "clauses", "clauses'", "old (s)", "new (s)", "speedup"),
    ]
    for r in _PAYLOAD["scaling"]["rows"]:
        lines.append(
            "%6d %9d %9d %9.3f %9.3f %7.2fx"
            % (
                r["size"],
                r["old_clauses"],
                r["new_clauses"],
                r["old_seconds"],
                r["new_seconds"],
                r["speedup"],
            )
        )
    lines += [
        "",
        "table 1 (rf clause counts, raw vs hb-closed)",
        "%-10s %5s %8s %8s %8s %8s  %s"
        % ("program", "model", "rf", "rf'", "clauses", "clauses'", "repro"),
    ]
    for r in _PAYLOAD["table1"]["rows"]:
        lines.append(
            "%-10s %5s %8d %8d %8d %8d  %s"
            % (
                r["name"],
                r["memory_model"],
                r["raw_rf_clauses"],
                r["hb_rf_clauses"],
                r["raw_clauses"],
                r["hb_clauses"],
                "yes" if r["reproduced"] else "NO",
            )
        )
    cache = _PAYLOAD["cache"]
    lines += [
        "",
        "analysis cache (2-entry corpus, repro batch twice)",
        "first run  %.3fs (%d misses, %dB written)"
        % (cache["first_run_seconds"], 2, cache["bytes_written"]),
        "second run %.3fs (%d hits, %dB read), JSONL equal modulo %s"
        % (
            cache["second_run_seconds"],
            cache["second_run_hits"],
            cache["bytes_read"],
            ",".join(cache["volatile_fields"]),
        ),
    ]
    emit("encoding_perf.txt", "\n".join(lines))

    results_dir = os.path.join(os.path.dirname(__file__), "..", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_encoding.json")
    with open(path, "w") as fh:
        json.dump(_PAYLOAD, fh, indent=2)
        fh.write("\n")
    print("[saved to %s]" % path)
