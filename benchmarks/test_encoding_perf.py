"""Encoding front end and solver build: Frw generated lazily vs eagerly.

Three sections, all emitted to ``results/encoding_perf.txt`` and
machine-readable as ``results/BENCH_encoding.json`` (uploaded by the CI
``encoding-perf`` job):

* **scaling** — the hot-variable workload (Frw's ``4·Nr·Nw²`` worst
  case) measured end-to-end offline (symexec + encode + solve).  The
  default solver keeps Frw's no-middle clauses virtual and builds one
  only when it propagates or conflicts (:mod:`repro.solver.frw`); the
  theory counts the ones in the core, the units added at build plus the
  clauses handed over since.  The eager baseline is the same solver
  with every one of them loaded before the search (``_EagerFrw`` below —
  a test-side subclass, not an option).  The CI gate fails when, at the largest size, the lazy solver
  builds more than ``GATE_MAX_BUILT_SHARE`` of F's no-middle clauses.
  Timings are reported, not gated.
* **table1** — per benchmark: F's no-middle clause count, how many the
  solver built, how many the fixed-order closure decided at build, and
  whether the schedule reproduces.  Every entry must reproduce.
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
from repro.constraints.rw import no_middle_count
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.service.batch import JsonlSink, run_batch
from repro.solver.smt import ClapSmtSolver
from repro.store import Corpus
from repro.tracing.decoder import decode_log

from conftest import emit, pipeline_artifacts

SCALING_SIZES = (4, 8, 12)
MAX_SECONDS = 120
# CI gate on the largest scaling size: the share of F's no-middle
# clauses the lazy solver builds.  Measured: 22.1% at size 12 (11.3% when
# the search still decided order atoms).
GATE_MAX_BUILT_SHARE = 0.25

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


class _EagerFrw(ClapSmtSolver):
    """The default solver with every lazy clause loaded up front."""

    def _build(self):
        frw, self.frw = self.frw, None
        super()._build()
        self.frw = frw


def _offline(pipeline, recorded, solver_cls):
    """One end-to-end offline pass; returns (seconds, solver, result)."""
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
    )
    solver = solver_cls(system)
    result = solver.solve(max_seconds=MAX_SECONDS)
    return time.monotonic() - t0, solver, result


def test_scaling_lazy_frw():
    rows = []
    for n in SCALING_SIZES:
        src = HOT_VAR_TEMPLATE % (n, n, 2 * n)
        pipeline = ClapPipeline(
            compile_source(src, name="hot%d" % n), ClapConfig(stickiness=0.3)
        )
        recorded = pipeline.record()
        eager_seconds, _eager, eager_result = _offline(pipeline, recorded, _EagerFrw)
        lazy_seconds, lazy, lazy_result = _offline(pipeline, recorded, ClapSmtSolver)
        assert eager_result.ok and lazy_result.ok, n
        total = no_middle_count(lazy.system.rf_candidates)
        built = lazy.frw.no_middle_built
        rows.append(
            {
                "size": n,
                "no_middle": total,
                "built": built,
                "built_share": round(built / max(total, 1), 4),
                "lemmas": lazy_result.sat_stats["lemmas"],
                "eager_seconds": round(eager_seconds, 4),
                "lazy_seconds": round(lazy_seconds, 4),
                "speedup": round(eager_seconds / max(lazy_seconds, 1e-9), 2),
            }
        )
    _PAYLOAD["scaling"] = {
        "workload": "hot_variable",
        "sizes": list(SCALING_SIZES),
        "gate_max_built_share": GATE_MAX_BUILT_SHARE,
        "rows": rows,
    }
    gate_row = rows[-1]
    assert gate_row["built_share"] <= GATE_MAX_BUILT_SHARE, (
        "lazy Frw built %d of %d no-middle clauses at size %d (gate %.0f%%)"
        % (
            gate_row["built"],
            gate_row["no_middle"],
            gate_row["size"],
            100 * GATE_MAX_BUILT_SHARE,
        )
    )


def test_table1_lazy_frw():
    rows = []
    for name in TABLE1_NAMES:
        bench, pipeline, recorded, system = pipeline_artifacts(name)
        solver = ClapSmtSolver(system)
        solved = solver.solve(max_seconds=MAX_SECONDS)
        assert solved.ok, name
        outcome = pipeline.replay(solved.schedule, recorded.bug)
        assert outcome.reproduced, name
        rows.append(
            {
                "name": name,
                "memory_model": bench.memory_model,
                "no_middle": no_middle_count(system.rf_candidates),
                "built": solver.frw.no_middle_built,
                "decided": solved.decided_clauses,
                "lemmas": solved.sat_stats["lemmas"],
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
        "Frw generated lazily vs built up front",
        "",
        "scaling (hot variable, end-to-end offline: symexec+encode+solve)",
        "%6s %9s %7s %7s %10s %9s %8s"
        % ("size", "no-mid", "built", "share", "eager (s)", "lazy (s)", "speedup"),
    ]
    for r in _PAYLOAD["scaling"]["rows"]:
        lines.append(
            "%6d %9d %7d %6.1f%% %10.3f %9.3f %7.2fx"
            % (
                r["size"],
                r["no_middle"],
                r["built"],
                100 * r["built_share"],
                r["eager_seconds"],
                r["lazy_seconds"],
                r["speedup"],
            )
        )
    lines += [
        "",
        "table 1 (no-middle clauses of F, built by the lazy solver, decided"
        " by the fixed order)",
        "%-10s %5s %8s %7s %8s %7s  %s"
        % ("program", "model", "no-mid", "built", "decided", "lemmas", "repro"),
    ]
    for r in _PAYLOAD["table1"]["rows"]:
        lines.append(
            "%-10s %5s %8d %7d %8d %7d  %s"
            % (
                r["name"],
                r["memory_model"],
                r["no_middle"],
                r["built"],
                r["decided"],
                r["lemmas"],
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
