"""The batch reproduction engine: ``repro batch <corpus> [--jobs N]``.

Runs the offline half of the CLAP pipeline — load trace from disk,
symbolically re-execute, solve, replay — for every entry of a corpus
across a :class:`~repro.service.pool.WorkerPool`.  Each terminal outcome
is appended to a JSONL sink the moment it lands (one fsynced line per
job, so a killed batch leaves a usable results prefix), and the run
ends with an aggregate table: reproduced/failed/timeout/crashed counts,
per-job solve times and the summed CDCL counters from
:func:`repro.constraints.stats.merge_sat_stats`.
"""

import json
import os
import time

from repro.constraints.stats import merge_sat_stats
from repro.core.clap import ClapConfig, ClapPipeline
from repro.service import faults as fault_hooks
from repro.service.jobs import (
    STATUS_FAILED,
    STATUS_REPRODUCED,
    JobResult,
    JobSpec,
)
from repro.service.pool import WorkerPool
from repro.store import durable
from repro.store.cache import AnalysisCache, SharedAnalysisCache
from repro.store.corpus import Corpus


def run_repro_job(spec_dict, attempt=1):
    """Execute one job inside a worker process; returns a result dict.

    Every expected failure mode (damaged entry, unsat constraints,
    replay divergence) is folded into a ``failed`` result with a reason —
    only genuine crashes escape to the pool's retry machinery.
    """
    spec = JobSpec.from_dict(spec_dict)
    fault_hooks.maybe_kill_worker(spec.faults, attempt)
    result = JobResult(
        entry_id=spec.entry_id,
        status=STATUS_FAILED,
        solver=spec.solver,
        worker_pid=os.getpid(),
        shard=spec.shard,
        cluster=spec.cluster,
    )
    try:
        corpus = Corpus.open(spec.corpus_root)
        entry = corpus.entry(spec.entry_id)
        result.program = entry.program_name()
        stored = entry.load_execution()
        result.recovered_trace = stored.recovery is not None
        kwargs = entry.config_kwargs(solver=spec.solver)
        if spec.memory_model:
            kwargs["memory_model"] = spec.memory_model
        pipeline = ClapPipeline(stored.program, ClapConfig(**kwargs))
        fault_hooks.maybe_slow_solve(spec.faults)
        cache = None
        if spec.cache_root:
            # The fleet's shared tier: one cache directory serving every
            # shard's workers, with a size budget and LRU eviction.
            cache = SharedAnalysisCache(
                spec.cache_root, max_bytes=spec.cache_max_bytes or None
            )
        elif spec.use_cache:
            cache = AnalysisCache(os.path.join(spec.corpus_root, "cache"))
        report = pipeline.reproduce_offline(stored, cache=cache)
        result.status = (
            STATUS_REPRODUCED if report.reproduced else STATUS_FAILED
        )
        result.reason = report.failure_reason
        result.time_symbolic = round(report.time_symbolic, 6)
        result.time_solve = round(report.time_solve, 6)
        if cache is not None:
            result.cache = dict(report.cache_stats)
            result.cache["state"] = report.cache_state
        result.context_switches = report.context_switches
        result.n_constraints = report.n_constraints
        result.n_variables = report.n_variables
        result.sat_stats = report.solver_detail.get("sat_stats") or {}
        if spec.want_schedule and report.schedule:
            result.schedule = [list(uid) for uid in report.schedule]
    except Exception as exc:
        result.reason = "%s: %s" % (type(exc).__name__, exc)
    return result.to_dict()


class JsonlSink:
    """Crash-safe JSONL result log, flushed and fsynced line by line.

    Lines append to ``<path>.partial``, each one flushed and fsynced, so
    a killed batch leaves a durable results prefix there.  ``close()``
    then renames the partial onto ``path`` with :func:`durable.move`:
    the finished results file appears atomically and is never
    observable torn or half-written.  A killed run's partial is resumed:
    its torn last line, a record that was never acknowledged, is cut off
    before new lines append.
    """

    def __init__(self, path):
        self.path = path
        self.partial_path = path + ".partial"
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._drop_torn_tail(self.partial_path)
        self._fh = open(self.partial_path, "a", encoding="utf-8")
        if self._fh.tell() == 0 and os.path.exists(path):
            # Append semantics across runs: fold the previous finished
            # file into the new partial before adding lines.
            with open(path, "r", encoding="utf-8") as prev:
                self._append(prev.read())

    @staticmethod
    def _drop_torn_tail(partial_path):
        """Truncate ``partial_path`` back to its last newline, durably."""
        try:
            with open(partial_path, "rb+") as fh:
                data = fh.read()
                if not data or data.endswith(b"\n"):
                    return
                fh.truncate(data.rfind(b"\n") + 1)
                fh.flush()
                os.fsync(fh.fileno())
        except FileNotFoundError:
            pass

    def _append(self, text):
        self._fh.write(text)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write(self, record):
        self._append(json.dumps(record, sort_keys=True) + "\n")

    def close(self):
        if self._fh.closed:
            return
        self._fh.close()  # every line is already fsynced
        durable.move(self.partial_path, self.path)

    @staticmethod
    def read(path):
        """Read a results log; falls back to a killed run's ``.partial``.

        A partial file's final line may be torn (the kill landed inside
        a write); it is dropped rather than letting one ragged tail make
        the whole prefix unreadable.
        """
        if not os.path.exists(path) and os.path.exists(path + ".partial"):
            path = path + ".partial"
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        for i, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except ValueError:
                if i == len(lines) - 1:
                    break
                raise
        return records


def run_batch(
    corpus_root,
    entry_ids=None,
    jobs=2,
    solver="smt",
    memory_model=None,
    timeout=120.0,
    max_attempts=3,
    backoff=0.25,
    faults_by_entry=None,
    sink_path=None,
    on_outcome=None,
    use_cache=True,
):
    """Reproduce every corpus entry; returns (results, aggregate).

    ``results`` is a list of :class:`JobResult` in corpus order;
    ``aggregate`` the dict :func:`aggregate_results` builds.
    ``faults_by_entry`` maps entry ids to fault-injection specs.
    ``use_cache=False`` bypasses the corpus analysis cache entirely.
    """
    corpus = Corpus.open(corpus_root)
    if entry_ids is None:
        entry_ids = corpus.entry_ids()
    specs = [
        JobSpec(
            corpus_root=corpus_root,
            entry_id=entry_id,
            solver=solver,
            memory_model=memory_model,
            timeout=timeout,
            max_attempts=max_attempts,
            backoff=backoff,
            use_cache=use_cache,
            faults=(faults_by_entry or {}).get(entry_id, {}),
        )
        for entry_id in entry_ids
    ]
    sink = JsonlSink(sink_path) if sink_path else None
    t0 = time.monotonic()

    def handle(index, outcome):
        if sink is not None:
            sink.write(outcome)
        if on_outcome is not None:
            on_outcome(index, outcome)

    pool = WorkerPool(run_repro_job, jobs=jobs)
    try:
        raw = pool.run([spec.to_dict() for spec in specs], on_outcome=handle)
    finally:
        if sink is not None:
            sink.close()
    results = [JobResult.from_dict(outcome) for outcome in raw]
    aggregate = aggregate_results(results)
    aggregate["batch_wall_time"] = round(time.monotonic() - t0, 6)
    return results, aggregate


def aggregate_results(results):
    """Summarize a batch: status counts, solve times, SAT counters."""
    by_status = {}
    for result in results:
        by_status[result.status] = by_status.get(result.status, 0) + 1
    solve_times = [
        r.time_solve for r in results if r.status == STATUS_REPRODUCED
    ]
    aggregate = {
        "jobs": len(results),
        "by_status": by_status,
        "reproduced": by_status.get(STATUS_REPRODUCED, 0),
        "total_attempts": sum(r.attempts for r in results),
        "total_solve_time": round(sum(solve_times), 6),
        "max_solve_time": round(max(solve_times), 6) if solve_times else 0.0,
        "sat_stats": merge_sat_stats(r.sat_stats for r in results),
        # Counter-wise sum of the per-job cache counters ('state' is a
        # string and drops out of the numeric merge).
        "cache": merge_sat_stats(r.cache for r in results),
        "deduped": sum(1 for r in results if r.deduped),
    }
    # Fleet runs: cache + dedup counters rolled up per shard.
    if any(r.shard >= 0 for r in results):
        by_shard = {}
        for shard in sorted({r.shard for r in results if r.shard >= 0}):
            ours = [r for r in results if r.shard == shard]
            by_shard[str(shard)] = {
                "jobs": len(ours),
                "reproduced": sum(1 for r in ours if r.ok),
                "deduped": sum(1 for r in ours if r.deduped),
                "clusters": len({r.cluster for r in ours if r.cluster}),
                "cache": merge_sat_stats(r.cache for r in ours),
            }
        aggregate["by_shard"] = by_shard
    return aggregate


def format_batch_table(results, aggregate):
    """Render the per-job stats table plus the aggregate footer."""
    header = (
        "entry",
        "program",
        "status",
        "att",
        "cs",
        "t_sym",
        "t_solve",
        "t_wall",
        "reason",
    )
    rows = [header]
    for r in results:
        rows.append(
            (
                r.entry_id,
                r.program,
                r.status + ("*" if r.recovered_trace else ""),
                str(r.attempts),
                str(r.context_switches) if r.context_switches >= 0 else "-",
                "%.2f" % r.time_symbolic,
                "%.2f" % r.time_solve,
                "%.2f" % r.wall_time,
                r.reason[:40],
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    lines.append("")
    lines.append(
        "%d jobs: %s in %.1fs (total solve %.2fs)"
        % (
            aggregate["jobs"],
            ", ".join(
                "%d %s" % (count, status)
                for status, count in sorted(aggregate["by_status"].items())
            ),
            aggregate.get("batch_wall_time", 0.0),
            aggregate["total_solve_time"],
        )
    )
    sat = aggregate.get("sat_stats")
    if sat:
        lines.append(
            "sat: "
            + ", ".join("%s=%d" % (k, v) for k, v in sorted(sat.items()))
        )
    cache = aggregate.get("cache")
    if cache:
        lines.append(
            "cache: hits=%d misses=%d stale=%d evictions=%d "
            "read=%dB written=%dB"
            % (
                cache.get("hits", 0),
                cache.get("misses", 0),
                cache.get("stale", 0),
                cache.get("evictions", 0),
                cache.get("bytes_read", 0),
                cache.get("bytes_written", 0),
            )
        )
    if aggregate.get("deduped"):
        lines.append(
            "dedup: %d of %d jobs served by a cluster representative's solve"
            % (aggregate["deduped"], aggregate["jobs"])
        )
    for shard, row in sorted(
        aggregate.get("by_shard", {}).items(), key=lambda kv: int(kv[0])
    ):
        shard_cache = row.get("cache", {})
        lines.append(
            "shard %s: %d jobs, %d reproduced, %d deduped, %d clusters, "
            "cache hits=%d misses=%d evictions=%d"
            % (
                shard,
                row["jobs"],
                row["reproduced"],
                row["deduped"],
                row["clusters"],
                shard_cache.get("hits", 0),
                shard_cache.get("misses", 0),
                shard_cache.get("evictions", 0),
            )
        )
    if any(r.recovered_trace for r in results):
        lines.append("* reproduced from a crash-recovered trace")
    return "\n".join(lines)
