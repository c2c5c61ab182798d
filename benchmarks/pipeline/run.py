"""One command for the CLAP pipeline benchmark.

    python3 benchmarks/pipeline/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace {0,1}] [--smoke] [--out results/bench/NAME.json]

Each workload (all of them unless ``--workload`` names some) runs in a
fresh subprocess with ``PYTHONHASHSEED`` set from ``--seed``, so its
heap, GC state, peak RSS and set iteration order are its own.  A run
sets its inputs up ``SETUP_REPEATS`` times (``setup_s`` is the median),
then runs timed passes over them, tracing off, until ``--seconds`` are
spent.  Every operation's output is checked, and the run's exact counts
must repeat on every pass; otherwise the run is not ``correct`` and
exits 1.  An operation that raises or does not reproduce its failure is
a failed attempt, listed with its reason; it never aborts the run.

``--trace 1`` spends half the time on untraced passes and half on
passes traced through :mod:`tracer`; it reports the per-layer metrics,
prints the self-time table and the tracing overhead, and writes a
Chrome trace to ``results/bench/trace-<workload>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
the per-layer ones with ``--trace 1``).  ``--out`` appends the full run
record (samples, quartiles, failures with reasons, git sha, Python
version, CPU count) to a JSON file that ``compare.py`` reads.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from compare import summarize
from tracer import BENCH, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "results", "bench")

WORKLOADS = ("record", "table1", "flight")
RUN_SECONDS = 12
SETUP_REPEATS = 3
# A child's time limit is this plus four times --seconds.
CHILD_TIMEOUT = 120

# Self time of each layer as a share of the traced pass; the layer
# names are the ones tracer.Tracer.install() gives its spans.
LAYERS = (
    "runtime.interpret",
    "runtime.replay",
    "tracing.record",
    "tracing.decode",
    "store.synthesize",
    "analysis.pipeline_init",
    "analysis.symexec",
    "constraints.encode",
    "solver.solve",
)
COUNTS = (
    "runtime.instructions",
    "tracing.log_bytes",
    "tracing.ring.segments_evicted",
    "tracing.ring.bytes_retained",
    "store.synth_blocks",
    "constraints.constraints",
    "constraints.variables",
    "constraints.pruned_clauses",
    "solver.cs_total",
    "solver.decisions",
    "solver.conflicts",
    "solver.propagations",
    "solver.solve_calls",
)
PER_LAYER = (
    tuple((layer + "_pct", "%") for layer in LAYERS)
    + (("trace.coverage_pct", "%"), ("trace.overhead_pct", "%"))
    + tuple((name, "count") for name in COUNTS)
    + (
        ("tracing.hook_ns_per_event.classic", "ns"),
        ("tracing.hook_ns_per_event.fast", "ns"),
    )
)


# -- one pass ------------------------------------------------------------------


class Pass:
    """What one pass measured: wall time, per-operation costs, failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.labels = []
        self.ops = []  # (group, ms) of every successful operation
        self.failures = {}  # label -> reason
        self.problems = []  # wrong outputs found by the workload's checks
        self.counts = {}
        self.wall = None
        self.span = None

    @contextlib.contextmanager
    def timed(self):
        gc.collect()
        tracer = self.tracer
        span = tracer.span("pass", BENCH) if tracer else contextlib.nullcontext()
        with span as self.span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.wall = time.perf_counter() - start

    def op(self, group, label):
        return _Op(self, group, label)

    def problem(self, message):
        self.problems.append(message)


class _Op:
    """Times one operation; an exception becomes a failed attempt."""

    def __init__(self, p, group, label):
        self.p, self.group, self.label = p, group, label
        self.reason = None

    def fail(self, reason):
        self.reason = reason

    def __enter__(self):
        self.p.labels.append(self.label)
        tracer = self.p.tracer
        self.span = tracer.span(self.label, BENCH) if tracer else None
        if self.span is not None:
            self.span.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        ms = (time.perf_counter() - self.start) * 1000.0
        if self.span is not None:
            self.span.__exit__(None, None, None)
        if exc_type is not None:
            if not issubclass(exc_type, Exception):
                return False
            self.reason = "%s: %s" % (exc_type.__name__, exc)
        if self.reason is None:
            self.p.ops.append((self.group, ms))
        else:
            self.p.failures[self.label] = self.reason
        return True


def measure(workload, items, seconds, tracer, check, max_passes):
    """Run passes until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while len(passes) < max_passes:
        p = Pass(tracer)
        p.counts.update(workload.run_pass(items, p, check and not passes))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes


# -- statistics ----------------------------------------------------------------


def metric(value, unit, samples):
    return dict(value=value, unit=unit, samples=samples, **summarize(samples))


def _quantile(values, q):
    """The ``q``-th percentile (q in 1..99) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _typical(ops):
    """Geometric mean over groups of each group's median latency.

    Medians keep one unusually hard trace from setting a program's
    figure; the geometric mean weighs every program alike, whatever
    its absolute cost.
    """
    groups = {}
    for group, ms in ops:
        groups.setdefault(group, []).append(ms)
    if not groups:
        return 0.0
    logs = [math.log(statistics.median(v)) for v in groups.values()]
    return math.exp(sum(logs) / len(logs))


def end_to_end(passes, setup_times, rss_mb):
    return {
        "setup_s": metric(statistics.median(setup_times), "s", setup_times),
        "peak_rss_mb": metric(rss_mb, "MB", [rss_mb]),
        "latency_ms": metric(
            _typical([op for p in passes for op in p.ops]),
            "ms",
            [_typical(p.ops) for p in passes],
        ),
    }


def distribution(passes):
    """Pass times and pooled latency percentiles: reported, not gated."""
    pooled = [ms for p in passes for _, ms in p.ops]
    return {
        "pass_s": summarize([p.wall for p in passes]),
        "op_p50_ms": _quantile(pooled, 50),
        "op_p90_ms": _quantile(pooled, 90),
        "ops": len(pooled),
    }


def per_layer(tracer, traced, untraced, hook):
    shares = {layer: [] for layer in LAYERS}
    coverage, self_ms = [], {layer: [] for layer in LAYERS}
    for p in traced:
        start, end = p.span.start, p.span.end
        self_ns = tracer.layer_self_ns(start, end)
        for layer in LAYERS:
            shares[layer].append(100.0 * self_ns.get(layer, 0) / (end - start))
            self_ms[layer].append(self_ns.get(layer, 0) / 1e6)
        coverage.append(100.0 * tracer.coverage(start, end))
    base = statistics.median(p.wall for p in untraced)
    overhead = 100.0 * (statistics.median(p.wall for p in traced) - base) / base
    out = {
        layer + "_pct": metric(statistics.median(v), "%", v)
        for layer, v in shares.items()
    }
    out["trace.coverage_pct"] = metric(min(coverage), "%", coverage)
    out["trace.overhead_pct"] = metric(overhead, "%", [overhead])
    for name in COUNTS:
        value = traced[0].counts.get(name, 0)
        out[name] = metric(value, "count", [value])
    out["tracing.hook_ns_per_event.classic"] = metric(hook["classic"], "ns", [hook["classic"]])
    out["tracing.hook_ns_per_event.fast"] = metric(hook["fast"], "ns", [hook["fast"]])
    return out, {layer: statistics.median(v) for layer, v in self_ms.items()}


def count_mismatches(passes):
    """Exact counts that differ between passes, traced or not."""
    ref = passes[0].counts
    problems = []
    for i, p in enumerate(passes[1:], 1):
        if p.counts != ref:
            diff = sorted(k for k in set(ref) | set(p.counts)
                          if ref.get(k) != p.counts.get(k))
            problems.append("pass %d counts differ from pass 0: %s" % (i, diff))
    return problems


# -- one workload, in this process ---------------------------------------------


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def append_run(path, run):
    data = {"format": 1, "runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"].append(run)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def _print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-36s %12.4f %-5s  median %.4f [%.4f, %.4f] n=%d"
              % (name, m["value"], m["unit"], m["median"], m["q1"], m["q3"], m["n"]))


def run_one(args):
    sys.path.insert(0, SRC)
    import workloads

    name = args.workload[0]
    workload = workloads.WORKLOADS[name](args.seed, args.smoke)
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        try:
            items = workload.setup()
        except workloads.SetupError as exc:
            print("error: set-up failed: %s" % exc, file=sys.stderr)
            return 1
        setup_times.append(time.perf_counter() - start)

    max_passes = 1 if args.smoke else sys.maxsize
    budget = args.seconds / 2.0 if args.trace else args.seconds
    untraced = measure(workload, items, budget, None, True, max_passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, items, budget, tracer, False, max_passes)
        finally:
            tracer.restore()

    passes = untraced + traced
    problems = [m for p in passes for m in p.problems]
    problems += count_mismatches(passes)
    failures = {}
    for p in passes:
        failures.update(p.failures)
    run = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": not problems,
        "attempted": sum(len(p.labels) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": [{"op": k, "reason": v} for k, v in sorted(failures.items())],
        "rejected_inputs": list(workload.rejected),
        "problems": problems,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "counts": dict(sorted(untraced[0].counts.items())),
        "metrics": end_to_end(untraced, setup_times, rss_mb),
        "distribution": distribution(untraced),
        "op_ms": {},
    }
    for p in untraced:
        for group, ms in p.ops:
            run["op_ms"].setdefault(group, []).append(round(ms, 3))
    title = "== %s: seed %d, %d passes, %d operations, %d failed ==" % (
        name, args.seed, len(passes), run["attempted"], run["failed"])
    _print_table(title, run["metrics"])
    dist = run["distribution"]
    print("  not gated: pass %.3f s [%.3f, %.3f]; operations p50 %.2f ms, "
          "p90 %.2f ms (n=%d)"
          % (dist["pass_s"]["median"], dist["pass_s"]["q1"], dist["pass_s"]["q3"],
             dist["op_p50_ms"], dist["op_p90_ms"], dist["ops"]))
    for failure in run["failures"]:
        print("  failed %s: %s" % (failure["op"], failure["reason"]))
    for rejected in run["rejected_inputs"]:
        print("  input left out: %s" % rejected)
    for problem in problems:
        print("  WRONG: %s" % problem)

    reported = run["metrics"]
    if args.trace:
        hook = workloads.hook_ns_per_event(workload.hook_runs(items))
        run["per_layer"], self_ms = per_layer(tracer, traced, untraced, hook)
        reported = run["per_layer"]
        print("  per-layer self time per traced pass:")
        for layer in sorted(LAYERS, key=lambda k: -self_ms[k]):
            print("    %-24s %10.2f ms  %5.1f%%" % (
                layer, self_ms[layer], reported[layer + "_pct"]["value"]))
        print("    %-24s %17.1f%%" % ("spans cover", reported["trace.coverage_pct"]["value"]))
        print("  tracing overhead: %+.1f%% of the untraced pass (%.3f s -> %.3f s)" % (
            reported["trace.overhead_pct"]["value"],
            statistics.median(p.wall for p in untraced),
            statistics.median(p.wall for p in traced)))
        path = os.path.join(RESULTS, "trace-%s.json" % name)
        tracer.chrome_trace(path)
        print("  chrome trace: %s" % os.path.relpath(path, ROOT))

    if args.out:
        append_run(args.out, run)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in reported.items()},
    }))
    return 0 if run["correct"] else 1


# -- each workload in its own subprocess ----------------------------------------


def run_workloads(args, names):
    """Run each workload in a fresh interpreter with a fixed hash seed.

    String hashing is randomized per process unless PYTHONHASHSEED is
    set, and the pipeline iterates sets of names, so the solver's
    search, and its time, would change from process to process on the
    same trace.  The hash seed is taken from ``--seed``: the same seed
    gives the same behaviour, and another seed varies the order too.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    results, ok, status = {}, True, 0
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--child",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT + 4 * args.seconds)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            ok = False
            continue
        ok = ok and proc.returncode == 0 and results[name]["correct"]
    if len(names) == 1:
        return status
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {n: r["metrics"] for n, r in results.items()},
    }))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per workload at reduced sizes")
    parser.add_argument("--out", help="append the run record to this JSON file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no CLAP sources at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    if args.child:
        args.workload = names
        return run_one(args)
    return run_workloads(args, names)


if __name__ == "__main__":
    sys.exit(main())
