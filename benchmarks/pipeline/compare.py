"""Compare two benchmark result files, one row per (workload, metric).

    python benchmarks/pipeline/compare.py BASE.json NEW.json

Each file holds the runs that ``run.py --out FILE`` appended.  For each
workload and end-to-end metric of ``BENCHMARK.json`` the row shows both
sides' median and quartiles, the change, the metric's bound and a
verdict:

* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, and neither side beats the other on every run;
* ``worse``      — the median got worse by more than the bound;
* ``better``     — the median improved by more than the base's own
  spread, and the new side wins at least 9 of 10 cross pairs of runs;
* ``same``       — otherwise.

A side's observations are its runs' values; a side with fewer than
three runs pools its runs' per-pass samples instead.  The tool exits 1
when any row is ``worse`` or when the new side failed a larger share of
its attempted operations than the base.
"""

import json
import os
import statistics
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def summarize(values):
    """Median, quartiles and count of ``values``."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def _spread(summary):
    return (summary["q3"] - summary["q1"]) / abs(summary["median"] or 1)


def verdict(base, new, better, bound):
    """Classify ``new`` against ``base`` (lists of observations)."""
    b, n = summarize(base), summarize(new)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (n["median"] - b["median"]) / abs(b["median"] or 1)
    pairs = [(x, y) for x in new for y in base]
    wins = sum(1 for x, y in pairs if sign * (x - y) < 0)
    losses = sum(1 for x, y in pairs if sign * (x - y) > 0)
    separated = wins == len(pairs) or losses == len(pairs)
    if max(_spread(b), _spread(n)) > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > _spread(b) and wins >= 0.9 * len(pairs):
        return "better", worse_by
    return "same", worse_by


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [run for run in json.load(fh)["runs"] if not run.get("trace")]


def _observations(runs, metric):
    if len(runs) >= 3:
        return [run["metrics"][metric]["value"] for run in runs]
    return [x for run in runs for x in run["metrics"][metric]["samples"]]


def _failure_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(attempted, 1)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    base_runs, new_runs = _load(argv[0]), _load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "%-8s %-15s %24s %24s %8s %6s  %s"
    print(fmt % ("workload", "metric", "base median [q1, q3]",
                 "new median [q1, q3]", "change", "bound", "verdict"))
    status = 0
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        if not base or not new:
            print("%-8s (missing on one side)" % workload)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = _observations(base, name)
            n = _observations(new, name)
            label, worse_by = verdict(b, n, metric["better"], metric["bound"])
            sb, sn = summarize(b), summarize(n)
            print(fmt % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (sb["median"], sb["q1"], sb["q3"]),
                "%.4g [%.4g, %.4g]" % (sn["median"], sn["q1"], sn["q3"]),
                "%+.1f%%" % (100 * worse_by * (1 if metric["better"] == "lower" else -1)),
                "%.0f%%" % (100 * metric["bound"]),
                label,
            ))
            if label == "worse":
                status = 1
        fb, fn = _failure_share(base), _failure_share(new)
        if fn > fb:
            print("%-8s failed share rose: %.3f -> %.3f" % (workload, fb, fn))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
