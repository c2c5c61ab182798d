"""Smoke test of the pipeline benchmark.

Runs every workload once at reduced sizes with tracing on, then checks
that each metric named in BENCHMARK.json is emitted with its unit and
that the traced spans cover at least 95% of each pass's wall time.

    PYTHONPATH=src python -m pytest -q benchmarks/pipeline
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--smoke", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, "r", encoding="utf-8") as fh:
        return {run["workload"]: run for run in json.load(fh)["runs"]}


def test_every_workload_runs_correctly(runs):
    assert sorted(runs) == sorted(w["name"] for w in SPEC["workloads"])
    for name, run in runs.items():
        assert run["correct"], (name, run["problems"])
        assert run["attempted"] > 0 and run["failed"] == 0, (name, run["failures"])


def test_every_metric_is_emitted_with_its_unit(runs):
    for name, run in runs.items():
        for kind, section in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
            emitted = run[section]
            for spec in SPEC[kind]:
                assert spec["name"] in emitted, (name, spec["name"])
                assert emitted[spec["name"]]["unit"] == spec["unit"], (name, spec)
            assert len(emitted) == len(SPEC[kind]), (name, sorted(emitted))


def test_spans_cover_each_traced_pass(runs):
    for name, run in runs.items():
        coverage = run["per_layer"]["trace.coverage_pct"]["samples"]
        assert coverage and min(coverage) >= 95.0, (name, coverage)
