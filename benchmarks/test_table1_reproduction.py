"""Table 1 — CLAP bug-reproduction effectiveness.

Regenerates the paper's Table 1: for each of the 11 benchmarks, run the
full pipeline (record -> symbolic analysis -> constraint solving ->
deterministic replay) and report the trace/constraint statistics, the
solving times, the context-switch count of the computed schedule, and
whether the failure was reproduced.

Paper's expected shape: success on every row, computed schedules with few
preemptive context switches (racey is the designed outlier), symbolic
time and solve time growing with #SAPs.
"""

import pytest

from repro.bench.harness import format_table1, run_table1_row
from repro.bench.programs import TABLE1_NAMES, get_benchmark

from conftest import emit, pipeline_artifacts

_ROWS = {}


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_row(benchmark, name):
    bench = get_benchmark(name)

    def once():
        return run_table1_row(bench, solver="smt")

    row = benchmark.pedantic(once, rounds=1, iterations=1)
    assert row.success == "Y", "%s: %s" % (name, row.note)
    _ROWS[name] = row


def test_table1_render(benchmark):
    missing = [n for n in TABLE1_NAMES if n not in _ROWS]
    assert not missing, "rows missing (run the whole module): %s" % missing
    rows = [_ROWS[n] for n in TABLE1_NAMES]
    benchmark.pedantic(lambda: format_table1(rows), rounds=1, iterations=1)
    emit("table1.txt", format_table1(rows))
    # Shape assertions from the paper:
    # every bug reproduced,
    assert all(r.success == "Y" for r in rows)
    # real programs need few context switches (racey may be the outlier).
    ordinary = [r for r in rows if r.program != "racey"]
    assert all(0 <= r.n_cs <= 6 for r in ordinary)
