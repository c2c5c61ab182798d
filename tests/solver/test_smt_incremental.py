"""Incremental-equivalence differential tests for the bound loop.

``solve_constraints_bounded(incremental=True)`` runs every bound round
``c = 0, 1, 2, …`` on ONE SAT instance, retracting switch-count blocks by
dropping ladder assumptions while keeping learned clauses.
``incremental=False`` re-encodes into a fresh solver per round — the
pre-incremental behavior.  Both paths share the encoder's stable atom
numbering and the same per-round budget, and must agree on whether a
schedule exists; when the bound is *proven* (every lower round exhausted
its space rather than hitting the round budget) they must also agree on
the minimal context-switch bound — unconditionally so on the Table-1
benchmarks.
"""

import random

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.bench.programs import get_benchmark
from repro.constraints.encoder import encode
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.solver.smt import solve_constraints_bounded
from repro.solver.validate import validate_schedule
from repro.tracing.decoder import decode_log

from tests.test_differential import generate_program, record


def _proven_minimal(result):
    """True when every round below the found bound exhausted its space —
    the bound is then a theorem, not a budget artifact.  A round cut by
    the per-round iteration budget leaves ``exhausted=False``; bounds
    influenced by such rounds are best-effort and the two paths may
    legitimately differ (the incremental path tends to find *better*
    bounds, because its multi-round blocks stop later rounds from
    re-walking space an earlier round already covered, while a fresh
    solver restarts every round from scratch)."""
    return all(
        entry["exhausted"]
        for entry in result.round_stats
        if entry["bound"] < result.bound
    )


def _assert_paths_agree(system, max_cs=4, max_seconds=60, strict=False):
    incremental = solve_constraints_bounded(
        system, max_cs=max_cs, incremental=True, max_seconds=max_seconds
    )
    fresh = solve_constraints_bounded(
        system, max_cs=max_cs, incremental=False, max_seconds=max_seconds
    )
    assert incremental.ok == fresh.ok, (incremental.reason, fresh.reason)
    if incremental.ok:
        for result in (incremental, fresh):
            outcome = validate_schedule(system, result.schedule)
            assert outcome.ok, outcome.reason
            assert outcome.context_switches == result.context_switches
            assert result.context_switches <= result.bound
        if strict or (_proven_minimal(incremental) and _proven_minimal(fresh)):
            assert incremental.context_switches == fresh.context_switches
            assert incremental.bound == fresh.bound
    return incremental, fresh


# Fuzzer trial numbers whose deterministic generation yields a program
# with a recordable assertion failure and a modestly sized constraint
# system (≤ ~120 reads-from choices) — found by scanning trial seeds
# 0..59; the generation below is fully seeded, so the set is stable.
_FAILING_TRIALS = [2, 11, 13, 16, 17, 19, 29, 35]


@pytest.mark.parametrize("trial", _FAILING_TRIALS)
def test_fuzzed_programs_same_minimal_bound(trial):
    rng = random.Random(77000 + trial)
    source = generate_program(rng)
    program = compile_source(source, name="incfuzz%d" % trial)
    shared = shared_variables(program)
    for seed in range(25):
        result, recorder = record(program, shared, seed, "sc")
        if result.bug is None or result.bug.kind != "assertion":
            continue
        summaries = execute_recorded_paths(
            program, decode_log(recorder), shared, bug=result.bug
        )
        system = encode(summaries, "sc", program.symbols, shared)
        _assert_paths_agree(system)
        return
    pytest.skip("no assertion failure manifested for this fuzzed program")


@pytest.mark.parametrize(
    "name", ["pbzip2", "apache", "pfscan", "dekker", "figure2"]
)
def test_table1_benchmarks_same_minimal_bound(name):
    # Strict: on the real benchmarks the two paths must agree outright
    # (the full Table-1 sweep is asserted again by the perf harness in
    # benchmarks/test_solver_perf.py).
    bench = get_benchmark(name)
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    system = pipeline.analyze(pipeline.record())
    incremental, fresh = _assert_paths_agree(system, strict=True)
    assert incremental.ok


def test_incremental_round_stats_cover_every_bound():
    bench = get_benchmark("pbzip2")
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    system = pipeline.analyze(pipeline.record())
    result = solve_constraints_bounded(system, max_cs=4, incremental=True)
    assert result.ok
    bounds = [entry["bound"] for entry in result.round_stats]
    assert bounds == list(range(result.bound + 1))
    final = result.round_stats[-1]
    assert final["found"] is True
    # Refinements happen inside the search: one solve() call per round,
    # however many models the round examined.
    assert result.sat_stats["solve_calls"] == len(result.round_stats)
    assert result.iterations >= len(result.round_stats)
    # Rounds that were neither satisfied nor exhausted were cut by the
    # per-round budget — recorded so callers can tell best-effort bounds
    # from proven ones.
    for entry in result.round_stats[:-1]:
        assert entry["found"] is False
        assert "exhausted" in entry


def test_reference_core_rejects_multi_round_incremental_use():
    from repro.solver.cdcl_reference import CDCLSolver as ReferenceCDCL
    from repro.solver.smt import ClapSmtSolver

    bench = get_benchmark("figure2")
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    system = pipeline.analyze(pipeline.record())
    solver = ClapSmtSolver(system, sat_factory=ReferenceCDCL)
    with pytest.raises(TypeError):
        solver.solve_bounded(3)


def test_smt_solve_time_includes_construction(monkeypatch):
    """Regression: ``solve_constraints``/``solve_constraints_bounded``
    must charge CNF construction (transitive closure, clause build) to
    ``solve_time``."""
    import time as time_mod

    import repro.solver.smt as smt_mod

    bench = get_benchmark("figure2")
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    system = pipeline.analyze(pipeline.record())
    delay = 0.05
    original_init = smt_mod.ClapSmtSolver.__init__

    def slow_init(self, *args, **kwargs):
        time_mod.sleep(delay)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(smt_mod.ClapSmtSolver, "__init__", slow_init)
    single = smt_mod.solve_constraints(system)
    assert single.ok
    assert single.solve_time >= delay
    bounded = smt_mod.solve_constraints_bounded(system, max_cs=2)
    assert bounded.ok
    assert bounded.solve_time >= delay
