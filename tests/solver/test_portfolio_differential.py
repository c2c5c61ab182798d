"""Differential battery: the ``smt-inc --workers N`` race vs the
in-process ``smt-inc`` ladder.

The portfolio races a sequential replica of the bound ladder against
genval probes pinned to single rungs.  The race may not change
*answers*:

* same SAT/UNSAT verdict as the sequential incremental bound loop on
  every Table-1 entry and on fuzzed litmus programs;
* the portfolio's context-switch bound is never *worse* than the
  sequential one; whenever the sequential bound is proven (every lower
  rung exhausted, not budget-cut) a winner sharing the SMT path's
  canonical greedy switch metric must reproduce it exactly, and a
  genval winner may only *improve* it (the ladder's exhaustion proof is
  modulo greedy canonical scheduling; genval searches the exact
  schedule space, and the validator certifies the lower count);
* the returned schedule replays the bug through the independent
  :class:`~repro.solver.validate.ScheduleValidator`;
* ``workers=1`` degenerates to the sequential loop in the
  same process and must be bit-identical to it, run after run.
"""

import random

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.constraints.encoder import encode
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.solver.portfolio import solve_constraints_portfolio
from repro.solver.smt import solve_constraints_bounded
from repro.solver.validate import validate_schedule
from repro.tracing.decoder import decode_log

from tests.test_differential import generate_program, record

MAX_CS = 4
MAX_SECONDS = 60
# Per-round CEGAR budget. bbuf's constraint system is an order of
# magnitude bigger than the rest; a tighter slice keeps the sweep inside
# tier-1 time without changing its verdict (still found at cs=4).
ROUND_ITERATIONS = {"bbuf": 150}
DEFAULT_ROUND_ITERATIONS = 600

_SYSTEMS = {}


def table1_system(name):
    """Record + analyze one Table-1 entry, cached across tests."""
    if name not in _SYSTEMS:
        bench = get_benchmark(name)
        pipeline = ClapPipeline(
            bench.compile(), ClapConfig(**bench.config_kwargs())
        )
        _SYSTEMS[name] = pipeline.analyze(pipeline.record())
    return _SYSTEMS[name]


def _proven_minimal(result):
    """The bound is a theorem (not a budget artifact) when every lower
    round exhausted its space."""
    return all(
        entry["exhausted"]
        for entry in result.round_stats
        if entry["bound"] < result.bound
    )


def _assert_portfolio_agrees(system, round_iterations=DEFAULT_ROUND_ITERATIONS):
    sequential = solve_constraints_bounded(
        system,
        max_cs=MAX_CS,
        incremental=True,
        round_iterations=round_iterations,
        max_seconds=MAX_SECONDS,
    )
    portfolio = solve_constraints_portfolio(
        system,
        max_cs=MAX_CS,
        workers=3,
        round_iterations=round_iterations,
        max_seconds=MAX_SECONDS,
    )
    assert sequential.ok == portfolio.ok, (
        sequential.reason,
        portfolio.reason,
    )
    if sequential.ok:
        # The schedule must replay the bug through the independent
        # validator, with the claimed number of context switches.
        for result in (sequential, portfolio):
            outcome = validate_schedule(system, result.schedule)
            assert outcome.ok, outcome.reason
            assert outcome.context_switches == result.context_switches
        # A racing worker may find a *better* bound than the sequential
        # loop, never a worse one: the finish rule refuses to declare a
        # winner at rung c until every rung below c is resolved.
        assert portfolio.context_switches <= sequential.context_switches
        stats = portfolio.portfolio
        assert stats["workers"] == 3
        assert stats["winner"], stats
        assert stats["winner_kind"] in {"seq", "genval"}, stats
        if _proven_minimal(sequential):
            if stats["winner_kind"] == "genval":
                # The SMT ladder's exhaustion proof is modulo the greedy
                # canonical scheduler (each rf combo is charged the best
                # switch count greedy scheduling finds for it), so an
                # exact-metric genval winner may legitimately beat a
                # "proven" sequential bound — the validator certified the
                # lower count above.  It must never be worse.
                assert (
                    portfolio.context_switches <= sequential.context_switches
                )
            else:
                # The seq replica shares the canonical metric, so it
                # must reproduce a proven sequential bound exactly.
                assert (
                    portfolio.context_switches == sequential.context_switches
                )
    return sequential, portfolio


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_portfolio_matches_sequential(name):
    system = table1_system(name)
    round_iterations = ROUND_ITERATIONS.get(name, DEFAULT_ROUND_ITERATIONS)
    _assert_portfolio_agrees(system, round_iterations=round_iterations)


# Fuzzer trials whose seeded generation yields a recordable assertion
# failure with a modest constraint system — same set the incremental
# differential suite pins (tests/solver/test_smt_incremental.py).
_FAILING_TRIALS = [2, 11, 16, 29]


@pytest.mark.parametrize("trial", _FAILING_TRIALS)
def test_fuzzed_programs_portfolio_matches_sequential(trial):
    rng = random.Random(77000 + trial)
    source = generate_program(rng)
    program = compile_source(source, name="portfuzz%d" % trial)
    shared = shared_variables(program)
    for seed in range(25):
        result, recorder = record(program, shared, seed, "sc")
        if result.bug is None or result.bug.kind != "assertion":
            continue
        summaries = execute_recorded_paths(
            program, decode_log(recorder), shared, bug=result.bug
        )
        system = encode(summaries, "sc", program.symbols, shared)
        _assert_portfolio_agrees(system)
        return
    pytest.skip("no assertion failure manifested for this fuzzed program")


def test_single_worker_is_bit_identical_to_sequential():
    # ``workers=1`` must not fork at all: same process, same
    # solver, bit-identical outcome — the determinism anchor.
    system = table1_system("pbzip2")
    sequential = solve_constraints_bounded(
        system, max_cs=MAX_CS, incremental=True, max_seconds=MAX_SECONDS
    )
    runs = [
        solve_constraints_portfolio(
            system, max_cs=MAX_CS, workers=1, max_seconds=MAX_SECONDS
        )
        for _ in range(2)
    ]
    for single in runs:
        assert single.ok == sequential.ok
        assert single.schedule == sequential.schedule
        assert single.reads_from == sequential.reads_from
        assert single.context_switches == sequential.context_switches
        assert single.bound == sequential.bound
        assert single.iterations == sequential.iterations
        assert single.portfolio["winner"] == "seq"
        assert single.portfolio["workers"] == 1
    # Run-to-run determinism of the degenerate mode itself.
    assert runs[0].schedule == runs[1].schedule
    assert runs[0].iterations == runs[1].iterations


def test_portfolio_round_stats_preserve_minimality_evidence():
    # Whatever worker wins, the assembled result must still carry a
    # round_stats ladder covering every bound up to the winner's, so
    # downstream minimality checks (``_proven_minimal`` in the perf
    # harness, the batch report) keep working unchanged.
    system = table1_system("aget")
    portfolio = solve_constraints_portfolio(
        system, max_cs=MAX_CS, workers=3, max_seconds=MAX_SECONDS
    )
    assert portfolio.ok
    bounds = [entry["bound"] for entry in portfolio.round_stats]
    assert bounds == list(range(portfolio.bound + 1))
    assert portfolio.round_stats[-1]["found"] is True
    for entry in portfolio.round_stats[:-1]:
        assert entry["found"] is False
        assert "exhausted" in entry
