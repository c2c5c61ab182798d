"""Fault injection against the pooled solver paths.

The parallel genval rounds and the portfolio both run over
``service.pool.WorkerPool``; ``service.faults`` hooks let a test kill or
stall a specific worker deterministically.  Contracts under test:

* a worker dying mid-probe costs one retry, never the round — the old
  ``ProcessPoolExecutor`` version raised ``BrokenProcessPool`` out of
  ``future.result()`` and poisoned the whole executor;
* a portfolio task whose worker dies on every attempt is reported
  crashed while the rest of the portfolio still produces the answer;
* once a winner is in, losers stalled by an injected ``slow_solve`` are
  killed within the poll interval — no orphan processes survive the run.
"""

import multiprocessing
import time

import pytest

from repro.bench.programs import get_benchmark
from repro.core.clap import ClapConfig, ClapPipeline
from repro.solver.parallel import solve_generate_validate
from repro.solver.portfolio import solve_constraints_portfolio

_SYSTEMS = {}


def table1_system(name):
    if name not in _SYSTEMS:
        bench = get_benchmark(name)
        pipeline = ClapPipeline(
            bench.compile(), ClapConfig(**bench.config_kwargs())
        )
        _SYSTEMS[name] = pipeline.analyze(pipeline.record())
    return _SYSTEMS[name]


def _no_orphans():
    """No worker process outlived its pool."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


# -- genval path ----------------------------------------------------------


def test_genval_worker_death_is_retried_not_hung():
    system = table1_system("pbzip2")
    t0 = time.monotonic()
    result = solve_generate_validate(
        system,
        max_cs=2,
        probes_per_round=4,
        workers=2,
        faults={"kill_worker": {"attempts": [1]}},
    )
    elapsed = time.monotonic() - t0
    # Every probe's first attempt dies like a SIGKILL'd process; the pool
    # respawns the worker and the retry succeeds, so the round completes
    # with the same answer as a fault-free run.
    assert result.ok
    assert result.context_switches == 2
    assert result.pool_counters["respawns"] >= 1
    assert elapsed < 60
    assert _no_orphans()


def test_genval_matches_fault_free_run():
    system = table1_system("pbzip2")
    clean = solve_generate_validate(
        system, max_cs=2, probes_per_round=4, workers=2
    )
    faulty = solve_generate_validate(
        system,
        max_cs=2,
        probes_per_round=4,
        workers=2,
        faults={"kill_worker": {"attempts": [1]}},
    )
    assert clean.ok and faulty.ok
    assert clean.context_switches == faulty.context_switches
    assert clean.rounds == faulty.rounds
    assert clean.pool_counters.get("respawns", 0) == 0
    assert faulty.pool_counters["respawns"] >= 1


# -- portfolio path -------------------------------------------------------


def test_portfolio_worker_death_costs_a_retry_not_the_run():
    system = table1_system("pbzip2")
    result = solve_constraints_portfolio(
        system,
        max_cs=4,
        workers=3,
        round_iterations=600,
        max_seconds=60,
        faults={"kill_worker": {"attempts": [1], "tasks": ["seq"]}},
    )
    assert result.ok
    assert result.portfolio["respawns"] >= 1


def test_portfolio_survives_terminally_crashed_task():
    # ``seq`` dies on both attempts (max_attempts=2): it can never
    # contribute, but the racing workers still deliver the verdict.  (The
    # retry may be cancelled rather than re-killed when the winner lands
    # first — either way the run must complete.)
    system = table1_system("pbzip2")
    t0 = time.monotonic()
    result = solve_constraints_portfolio(
        system,
        max_cs=4,
        workers=3,
        round_iterations=600,
        max_seconds=60,
        faults={"kill_worker": {"attempts": [1, 2], "tasks": ["seq"]}},
    )
    elapsed = time.monotonic() - t0
    assert result.ok
    assert result.portfolio["winner"] != "seq"
    assert result.portfolio["respawns"] >= 1
    assert elapsed < 60
    assert _no_orphans()


def test_portfolio_losers_cancelled_after_winner():
    # aget's winner (the genval-1 probe) arrives in a couple of seconds;
    # the higher rung probes are stalled behind a 60s injected sleep.  The
    # finish rule must kill them within the poll interval instead of
    # waiting them out, and nothing may be left running afterwards.
    system = table1_system("aget")
    stall = {
        "slow_solve": {
            "seconds": 60,
            "tasks": ["genval-2", "genval-3", "genval-4"],
        }
    }
    t0 = time.monotonic()
    result = solve_constraints_portfolio(
        system,
        max_cs=4,
        workers=3,
        round_iterations=600,
        max_seconds=90,
        faults=stall,
    )
    elapsed = time.monotonic() - t0
    assert result.ok
    assert result.context_switches == 1
    # Far below the 60s stall: the losers were killed, not awaited.
    assert elapsed < 40
    assert result.portfolio["cancelled"] > 0
    assert _no_orphans()
