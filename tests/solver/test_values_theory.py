"""The values theory: Fpath ∧ Fbug checked inside the CDCL search vs
after each full model.

The default solver attaches :class:`~repro.solver.values.ValuesTheory`
in front of the Frw theory, and ``_try_model`` then skips the full-model
value check.  ``_post_hoc`` below takes the theory off again, so the same
solver checks values the way the core without a theory hook does: on
each full model, blocking a refuted one with its cone's choices.  Both
must agree on the verdict, and every schedule either returns must pass
the full-model value check, the validator and replay.  Checked on the
Table-1 suite, on ``flight`` recorded through a 40-byte ring at 10 and 15
loop iterations, and on the seeded random programs of the bound-ladder
differential suite.

The theory-attached runs use ``_CheckedValues``, which asserts at every
theory fixpoint that no expression whose whole cone has reads-from
choices is false.  Without it, a check the theory skips or delays shows
only when the validator rejects the final schedule, or not at all when a
later choice happens to hide it.
"""

import random

import pytest

from repro.analysis.escape import shared_variables
from repro.analysis.symexec import execute_recorded_paths
from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.constraints.encoder import encode
from repro.constraints.model import RF
from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source
from repro.runtime.replay import replay_schedule
from repro.solver.smt import ClapSmtSolver
from repro.solver.validate import ScheduleValidator
from repro.solver.values import Values, ValuesTheory, check_values
from repro.tracing.decoder import decode_log

from tests.constraints.test_hb_differential import table1_artifacts
from tests.solver.test_smt_incremental import _FAILING_TRIALS
from tests.test_differential import generate_program, record


class _CheckedValues(ValuesTheory):
    """Asserts at every fixpoint that no expression with a fully chosen
    cone is false."""

    def __init__(self, system, choices, stats, inner, assign):
        super().__init__(system, choices, stats, inner)
        self.system = system
        self.assign_list = assign
        self.fixpoints = 0

    def assign(self, trail, start):
        conflict, stop = super().assign(trail, start)
        if conflict is None and stop == len(trail):
            self.fixpoints += 1
            rf = {}
            for var, read in enumerate(self.read_of):
                if read is not None and self.assign_list[var]:
                    assert read not in rf, "two reads-from choices for %r" % (read,)
                    rf[read] = self.source_of[var]
            values = Values(self.system)
            values.source = rf
            values.rank = dict.fromkeys(rf, 0)
            for index in range(len(values.exprs)):
                failure, _touched, _missing = values.check(index)
                assert failure is None, (index, failure, rf)
        return conflict, stop


def _checked(system):
    solver = ClapSmtSolver(system)
    theory = solver.values
    kinds = system.atom_kinds
    choices = {
        var: system.atoms[var]
        for var in range(1, system.n_vars + 1)
        if solver.used[var] and kinds[var] == RF
    }
    solver.values = _CheckedValues(
        system, choices, solver.sat.stats, theory.inner, solver.sat.assign
    )
    solver.sat.attach_theory(solver.values)
    return solver


def _post_hoc(system):
    solver = ClapSmtSolver(system)
    solver.sat.attach_theory(solver.values.inner)
    solver.values = None
    return solver


def assert_in_search_matches_post_hoc(program, shared, system, bug, memory_model):
    in_search = _checked(system)
    post_hoc = _post_hoc(system)
    got = in_search.solve(max_seconds=120)
    want = post_hoc.solve(max_seconds=120)
    assert got.ok == want.ok, (got.reason, want.reason)
    assert want.sat_stats["value_conflicts"] == 0
    if got.ok:
        assert in_search.values.fixpoints > 0
    for solved in (got, want):
        if not solved.ok:
            continue
        _cone, failure = check_values(system, solved.reads_from)
        assert failure is None
        assert ScheduleValidator(system).validate(solved.schedule).ok
        outcome = replay_schedule(
            program, solved.schedule, memory_model, shared=shared, expected_bug=bug
        )
        assert outcome.reproduced, outcome
    return got, want


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_values_in_search_match_post_hoc(name):
    pipeline, recorded, system = table1_artifacts(name)
    got, _want = assert_in_search_matches_post_hoc(
        pipeline.program,
        pipeline.shared,
        system,
        recorded.bug,
        pipeline.config.memory_model,
    )
    assert got.ok


@pytest.mark.parametrize("iters", (10, 15))
def test_flight_ring_values_in_search_match_post_hoc(iters):
    bench = get_benchmark("flight", iters=iters)
    config = ClapConfig(
        **dict(bench.config_kwargs(), ring_bytes=40, ring_segment_bytes=16)
    )
    pipeline = ClapPipeline(bench.compile(), config)
    recorded = pipeline.record()
    system = pipeline.analyze(recorded)
    got, want = assert_in_search_matches_post_hoc(
        pipeline.program, pipeline.shared, system, recorded.bug, config.memory_model
    )
    assert got.ok
    # The value-refuted full model of the post-hoc run is refuted in the
    # search instead: fewer models examined, as many combinations tried.
    refuted = got.sat_stats["value_conflicts"]
    assert refuted > 0
    assert got.iterations - refuted < want.iterations


@pytest.mark.parametrize("trial", _FAILING_TRIALS)
def test_random_values_in_search_match_post_hoc(trial):
    rng = random.Random(77000 + trial)
    program = compile_source(generate_program(rng), name="valfuzz%d" % trial)
    shared = shared_variables(program)
    for seed in range(25):
        result, recorder = record(program, shared, seed, "sc")
        if result.bug is None or result.bug.kind != "assertion":
            continue
        summaries = execute_recorded_paths(
            program, decode_log(recorder), shared, bug=result.bug
        )
        system = encode(summaries, "sc", program.symbols, shared)
        assert_in_search_matches_post_hoc(program, shared, system, result.bug, "sc")
        return
    pytest.skip("no assertion failure manifested for this random program")


def test_racey_examines_at_most_two_models_per_trace():
    """racey's traces used to refute hundreds of full models each on
    their values; in the search, the first model or the second passes."""
    bench = get_benchmark("racey")
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    solved = 0
    for seed in range(200):
        recorded = pipeline.record_once(seed)
        if recorded.bug is None or recorded.bug.kind != "assertion":
            continue
        result = ClapSmtSolver(pipeline.analyze(recorded)).solve(max_seconds=120)
        assert result.ok, result.reason
        # Iterations count value conflicts too (see smt._Budget).
        models = result.iterations - result.sat_stats["value_conflicts"]
        assert models <= 2, (seed, models)
        solved += 1
        if solved == 4:
            return
    assert solved, "no failing racey run in 200 seeds"



def _racey_system():
    bench = get_benchmark("racey")
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**bench.config_kwargs()))
    for seed in range(200):
        recorded = pipeline.record_once(seed)
        if recorded.bug is not None and recorded.bug.kind == "assertion":
            return pipeline.analyze(recorded)
    pytest.fail("no failing racey run in 200 seeds")


def test_value_conflicts_spend_the_round_budget():
    """A racey round refutes its combinations in the search, never
    reaching a full model: the round budget still cuts it."""
    result = ClapSmtSolver(_racey_system()).solve_bounded(4, round_iterations=3)
    assert not result.ok
    for entry in result.round_stats:
        assert entry["iterations"] == 3
        assert entry["value_conflicts"] >= 1
        assert not entry["exhausted"]


def test_timeout_stops_a_search_of_value_conflicts():
    result = ClapSmtSolver(_racey_system()).solve(max_seconds=0)
    assert result.reason == "timeout"
    # Stopped inside the search at its first conflict, a value conflict,
    # before any full model was examined: it is the iteration charged.
    assert result.sat_stats["conflicts"] == 1
    assert result.iterations == result.sat_stats["value_conflicts"] >= 1
