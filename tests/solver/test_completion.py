"""The search decides the choices; the order theory completes the order.

Order atoms are kept out of the SAT core's decisions
(:meth:`~repro.solver.cdcl.CDCLSolver.never_decide`).  Once every
reads-from and signal-wait choice is assigned and propagation and the
theories are at their fixpoint, the order theory completes the open atoms
from its topological order, and the core checks what the completion could
falsify: the clauses watching a literal it made false, and Frw's no-middle
records of the chosen reads.  A falsified clause becomes one decision.

Differential checks, against the frozen reference core
(:mod:`repro.solver.cdcl_reference`, which decides every atom and gets
all of F's clauses up front):

* every model the search hands to its final check satisfies F: each of
  the reference core's clauses and units, and an acyclic order.  Leaving
  out either half of the completion's check breaks this;
* the verdict is the reference core's.  On the 15- and 20-iteration
  ``flight`` runs the reference search takes 6-24 s, so there the
  schedule below stands as the proof of the SAT verdict;
* a returned schedule passes the :class:`ScheduleValidator` and replays
  the recorded failure;
* the bound loop's answer on the solver golden's ``BOUNDED`` programs is
  unchanged.

Inputs: programs from :func:`tests.test_differential.generate_program`,
the two-worker litmus generator of
``tests/analysis/test_robustness_property.py`` under SC, TSO and PSO,
Table 1 and the seven ``flight`` configurations.
"""

import random

import pytest

from repro.bench.programs import TABLE1_NAMES
from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime.replay import replay_schedule
from repro.solver import cdcl_reference
from repro.solver.smt import ClapSmtSolver, solve_constraints_bounded
from repro.solver.validate import ScheduleValidator

from tests.analysis.test_robustness_property import emit_source, gen_litmus
from tests.constraints.test_hb_differential import table1_artifacts
from tests.solver.test_solver_golden import BOUNDED, _failing_runs, _pipelines
from tests.test_differential import generate_program

MAX_SECONDS = 60

# The bound loop's (ok, bound, switches) on the first failing run of each
# of the solver golden's BOUNDED programs, as the search that decided
# every order atom found them.
BOUNDED_ANSWERS = {
    "pbzip2": (False, -1, -1),
    "swarm": (True, 0, 0),
    "pfscan": (True, 1, 1),
    "apache": (True, 2, 2),
    "racey": (True, 2, 2),
    "dekker": (True, 3, 3),
}


class _CheckedSolver(ClapSmtSolver):
    """The default solver, checking each model its search examines
    against F as the reference core holds it."""

    def __init__(self, system, clauses):
        super().__init__(system)
        self.clauses = clauses
        self.examined = 0

    def _try_model(self, combo_cache=None, reject_guard=None):
        model = self.sat.model()
        for clause in self.clauses:
            assert any(model.get(abs(lit)) is (lit > 0) for lit in clause), (
                "a model falsifies %r" % (clause,)
            )
        _adjacency, cycle = self._check_order(self._order_edges(model))
        assert cycle is None, "a model orders the SAPs cyclically"
        self.examined += 1
        return super()._try_model(combo_cache, reject_guard)


def reference_clauses(reference):
    """F as the reference core was loaded with it: its clauses plus its
    level-0 units."""
    sat = reference.sat
    return [list(clause) for clause in sat.clauses] + [[lit] for lit in sat.trail]


def assert_completion_sound(pipeline, recorded, system, verdict=True):
    reference = ClapSmtSolver(system, sat_factory=cdcl_reference.CDCLSolver)
    solver = _CheckedSolver(system, reference_clauses(reference))
    got = solver.solve(max_seconds=MAX_SECONDS)
    if verdict or not got.ok:
        want = reference.solve(max_seconds=MAX_SECONDS)
        assert got.ok == want.ok, (got.reason, want.reason)
    if not got.ok:
        return got
    assert solver.examined >= 1
    assert ScheduleValidator(system).validate(got.schedule).ok
    replayed = replay_schedule(
        pipeline.program,
        got.schedule,
        memory_model=pipeline.config.memory_model,
        shared=recorded.shared,
        expected_bug=recorded.bug,
    )
    assert replayed.reproduced
    return got


def test_generated_programs():
    solved = 0
    for trial in range(24):
        source = generate_program(random.Random(5000 + trial))
        pipeline = ClapPipeline(
            source, ClapConfig(stickiness=0.35, flush_prob=0.15)
        )
        failing = _failing_runs(pipeline, range(40), 1)
        if not failing:
            continue
        system = pipeline.analyze(failing[0])
        solved += assert_completion_sound(pipeline, failing[0], system).ok
    assert solved >= 10


@pytest.mark.parametrize("model", ("sc", "tso", "pso"))
def test_litmus_programs(model):
    solved = 0
    for seed in range(12):
        threads = gen_litmus(random.Random(seed))
        source = emit_source(threads, 2).replace(
            "    return 0;\n}", "    assert(g0 == -1);\n    return 0;\n}"
        )
        pipeline = ClapPipeline(
            source, ClapConfig(memory_model=model, seeds=range(5))
        )
        recorded = pipeline.record()
        got = assert_completion_sound(pipeline, recorded, pipeline.analyze(recorded))
        solved += got.ok
    assert solved == 12


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1(name):
    pipeline, recorded, system = table1_artifacts(name)
    assert assert_completion_sound(pipeline, recorded, system).ok


def test_flight_configs():
    checked = 0
    for group, pipeline, seeds, _runs in _pipelines():
        if not group.startswith("flight/"):
            continue
        for recorded in _failing_runs(pipeline, seeds, 1):
            system = pipeline.analyze(recorded)
            verdict = group.startswith("flight/i10")
            assert assert_completion_sound(pipeline, recorded, system, verdict).ok
            checked += 1
    assert checked == 7


def test_bound_loop_answers_unchanged():
    answers = {}
    for group, pipeline, seeds, _runs in _pipelines():
        name = group.split("/")[1]
        if name not in BOUNDED:
            continue
        (recorded,) = _failing_runs(pipeline, seeds, 1)
        result = solve_constraints_bounded(pipeline.analyze(recorded))
        answers[name] = (result.ok, result.bound, result.context_switches)
    assert answers == BOUNDED_ANSWERS
