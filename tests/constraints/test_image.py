"""The encoder's integer image satisfies what the solver's bulk loader
assumes.

``ClapSmtSolver`` hands the image to ``CDCLSolver.load`` without the
per-clause dedupe and tautology scan of ``add_clause``, so the encoder
must guarantee, and this check asserts, that

* every variable is in ``1 … n`` and the atom table is canonical: an
  order atom is ``O_lo < O_hi`` with ``lo < hi``, and no atom has two
  variables;
* no clause or group holds a literal twice or a literal and its
  negation, and each kind has its shape (rf pairs aligned with
  ``rf_candidates``, groups of positive choice literals, universe pairs
  of order literals);
* the numbering is the first-appearance order over F's clauses in the
  order the solver loads them (Fso, the rf clauses read by read, the
  goals, the exactly-one groups, the at-most-one groups), followed by
  the write pairs of the Frw universes.  The oracle is the numbering
  pass the encoder used to run after encoding, kept here.

The check is a test, not a runtime mode.  It runs over the Table-1
programs, the pipeline benchmark's ``flight`` configurations, generated
two-worker litmus programs under SC, TSO and PSO, and an explore-style
system with goal clauses.
"""

import random

import pytest

from repro.bench.programs import TABLE1_NAMES
from repro.constraints.encoder import encode
from repro.constraints.model import (
    ORDER,
    RF,
    SW,
    OLt,
    RFChoice,
    SWChoice,
    clause_groups,
)
from repro.core.clap import ClapConfig, ClapPipeline

from tests.analysis.test_robustness_property import emit_source, gen_litmus
from tests.conftest import RACE_SRC
from tests.constraints.test_hb_differential import table1_artifacts
from tests.solver.test_solver_golden import _failing_runs, _pipelines

GENERATED_SEEDS = 20
# RACE_SRC plus a global that main reads before it writes it: that read
# has no write candidate, so its rf(r, init) first appears in its
# exactly-one group, after the goals.
GOAL_SRC = (
    RACE_SRC.replace("int c = 0;", "int c = 0;\nint d = 0;")
    .replace("int r = c;", "int r = c + d;")
    .replace("    int t1 = 0;", "    int q = d;\n    int t1 = 0;")
    .replace("    assert(c == 4);", "    d = q + 1;\n    assert(c == 4);")
)


def assign_atom_numbering(groups):
    """The numbering pass over object-level clause groups: atoms are
    numbered ``1 … n`` in first-appearance order, order atoms under
    their ``lo < hi`` key — one variable for both directions."""
    numbering = {}

    def note(atom):
        if isinstance(atom, OLt):
            if atom.a == atom.b:
                return
            lo, hi = (atom.a, atom.b) if atom.a < atom.b else (atom.b, atom.a)
            key = ("O", lo, hi)
        else:
            key = atom
        if key not in numbering:
            numbering[key] = len(numbering) + 1

    for group in groups:
        for clause in group:
            for atom in clause:
                note(atom)
    return numbering


def _rf_clauses(system):
    start = 0
    for sources in system.rf_candidates.values():
        end = start + 2 * (len(sources) - 1)
        for flat in (system.rf_before, system.rf_init):
            for i in range(start, end, 2):
                yield flat[i : i + 2]
        start = end


def check_image(system):
    n = system.n_vars
    atoms, kinds = system.atoms, system.atom_kinds
    assert len(kinds) == n + 1 and atoms[0] is None
    assert all(kinds[var] in (ORDER, RF, SW) for var in range(1, n + 1))
    assert len(set(zip(atoms[1:], kinds[1:]))) == n, "an atom has two variables"
    for var in range(1, n + 1):
        if kinds[var] == ORDER:
            lo, hi = atoms[var]
            assert lo < hi, "order atom %d is not canonical" % var

    def assert_clause(lits, kind=None, positive=False):
        variables = [abs(lit) for lit in lits]
        assert lits and all(1 <= var <= n for var in variables), lits
        assert len(set(variables)) == len(lits), "repeated variable: %r" % lits
        if kind is not None:
            assert all(kinds[var] == kind for var in variables), lits
        if positive:
            assert all(lit > 0 for lit in lits), lits

    sync = list(clause_groups(system.sync))
    goals = list(clause_groups(system.goals))
    rf = list(_rf_clauses(system))
    k_total = sum(len(s) - 1 for s in system.rf_candidates.values())
    assert len(system.rf_before) == len(system.rf_init) == 2 * k_total
    for clause in sync + goals:
        assert_clause(clause)
    for not_rf, order in rf:
        assert not_rf < 0 and kinds[-not_rf] == RF and kinds[abs(order)] == ORDER
    rf_one = list(clause_groups(system.rf_one))
    at_most_one = list(clause_groups(system.sw_once)) + list(
        clause_groups(system.rf_horizon)
    )
    for group in list(clause_groups(system.sw_once)):
        assert_clause(group, SW, positive=True)
    for group in rf_one + list(clause_groups(system.rf_horizon)):
        assert_clause(group, RF, positive=True)
    assert len(rf_one) + system.rf_horizon.count(0) == len(system.rf_candidates)
    pair_atoms = []
    for writes, pairs, reads in system.universes:
        assert len(pairs) % 3 == 0
        for t in range(0, len(pairs), 3):
            j, i, lit = pairs[t : t + 3]
            assert i != j and 0 <= i < len(writes) and 0 <= j < len(writes)
            assert_clause([lit], ORDER)
            assert OLt(writes[j], writes[i]) == _asserted(system, lit)
            pair_atoms.append([_asserted(system, lit)])
        for read, offset, ids in reads:
            sources = system.rf_candidates[read]
            assert [writes[i] for i in ids] == sources[:-1]
            choice = -system.rf_before[2 * offset]
            assert atoms[choice] == (read, sources[0])

    decoded = [
        [_asserted(system, lit) for lit in clause] for clause in sync + rf + goals
    ]
    oracle = assign_atom_numbering(
        (
            decoded,
            [[_asserted(system, lit) for lit in g] for g in rf_one],
            [[_asserted(system, lit) for lit in g] for g in at_most_one],
            pair_atoms,
        )
    )
    assert len(oracle) == n, "a variable is in no clause, group or universe"
    for var in range(1, n + 1):
        atom = _asserted(system, var)
        key = ("O", atom.a, atom.b) if kinds[var] == ORDER else atom
        assert oracle[key] == var, "variable %d (%r) is out of order" % (var, atom)


def _asserted(system, lit):
    """The atom ``lit`` asserts, for the oracle (a negated choice as
    the choice: the numbering ignores polarity)."""
    a, b = system.atoms[abs(lit)]
    atom = (OLt, RFChoice, SWChoice)[system.atom_kinds[abs(lit)]](a, b)
    if isinstance(atom, OLt) and lit < 0:
        return atom.negated()
    return atom


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_image(name):
    _pipeline, _recorded, system = table1_artifacts(name)
    check_image(system)


def test_flight_images():
    checked = 0
    for group, pipeline, seeds, _runs in _pipelines():
        if not group.startswith("flight/"):
            continue
        for recorded in _failing_runs(pipeline, seeds, 1):
            system = pipeline.analyze(recorded)
            check_image(system)
            checked += 1
            assert system.horizon_stats or "unbounded" in group
    assert checked == 7


@pytest.mark.parametrize("model", ("sc", "tso", "pso"))
def test_generated_program_images(model):
    for seed in range(GENERATED_SEEDS):
        threads = gen_litmus(random.Random(seed))
        source = emit_source(threads, 2).replace(
            "    return 0;\n}", "    assert(g0 == -1);\n    return 0;\n}"
        )
        pipeline = ClapPipeline(source, ClapConfig(memory_model=model, seeds=range(5)))
        check_image(pipeline.analyze(pipeline.record()))


def test_goal_clauses_image():
    pipeline = ClapPipeline(GOAL_SRC, ClapConfig(stickiness=0.3))
    recorded = pipeline.record()
    summaries, _ = pipeline.summarize(recorded)
    system = encode(
        summaries, "sc", pipeline.program.symbols, pipeline.shared
    )
    read, sources = next(
        (r, s) for r, s in system.rf_candidates.items() if len(s) >= 3
    )
    first, second = sources[0], sources[1]
    goals = (OLt(read, second), OLt(second, first))
    with_goals = encode(
        summaries, "sc", pipeline.program.symbols, pipeline.shared, goals=goals
    )
    check_image(with_goals)
    assert any(len(s) == 1 for s in with_goals.rf_candidates.values())
    assert [_asserted(with_goals, lit) for lit in with_goals.goals if lit] == list(
        goals
    )
