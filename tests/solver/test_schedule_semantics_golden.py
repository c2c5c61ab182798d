"""Golden digests of the schedule semantics shared by the solvers.

Three components apply the same SAP step rules (memory, locks, fork/join,
wait/signal and the wait re-lock): the generate-and-validate generator,
the schedule validator and the SMT solver's canonical linearizer.  For
each Table-1 program, recorded under a fixed seed, and for three passing
condvar runs (the Table-1 condvar programs yield no schedule at these
bounds), this test digests

* the step-capped ``generate()`` sequence at bounds 0-2, with the
  validator's ``(ok, reason, context_switches)`` for each schedule;
* the validator's verdicts on perturbed schedules (adjacent swaps);
* ``_linearize_feasible`` and ``_canonical_combo_solution`` on a fixed
  set of reads-from/signal-wait combos taken from that sweep, with and
  without the signal-wait pairs.

Any change to a step rule, a wake policy or an exploration order shows up
as a digest mismatch.  The digests do not depend on ``PYTHONHASHSEED``.
To print fresh ones (only after an intended semantic change), run::

    PYTHONPATH=src python -m tests.solver.test_schedule_semantics_golden
"""

import hashlib

import pytest

from repro.bench.programs import TABLE1_NAMES, get_benchmark
from repro.constraints.model import INIT, AtomTable
from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime import events as ev
from repro.solver.schedule_gen import ScheduleGenerator
from repro.solver.smt import ClapSmtSolver
from repro.solver.validate import ScheduleValidator

from tests.conftest import CONDVAR_SRC
from tests.solver.test_schedule_gen import TWO_WAITER_SRC

# The first failing scheduler seed of each program, with the search
# settings that make dekker's and bakery's failures cheap to find.
RECORDING = {
    "sim_race": (0, {}),
    "pbzip2": (2, {}),
    "aget": (0, {}),
    "bbuf": (0, {}),
    "swarm": (0, {}),
    "pfscan": (5, {}),
    "apache": (4, {}),
    "racey": (0, {}),
    "bakery": (1, {"flush_prob": 0.005}),
    "dekker": (1, {"max_steps": 20_000}),
    "peterson": (0, {}),
}
# Passing condvar runs, bug predicate left out: name -> (source, seed).
BROADCAST_SRC = TWO_WAITER_SRC.replace("signal(cv)", "broadcast(cv)")
PASSING = {
    "condvar": (CONDVAR_SRC, 3),
    "two_waiters": (TWO_WAITER_SRC, 0),
    "broadcast": (BROADCAST_SRC, 0),
}
NAMES = list(TABLE1_NAMES) + list(PASSING)
BOUNDS = (0, 1, 2)
MAX_STEPS = 4_000  # per bound
PERTURBED = 40  # sampled schedules per program, each swapped at 3 places
COMBOS = 4  # sampled schedules whose combos are linearized

# name -> (schedules generated, generation digest, perturbation digest,
#          linearization digest)
GOLDEN = {
    'sim_race': (1269, 'bb3cbf92ed176313', 'f5927aa2f8964c54', '03c7c2df7a48e849'),
    'pbzip2': (0, '63d4cde640ccde94', 'e3b0c44298fc1c14', 'e3b0c44298fc1c14'),
    'aget': (756, '7de215e0741e09f7', '5b50c67ade5e38e7', 'e49072e93393a04c'),
    'bbuf': (0, '6d406ef02dcdfdec', 'e3b0c44298fc1c14', 'e3b0c44298fc1c14'),
    'swarm': (1185, '93b85b07d71b2a5f', 'f5265aa8ea0646ed', '6dfe7a54b2768142'),
    'pfscan': (896, 'd05b1873779e1451', 'a9fc8be698a0494b', '34ad3c8feed60470'),
    'apache': (134, 'c97816df1bc02f26', 'a79e24321692de8f', '830858435a9b3ea6'),
    'racey': (297, '4e5b6ce93d722e44', 'e9d546c657bc8c27', '1dfddef223a84718'),
    'bakery': (684, '1b582304f4b7ab35', '8d9055028f7f8e17', 'bda67ac9daea94e9'),
    'dekker': (0, '61b971cce5a3da5e', 'e3b0c44298fc1c14', 'e3b0c44298fc1c14'),
    'peterson': (0, '6d406ef02dcdfdec', 'e3b0c44298fc1c14', 'e3b0c44298fc1c14'),
    'condvar': (90, '10dcb22dd298bd0e', '6a45460d294fd1cf', '33480a47083ca91c'),
    'two_waiters': (143, '4b9b766d3db69f16', '1221f2f9edd19eb9', '927a28032acd3df0'),
    'broadcast': (273, 'f53c4824a2e320f1', 'cf99461c2d7f9169', '0b03127e31b38b5e'),
}


def _system(name):
    if name in PASSING:
        return _passing_system(*PASSING[name])
    bench = get_benchmark(name)
    seed, overrides = RECORDING[name]
    kwargs = bench.config_kwargs()
    kwargs.update(overrides)
    pipeline = ClapPipeline(bench.compile(), ClapConfig(**kwargs))
    recorded = pipeline.record_once(seed)
    assert recorded.bug is not None, name
    return pipeline.analyze(recorded)


def _passing_system(source, seed):
    from repro.analysis.symexec import execute_recorded_paths
    from repro.constraints.memory_order import encode_memory_order
    from repro.constraints.model import ConstraintSystem
    from repro.constraints.sync_order import encode_sync_order
    from repro.tracing.decoder import decode_log

    pipeline = ClapPipeline(source, ClapConfig(stickiness=0.4))
    recorded = pipeline.record_once(seed)
    assert recorded.bug is None
    summaries = execute_recorded_paths(
        pipeline.program,
        decode_log(recorded.recorder),
        pipeline.shared,
        bug=None,
    )
    system = ConstraintSystem(memory_model="sc", summaries=summaries)
    for summary in summaries.values():
        for sap in summary.saps:
            system.saps[sap.uid] = sap
        system.conditions.extend(summary.conditions)
    for info in pipeline.program.symbols.globals.values():
        if info.is_data and info.name in pipeline.shared:
            system.initial_values[(info.name,)] = info.init
    edges, per_thread = encode_memory_order(summaries, "sc")
    system.hard_edges.extend(edges)
    system.thread_order = per_thread
    # The fork/join and wait edges the encoder adds to every system.
    system.hard_edges.extend(encode_sync_order(summaries, AtomTable())[0])
    return system


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _verdict(outcome):
    return (outcome.ok, outcome.reason, outcome.context_switches)


def _sample(items, count):
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def _combo(system, schedule):
    """The reads-from map and ``(signal, wait)`` pairs ``schedule`` exhibits:
    each read reads the last earlier write, each wait pairs with the
    last earlier signal or broadcast on its condvar."""
    rf = {}
    sw = []
    last_write = {}
    last_signal = {}
    for uid in schedule:
        sap = system.saps[uid]
        if sap.kind == ev.READ:
            rf[uid] = last_write.get(sap.addr, INIT)
        elif sap.kind == ev.WRITE:
            last_write[sap.addr] = uid
        elif sap.kind in (ev.SIGNAL, ev.BROADCAST):
            last_signal[sap.addr] = uid
        elif sap.kind == ev.WAIT and sap.addr in last_signal:
            sw.append((last_signal[sap.addr], uid))
    return rf, sw


def _linearizations(system, solver, rf, sw):
    adjacency = {uid: [] for uid in system.saps}
    for edge in system.hard_edges:
        adjacency[edge.a].append((edge.b, None))
    for read, source in sorted(rf.items()):
        if source != INIT:
            adjacency[source].append((read, None))
    for signal, wait in sw:
        adjacency[signal].append((wait, None))
    wake_map = dict(sw)
    out = []
    for start in sorted(system.summaries):
        for budget in (1200, 40):
            out.append(
                solver._linearize_feasible(
                    adjacency,
                    rf,
                    start_thread=start,
                    wake_map=wake_map,
                    node_budget=budget,
                )
            )
    canonical = solver._canonical_combo_solution(rf, sw)
    if canonical is not None:
        canonical = (canonical[0], _verdict(canonical[1]))
    out.append(canonical)
    return out


def sweep(name):
    """(count, generation, perturbation, linearization digests) of one
    program."""
    system = _system(name)
    generator = ScheduleGenerator(system)
    validator = ScheduleValidator(system)
    generated = []
    records = []
    for c in BOUNDS:
        stats = {}
        for schedule in generator.generate(
            max_preemptions=c,
            exact_preemptions=c > 0,
            max_steps=MAX_STEPS,
            stats=stats,
        ):
            schedule = list(schedule)
            generated.append(schedule)
            records.append((c, schedule, _verdict(validator.validate(schedule))))
        records.append((c, stats["steps"], stats["capped"]))

    perturbed = []
    for schedule in _sample(generated, PERTURBED):
        n = len(schedule)
        for i in (1, n // 2, n - 2):
            swapped = list(schedule)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            perturbed.append((swapped, _verdict(validator.validate(swapped))))
    if generated:
        perturbed.append(_verdict(validator.validate(generated[0][:-1])))
        perturbed.append(
            _verdict(validator.validate(generated[0][:-1], check_complete=False))
        )

    solver = ClapSmtSolver(system)
    linearized = []
    for schedule in _sample(generated, COMBOS):
        n = len(schedule)
        swapped = list(schedule)
        swapped[n // 2], swapped[n // 2 + 1] = swapped[n // 2 + 1], swapped[n // 2]
        for source in (schedule, swapped):
            rf, sw = _combo(system, source)
            linearized.append(_linearizations(system, solver, rf, sw))
            # No intended waiters: every signal takes the default wake.
            linearized.append(_linearizations(system, solver, rf, []))
    return (
        len(generated),
        _digest(records),
        _digest(perturbed),
        _digest(linearized),
    )


@pytest.mark.parametrize("name", NAMES)
def test_schedule_semantics_golden(name):
    assert sweep(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in NAMES:
        print("    %r: %r," % (name, sweep(name)))
