"""The paper's running example (Figures 2-4): an SC bug and a PSO-only bug.

``figure2`` has two assertions:

* ``assert1`` (in main): a racy counter makes ``c == 2`` fail under plain
  sequential consistency when the increments interleave badly;
* ``assert2`` (in t2): message-passing through ``x`` (data) and ``y``
  (flag).  t2 sees ``y == 1`` but ``x == 0`` — possible only when t1's two
  stores drain from its store buffer out of order, i.e. only under PSO.
  (TSO preserves store-store order; the paper's Figure 2 makes exactly
  this distinction.)

This example reproduces both failures and prints two different
bug-reproducing schedules for the PSO case — the original-style one and
the minimal-context-switch one — mirroring the paper's Figure 4.

Run:  python examples/figure2_pso.py
"""

from repro.bench.programs import figure2
from repro.core.clap import ClapConfig, ClapPipeline
from repro.constraints.context_switch import count_context_switches
from repro.solver.parallel import solve_generate_validate
from repro.solver.smt import solve_constraints


def show_schedule(title, system, schedule):
    switches = count_context_switches(schedule, system.summaries)
    print("  %s (%d context switches):" % (title, switches))
    print("    " + " -> ".join("%s#%d" % uid for uid in schedule))


def reproduce(memory_model, want_line_marker):
    bench = figure2(memory_model=memory_model)
    config = ClapConfig(**bench.config_kwargs())
    pipeline = ClapPipeline(bench.compile(), config)
    # Keep recording until the interesting assertion is the one that fired.
    marker_line = next(
        i + 1
        for i, line in enumerate(bench.source.splitlines())
        if want_line_marker in line
    )
    recorded = None
    for seed in range(2000):
        candidate = pipeline.record_once(seed)
        if candidate.bug is not None and candidate.bug.line == marker_line:
            recorded = candidate
            break
    if recorded is None:
        raise SystemExit("the %s assertion never fired" % want_line_marker)
    print("model=%s, failure: %s" % (memory_model, recorded.bug))
    system = pipeline.analyze(recorded)
    solved = solve_constraints(system)
    assert solved.ok, solved.reason
    outcome = pipeline.replay(solved.schedule, recorded.bug)
    print("  replay reproduced:", outcome.reproduced)
    show_schedule("solver schedule", system, solved.schedule)
    # Section 4.2's incrementing-bound search, up to one switch below the
    # solver's schedule.
    switches = count_context_switches(solved.schedule, system.summaries)
    tightened = solve_generate_validate(
        system, max_cs=switches - 1, probes_per_round=16, max_seconds=20
    )
    if tightened.ok:
        show_schedule("minimal-switch schedule", system, tightened.schedule)
        outcome = pipeline.replay(tightened.schedule, recorded.bug)
        print("  minimal schedule also reproduces:", outcome.reproduced)
    print()


def main():
    print("=== Figure 2, assert1: fails under SC ===")
    reproduce("sc", "assert(c == 2)")
    print("=== Figure 2, assert2: fails only under PSO ===")
    reproduce("pso", "assert(d == 1)")


if __name__ == "__main__":
    main()
