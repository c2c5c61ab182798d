"""Minimal-context-switch schedule search (paper Section 4.2).

"We can start from the constraint with zero thread context switch, and
increment the context switch number when the solver fails to return a
solution.  We repeat this process until a solution is found.  In this way,
we can always produce a schedule with the fewest thread context switches
among all the bug-reproducing schedules."

The generate-and-validate engine already implements the incrementing loop;
this module packages it as a post-pass that tries to tighten a schedule
computed by the monolithic CDCL(T) solver, whose greedy linearization is
only heuristically frugal with switches.  ``ClapPipeline`` does not call
it; the Figure 4 benchmark (``benchmarks/test_fig4_solutions.py``) and
the tests do.
"""

from dataclasses import dataclass

from repro.constraints.context_switch import count_context_switches
from repro.solver.parallel import solve_generate_validate


@dataclass
class MinimizeResult:
    schedule: list
    context_switches: int
    improved: bool
    searched_rounds: int


def minimize_context_switches(
    system,
    baseline_schedule,
    max_seconds=30.0,
    probes_per_round=16,
    workers=0,
):
    """Try to beat ``baseline_schedule``'s switch count.

    Runs the incrementing-bound search up to one switch *below* the
    baseline; returns the better schedule if one exists within budget,
    otherwise the baseline unchanged.
    """
    baseline_cs = count_context_switches(baseline_schedule, system.summaries)
    if baseline_cs <= 0:
        return MinimizeResult(baseline_schedule, baseline_cs, False, 0)
    result = solve_generate_validate(
        system,
        max_cs=baseline_cs - 1,
        probes_per_round=probes_per_round,
        workers=workers,
        max_seconds=max_seconds,
    )
    if result.ok and result.context_switches < baseline_cs:
        return MinimizeResult(
            result.schedule, result.context_switches, True, result.rounds
        )
    return MinimizeResult(baseline_schedule, baseline_cs, False, result.rounds)
