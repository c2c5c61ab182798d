"""Constraint solvers for CLAP.

Two engines, matching the paper's Section 4:

* :mod:`repro.solver.smt` — a monolithic CDCL(T) solver (the stand-in for
  STP): a CDCL SAT core over reads-from/signal-wait choices and order
  atoms, an order theory (cycle detection over strict precedence atoms),
  and a values theory (:mod:`repro.solver.values`) that evaluates each
  expression of ``Fpath ∧ Fbug`` inside the search, once reads-from
  choices pin the values it depends on.
* :mod:`repro.solver.parallel` — the generate-and-validate algorithm of
  Section 4.3: preemption-bounded schedule generation (stacks for SC,
  SAP-trees for TSO/PSO) with per-candidate linear validation, run either
  sequentially or on a worker pool.
"""

from repro.solver.cdcl import CDCLSolver, SAT, UNSAT
from repro.solver.smt import SmtResult, solve_constraints
from repro.solver.validate import ScheduleValidator, validate_schedule
from repro.solver.parallel import (
    GenerateValidateResult,
    solve_generate_validate,
)

__all__ = [
    "CDCLSolver",
    "SAT",
    "UNSAT",
    "SmtResult",
    "solve_constraints",
    "ScheduleValidator",
    "validate_schedule",
    "GenerateValidateResult",
    "solve_generate_validate",
]
