"""Constraint encoding of one recorded execution (paper Section 3).

The full formula is ``F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo`` over two kinds
of unknowns: an order variable ``O_s`` per SAP and a value variable per
read.  :func:`encode` builds a :class:`ConstraintSystem` from the per-thread
symbolic summaries; the solvers in :mod:`repro.solver` consume it.
"""

from repro.constraints.model import (
    ConstraintSystem,
    OLt,
    RFChoice,
    SWChoice,
    INIT,
)
from repro.constraints.encoder import encode
from repro.constraints.context_switch import (
    count_context_switches,
    thread_segments,
)
from repro.constraints.stats import ConstraintStats

__all__ = [
    "ConstraintSystem",
    "OLt",
    "RFChoice",
    "SWChoice",
    "INIT",
    "encode",
    "count_context_switches",
    "thread_segments",
    "ConstraintStats",
]
