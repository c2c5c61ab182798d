"""A solver is freed by reference counting alone.

The theories on the SAT core's hook hold plain data — the core's
``assign`` list and stats object, node tables — never the core or the
:class:`ClapSmtSolver`.  A back-reference (say, a completion hook bound
to the solver) would put every solver in a reference cycle: its whole
constraint system would then wait for the cyclic collector, and the
benchmark's ``peak_rss_mb`` rises with it.  With the collector off,
dropping the last reference to a solved solver must free it and every
theory.
"""

import gc
import weakref

from repro.solver.smt import ClapSmtSolver

from tests.constraints.test_hb_differential import table1_artifacts
from tests.solver.test_solver_golden import _failing_runs, _pipelines


def assert_freed_by_refcount(system):
    enabled = gc.isenabled()
    gc.disable()
    try:
        solver = ClapSmtSolver(system)
        assert solver.solve(max_seconds=60).ok
        parts = (solver, solver.sat, solver.values, solver.frw, solver.order)
        refs = [weakref.ref(part) for part in parts]
        del solver, parts
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_table1_solver_is_freed_by_refcount():
    _pipeline, _recorded, system = table1_artifacts("bbuf")
    assert_freed_by_refcount(system)


def test_flight_solver_is_freed_by_refcount():
    _group, pipeline, seeds, _runs = next(
        entry for entry in _pipelines() if entry[0] == "flight/i10-r40"
    )
    (recorded,) = _failing_runs(pipeline, seeds, 1)
    assert_freed_by_refcount(pipeline.analyze(recorded))
