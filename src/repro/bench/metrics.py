"""Recording-overhead metrics (Table 2's measurement substrate).

The paper measures wall-clock slowdown of compiled C programs; a Python
interpreter's wall clock would mostly measure interpreter overhead, so the
primary metric here is a **simulated cost model** over dynamic counts:

* every executed bytecode instruction costs 1 unit (native baseline);
* each Ball-Larus instrumentation action (counter increment, path-id log
  append) costs ``bl_op_cost`` units — a couple of arithmetic instructions
  in a compiled build;
* each LEAP instrumentation action costs ``leap_op_cost`` units — LEAP
  takes a per-variable lock around every shared access (the recorder
  counts acquire/append/release as 3 actions), and a synchronized
  operation is an order of magnitude pricier than an increment.

Log sizes need no model: both recorders serialize their logs and we count
bytes.  Wall-clock times of the hooked interpreter runs are reported as a
secondary column.

The same seed is used for the native/CLAP/LEAP runs, so all three observe
the same interleaving (recorder hooks draw no randomness).
"""

import time
from dataclasses import dataclass

from repro.runtime.interpreter import Interpreter
from repro.runtime.scheduler import RandomScheduler
from repro.tracing.leap import LeapRecorder
from repro.tracing.recorder import PathRecorder


@dataclass
class CostModel:
    instruction_cost: float = 1.0
    bl_op_cost: float = 1.5
    leap_op_cost: float = 8.0  # per action; LEAP does 3 actions per access


@dataclass
class OverheadRow:
    """One Table 2 row."""

    name: str
    native_units: float = 0.0
    clap_units: float = 0.0
    leap_units: float = 0.0
    clap_overhead_pct: float = 0.0
    leap_overhead_pct: float = 0.0
    time_reduction_pct: float = 0.0  # CLAP overhead vs LEAP overhead
    clap_log_bytes: int = 0
    leap_log_bytes: int = 0
    space_reduction_pct: float = 0.0
    native_wall: float = 0.0
    clap_wall: float = 0.0
    leap_wall: float = 0.0


def measure_overhead(bench, seed=0, model=None, shared=None):
    """Run one benchmark natively, with the CLAP recorder, and with the
    LEAP recorder; return an :class:`OverheadRow`."""
    cost = model or CostModel()
    program = bench.compile()
    if shared is None:
        from repro.analysis.escape import shared_variables

        shared = shared_variables(program)

    def run_with(hooks):
        scheduler = RandomScheduler(
            seed, stickiness=bench.stickiness, flush_prob=bench.flush_prob
        )
        interp = Interpreter(
            program,
            memory_model=bench.memory_model,
            scheduler=scheduler,
            shared=shared,
            hooks=hooks,
            max_steps=bench.max_steps,
            collect_events=False,
        )
        t0 = time.perf_counter()
        result = interp.run()
        wall = time.perf_counter() - t0
        return interp, result, wall

    _, native_result, native_wall = run_with([])
    clap_rec = PathRecorder(program)
    clap_interp, clap_result, clap_wall = run_with([clap_rec])
    clap_rec.finalize(clap_interp)
    leap_rec = LeapRecorder(program)
    _, leap_result, leap_wall = run_with([leap_rec])

    base = native_result.total_instructions() * cost.instruction_cost
    clap_units = base + clap_rec.instrumentation_ops * cost.bl_op_cost
    leap_units = base + leap_rec.instrumentation_ops * cost.leap_op_cost

    row = OverheadRow(name=bench.name)
    row.native_units = base
    row.clap_units = clap_units
    row.leap_units = leap_units
    row.clap_overhead_pct = 100.0 * (clap_units - base) / base if base else 0.0
    row.leap_overhead_pct = 100.0 * (leap_units - base) / base if base else 0.0
    if row.leap_overhead_pct > 0:
        row.time_reduction_pct = 100.0 * (
            1.0 - row.clap_overhead_pct / row.leap_overhead_pct
        )
    row.clap_log_bytes = clap_rec.log_size_bytes()
    row.leap_log_bytes = leap_rec.log_size_bytes()
    if row.leap_log_bytes:
        row.space_reduction_pct = 100.0 * (
            1.0 - row.clap_log_bytes / row.leap_log_bytes
        )
    row.native_wall = native_wall
    row.clap_wall = clap_wall
    row.leap_wall = leap_wall
    return row


def worst_case_schedules_log10(summaries):
    """log10 of the worst-case number of interleavings of the recorded
    execution: (sum n_i)! / prod(n_i!) over per-thread SAP counts — the
    theoretical bound of [25, 27] used in Table 3, column 2."""
    import math

    counts = [len(s.saps) for s in summaries.values() if s.saps]
    total = sum(counts)
    log10 = math.lgamma(total + 1) / math.log(10)
    for n in counts:
        log10 -= math.lgamma(n + 1) / math.log(10)
    return log10
