"""The generate-and-validate solver, sequential and parallel (Section 4.3).

The driver raises the preemption bound ``c`` from 0 upward.  At each bound
it runs the value-guided bounded DFS of
:class:`~repro.solver.schedule_gen.ScheduleGenerator`; every complete
schedule it emits already satisfies Fmo, Fso and Fpath by construction.
The :class:`~repro.solver.validate.ScheduleValidator` runs each one on the
same SAP step model, adding the bug predicate, the replayer's wake policy
and the context-switch count; the independent check is the replayer
(:mod:`repro.runtime.replay`).  The first bound that yields correct
schedules stops the search, which also realizes Section 4.2's *minimal
context switches* loop ("start from zero, increment until a solution is
found").

Each round runs one deterministic probe plus seeded re-orders of the same
bounded space.  With ``workers`` set, the probes of a round fan out over
the service process pool, one probe per job; the first probe that finds
a schedule or exhausts the space cancels the rest of the round.
"""

import time
from dataclasses import dataclass, field

from repro.solver.schedule_gen import ScheduleGenerator
from repro.solver.validate import ScheduleValidator

# Good schedules one probe collects before it stops.
MAX_GOOD = 16


@dataclass
class GenerateValidateResult:
    ok: bool
    schedule: list = field(default_factory=list)
    context_switches: int = -1
    generated: int = 0
    good: int = 0
    rounds: int = 0  # the preemption bound at which schedules were found
    solve_time: float = 0.0
    # Time spent building the generator/validator structures (segment
    # maps, successor graphs).  Included in ``solve_time``: Table 2's
    # overhead accounting must charge formula construction to the solver.
    encode_time: float = 0.0
    good_schedules: list = field(default_factory=list)
    reason: str = ""
    # Parallel mode only: the service pool's bookkeeping for the run —
    # worker respawns (a probe process died and its probe was retried)
    # and cancellations (probes killed once a round had its answer).
    pool_counters: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _search_round(
    generator,
    validator,
    c,
    order_seed,
    max_schedules,
    max_steps,
    max_good,
):
    """One bounded-DFS probe; returns (n_generated, good list, exhausted).

    ``generator``/``validator`` are built once by the caller and reused
    across every probe and bound round — their construction walks the
    whole SAP graph, which used to be repeated per probe."""
    generated = 0
    good = []
    stats = {}
    for state in generator.walk(
        max_preemptions=c,
        exact_preemptions=c > 0,
        max_schedules=max_schedules,
        max_steps=max_steps,
        order_seed=order_seed,
        stats=stats,
    ):
        generated += 1
        if state.model.bug_reason() is not None:
            continue
        outcome = validator.validate(state.schedule)
        if outcome.ok:
            good.append((list(state.schedule), outcome.context_switches))
            if len(good) >= max_good:
                break
    exhausted = not stats.get("capped", True)
    return generated, good, exhausted


class _GenvalProbeJob:
    """Picklable probe executor for the service WorkerPool.

    The system ships once per worker process; the generator/validator
    structures are built lazily in the worker and cached on the
    (process-local) instance, so every probe a worker runs reuses them.
    The pool calls this with ``(spec, attempt)``; fault hooks from
    ``service.faults`` fire first so tests can kill or stall a probe
    deterministically.
    """

    def __init__(self, system, max_schedules, max_steps, max_good):
        self.system = system
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.max_good = max_good
        self._gen = None
        self._val = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_gen"] = None
        state["_val"] = None
        return state

    def __call__(self, spec, attempt):
        from repro.service.faults import maybe_kill_worker, maybe_slow_solve

        faults = spec.get("faults")
        maybe_kill_worker(faults, attempt)
        maybe_slow_solve(faults)
        if self._gen is None:
            self._gen = ScheduleGenerator(self.system)
            self._val = ScheduleValidator(self.system)
        generated, good, exhausted = _search_round(
            self._gen,
            self._val,
            spec["bound"],
            spec["seed"],
            self.max_schedules,
            self.max_steps,
            self.max_good,
        )
        return {
            "status": "done",
            "generated": generated,
            "good": [(list(s), cs) for s, cs in good],
            "exhausted": exhausted,
        }


def solve_generate_validate(
    system,
    max_cs=4,
    probes_per_round=48,
    max_schedules_per_probe=4_000,
    max_steps_per_probe=150_000,
    workers=0,
    max_seconds=None,
    faults=None,
):
    """Search for bug-reproducing schedules with increasing preemption bound.

    Section 4.2's incrementing loop: rounds c = 0, 1, 2, ... each search
    for schedules with *exactly* c interleaved segments, so the first
    round that succeeds yields a minimal-switch witness.  Each round runs
    a deterministic bounded-DFS probe plus randomized re-orders of the
    same space (sequentially, or fanned over a process pool), and each
    round is **time-sliced**: rounds below the true minimum are usually
    un-exhaustible dead space, so they may not starve the round where the
    witnesses live.  A round whose deterministic probe exhausts the space
    outright is skipped immediately.

    Returns a :class:`GenerateValidateResult`; the returned schedule has
    the fewest context switches among the good ones found at the minimal
    bound.
    """
    start = time.monotonic()
    # Formula construction — the SAP successor graph, segment maps and
    # validator state — happens once, is reused by every probe of every
    # round, and is charged to ``solve_time`` (``encode_time`` records it
    # separately for the Table-2 overhead split).
    generator = ScheduleGenerator(system)
    validator = ScheduleValidator(system)
    encode_time = time.monotonic() - start
    round_slice = None
    if max_seconds is not None:
        round_slice = max_seconds / (max_cs + 1)
    total_generated = 0
    pool_counters = {}

    def fold_counters(counters):
        for key, value in counters.items():
            pool_counters[key] = pool_counters.get(key, 0) + value

    seeds = [None] + list(range(1, probes_per_round))
    for c in range(max_cs + 1):
        elapsed = time.monotonic() - start
        if max_seconds is not None and elapsed > max_seconds:
            return GenerateValidateResult(
                False,
                generated=total_generated,
                rounds=c,
                solve_time=elapsed,
                encode_time=encode_time,
                reason="timeout",
                pool_counters=pool_counters,
            )
        round_start = time.monotonic()

        def round_expired():
            if max_seconds is not None and time.monotonic() - start > max_seconds:
                return True
            return (
                round_slice is not None
                and time.monotonic() - round_start > round_slice
            )

        if workers:
            generated, good, counters = _run_parallel(
                system,
                c,
                seeds,
                max_schedules_per_probe,
                max_steps_per_probe,
                MAX_GOOD,
                workers,
                faults=faults,
            )
            fold_counters(counters)
        else:
            generated = 0
            good = []
            for seed in seeds:
                if round_expired():
                    break
                n, g, exhausted = _search_round(
                    generator,
                    validator,
                    c,
                    seed,
                    max_schedules_per_probe,
                    max_steps_per_probe,
                    MAX_GOOD,
                )
                generated += n
                good.extend(g)
                if good:
                    break
                if exhausted:
                    # The deterministic walk covered the entire bounded
                    # space: randomized re-orders of an empty space are
                    # pointless; move to the next bound.
                    break
        total_generated += generated
        if good:
            good.sort(key=lambda pair: pair[1])
            schedule, switches = good[0]
            return GenerateValidateResult(
                True,
                schedule=schedule,
                context_switches=switches,
                generated=total_generated,
                good=len(good),
                rounds=c,
                solve_time=time.monotonic() - start,
                encode_time=encode_time,
                good_schedules=[s for s, _ in good],
                pool_counters=pool_counters,
            )
    return GenerateValidateResult(
        False,
        generated=total_generated,
        rounds=max_cs,
        solve_time=time.monotonic() - start,
        encode_time=encode_time,
        reason="no correct schedule within %d context switches" % max_cs,
        pool_counters=pool_counters,
    )


def _run_parallel(
    system, c, seeds, max_schedules, max_steps, max_good, workers, faults=None
):
    """One probe seed per job over the service WorkerPool; the first good
    (or exhausting) probe cancels the rest of the round.

    Returns ``(generated, good, pool_counters)``.  The old
    ProcessPoolExecutor version hung the whole round when a worker died
    mid-probe (``future.result()`` raised BrokenProcessPool and poisoned
    the executor); the service pool detects the silent death, respawns
    the worker and retries the probe up to its ``max_attempts``, so an
    injected ``kill_worker`` fault now costs one retry, not the round.
    """
    from repro.service.pool import WorkerPool

    job = _GenvalProbeJob(system, max_schedules, max_steps, max_good)
    specs = []
    for seed in seeds:
        spec = {
            "entry_id": "probe-%s" % ("det" if seed is None else seed),
            "bound": c,
            "seed": seed,
            "timeout": 120.0,
            "max_attempts": 3,
            "backoff": 0.05,
        }
        if faults:
            spec["faults"] = faults
        specs.append(spec)
    pool = WorkerPool(job, jobs=workers)
    generated = [0]
    good = []

    def on_outcome(index, outcome):
        if outcome.get("status") != "done":
            return
        generated[0] += outcome["generated"]
        good.extend(
            (schedule, switches) for schedule, switches in outcome["good"]
        )
        if outcome["good"] or outcome["exhausted"]:
            pool.stop_remaining()

    pool.run(specs, on_outcome=on_outcome)
    return generated[0], good, dict(pool.counters)
