"""End-to-end CLAP: the paper's three phases as one pipeline.

1. **Record** (:meth:`ClapPipeline.record`): run the program under a seeded
   scheduler with only the thread-local Ball-Larus path recorder attached,
   until a failure manifests.  The recorder's logs are CLAP's entire
   runtime footprint.  With ``checkpoint_steps`` (the paper's §6.4
   plan) the run is snapshotted at quiescent points and the later phases
   cover only the suffix after the last snapshot.
2. **Analyze + solve** (:meth:`ClapPipeline.analyze`,
   :meth:`ClapPipeline.solve`): decode the path logs, re-execute each
   thread symbolically, encode ``F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo``, and
   compute a SAP schedule with either the CDCL(T) solver or the
   generate-and-validate algorithm.
3. **Replay** (:meth:`ClapPipeline.replay`): enforce the computed schedule
   deterministically and check the same failure occurs.

:func:`reproduce_bug` is the one-call convenience wrapper used by the
examples and benchmarks.
"""

import time
from dataclasses import dataclass, field

from repro.minilang import compile_source
from repro.minilang.compiler import CompiledProgram
from repro.analysis.symexec import execute_recorded_paths
from repro.constraints.encoder import encode
from repro.constraints.stats import compute_stats
from repro.runtime.checkpoint import is_quiescent, take_checkpoint
from repro.runtime.interpreter import Interpreter
from repro.runtime.replay import replay_schedule
from repro.runtime.scheduler import RandomScheduler
from repro.tracing.decoder import decode_log, decode_thread_tokens
from repro.tracing.recorder import (
    FastPathRecorder,
    PathRecorder,
    RingTraceSink,
)
from repro.solver.parallel import solve_generate_validate
from repro.solver.portfolio import solve_constraints_portfolio
from repro.solver.smt import solve_constraints


class ClapError(Exception):
    pass


# The solver front doors ``ClapConfig.solver`` and every ``--solver``
# option accept.
SOLVERS = ("smt", "smt-inc", "genval")


@dataclass
class ClapConfig:
    """Knobs for the pipeline (defaults follow the paper's setup)."""

    memory_model: str = "sc"
    # Bug-triggering search (the paper's "insert delays, run many times").
    seeds: range = range(500)
    stickiness: float = 0.5
    flush_prob: float = 0.25
    max_steps: int = 2_000_000
    # Solver selection (one of SOLVERS): 'smt' (sequential, Table 1),
    # 'smt-inc' (the incremental bound loop — one SAT instance across the
    # c = 0, 1, 2, … rounds, minimizing context switches best-effort) or
    # 'genval' (generate-and-validate, Table 3).
    solver: str = "smt"
    # Reproduce the exact observed output: pin the failing thread's read
    # values to those in the "core dump" (the paper's racey methodology —
    # Fbug "could be extracted from the core dump when the program
    # crashed").  Off by default: reproducing the failure site is enough
    # for ordinary bugs, and pinning makes solving much harder.
    pin_observed_reads: bool = False
    record_candidates: int = 4
    max_cs: int = 4
    # Processes one solve may fork; 0 solves in-process.  'genval' fans
    # each round's probes over them; 'smt-inc' with 2 or more races the
    # bound ladder against one genval probe per rung.
    workers: int = 0
    smt_max_seconds: float | None = None
    # Flight-recorder mode: bound each thread's retained log to
    # ``ring_bytes`` of encoded trace (None = unbounded classic recording).
    # Sealed ``ring_segment_bytes``-sized segments are evicted oldest-first;
    # each carries a decode anchor so the surviving suffix decodes
    # standalone.  The analysis reconstructs the evicted prefix
    # (store/synthesize.py) and refuses a lossy trace whose suffix no
    # legal prefix can account for.  Ring recording uses the batched
    # fast-path token encoder; classic recording stays on the reference
    # recorder (both emit identical tokens).
    ring_bytes: int | None = None
    ring_segment_bytes: int = 512


@dataclass
class RecordedExecution:
    """Output of the online phase."""

    seed: int
    result: object  # ExecutionResult
    recorder: PathRecorder
    shared: set
    # Flight-recorder runs: the ring sink's ``info()`` snapshot (budget,
    # per-thread eviction/retention counters, anchors) and the sink itself
    # (for per-segment container serialization).  None for classic runs.
    ring: dict | None = None
    ring_sink: object = None
    # Checkpointed runs (paper §6.4): the last quiescent-point snapshot;
    # the recorder's logs then hold only the suffix after it.
    checkpoint: object = None
    n_checkpoints: int = 0
    # The memory model the run was recorded (or replay-validated) under;
    # reproduce_offline refuses a pipeline configured for another.
    memory_model: str | None = None
    # Names an execution loaded from a corpus entry in errors.
    entry_id = None

    @property
    def bug(self):
        return self.result.bug

    @property
    def lossy(self):
        """True when at least one thread's log prefix was evicted."""
        if not self.ring:
            return False
        return any(
            t.get("evicted_tokens", 0) > 0
            for t in self.ring.get("threads", {}).values()
        )

    def log_size_bytes(self):
        return self.recorder.log_size_bytes()


@dataclass
class ClapReport:
    """Everything the experiment harness reports about one reproduction."""

    program_name: str
    memory_model: str
    reproduced: bool = False
    seed: int | None = None
    bug: object = None
    n_threads: int = 0
    n_shared_vars: int = 0
    n_instructions: int = 0
    n_branches: int = 0
    n_saps: int = 0
    n_constraints: int = 0
    n_variables: int = 0
    # F's clauses the SMT solver's fixed-order closure satisfied at build
    # (0 for genval, which builds no clauses, and for a raced smt-inc
    # whose ladder worker did not finish).
    n_pruned_clauses: int = 0
    context_switches: int = -1
    time_record: float = 0.0
    time_symbolic: float = 0.0
    time_encode: float = 0.0
    time_solve: float = 0.0
    # The part of ``time_solve`` spent building the SMT solver (0 for
    # genval, which builds none, and for a raced smt-inc whose ladder
    # worker did not finish).
    time_build: float = 0.0
    time_replay: float = 0.0
    # Analysis-cache outcome for this run: 'off', 'miss' or 'hit', plus
    # the cache's own counters when one was attached.
    cache_state: str = "off"
    cache_stats: dict = field(default_factory=dict)
    log_bytes: int = 0
    solver: str = ""
    solver_detail: dict = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    failure_reason: str = ""
    # Flight-recorder runs: True when the analyzed trace was a suffix log
    # (some prefix evicted); ``recorder_metrics`` carries the ring sink's
    # counters and ``synthesis`` the prefix-synthesis report per thread.
    lossy: bool = False
    recorder_metrics: dict = field(default_factory=dict)
    synthesis: dict = field(default_factory=dict)


class ClapPipeline:
    def __init__(self, program, config=None):
        if isinstance(program, str):
            program = compile_source(program)
        if not isinstance(program, CompiledProgram):
            raise TypeError("program must be MiniLang source or CompiledProgram")
        self.program = program
        self.config = config or ClapConfig()
        self.shared = program.shared
        self.paths = program.paths

    # -- phase 1 ----------------------------------------------------------

    def record_once(self, seed, sink=None, checkpoint_steps=None):
        """One recorded run under the given scheduler seed.

        ``sink`` (a :class:`repro.tracing.recorder.StreamingTraceSink`)
        streams tokens chunk-by-chunk to durable storage as they are
        recorded; the caller owns closing it.  When the config sets
        ``ring_bytes`` and no sink is given, a
        :class:`~repro.tracing.recorder.RingTraceSink` bounds each
        thread's retained log; the recorder's logs are then the surviving
        *suffix* tokens and the returned execution carries the ring
        metadata the analysis needs.

        ``checkpoint_steps`` turns on the paper's §6.4 checkpointing:
        at the first quiescent point (:func:`is_quiescent`) at least that
        many steps after the previous checkpoint, the full state is
        snapshotted and the recorder's logs restart with ``resume``
        tokens, so the analysis covers only the suffix after the last
        snapshot and replay starts from it.
        """
        cfg = self.config
        if checkpoint_steps is not None and (
            sink is not None or cfg.ring_bytes is not None
        ):
            raise ClapError(
                "checkpointed recording does not combine with a ring or a "
                "streaming sink: the sink would keep the pre-checkpoint "
                "tokens the snapshot replaces"
            )
        if sink is None and cfg.ring_bytes is not None:
            sink = RingTraceSink(
                cfg.ring_bytes, segment_bytes=cfg.ring_segment_bytes
            )
        ring_sink = sink if isinstance(sink, RingTraceSink) else None
        recorder_cls = PathRecorder if ring_sink is None else FastPathRecorder
        recorder = recorder_cls(
            self.program,
            paths=self.paths,
            sink=sink,
            retain_logs=ring_sink is None,
        )
        scheduler = RandomScheduler(
            seed,
            stickiness=cfg.stickiness,
            flush_prob=cfg.flush_prob,
        )
        interp = Interpreter(
            self.program,
            memory_model=cfg.memory_model,
            scheduler=scheduler,
            shared=self.shared,
            hooks=[recorder],
            max_steps=cfg.max_steps,
        )
        state = {"last": 0, "checkpoint": None, "count": 0}
        step_hook = None
        if checkpoint_steps is not None:

            def step_hook(interp):
                if interp.steps - state["last"] < checkpoint_steps:
                    return
                if interp.bug is not None or not is_quiescent(interp):
                    return
                state["checkpoint"] = take_checkpoint(interp)
                recorder.checkpoint(interp)
                state["count"] += 1
                state["last"] = interp.steps

        result = interp.run(step_hook=step_hook)
        recorder.finalize(interp)
        ring = None
        if ring_sink is not None:
            # The in-memory logs become the *retained suffix*: exactly
            # what a post-mortem reader would decode from the ring.
            recorder.logs = {
                thread: list(ring_sink.suffix_tokens(thread))
                for thread in ring_sink.threads()
            }
            ring = ring_sink.info()
        return RecordedExecution(
            seed=seed,
            result=result,
            recorder=recorder,
            shared=self.shared,
            ring=ring,
            ring_sink=ring_sink,
            checkpoint=state["checkpoint"],
            n_checkpoints=state["count"],
            memory_model=cfg.memory_model,
        )

    def record(self, checkpoint_steps=None):
        """Retry seeds until a failure manifests (the paper triggers bugs
        with timing delays and repeated runs).  Among the first few failing
        runs, the one with the smallest SAP count is kept — shorter traces
        make the offline phase cheaper without changing the failure.
        ``checkpoint_steps`` is passed to :meth:`record_once`."""
        candidates = []
        for seed in self.config.seeds:
            recorded = self.record_once(seed, checkpoint_steps=checkpoint_steps)
            if recorded.bug is not None and recorded.bug.kind == "assertion":
                candidates.append(recorded)
                if len(candidates) >= self.config.record_candidates:
                    break
        if not candidates:
            raise ClapError(
                "no failure manifested in %d seeded runs" % len(self.config.seeds)
            )
        return min(candidates, key=lambda r: r.result.total_saps())

    # -- phase 2 ----------------------------------------------------------

    def analyze(self, recorded, cache=None, timings=None):
        """Decode logs, run symbolic execution, encode the constraints.

        ``cache`` (an :class:`repro.store.cache.AnalysisCache`) makes the
        front end content-addressed: a hit deserializes the stored thread
        summaries and constraint system instead of re-running symexec and
        the encoder; a miss stores the fresh result.  ``timings``, when a
        dict, receives the per-phase wall clocks (``symexec``,
        ``encode``) and the cache outcome (``cache``: hit/miss).

        A checkpointed recording is encoded as the suffix after its
        snapshot: threads that started or exited before it are marked,
        and the snapshot is the initial memory.
        """
        if timings is None:
            timings = {}
        lossy = recorded.lossy
        checkpoint = recorded.checkpoint
        material = None
        if cache is not None and (lossy or checkpoint is not None):
            # A suffix log's analysis depends on the anchors and the
            # synthesized prefix, or on the snapshot, none of which the
            # cache key (the logs) captures; never serve or store such a
            # trace from the cache.
            cache = None
            timings["cache"] = "bypass"
        if cache is not None:
            from repro.store.cache import AnalysisCache

            material = AnalysisCache.key_material(
                self.program,
                recorded.recorder,
                self.config.memory_model,
            )
            t0 = time.monotonic()
            hit = cache.load(material)
            if hit is not None:
                timings["cache"] = "hit"
                timings["symexec"] = 0.0
                timings["encode"] = time.monotonic() - t0
                system = hit["system"]
                if self.config.pin_observed_reads and recorded.bug is not None:
                    self._pin_observed_reads(system, recorded)
                return system
            timings["cache"] = "miss"

        t0 = time.monotonic()
        summaries, synthesis = self.summarize(recorded)
        if synthesis is not None:
            timings["synthesis"] = synthesis.to_json()
        timings["lossy"] = lossy
        t1 = time.monotonic()
        timings["symexec"] = t1 - t0
        system = encode(
            summaries,
            self.config.memory_model,
            self.program.symbols,
            self.shared,
            preexisting=checkpoint.preexisting() if checkpoint else frozenset(),
            preexited=checkpoint.preexited() if checkpoint else frozenset(),
        )
        if checkpoint is not None:
            # The snapshot is the suffix's initial memory.
            for addr in system.initial_values:
                system.initial_values[addr] = checkpoint.memory[addr]
        timings["encode"] = time.monotonic() - t1
        if cache is not None:
            from dataclasses import asdict as _asdict

            # Store the pristine system — before pin_observed_reads
            # appends run-specific bug expressions to it.
            cache.store(
                material,
                summaries,
                system,
                stats_dict=_asdict(compute_stats(system)),
            )
        if self.config.pin_observed_reads and recorded.bug is not None:
            self._pin_observed_reads(system, recorded)
        return system

    def summarize(self, recorded):
        """The analysis front half shared by every entry point: decode
        the recording (:meth:`decode`) and re-execute each thread
        symbolically, from the snapshot's frames when the recording was
        checkpointed.  Returns ``(summaries, SynthesisReport | None)``.
        """
        decoded, synthesis = self.decode(recorded)
        summaries = execute_recorded_paths(
            self.program,
            decoded,
            self.shared,
            bug=recorded.bug,
            checkpoint=recorded.checkpoint,
        )
        return summaries, synthesis

    def decode(self, recorded):
        """Per-thread decoded paths of a recording.

        A flight-recorder recording decodes each thread against its
        eviction-horizon anchor; threads that lost tokens get a
        synthesized prefix grafted on (refusing — via :class:`ClapError`
        — when the suffix cannot be grounded in any legal prefix).  Any
        other recording decodes plainly.  Returns
        ``(decoded, SynthesisReport | None)``.
        """
        ring = recorded.ring
        if not ring:
            return decode_log(recorded.recorder), None
        from repro.store.synthesize import (
            PrefixSynthesisError,
            synthesize_prefixes,
        )

        recorder = recorded.recorder
        threads = ring.get("threads", {})
        decoded = {}
        for thread_name, tokens in recorder.logs.items():
            info = threads.get(thread_name) or {}
            anchor = info.get("anchor")
            if anchor is not None and not anchor.frames:
                anchor = None
            decoded[thread_name] = decode_thread_tokens(
                thread_name,
                tokens,
                recorder.paths,
                recorder.func_names,
                anchor=anchor,
            )
        if not recorded.lossy:
            return decoded, None
        try:
            synthesis = synthesize_prefixes(
                self.program, self.paths, decoded, threads
            )
        except PrefixSynthesisError as exc:
            raise ClapError(
                "prefix synthesis failed for the flight-recorder suffix: %s"
                % exc
            ) from exc
        return decoded, synthesis

    def _pin_observed_reads(self, system, recorded):
        """Strengthen Fbug to the exact observed outcome: every read the
        failing thread performed must return the value seen in the crash
        dump.  This is how the paper reproduces racey's *same output*."""
        from repro.analysis.symbolic import mk_binop

        thread = recorded.bug.thread
        observed = recorded.result.saps_by_thread.get(thread, [])
        summary = system.summaries.get(thread)
        if summary is None:
            return
        by_index = {sap.index: sap for sap in observed if sap.kind == "read"}
        for sap in summary.saps:
            if not sap.is_read:
                continue
            runtime = by_index.get(sap.index)
            if runtime is None or runtime.value is None:
                continue
            system.bug_exprs.append(
                mk_binop("==", sap.value, runtime.value)
            )

    @staticmethod
    def _recorder_metrics(recorded):
        """JSON-ready recorder counters for reports (empty for classic)."""
        ring = recorded.ring
        if not ring:
            return {}
        threads = {
            name: dict(info, anchor=info["anchor"].to_json())
            for name, info in sorted(ring.get("threads", {}).items())
        }
        return {
            "ring_bytes": ring.get("ring_bytes"),
            "segment_bytes": ring.get("segment_bytes"),
            "lossy": recorded.lossy,
            "segments_written": sum(
                t.get("segments_written", 0) for t in threads.values()
            ),
            "segments_evicted": sum(
                t.get("segments_evicted", 0) for t in threads.values()
            ),
            "bytes_retained": sum(
                t.get("retained_bytes", 0) for t in threads.values()
            ),
            "bytes_total": sum(
                t.get("total_bytes", 0) for t in threads.values()
            ),
            "flushes": sum(t.get("flushes", 0) for t in threads.values()),
            "threads": threads,
        }

    def solve(self, system):
        cfg = self.config
        if cfg.solver not in SOLVERS:
            raise ClapError(
                "unknown solver %r (choose from %s)"
                % (cfg.solver, ", ".join(SOLVERS))
            )
        if cfg.solver == "smt":
            return solve_constraints(system, max_seconds=cfg.smt_max_seconds)
        if cfg.solver == "smt-inc":
            return solve_constraints_portfolio(
                system,
                max_cs=cfg.max_cs,
                workers=cfg.workers,
                max_seconds=cfg.smt_max_seconds,
            )
        # Per-probe budgets: a 200k-schedule, 4M-step round split over
        # the 48 probes of each round.
        return solve_generate_validate(
            system,
            max_cs=cfg.max_cs,
            workers=cfg.workers,
            max_schedules_per_probe=4_166,
            max_steps_per_probe=83_333,
        )

    # -- phase 3 ----------------------------------------------------------

    def replay(self, schedule, expected_bug, checkpoint=None):
        """Enforce ``schedule``; a checkpointed recording's suffix
        schedule replays from its restored snapshot."""
        return replay_schedule(
            self.program,
            schedule,
            memory_model=self.config.memory_model,
            shared=self.shared,
            expected_bug=expected_bug,
            checkpoint=checkpoint,
        )

    # -- all together -------------------------------------------------------

    def reproduce(self):
        """Run the full pipeline; returns a :class:`ClapReport`."""
        report = ClapReport(
            program_name=self.program.name,
            memory_model=self.config.memory_model,
            solver=self.config.solver,
        )
        t0 = time.monotonic()
        recorded = self.record()
        report.time_record = time.monotonic() - t0
        return self.reproduce_offline(recorded, report=report)

    def reproduce_offline(self, recorded, report=None, cache=None):
        """Phases 2+3 only: reproduce from an already recorded execution.

        ``recorded`` is a :class:`RecordedExecution` — live, or a
        :class:`repro.store.corpus.StoredExecution` loaded from a
        ``.clap`` container on disk, which is how the batch service
        reproduces failures long after the recording process is gone.
        ``cache`` (an :class:`repro.store.cache.AnalysisCache`) lets the
        analysis phase skip symexec + encode on content-address hits.

        The recording's memory model is part of its identity: a trace
        validated under TSO only reproduces under TSO semantics, so a
        mismatch with this pipeline's configured model is refused.
        """
        if recorded.memory_model not in (None, self.config.memory_model):
            raise ClapError(
                "recording %s was made under memory model %r but this "
                "pipeline is configured for %r; re-open it with a matching "
                "--memory-model (witness schedules are only valid under "
                "the model they were replay-validated on)"
                % (
                    recorded.entry_id or "<in-memory>",
                    recorded.memory_model,
                    self.config.memory_model,
                )
            )
        if report is None:
            report = ClapReport(
                program_name=self.program.name,
                memory_model=self.config.memory_model,
                solver=self.config.solver,
            )
        report.seed = recorded.seed
        report.bug = recorded.bug
        report.log_bytes = recorded.log_size_bytes()
        result = recorded.result
        report.n_threads = len(result.thread_names)
        report.n_shared_vars = len(self.shared)
        report.n_instructions = result.total_instructions()
        report.n_branches = result.total_branches()

        timings = {}
        t0 = time.monotonic()
        system = self.analyze(recorded, cache=cache, timings=timings)
        analyze_total = time.monotonic() - t0
        report.time_symbolic = timings.get("symexec", analyze_total)
        report.time_encode = timings.get("encode", 0.0)
        report.cache_state = timings.get("cache", "off")
        report.lossy = timings.get("lossy", False)
        report.synthesis = timings.get("synthesis", {})
        report.recorder_metrics = self._recorder_metrics(recorded)
        if cache is not None:
            report.cache_stats = cache.stats.as_dict()
        stats = compute_stats(system)
        report.n_saps = stats.n_saps
        report.n_constraints = stats.n_constraints
        report.n_variables = stats.n_variables

        t0 = time.monotonic()
        solved = self.solve(system)
        report.time_solve = time.monotonic() - t0
        report.time_build = getattr(solved, "build_time", 0.0)
        report.n_pruned_clauses = getattr(solved, "decided_clauses", 0)
        if not solved.ok:
            report.failure_reason = "solver: " + solved.reason
            return report
        report.schedule = solved.schedule
        report.context_switches = solved.context_switches
        if hasattr(solved, "generated"):
            report.solver_detail = {
                "generated": solved.generated,
                "good": solved.good,
                "rounds": solved.rounds,
            }
        else:
            report.solver_detail = {"iterations": solved.iterations}
            if getattr(solved, "sat_stats", None):
                report.solver_detail["sat_stats"] = solved.sat_stats
            if getattr(solved, "bound", -1) >= 0:
                report.solver_detail["bound"] = solved.bound
            if getattr(solved, "round_stats", None):
                report.solver_detail["round_stats"] = solved.round_stats
            if getattr(solved, "portfolio", None):
                report.solver_detail["portfolio"] = solved.portfolio

        t0 = time.monotonic()
        outcome = self.replay(
            solved.schedule,
            recorded.bug,
            checkpoint=recorded.checkpoint,
        )
        report.time_replay = time.monotonic() - t0
        report.reproduced = outcome.reproduced
        if not outcome.reproduced:
            report.failure_reason = "replay did not reproduce the failure"
        return report


def reproduce_bug(program, memory_model="sc", solver="smt", **config_kwargs):
    """One-call CLAP: record a failure of ``program`` and reproduce it.

    ``program`` may be MiniLang source text or a CompiledProgram.
    Returns a :class:`ClapReport`.
    """
    config = ClapConfig(memory_model=memory_model, solver=solver, **config_kwargs)
    return ClapPipeline(program, config).reproduce()
