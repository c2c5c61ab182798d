"""Witness search without a recorded failure (``repro explore``).

CLAP proper starts from a *failing* recorded run: the log fixes control
flow and the observed assertion failure becomes Fbug.  Explore inverts
the pipeline.  The static bug-pattern pass (SR301/302/303 in
``analysis.static_race.patterns``) proposes *violation predicates* —
line-level descriptions of a suspicious interleaving.  We then:

1. record *passing* runs until one covers the predicate's sites (its
   per-thread paths visit the span/read/wait lines in question),
2. re-run the per-thread symbolic execution with no bug, retarget one
   assert as the bug (``bug_expr = ¬cond``, exactly the surgery
   ``SymbolicExecutor._finalize_bug`` performs on a failing run),
3. encode the usual constraint system and append the predicate as
   *goal clauses* — unit clauses over order (``OLt``) or signal-wait
   (``SWChoice``) atoms that force the suspicious interleaving,
4. search with variable-and-thread bounding (rung 0 pins every read
   that cannot feed the target to its observed concrete value; rung 1
   lifts the pins) stacked on the solver's context-switch bound ladder,
5. validate every model by deterministic replay and store the witness
   (a self-contained failing recording) in the corpus.

The recorded control flow is preserved by construction — only the
assert outcome flips — so a witness is a genuine schedule of the
*observed* paths that drives the program into the asserted failure.
"""

import copy
import dataclasses
import time
from dataclasses import dataclass, field

from repro.minilang import compile_source
from repro.minilang.compiler import CompiledProgram
from repro.analysis.static_race import find_bug_patterns, robustness_patterns
from repro.analysis.symbolic import free_syms, mk_binop, mk_not
from repro.constraints.encoder import encode
from repro.constraints.model import OLt, SWChoice
from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime import events as ev
from repro.runtime.memory import MEMORY_MODELS, PSO, SC, TSO
from repro.runtime.replay import ReplayError, replay_schedule
from repro.store.corpus import run_stats
from repro.tracing.recorder import PathRecorder

# Version of the `repro explore --json` payload (golden-file tested).
EXPLORE_SCHEMA_VERSION = 1

# Predicates the driver knows how to compile into goal clauses.
_EXPLORABLE = ("SR301", "SR302", "SR303", "SR401", "SR402")

# The weakest memory model under which each predicate's interleaving can
# exist at all: SR3xx witnesses are schedule bugs (searchable under SC);
# SR401 needs a store buffer (TSO); SR402 needs per-address buffers (PSO).
_MIN_MODEL = {
    "SR301": SC,
    "SR302": SC,
    "SR303": SC,
    "SR401": TSO,
    "SR402": PSO,
}

_MODEL_RANK = {model: rank for rank, model in enumerate(MEMORY_MODELS)}


@dataclass
class ExploreConfig:
    """Knobs for the witness search."""

    memory_model: str = "sc"
    # Passing-run scan: seeds tried while looking for recordings that
    # cover a predicate's sites.
    max_seeds: int = 64
    stickiness: float = 0.5
    flush_prob: float = 0.25
    max_steps: int = 2_000_000
    # Context-switch bound ladder (the pipeline's in-process smt-inc).
    max_cs: int = 6
    smt_max_seconds: float | None = None
    # Thread bounding: cap on (span instance x remote site) combinations
    # tried per predicate, and on retargetable asserts per combination.
    max_combos: int = 16
    max_asserts: int = 3
    # Restrict the search to these predicate codes (empty: all known).
    codes: tuple = ()

    def clap_config(self):
        return ClapConfig(
            memory_model=self.memory_model,
            stickiness=self.stickiness,
            flush_prob=self.flush_prob,
            max_steps=self.max_steps,
            max_cs=self.max_cs,
            smt_max_seconds=self.smt_max_seconds,
            solver="smt-inc",
            workers=0,
        )


@dataclass
class TargetOutcome:
    """Search result for one violation predicate."""

    code: str
    var: str
    func: str
    description: str
    # 'witness' | 'no-witness' | 'no-run' | 'no-assert' | 'model-gated'
    status: str = "no-run"
    # Model the winning attempt was encoded, solved and replayed under
    # (the search ladders from the predicate's weakest viable model up
    # to the configured target); empty until a witness is found.
    memory_model: str = ""
    seed: int = -1  # passing seed whose paths backed the witness search
    assert_thread: str = ""
    assert_line: int = 0
    schedule: list = field(default_factory=list)  # ["t#i", ...]
    entry_id: str = ""  # corpus entry, when stored
    replay_validated: bool = False
    rung: int = -1  # variable-bounding rung of the winning attempt
    attempts: int = 0
    schedules_enumerated: int = 0  # solver iterations across attempts
    bound: int = -1  # context-switch bound of the winning attempt
    time_search: float = 0.0

    @property
    def found(self):
        return self.status == "witness"

    def to_json(self):
        return {
            "code": self.code,
            "var": self.var,
            "func": self.func,
            "description": self.description,
            "status": self.status,
            "memory_model": self.memory_model,
            "seed": self.seed,
            "assert_thread": self.assert_thread,
            "assert_line": self.assert_line,
            "schedule": list(self.schedule),
            "entry_id": self.entry_id,
            "replay_validated": self.replay_validated,
            "rung": self.rung,
            "attempts": self.attempts,
            "schedules_enumerated": self.schedules_enumerated,
            "bound": self.bound,
            "time_search": round(self.time_search, 6),
        }


@dataclass
class ExploreReport:
    """Output of :func:`explore_program`."""

    program: str
    memory_model: str
    seeds_scanned: int = 0
    passing_runs: int = 0
    targets: list = field(default_factory=list)
    time_total: float = 0.0

    @property
    def n_witnesses(self):
        return sum(1 for t in self.targets if t.found)

    def to_json(self):
        # Versioned and deterministically ordered: targets sort by
        # (code, func, var, description); consumers key off
        # ``schema_version``, which bumps whenever a key is added,
        # removed, or the sort order changes.
        targets = sorted(
            self.targets, key=lambda t: (t.code, t.func, t.var, t.description)
        )
        return {
            "schema_version": EXPLORE_SCHEMA_VERSION,
            "program": self.program,
            "memory_model": self.memory_model,
            "seeds_scanned": self.seeds_scanned,
            "passing_runs": self.passing_runs,
            "n_targets": len(self.targets),
            "n_witnesses": self.n_witnesses,
            "targets": [t.to_json() for t in targets],
            "time_total": round(self.time_total, 6),
        }


@dataclass
class _PassingRun:
    seed: int
    recorded: object  # RecordedExecution
    summaries: dict  # thread -> ThreadSummary (bug=None)


def _addr_var(addr):
    """The variable name behind a SAP address (scalar or element)."""
    if isinstance(addr, tuple):
        return addr[0]
    return addr


class ExploreDriver:
    """Drives the predicate -> passing run -> goal encode -> ladder ->
    replay-validate -> corpus loop for one program."""

    def __init__(self, program, config=None, patterns=None, name=None):
        self.config = config or ExploreConfig()
        self.source = program if isinstance(program, str) else None
        if isinstance(program, str):
            program = compile_source(program, name=name)
        if not isinstance(program, CompiledProgram):
            raise TypeError("program must be MiniLang source or CompiledProgram")
        self.pipeline = ClapPipeline(program, self.config.clap_config())
        self.program = self.pipeline.program
        if patterns is None:
            patterns = find_bug_patterns(self.program)
            # Weak-memory robustness findings are explorable too: each
            # SR401/SR402 cycle compiles into a reordering goal.
            weak = robustness_patterns(self.program, self.config.memory_model)
            for diag, pred in zip(weak.diagnostics, weak.predicates):
                patterns.add(diag, pred)
        self.patterns = patterns
        self._runs = []  # materialized passing runs, in seed order
        self._seed_iter = iter(range(self.config.max_seeds))
        self.seeds_scanned = 0

    # -- passing-run scan --------------------------------------------------

    def _iter_runs(self):
        """Yield passing runs, recording new seeds lazily on demand."""
        for run in self._runs:
            yield run
        for seed in self._seed_iter:
            self.seeds_scanned += 1
            recorded = self.pipeline.record_once(seed)
            if recorded.result.bug is not None:
                continue  # a failing run: plain CLAP handles those
            summaries, _ = self.pipeline.summarize(recorded)
            run = _PassingRun(seed=seed, recorded=recorded, summaries=summaries)
            self._runs.append(run)
            yield run

    # -- goal compilation --------------------------------------------------

    def _goal_combos(self, pred, summaries):
        """Compile ``pred`` against one run's SAPs: a list of goal-atom
        tuples, each a conjunction forcing the suspicious interleaving.
        Empty when the run's recorded paths never visit the sites."""
        saps = [s for summ in summaries.values() for s in summ.saps]
        if pred.code == "SR301":
            return self._combos_atomicity(pred, saps)
        if pred.code == "SR302":
            return self._combos_order(pred, saps)
        if pred.code == "SR303":
            return self._combos_lost_notify(pred, saps)
        if pred.code in ("SR401", "SR402"):
            return self._combos_reorder(pred, summaries)
        return []

    def _combos_atomicity(self, pred, saps):
        reads = [
            s
            for s in saps
            if s.is_read
            and s.line == pred.read_line
            and _addr_var(s.addr) == pred.var
        ]
        writes = [
            s
            for s in saps
            if s.is_write
            and s.line == pred.write_line
            and _addr_var(s.addr) == pred.var
        ]
        remotes = [
            s
            for s in saps
            if s.is_write
            and s.line in pred.remote_write_lines
            and _addr_var(s.addr) == pred.var
        ]
        combos = []
        for r in reads:
            # Nearest following same-thread write: the span instance.
            after = [
                w for w in writes if w.thread == r.thread and w.index > r.index
            ]
            if not after:
                continue
            w = min(after, key=lambda s: s.index)
            for w2 in remotes:
                if w2.thread == r.thread:
                    continue
                # w' lands strictly inside the span: r < w' < w.
                combos.append((OLt(r.uid, w2.uid), OLt(w2.uid, w.uid)))
        return combos[: self.config.max_combos]

    def _combos_order(self, pred, saps):
        reads = [
            s
            for s in saps
            if s.is_read
            and s.line == pred.read_line
            and _addr_var(s.addr) == pred.var
        ]
        inits = [
            s
            for s in saps
            if s.is_write
            and s.line in pred.init_write_lines
            and _addr_var(s.addr) == pred.var
        ]
        combos = []
        for r in reads:
            for w in inits:
                if w.thread == r.thread:
                    continue
                # The consumer reads before the initializing write lands.
                combos.append((OLt(r.uid, w.uid),))
        return combos[: self.config.max_combos]

    def _combos_lost_notify(self, pred, saps):
        waits = [
            s
            for s in saps
            if s.kind == ev.WAIT
            and s.line == pred.wait_line
            and s.addr == pred.condvar
        ]
        signals = [
            s
            for s in saps
            if s.kind in (ev.SIGNAL, ev.BROADCAST)
            and s.line in pred.signal_lines
            and s.addr == pred.condvar
        ]
        combos = []
        for w in waits:
            for sig in signals:
                if sig.thread == w.thread:
                    continue
                # The wait is woken by the unprotected signal.
                combos.append((SWChoice(sig.uid, w.uid),))
        return combos[: self.config.max_combos]

    def _combos_reorder(self, pred, summaries):
        """SR401/SR402 goals: pin the critical cycle's delayed edge by
        committing a po-later access *before* the delayed store in
        memory order — UNSAT under SC (Fmo chains the whole program
        order), satisfiable exactly when the target model's store
        buffers may delay the store."""
        want_read = pred.code == "SR401"
        lines = pred.reorder_read_lines if want_read else pred.reorder_write_lines
        combos = []
        for thread in sorted(summaries):
            seq = summaries[thread].saps
            for i, w in enumerate(seq):
                if not (
                    w.is_write
                    and w.line == pred.write_line
                    and _addr_var(w.addr) == pred.var
                ):
                    continue
                for later in seq[i + 1 :]:
                    if not later.is_data:
                        if later.kind == ev.YIELD:
                            continue  # yield is not a fence
                        break  # sync SAP: the buffers drain here
                    if later.addr == w.addr:
                        continue  # same address: FIFO/forwarding pins it
                    if later.line not in lines:
                        continue
                    if later.is_read is want_read:
                        combos.append((OLt(later.uid, w.uid),))
        return combos[: self.config.max_combos]

    # -- assert retargeting ------------------------------------------------

    def _candidate_asserts(self, pred, summaries):
        """(thread, assert-index) pairs worth retargeting, best first:
        asserts whose condition reads a focus variable, then the rest."""
        focus = set(pred.focus_vars) | {pred.var}
        scored = []
        for thread, summary in summaries.items():
            for idx, (cond, _line, _ci) in enumerate(summary.asserts):
                syms = free_syms(cond)
                vars_read = {
                    _addr_var(summary.reads[name].addr)
                    for name in syms
                    if name in summary.reads
                }
                scored.append((0 if vars_read & focus else 1, thread, idx))
        scored.sort()
        return [(t, i) for _, t, i in scored[: self.config.max_asserts]]

    def _retarget(self, summaries, thread, assert_idx):
        """Flip assert #assert_idx of ``thread`` into the bug predicate —
        the same surgery ``_finalize_bug`` performs on a failing run.
        Mutates (deep-copied) ``summaries``; returns (cond, line)."""
        summary = summaries[thread]
        cond, line, _ci = summary.asserts[assert_idx]
        summary.bug_expr = mk_not(cond)
        summary.bug_line = line
        for i in range(len(summary.conditions) - 1, -1, -1):
            c = summary.conditions[i]
            if c.line == line and c.expr == cond:
                del summary.conditions[i]
                break
        return cond, line

    # -- variable bounding -------------------------------------------------

    def _pin_reads(self, system, run, pred, bug_cond):
        """Rung 0 of variable bounding: pin every read that cannot feed
        the goal — not of a focus variable and not read by the target
        assert — to the concrete value the passing run observed.  Returns
        the number of pins added."""
        focus = set(pred.focus_vars) | {pred.var}
        protected = free_syms(bug_cond)
        pinned = 0
        for thread, summary in system.summaries.items():
            observed = {
                sap.index: sap
                for sap in run.recorded.result.saps_by_thread.get(thread, [])
                if sap.kind == ev.READ
            }
            for sap in summary.saps:
                if not sap.is_read:
                    continue
                if _addr_var(sap.addr) in focus:
                    continue
                name = getattr(sap.value, "name", None)
                if name is not None and name in protected:
                    continue
                runtime = observed.get(sap.index)
                if runtime is None or runtime.value is None:
                    continue
                system.bug_exprs.append(mk_binop("==", sap.value, runtime.value))
                pinned += 1
        return pinned

    # -- one solve attempt -------------------------------------------------

    def _encode_goal(self, run, pred, thread, assert_idx, goal_atoms, model):
        """Build the constraint system for one (assert, combo) attempt
        under ``model``.  Returns (system, cond, line) or None when a
        SWChoice goal names a pair the encoder does not consider a
        signal-wait candidate."""
        summaries = copy.deepcopy(run.summaries)
        cond, line = self._retarget(summaries, thread, assert_idx)
        system = encode(
            summaries,
            model,
            self.program.symbols,
            self.pipeline.shared,
            goals=goal_atoms,
        )
        for atom in goal_atoms:
            if isinstance(atom, SWChoice):
                if atom.signal not in system.sw_candidates.get(atom.wait, ()):
                    return None
        return system, cond, line

    def _attempt(self, run, pred, thread, assert_idx, goal_atoms, rung, model, out):
        built = self._encode_goal(run, pred, thread, assert_idx, goal_atoms, model)
        if built is None:
            return None
        system, cond, line = built
        if rung == 0:
            if self._pin_reads(system, run, pred, cond) == 0:
                return None  # identical to rung 1; skip
        out.attempts += 1
        res = self.pipeline.solve(system)
        out.schedules_enumerated += res.iterations
        if not res.ok:
            return None
        return res, line, thread

    # -- replay validation + storage --------------------------------------

    def _validate(self, res, pred, thread, line, corpus, model, out):
        """Replay the model's schedule under ``model``; accept only when
        the retargeted assert actually fails.  Stores the witness
        recording on success, stamped with the validating model."""
        recorder = PathRecorder(self.program, paths=self.pipeline.paths)
        try:
            outcome = replay_schedule(
                self.program,
                res.schedule,
                memory_model=model,
                shared=self.pipeline.shared,
                expected_bug=None,
                hooks=[recorder],
            )
        except ReplayError:
            return False
        bug = outcome.result.bug
        if bug is None or bug.kind != "assertion" or bug.line != line:
            return False
        out.status = "witness"
        out.memory_model = model
        out.assert_thread = bug.thread
        out.assert_line = line
        out.schedule = ["%s#%d" % uid for uid in res.schedule]
        out.replay_validated = True
        out.bound = res.bound
        if corpus is not None and self.source is not None:
            entry = corpus.add_recorded(
                self.source,
                recorder.logs,
                bug,
                run_stats(outcome.result, recorder),
                name=self.program.name,
                config=dataclasses.replace(
                    self.pipeline.config, memory_model=model
                ),
                tag=pred.code.lower(),
                provenance={
                    "mode": "explore",
                    "code": pred.code,
                    "var": pred.var,
                    "func": pred.func,
                    "description": pred.description,
                    "memory_model": model,
                    "seed": out.seed,
                    "rung": out.rung,
                    "bound": res.bound,
                },
            )
            out.entry_id = entry.entry_id
        return True

    # -- per-predicate search ----------------------------------------------

    def _model_ladder(self, pred):
        """Memory models to attempt for ``pred``, strongest first: from
        the weakest model that can exhibit the predicate's interleaving
        up to the configured target.  SAT is monotone down the ladder
        (weaker models drop Fmo constraints), so the search stops at the
        first witness and records the strongest model that admits it."""
        lo = _MODEL_RANK[_MIN_MODEL[pred.code]]
        hi = _MODEL_RANK[self.config.memory_model]
        return [m for m in MEMORY_MODELS if lo <= _MODEL_RANK[m] <= hi]

    def _search(self, diag, pred, corpus):
        out = TargetOutcome(
            code=pred.code,
            var=pred.var,
            func=pred.func,
            description=pred.description,
        )
        t0 = time.monotonic()
        ladder = self._model_ladder(pred)
        if not ladder:
            # The predicate needs a weaker model than the search target
            # (e.g. an SR401 finding under --memory-model sc).
            out.status = "model-gated"
            out.time_search = time.monotonic() - t0
            return out
        for run in self._iter_runs():
            combos = self._goal_combos(pred, run.summaries)
            if not combos:
                continue  # this run's paths never visit the sites
            asserts = self._candidate_asserts(pred, run.summaries)
            if not asserts:
                if out.status == "no-run":
                    out.status = "no-assert"
                continue
            out.seed = run.seed
            out.status = "no-witness"
            done = False
            for model in ladder:
                for thread, assert_idx in asserts:
                    for goal_atoms in combos:
                        for rung in (0, 1):  # pinned reads, then unpinned
                            hit = self._attempt(
                                run,
                                pred,
                                thread,
                                assert_idx,
                                goal_atoms,
                                rung,
                                model,
                                out,
                            )
                            if hit is None:
                                continue
                            res, line, _t = hit
                            out.rung = rung
                            if self._validate(
                                res, pred, thread, line, corpus, model, out
                            ):
                                done = True
                                break
                        if done:
                            break
                    if done:
                        break
                if done:
                    break
            if done:
                break
        out.time_search = time.monotonic() - t0
        return out

    def run(self, corpus=None):
        t0 = time.monotonic()
        report = ExploreReport(
            program=self.program.name, memory_model=self.config.memory_model
        )
        for diag, pred in zip(self.patterns.diagnostics, self.patterns.predicates):
            if pred.code not in _EXPLORABLE:
                continue
            if self.config.codes and pred.code not in self.config.codes:
                continue
            report.targets.append(self._search(diag, pred, corpus))
        report.seeds_scanned = self.seeds_scanned
        report.passing_runs = len(self._runs)
        report.time_total = time.monotonic() - t0
        return report


def explore_program(program, config=None, corpus=None, patterns=None, name=None):
    """Static-analysis-guided witness search: one call does the whole
    analyze -> record-passing -> encode-goal -> solve -> replay -> store
    loop and returns an :class:`ExploreReport`."""
    driver = ExploreDriver(program, config=config, patterns=patterns, name=name)
    return driver.run(corpus=corpus)
