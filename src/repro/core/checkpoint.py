"""Checkpointed CLAP: solve only the post-checkpoint suffix (paper §6.4).

For long-running programs, the constraint system over the whole execution
becomes intractable; the paper's stated plan is to integrate CLAP with
checkpointing so each segment is solved independently.  This module
implements that plan end to end on our substrate:

* **recording** — the interpreter runs normally with the path recorder
  attached; every ``interval`` steps, at the next *quiescent* point
  (buffers drained as a global fence, no mutex held, nobody parked), the
  full concrete state is snapshotted and the recorder's logs restart with
  ``resume`` tokens (:meth:`PathRecorder.checkpoint`);
* **analysis** — only the suffix after the last checkpoint is decoded;
  threads resume symbolic execution from their snapshotted frames, the
  snapshot memory provides the initial shared values, and threads that
  started/exited before the checkpoint are marked so fork/join
  constraints degrade gracefully;
* **replay** — the deterministic replayer starts from
  :func:`restore_interpreter` and enforces the suffix schedule.

The result: the constraint system's size is bounded by the checkpoint
interval instead of the execution length.
"""

from dataclasses import dataclass, field

from repro.analysis.symexec import execute_recorded_paths
from repro.constraints.encoder import encode
from repro.core.clap import ClapConfig, ClapPipeline
from repro.runtime.checkpoint import is_quiescent, take_checkpoint
from repro.runtime.interpreter import Interpreter
from repro.runtime.replay import replay_schedule
from repro.runtime.scheduler import RandomScheduler
from repro.tracing.decoder import decode_log
from repro.tracing.recorder import PathRecorder


@dataclass
class CheckpointedRecording:
    """A failing run recorded with periodic checkpoints."""

    seed: int
    result: object  # ExecutionResult
    recorder: PathRecorder  # holds the SUFFIX logs
    checkpoint: object | None  # last Checkpoint (None if none was taken)
    n_checkpoints: int = 0
    prefix_archives: list = field(default_factory=list)

    @property
    def bug(self):
        return self.result.bug


class CheckpointClapPipeline(ClapPipeline):
    """ClapPipeline variant that records with checkpoints and analyzes
    only the suffix after the last one."""

    def __init__(self, program, config=None, interval_steps=400):
        super().__init__(program, config)
        self.interval_steps = interval_steps

    # -- phase 1 ----------------------------------------------------------

    def record_once(self, seed):
        recorder = PathRecorder(self.program, paths=self.paths)
        scheduler = RandomScheduler(
            seed,
            stickiness=self.config.stickiness,
            flush_prob=self.config.flush_prob,
        )
        interp = Interpreter(
            self.program,
            memory_model=self.config.memory_model,
            scheduler=scheduler,
            shared=self.shared,
            hooks=[recorder],
            max_steps=self.config.max_steps,
        )
        state = {"last": 0, "checkpoint": None, "count": 0, "archives": []}

        def maybe_checkpoint(interp):
            if interp.steps - state["last"] < self.interval_steps:
                return
            if interp.bug is not None or not is_quiescent(interp):
                return
            state["checkpoint"] = take_checkpoint(interp)
            state["archives"].append(recorder.checkpoint(interp))
            state["count"] += 1
            state["last"] = interp.steps

        result = interp.run(step_hook=maybe_checkpoint)
        recorder.finalize(interp)
        return CheckpointedRecording(
            seed=seed,
            result=result,
            recorder=recorder,
            checkpoint=state["checkpoint"],
            n_checkpoints=state["count"],
            prefix_archives=state["archives"],
        )

    # -- phase 2 ----------------------------------------------------------

    def analyze(self, recorded):
        decoded = decode_log(recorded.recorder)
        checkpoint = recorded.checkpoint
        summaries = execute_recorded_paths(
            self.program,
            decoded,
            self.shared,
            bug=recorded.bug,
            checkpoint=checkpoint,
        )
        preexisting = checkpoint.preexisting() if checkpoint else frozenset()
        preexited = checkpoint.preexited() if checkpoint else frozenset()
        system = encode(
            summaries,
            self.config.memory_model,
            self.program.symbols,
            self.shared,
            preexisting=preexisting,
            preexited=preexited,
        )
        if checkpoint is not None:
            # The snapshot is the suffix's initial memory.
            for addr in list(system.initial_values):
                system.initial_values[addr] = checkpoint.memory[addr]
        if self.config.pin_observed_reads and recorded.bug is not None:
            self._pin_observed_reads(system, recorded)
        return system

    # -- phase 3 ----------------------------------------------------------

    def replay(self, schedule, expected_bug, checkpoint=None):
        return replay_schedule(
            self.program,
            schedule,
            memory_model=self.config.memory_model,
            shared=self.shared,
            expected_bug=expected_bug,
            checkpoint=checkpoint,
        )

    def reproduce(self):
        """Full checkpointed pipeline; returns (report, recording)."""
        recorded = self.record()
        system = self.analyze(recorded)
        solved = self.solve(system)
        if not solved.ok:
            return None, recorded
        outcome = self.replay(
            solved.schedule, recorded.bug, checkpoint=recorded.checkpoint
        )
        return outcome, recorded


def reproduce_with_checkpoints(
    program, memory_model="sc", interval_steps=400, **config_kwargs
):
    """Convenience wrapper mirroring :func:`repro.reproduce_bug`."""
    config = ClapConfig(memory_model=memory_model, **config_kwargs)
    pipeline = CheckpointClapPipeline(program, config, interval_steps=interval_steps)
    return pipeline.reproduce()
