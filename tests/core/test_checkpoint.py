"""Checkpointed suffix reproduction (the paper's §6.4 extension)."""

import pytest

from repro.core.clap import ClapConfig, ClapError, ClapPipeline
from repro.minilang import compile_source
from repro.runtime.checkpoint import (
    is_quiescent,
    restore_interpreter,
    take_checkpoint,
)
from repro.runtime.interpreter import Interpreter, run_program
from repro.runtime.memory import PendingStore
from repro.runtime.scheduler import RandomScheduler
from repro.store.cache import AnalysisCache
from repro.store.container import ClapWriter
from repro.tracing.recorder import StreamingTraceSink

# A long-running program: a big racy warm-up phase, then the actual bug
# near the end — exactly the shape checkpointing is for.
LONG_RACE_SRC = """
int warmup = 0;
int c = 0;
void worker(int n) {
    for (int i = 0; i < n; i++) {
        int w = warmup;
        warmup = w + 1;
    }
    int r = c;
    yield;
    c = r + 1;
}
int main() {
    int t1 = 0;
    int t2 = 0;
    t1 = spawn worker(25);
    t2 = spawn worker(25);
    join(t1);
    join(t2);
    assert(c == 2);
    return 0;
}
"""


def test_snapshot_restore_roundtrip():
    prog = compile_source(LONG_RACE_SRC)
    interp = Interpreter(prog, scheduler=RandomScheduler(1, stickiness=0.4))
    interp.scheduler.reset()
    # Step manually to some mid-execution point.
    for _ in range(200):
        if not interp.runnable and not interp.memory.flushable:
            break
        choice = interp.scheduler.pick(
            interp.runnable, interp.memory.flushable, interp.yielded
        )
        interp.steps += 1
        if isinstance(choice, PendingStore):
            interp._commit_flush(choice)
        else:
            interp.step_thread(interp.threads[choice])
    if not is_quiescent(interp):
        pytest.skip("not quiescent at this point")
    checkpoint = take_checkpoint(interp)
    restored = restore_interpreter(
        prog, checkpoint, scheduler=RandomScheduler(99, stickiness=0.4)
    )
    # Restored memory matches.
    for addr, value in checkpoint.memory.items():
        assert restored.memory.cells[addr] == value
    # Restored threads mirror names and frame positions.
    names = {t.name for t in restored.threads.values()}
    assert names == {t.name for t in interp.threads.values()}
    result = restored.run()
    assert result.aborted is None  # suffix runs to completion


def _checkpointed_report(src, memory_model, checkpoint_steps, **kwargs):
    pipe = ClapPipeline(src, ClapConfig(memory_model=memory_model, **kwargs))
    recorded = pipe.record(checkpoint_steps=checkpoint_steps)
    return pipe.reproduce_offline(recorded), recorded


def test_checkpointed_recording_takes_checkpoints():
    pipe = ClapPipeline(
        compile_source(LONG_RACE_SRC), ClapConfig(stickiness=0.35)
    )
    recorded = pipe.record(checkpoint_steps=150)
    assert recorded.bug is not None
    assert recorded.n_checkpoints >= 1, "warm-up must cross the interval"
    assert recorded.checkpoint is not None
    # The suffix logs contain resume tokens.
    resumed = [
        t
        for tokens in recorded.recorder.logs.values()
        for t in tokens
        if t[0] == "resume"
    ]
    assert resumed


def test_suffix_is_smaller_than_full_trace():
    config = ClapConfig(stickiness=0.35)
    prog = compile_source(LONG_RACE_SRC)
    pipe = ClapPipeline(prog, config)
    full_rec = pipe.record()
    cp_rec = pipe.record(checkpoint_steps=150)
    assert cp_rec.n_checkpoints >= 1
    full_system = pipe.analyze(full_rec)
    suffix_system = pipe.analyze(cp_rec)
    assert len(suffix_system.saps) < len(full_system.saps) / 2, (
        "the suffix constraint system must be much smaller"
    )


@pytest.mark.parametrize("solver", ["smt", "genval"])
def test_checkpointed_reproduction_end_to_end(solver):
    report, recorded = _checkpointed_report(
        LONG_RACE_SRC,
        "sc",
        checkpoint_steps=150,
        stickiness=0.35,
        solver=solver,
    )
    assert recorded.n_checkpoints >= 1
    assert report.schedule, "solver failed on the suffix: %s" % (
        report.failure_reason
    )
    assert report.reproduced


def test_checkpointed_reproduction_under_tso():
    src = LONG_RACE_SRC
    report, recorded = _checkpointed_report(
        src, "tso", checkpoint_steps=150, stickiness=0.4, flush_prob=0.2,
    )
    assert report.schedule and report.reproduced


def test_checkpointed_recording_bypasses_the_cache(tmp_path):
    cache = AnalysisCache(str(tmp_path / "cache"))
    pipe = ClapPipeline(LONG_RACE_SRC, ClapConfig(stickiness=0.35))
    recorded = pipe.record(checkpoint_steps=150)
    assert recorded.checkpoint is not None
    report = pipe.reproduce_offline(recorded, cache=cache)
    assert report.reproduced
    assert report.cache_state == "bypass"
    # Nothing was served or stored: the key hashes the logs, not the
    # snapshot they resume from.
    assert cache.stats.hits == cache.stats.misses == 0
    assert cache.stats.bytes_written == 0
    material = AnalysisCache.key_material(
        pipe.program, recorded.recorder, "sc"
    )
    assert cache.load(material) is None


def test_checkpoint_refuses_a_ring():
    pipe = ClapPipeline(LONG_RACE_SRC, ClapConfig(ring_bytes=256))
    with pytest.raises(ClapError, match="checkpoint"):
        pipe.record_once(0, checkpoint_steps=150)


def test_checkpoint_refuses_a_streaming_sink(tmp_path):
    writer = ClapWriter(str(tmp_path / "trace.clap"))
    pipe = ClapPipeline(LONG_RACE_SRC)
    with pytest.raises(ClapError, match="checkpoint"):
        pipe.record_once(
            0, sink=StreamingTraceSink(writer), checkpoint_steps=150
        )
    writer.close()
