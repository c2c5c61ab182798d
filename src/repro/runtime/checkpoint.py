"""Execution checkpointing (the paper's Section 6.4 future work).

"For very long runs ... we need to break up the execution so that each
execution segment has tractable size of constraints.  Checkpointing is a
common technique used in such contexts.  We plan to integrate CLAP with
checkpointing in future."

A checkpoint is a consistent full-state snapshot taken at a *quiescent*
point of the recorded run: store buffers drained (the checkpoint acts as a
global fence), no mutex held, no thread parked on a condition variable or
mid-``wait()``.  Quiescent points are frequent in practice and make the
resume semantics clean — no lock region or signal/wait pair spans the
checkpoint, so the suffix is a self-contained constraint problem whose
initial memory is the snapshot.

The offline phase then only analyzes the post-checkpoint *suffix*:
the path recorder restarts its logs with ``resume`` tokens
(:meth:`repro.tracing.recorder.PathRecorder.checkpoint`), the symbolic
executor re-executes each thread from its snapshotted frames, and replay
starts from :func:`restore_interpreter` instead of program entry.
"""

from dataclasses import dataclass, field

from repro.runtime.thread_state import EXITED, RUNNABLE, Frame, ThreadState


class TidHandle(int):
    """A thread handle value: an int (the tid) that remembers it is a
    handle, so checkpoints can map it back to a hierarchical thread name
    for the symbolic executor."""

    __slots__ = ()


@dataclass
class FrameSnapshot:
    func: str
    block: int
    ip: int
    locals: dict  # name -> int | ('handle', thread_name)
    stack: list


@dataclass
class ThreadSnapshot:
    tid: int
    name: str
    exited: bool
    children: int
    frames: list = field(default_factory=list)  # outermost first


@dataclass
class Checkpoint:
    memory: dict  # addr -> int
    threads: list  # ThreadSnapshot list
    next_tid: int = 2
    step: int = 0

    def preexisting(self):
        """Names of threads that started before the checkpoint."""
        return {t.name for t in self.threads}

    def preexited(self):
        return {t.name for t in self.threads if t.exited}

    def thread(self, name):
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(name)


def is_quiescent(interp):
    """Whether the interpreter is at a checkpointable point."""
    for mutex in interp.sync.mutexes.values():
        if mutex.held:
            return False
    for cv in interp.sync.condvars.values():
        if cv.waiters:
            return False
    for thread in interp.threads.values():
        if thread.wait_resume is not None:
            return False
        if thread.status == "blocked" and thread.block_reason == "cond":
            return False
    return True


def _snapshot_value(value, tid_names):
    if isinstance(value, TidHandle):
        return ("handle", tid_names[int(value)])
    return value


def _restore_value(value, name_tids):
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "handle":
        return TidHandle(name_tids[value[1]])
    return value


def take_checkpoint(interp):
    """Drain store buffers and snapshot the whole execution state."""
    interp.memory.drain_all()
    tid_names = {t.tid: t.name for t in interp.threads.values()}
    threads = []
    for thread in interp.threads.values():
        snap = ThreadSnapshot(
            tid=thread.tid,
            name=thread.name,
            exited=thread.status == EXITED,
            children=thread.children,
        )
        for frame in thread.frames:
            snap.frames.append(
                FrameSnapshot(
                    func=frame.func.name,
                    block=frame.block,
                    ip=frame.ip,
                    locals={
                        k: _snapshot_value(v, tid_names)
                        for k, v in frame.locals.items()
                    },
                    stack=[_snapshot_value(v, tid_names) for v in frame.stack],
                )
            )
        threads.append(snap)
    return Checkpoint(
        memory=interp.memory.snapshot(),
        threads=threads,
        next_tid=interp.next_tid,
        step=interp.steps,
    )


def restore_interpreter(program, checkpoint, **interp_kwargs):
    """Build an Interpreter whose state is the checkpoint (not program
    entry).  Restored live threads re-emit a fresh ``start`` SAP on their
    first step — the resume point — matching the suffix SAP numbering of
    the symbolic executor."""
    from repro.runtime.interpreter import Interpreter

    interp = Interpreter(program, **interp_kwargs)
    interp.threads.clear()
    interp.threads_by_name.clear()
    interp.saps_by_thread.clear()
    interp.runnable.clear()
    interp.live = 0
    interp.next_tid = checkpoint.next_tid
    name_tids = {t.name: t.tid for t in checkpoint.threads}
    for snap in checkpoint.threads:
        frames = []
        for fs in snap.frames:
            frame = Frame(func=program.function(fs.func))
            frame.block = fs.block
            frame.ip = fs.ip
            frame.locals = {
                k: _restore_value(v, name_tids) for k, v in fs.locals.items()
            }
            frame.stack = [_restore_value(v, name_tids) for v in fs.stack]
            frames.append(frame)
        thread = ThreadState(
            tid=snap.tid,
            name=snap.name,
            frames=frames,
            status=EXITED if snap.exited else RUNNABLE,
            children=snap.children,
        )
        if snap.exited:
            # Keep the schedule clean: exited husks never step again and
            # their suffix emits no SAPs.
            thread.sap_count = 1
        interp._add_thread(thread)
    for addr, value in checkpoint.memory.items():
        interp.memory.cells[addr] = value
    return interp
