"""Crash recovery for truncated trace containers.

A recorder that dies mid-run never executes :meth:`PathRecorder.finalize`,
so the chunks on disk hold token streams whose live frames were never
closed by ``partial`` tokens — the decoder rightly rejects them.  This
module reconstructs the paper's "threads may crash mid-record" story from
the durable prefix: each thread's stream is trimmed to its last *provable*
event and the missing ``partial`` tokens are synthesized.

Soundness rule: a synthesized stop position may only claim execution the
surviving tokens prove happened.

* A ``path`` token emitted at a back edge ``u -> v`` proves the thread
  entered ``v``: the frame closes at ``(v, ip=0)`` with its Ball-Larus
  counter reset to the pseudo-entry value of ``v``.
* A callee's ``enter`` token proves the parent executed the matching
  ``CALL`` instruction: if the first ``k`` recorded callees since the
  frame's last back edge line up with the first ``k`` ``CALL``
  instructions of the stop block, the frame closes just after the
  ``k``-th call.
* Everything else — callees that cannot be placed inside the stop block,
  ambiguous back edges, checkpoint-resume streams — is trimmed away
  rather than guessed at.

After closure the whole multi-thread trace is validated by decoding it
and symbolically re-executing it; threads that no longer have a spawn
record (their parent's fork fell in the truncated tail) are dropped.  The
result is always decodable; whether the trimmed trace still *reproduces*
the failure depends on how much of the tail was lost, and the batch
service reports that outcome honestly.
"""

from dataclasses import dataclass, field

from repro.analysis.symexec import SymExecError, execute_recorded_paths
from repro.minilang import bytecode as bc
from repro.tracing.decoder import LogDecodeError, decode_thread_tokens


class RecoveryError(Exception):
    """A token stream cannot be recovered (not merely trimmed)."""


@dataclass
class RecoveryReport:
    """What recovery did to each thread, plus the validation verdict."""

    trimmed_tokens: dict = field(default_factory=dict)  # thread -> count
    synthesized_partials: dict = field(default_factory=dict)  # thread -> count
    dropped_threads: list = field(default_factory=list)
    validated: bool = False
    notes: list = field(default_factory=list)

    def summary(self):
        return (
            "trimmed %d tokens across %d threads, synthesized %d partials, "
            "dropped %s, validated=%s"
            % (
                sum(self.trimmed_tokens.values()),
                len(self.trimmed_tokens),
                sum(self.synthesized_partials.values()),
                self.dropped_threads or "none",
                self.validated,
            )
        )


class _Trim(Exception):
    """Internal: the stream must be cut at ``index`` and closure retried."""

    def __init__(self, index):
        self.index = index


class _OpenFrame:
    __slots__ = ("func", "enter_idx", "resumed", "last_path_idx",
                 "last_path_pid", "callees")

    def __init__(self, func, enter_idx, resumed=False):
        self.func = func
        self.enter_idx = enter_idx
        self.resumed = resumed
        self.last_path_idx = None
        self.last_path_pid = None
        # (enter token index, callee func) recorded since the last path
        # token of *this* frame — the calls the synthesized stop position
        # must account for.
        self.callees = []


def _simulate(tokens, func_names):
    """Replay ``tokens`` against a frame stack; returns the open frames.

    The input is a prefix of a valid stream, so structural violations
    (path/exit outside a frame, a second root) are real corruption and
    raise :class:`RecoveryError`.
    """
    stack = []
    rooted = False
    for idx, token in enumerate(tokens):
        kind = token[0]
        if kind in ("enter", "resume"):
            func = func_names[token[1]]
            if stack:
                stack[-1].callees.append((idx, func))
            elif rooted:
                raise RecoveryError("second root activation at token %d" % idx)
            rooted = True
            stack.append(_OpenFrame(func, idx, resumed=(kind == "resume")))
        elif kind == "path":
            if not stack:
                raise RecoveryError("path token outside frame at %d" % idx)
            frame = stack[-1]
            frame.last_path_idx = idx
            frame.last_path_pid = token[1]
            frame.callees = []
        elif kind in ("exit", "partial"):
            if not stack:
                raise RecoveryError("%s token outside frame at %d" % (kind, idx))
            stack.pop()
        else:
            raise RecoveryError("unknown token %r at %d" % (token, idx))
    return stack


def _close_frame(frame, program, paths):
    """Compute the synthesized ``partial`` token for one open frame.

    Raises :class:`_Trim` when the frame's trailing events cannot be
    soundly placed at a stop position.
    """
    bl = paths[frame.func]
    func = program.function(frame.func)
    if frame.resumed and frame.last_path_idx is None:
        # A resumed activation with no progress since the checkpoint: we
        # cannot synthesize a mid-path stop for it; cut the resume chain.
        raise _Trim(frame.enter_idx)
    if frame.last_path_idx is not None:
        blocks, ended_by_back_edge = bl.decode(frame.last_path_pid)
        if not ended_by_back_edge:
            # A non-back-edge path token inside an open frame means the
            # exit token fell in the lost tail; the frame's position after
            # it is unknowable, so close before the token instead.
            raise _Trim(frame.last_path_idx)
        src = blocks[-1]
        targets = [v for (u, v) in bl.back_edges if u == src]
        if len(targets) != 1:
            raise _Trim(frame.last_path_idx)
        stop_block = targets[0]
        counter = bl.backedge_reset[(src, stop_block)][1]
    else:
        stop_block = 0
        counter = 0

    k = len(frame.callees)
    if k == 0:
        stop_ip = 0
    else:
        instrs = func.blocks[stop_block].instrs
        call_ips = [
            (ip, instr.arg)
            for ip, instr in enumerate(instrs)
            if instr.op == bc.CALL
        ]
        if len(call_ips) < k:
            # The (len(call_ips)+1)-th recorded call happened in a later
            # block of an unrecorded segment; drop it and everything after.
            raise _Trim(frame.callees[len(call_ips)][0])
        for j in range(k):
            if call_ips[j][1] != frame.callees[j][1]:
                raise _Trim(frame.callees[j][0])
        last_call_ip = call_ips[k - 1][0]
        # The innermost frame provably *returned* from its k-th call (the
        # callee subtree is closed), so it stops after the CALL; an outer
        # frame is still inside it, and symbolic execution must reach and
        # execute the CALL to descend — same stop position does both.
        stop_ip = last_call_ip + 1
    return ("partial", counter, stop_block, stop_ip, 0)


def _close_thread(tokens, program, paths, func_names):
    """Trim + close one thread's stream; returns (tokens, trimmed, synth)."""
    tokens = list(tokens)
    original_len = len(tokens)
    while True:
        open_frames = _simulate(tokens, func_names)
        if not tokens:
            return [], original_len, 0
        if not open_frames:
            return tokens, original_len - len(tokens), 0
        try:
            partials = [
                _close_frame(frame, program, paths) for frame in open_frames
            ]
        except _Trim as cut:
            tokens = tokens[: cut.index]
            continue
        # The decoder closes the innermost open frame first.
        return (
            tokens + list(reversed(partials)),
            original_len - len(tokens),
            len(partials),
        )


def recover_tokens(logs, program, paths=None, bug=None, shared=None):
    """Recover {thread: tokens} from a truncated container's chunk prefix.

    Returns ``(recovered_logs, RecoveryReport)``.  Threads whose streams
    are empty or unrecoverable, or whose spawn record fell in a trimmed
    parent tail, are dropped (never the failing thread: losing it is
    reported as a failed validation instead, since without its trace the
    failure cannot be reproduced at all).
    """
    if paths is None:
        paths = program.paths
    func_ids = {name: i for i, name in enumerate(sorted(program.functions))}
    func_names = {i: name for name, i in func_ids.items()}
    report = RecoveryReport()
    recovered = {}
    for thread in sorted(logs):
        try:
            closed, trimmed, synth = _close_thread(
                logs[thread], program, paths, func_names
            )
        except RecoveryError as exc:
            report.dropped_threads.append(thread)
            report.notes.append("thread %s: %s" % (thread, exc))
            continue
        if not closed:
            report.dropped_threads.append(thread)
            report.notes.append("thread %s: no recoverable tokens" % thread)
            continue
        if trimmed:
            report.trimmed_tokens[thread] = trimmed
        if synth:
            report.synthesized_partials[thread] = synth
        recovered[thread] = closed

    bug_thread = bug.thread if bug is not None else None
    if shared is None:
        shared = program.shared
    if bug_thread is not None and bug_thread not in recovered:
        report.notes.append(
            "failing thread %s did not survive recovery" % bug_thread
        )
        return recovered, report
    # Validate: decode + symbolically execute the recovered trace, pruning
    # threads the surviving prefix can no longer account for.
    for _ in range(len(recovered) + 2):
        try:
            decoded = {
                t: decode_thread_tokens(t, toks, paths, func_names)
                for t, toks in recovered.items()
            }
            summaries = execute_recorded_paths(
                program, decoded, shared, bug=bug
            )
        except (LogDecodeError, SymExecError) as exc:
            offender = getattr(exc, "thread", None)
            if (
                offender is not None
                and offender in recovered
                and offender != bug_thread
            ):
                del recovered[offender]
                report.dropped_threads.append(offender)
                report.notes.append("thread %s: %s" % (offender, exc))
                continue
            report.notes.append("validation failed: %s" % exc)
            return recovered, report
        # A join whose child's exit fell in the lost tail makes the trace
        # un-encodable; recovery cannot invent the child's missing suffix.
        joined = {
            sap.addr
            for summary in summaries.values()
            for sap in summary.saps
            if sap.kind == "join"
        }
        exited = {
            t
            for t, summary in summaries.items()
            if any(sap.kind == "exit" for sap in summary.saps)
        }
        missing = sorted(joined - exited)
        if missing:
            report.notes.append(
                "joined threads %s lost their exit in the truncated tail"
                % ", ".join(missing)
            )
            return recovered, report
        report.validated = True
        return recovered, report
    report.notes.append("validation did not converge")
    return recovered, report
