"""Prefix synthesis: reconstruct the evicted head of a flight-recorder log.

:mod:`repro.store.recover` synthesizes the missing *tail* of a crashed
writer's log (the ``partial`` tokens a finalize would have emitted).  This
module is the mirror image for the bounded ring recorder: the *prefix* of
each thread's log was evicted, and the surviving suffix decodes against a
:class:`~repro.tracing.logfmt.SegmentAnchor` that names the frames still
open at the eviction horizon and how many tokens were dropped.

Reconstruction works frame-by-frame down the anchor chain:

* An anchored frame's first retained ``path`` token decodes its entire
  in-flight Ball-Larus path — path ids embed their start block — so the
  only missing control flow is the frame's *earlier completed* paths.
  Every such path ended in the back edge into ``blocks[0]``, so a DAG
  path ``entry → u`` with ``(u, blocks[0])`` a back edge is a legal
  reconstruction of the first evicted path, and DAG cycles
  ``blocks[0] → u`` reconstruct the others one evicted token apiece.
* The anchor's ``calls_done`` count says how many callee activations the
  frame completed before the horizon.  Call sites inside synthesized
  blocks get synthesized activations (a DAG path entry → RET, recursing
  into *their* call sites); the remainder must sit in the already-decoded
  blocks, whose CALL instructions name the exact targets.
* The anchor's ``tokens_before`` count is the bug-report hint that sizes
  the reconstruction: padding cycles are added until the synthesized
  token count matches the evicted token count (any residual is reported,
  not hidden).

Synthesized blocks are *candidates*, not ground truth: symbolic execution
marks every SAP and path condition originating in them (``synth``), the
encoder drops those path conditions and frees those reads' values —
"seed each thread from an unknown entry state" — and schedule replay
remains the final arbiter, exactly as for ordinary reproduction.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.minilang import bytecode as bc

_MAX_SYNTH_DEPTH = 12


class PrefixSynthesisError(Exception):
    """The surviving suffix is inconsistent with its eviction anchor.

    Raised instead of guessing: a suffix log that cannot be grounded in a
    legal prefix must be refused, never silently treated as complete.
    """

    def __init__(self, message, thread=None):
        super().__init__(message)
        self.thread = thread


@dataclass
class ThreadSynthesis:
    """What was reconstructed for one thread."""

    thread: str
    anchored_frames: int = 0
    synth_blocks: int = 0
    synth_calls: int = 0
    padding_cycles: int = 0
    evicted_tokens: int = 0
    accounted_tokens: int = 0
    notes: list = field(default_factory=list)

    @property
    def residual_tokens(self):
        return self.evicted_tokens - self.accounted_tokens

    def to_json(self):
        return {
            "thread": self.thread,
            "anchored_frames": self.anchored_frames,
            "synth_blocks": self.synth_blocks,
            "synth_calls": self.synth_calls,
            "padding_cycles": self.padding_cycles,
            "evicted_tokens": self.evicted_tokens,
            "accounted_tokens": self.accounted_tokens,
            "residual_tokens": self.residual_tokens,
            "notes": list(self.notes),
        }


@dataclass
class SynthesisReport:
    threads: dict = field(default_factory=dict)  # thread -> ThreadSynthesis

    @property
    def exact(self):
        return all(t.residual_tokens == 0 for t in self.threads.values())

    def to_json(self):
        return {name: t.to_json() for name, t in sorted(self.threads.items())}


# -- CFG searches (on the Ball-Larus DAG: real edges minus back edges) -----


def _dag_path(bl, func, start, goal_pred, include_start_goal=True):
    """Shortest DAG path [start..goal] with goal_pred(goal); None if none."""
    if include_start_goal and goal_pred(start):
        return [start]
    seen = {start}
    queue = deque([[start]])
    while queue:
        path = queue.popleft()
        for succ in func.blocks[path[-1]].successors():
            if (path[-1], succ) in bl.back_edges or succ in seen:
                continue
            if goal_pred(succ):
                return path + [succ]
            seen.add(succ)
            queue.append(path + [succ])
    return None


def _entry_path(bl, func, first_block):
    """DAG path entry → u with (u, first_block) a back edge."""
    return _dag_path(
        bl, func, 0, lambda n: (n, first_block) in bl.back_edges
    )


def _cycle_path(bl, func, first_block):
    """DAG path first_block → u closing the back edge into first_block."""
    return _dag_path(
        bl, func, first_block, lambda n: (n, first_block) in bl.back_edges
    )


def _ret_path(bl, func):
    """DAG path entry → a RET block (every function has one)."""

    def is_ret(n):
        term = func.blocks[n].terminator
        return term is not None and term.op == bc.RET

    return _dag_path(bl, func, 0, is_ret)


def _call_targets(func, blocks):
    """CALL targets in ``blocks``, in execution order."""
    targets = []
    for block_id in blocks:
        for instr in func.blocks[block_id].instrs:
            if instr.op == bc.CALL:
                targets.append(instr.arg)
    return targets


def _synth_activation(program, paths, target, thread, depth=0):
    """A fully synthesized completed activation of ``target``.

    Returns (FrameTrace, token_cost): enter + one path + exit = 3 tokens,
    plus the costs of activations at CALL sites along the chosen path.
    """
    from repro.tracing.decoder import FrameTrace

    if depth > _MAX_SYNTH_DEPTH:
        raise PrefixSynthesisError(
            "thread %s: synthesized call chain deeper than %d (target %s)"
            % (thread, _MAX_SYNTH_DEPTH, target),
            thread=thread,
        )
    func = program.functions.get(target)
    if func is None:
        raise PrefixSynthesisError(
            "thread %s: synthesized call to unknown function %s"
            % (thread, target),
            thread=thread,
        )
    bl = paths[target]
    blocks = _ret_path(bl, func)
    if blocks is None:
        raise PrefixSynthesisError(
            "thread %s: no acyclic path to return in %s" % (thread, target),
            thread=thread,
        )
    node = FrameTrace(
        func=target,
        blocks=list(blocks),
        complete=True,
        synthesized=True,
        synth_blocks=len(blocks),
    )
    cost = 3
    for child_target in _call_targets(func, blocks):
        child, child_cost = _synth_activation(
            program, paths, child_target, thread, depth + 1
        )
        node.calls.append(child)
        cost += child_cost
    return node, cost


def _anchored_chain(root):
    chain = []
    frame = root
    while frame is not None and frame.anchored:
        chain.append(frame)
        frame = (
            frame.calls[0]
            if frame.calls and frame.calls[0].anchored
            else None
        )
    return chain


class _FramePlan:
    __slots__ = ("frame", "bl", "func", "entry", "cycle", "acts", "cost")

    def __init__(self, frame, bl, func):
        self.frame = frame
        self.bl = bl
        self.func = func
        self.entry = []  # synthesized blocks before the decoded ones
        self.cycle = None  # padding cycle blocks, if any exist
        self.acts = []  # (position_kind, activation) — prepended calls
        self.cost = 0  # evicted tokens accounted for by this frame


def synthesize_thread_prefix(program, paths, dtp, evicted_tokens):
    """Graft a synthesized prefix onto one thread's anchored suffix decode.

    Mutates the FrameTraces in ``dtp`` in place (prepending blocks and
    activations, setting ``synth_blocks``) and returns a
    :class:`ThreadSynthesis`.  Raises :class:`PrefixSynthesisError` when
    the suffix cannot be grounded in any legal prefix.
    """
    result = ThreadSynthesis(thread=dtp.thread, evicted_tokens=evicted_tokens)
    chain = _anchored_chain(dtp.root)
    result.anchored_frames = len(chain)
    if evicted_tokens and not chain:
        raise PrefixSynthesisError(
            "thread %s: %d tokens evicted but no anchored frames survive"
            % (dtp.thread, evicted_tokens),
            thread=dtp.thread,
        )
    if not chain:
        return result

    plans = []
    for frame in chain:
        func = program.functions.get(frame.func)
        if func is None:
            raise PrefixSynthesisError(
                "thread %s: anchored frame names unknown function %s"
                % (dtp.thread, frame.func),
                thread=dtp.thread,
            )
        plan = _FramePlan(frame, paths[frame.func], func)
        plan.cost = 1  # the frame's evicted ``enter`` token
        if not frame.blocks:
            # Only the ``exit`` token survived (the horizon fell between
            # the path record and the exit record): the activation
            # completed, so any acyclic entry → RET path is a legal
            # reconstruction; its path token was evicted too.
            if not frame.complete:
                raise PrefixSynthesisError(
                    "thread %s: anchored frame %s decoded no blocks and "
                    "never exited" % (dtp.thread, frame.func),
                    thread=dtp.thread,
                )
            entry = _ret_path(plan.bl, func)
            if entry is None:
                raise PrefixSynthesisError(
                    "thread %s: no acyclic path to return in %s"
                    % (dtp.thread, frame.func),
                    thread=dtp.thread,
                )
            plan.entry = entry
            plan.cost += 1
            plans.append(plan)
            continue
        first = frame.blocks[0]
        if first != 0:
            entry = _entry_path(plan.bl, func, first)
            if entry is None:
                raise PrefixSynthesisError(
                    "thread %s: no entry path reaches the back edge into "
                    "block %d of %s" % (dtp.thread, first, frame.func),
                    thread=dtp.thread,
                )
            plan.entry = entry
            plan.cost += 1  # the evicted path token ending at that back edge
            plan.cycle = _cycle_path(plan.bl, func, first)
        plans.append(plan)

    # Activations for call sites inside each synthesized entry path.
    for plan in plans:
        for target in _call_targets(plan.func, plan.entry):
            act, cost = _synth_activation(program, paths, target, dtp.thread)
            plan.acts.append(act)
            plan.cost += cost

    accounted = sum(plan.cost for plan in plans)
    deficit = evicted_tokens - accounted
    if deficit < 0:
        raise PrefixSynthesisError(
            "thread %s: minimal synthesized prefix needs %d tokens but "
            "only %d were evicted" % (dtp.thread, accounted, evicted_tokens),
            thread=dtp.thread,
        )

    # Absorb the remaining evicted tokens as extra loop iterations on the
    # innermost frame that has a padding cycle (each iteration is one
    # evicted path token plus its call sites' activation costs).  This is
    # the bug-report hint at work: the evicted token count pins the
    # iteration count, which the anchor's calls_done then cross-checks.
    if deficit:
        pad = next(
            (plan for plan in reversed(plans) if plan.cycle is not None),
            None,
        )
        if pad is None:
            result.notes.append(
                "%d evicted tokens unaccounted: no frame has a padding "
                "cycle" % deficit
            )
        else:
            cycle_targets = _call_targets(pad.func, pad.cycle)
            per_cycle = 1
            for target in cycle_targets:
                _, cost = _synth_activation(program, paths, target, dtp.thread)
                per_cycle += cost
            n_cycles = deficit // per_cycle
            for _ in range(n_cycles):
                pad.entry = pad.entry + pad.cycle
                for target in cycle_targets:
                    act, _ = _synth_activation(
                        program, paths, target, dtp.thread
                    )
                    pad.acts.append(act)
                pad.cost += per_cycle
                accounted += per_cycle
            result.padding_cycles = n_cycles

    # The anchor's completed-calls count must now be covered: call sites
    # inside the synthesized blocks come first; any remainder completed at
    # call sites that are visible in the already-decoded blocks (the
    # in-flight path decodes across the horizon), whose CALL instructions
    # name the exact targets.
    for plan in plans:
        frame = plan.frame
        synth_sites = len(plan.acts)
        extra = frame.anchor_calls - synth_sites
        if extra < 0:
            raise PrefixSynthesisError(
                "thread %s: anchor says %s completed %d calls before the "
                "horizon but the synthesized prefix contains %d call sites"
                % (dtp.thread, frame.func, frame.anchor_calls, synth_sites),
                thread=dtp.thread,
            )
        if extra:
            decoded_targets = _call_targets(plan.func, frame.blocks)
            if len(decoded_targets) < extra:
                raise PrefixSynthesisError(
                    "thread %s: anchor needs %d completed calls in %s but "
                    "only %d call sites are visible"
                    % (dtp.thread, extra, frame.func, len(decoded_targets)),
                    thread=dtp.thread,
                )
            for target in decoded_targets[:extra]:
                act, cost = _synth_activation(
                    program, paths, target, dtp.thread
                )
                plan.acts.append(act)
                plan.cost += cost
                accounted += cost

    # Graft: prepend blocks and activations onto the decoded suffix.
    for plan in plans:
        frame = plan.frame
        if plan.entry:
            frame.blocks[:0] = plan.entry
            frame.synth_blocks = len(plan.entry)
        if plan.acts:
            frame.calls[:0] = plan.acts
        result.synth_blocks += len(plan.entry)
        result.synth_calls += sum(1 for _ in plan.acts)
    result.accounted_tokens = accounted
    if accounted != evicted_tokens:
        result.notes.append(
            "%d evicted tokens unaccounted" % (evicted_tokens - accounted)
        )
    return result


def synthesize_prefixes(program, paths, decoded, ring_threads):
    """Synthesize prefixes for every lossy thread of a suffix decode.

    ``decoded`` is {thread: DecodedThreadPath} produced by anchored
    decoding; ``ring_threads`` is {thread: info} where info carries at
    least ``evicted_tokens``.  Returns a :class:`SynthesisReport`;
    mutates the decoded traces in place.
    """
    report = SynthesisReport()
    for thread, dtp in sorted(decoded.items()):
        info = ring_threads.get(thread) or {}
        evicted = int(info.get("evicted_tokens", 0))
        if evicted == 0 and not dtp.root.anchored:
            continue
        report.threads[thread] = synthesize_thread_prefix(
            program, paths, dtp, evicted
        )
    return report
