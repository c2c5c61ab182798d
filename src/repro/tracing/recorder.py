"""The CLAP online recorder: per-thread Ball-Larus whole-path profiles.

This is CLAP's entire runtime footprint.  It subscribes to the
interpreter's control-flow hooks only — it never looks at memory accesses,
values, or other threads — so it needs **no synchronization**: every
counter and log it touches is thread-local.  (That property is the paper's
first headline advantage over order/value recorders such as LEAP.)

Overhead accounting: ``instrumentation_ops`` counts the dynamic
instrumentation actions a compiled-in BL pass would execute — one counter
increment per non-zero-valued CFG edge traversed, and one log append per
function entry/exit/back-edge.  The benchmark harness turns this count
into the simulated slowdown reported in Table 2.

Two recorder variants share the hook interface:

:class:`PathRecorder`
    The straightforward reference implementation.
:class:`FastPathRecorder`
    The production fast path: per-frame merged edge tables, a per-thread
    identity cache that skips dict lookups while the same thread keeps
    running, in-place run-length folding of repeated path tokens (a loop
    iterating N times appends one mutable run cell, not N tuples), and
    deferred op accounting.  Logs materialize to plain tuples at flush
    and finalize, so everything downstream sees identical token streams.

Two sinks consume flushes:

:class:`StreamingTraceSink`
    Unbounded durable streaming to a ``.clap`` writer.
:class:`RingTraceSink`
    The bounded flight recorder: encodes flushes into fixed-size framed
    segments (see ``logfmt`` segment framing) and evicts the oldest
    segments in O(1) under a per-thread byte budget.
"""

from collections import deque

from repro.tracing.ball_larus import ProgramPaths
from repro.tracing.logfmt import (
    SegmentAnchor,
    TAG_PATH,
    TAG_REPEAT,
    _TOKEN_TAGS,
    decode_tokens,
    encode_tokens,
    write_varint,
)


class StreamingTraceSink:
    """Flush newly recorded tokens, chunk by chunk, to a durable writer.

    ``writer`` is anything with ``write_chunk(thread, tokens, final=False)``
    and ``close(meta=None)`` — in production a
    :class:`repro.store.container.ClapWriter`.  The recorder calls
    :meth:`flush` whenever a thread has accumulated ``flush_every`` new
    tokens and once more (``final=True``) at :meth:`PathRecorder.finalize`;
    because every chunk is durable the moment it is written, a recorder
    that crashes mid-run leaves a recoverable prefix on disk instead of
    nothing (the store's ``recover`` synthesizes the missing ``partial``
    tokens).

    Every thread that started gets exactly one ``final=True`` flush at
    finalize, even when it has no buffered tokens left (or never reached
    ``flush_every`` at all): the final chunk is what marks the on-disk log
    complete, so skipping it would make a cleanly finished trace look like
    a crashed one.
    """

    def __init__(self, writer, flush_every=16):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.writer = writer
        self.flush_every = flush_every

    def flush(self, thread, tokens, final=False):
        self.writer.write_chunk(thread, tokens, final=final)

    def close(self, meta=None):
        self.writer.close(meta=meta)


class RingSegment:
    """One sealed flight-recorder segment: framed anchor + record bytes."""

    __slots__ = ("anchor", "body", "n_tokens")

    def __init__(self, anchor, body, n_tokens):
        self.anchor = anchor
        self.body = body
        self.n_tokens = n_tokens


class _RingThread:
    __slots__ = (
        "stack",
        "segments",
        "cur",
        "cur_anchor",
        "cur_tokens",
        "run_pid",
        "run_count",
        "tokens_seen",
        "bytes_seen",
        "segments_sealed",
        "segments_evicted",
        "evicted_tokens",
        "evicted_bytes",
        "retained_bytes",
        "flushes",
        "final",
    )

    def __init__(self):
        # Mirror of the recorder's open-frame chain: [func_id, calls_done].
        self.stack = []
        self.segments = deque()
        self.cur = bytearray()
        self.cur_anchor = None
        self.cur_tokens = 0
        self.run_pid = None
        self.run_count = 0
        self.tokens_seen = 0
        self.bytes_seen = 0
        self.segments_sealed = 0
        self.segments_evicted = 0
        self.evicted_tokens = 0
        self.evicted_bytes = 0
        self.retained_bytes = 0
        self.flushes = 0
        self.final = False


class RingTraceSink:
    """Bounded flight-recorder sink: a per-thread ring of encoded segments.

    Incoming flushes are encoded record-by-record into the current
    segment.  Repeated ``path`` tokens fold into a single pending run that
    survives flush boundaries and is emitted as one ``TAG_REPEAT`` record
    when broken — exactly the run-length logic of
    :func:`repro.tracing.logfmt.encode_tokens`, so the concatenation of
    all segment bodies is *byte-identical* to the unbounded encoding and
    any record-aligned suffix of it still decodes.

    A segment seals when appending the next record would push it past
    ``segment_bytes``; sealing snapshots nothing and resets no counters
    (path ids always decode standalone), it just freezes the byte range.
    Each segment's :class:`~repro.tracing.logfmt.SegmentAnchor` — the
    open-frame chain and cumulative stream position at its first record —
    was captured when that first record was appended.  When the retained
    bytes exceed ``ring_bytes``, the oldest sealed segments pop off the
    left of a deque (O(1) each); the current segment is never evicted, so
    retention exceeds the budget by at most one segment.
    """

    def __init__(self, ring_bytes, segment_bytes=512, flush_every=16):
        if ring_bytes < 1:
            raise ValueError("ring_bytes must be >= 1")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.ring_bytes = ring_bytes
        self.segment_bytes = segment_bytes
        self.flush_every = flush_every
        self._threads = {}

    # -- sink protocol ------------------------------------------------------

    def flush(self, thread, tokens, final=False):
        st = self._threads.get(thread)
        if st is None:
            st = self._threads[thread] = _RingThread()
        st.flushes += 1
        for token in tokens:
            kind = token[0]
            if kind == "path":
                pid = token[1]
                if st.run_pid == pid:
                    st.run_count += 1
                else:
                    if st.run_pid is not None:
                        self._end_run(st)
                    st.run_pid = pid
                    st.run_count = 1
                continue
            if st.run_pid is not None:
                self._end_run(st)
            rec = bytearray()
            rec.append(_TOKEN_TAGS[kind])
            for value in token[1:]:
                write_varint(rec, value)
            self._append_record(st, bytes(rec), 1)
            # Mirror the frame chain *after* appending, so a segment whose
            # first record is this token anchors at the pre-token state.
            if kind == "enter" or kind == "resume":
                st.stack.append([token[1], 0])
            elif kind == "exit":
                if st.stack:
                    st.stack.pop()
                    if st.stack:
                        st.stack[-1][1] += 1
            elif kind == "partial":
                if st.stack:
                    st.stack.pop()
        if final:
            if st.run_pid is not None:
                self._end_run(st)
            st.final = True

    def close(self, meta=None):
        pass

    # -- internals ----------------------------------------------------------

    def _end_run(self, st):
        pid = st.run_pid
        count = st.run_count
        st.run_pid = None
        st.run_count = 0
        rec = bytearray()
        if count >= 2:
            rec.append(TAG_REPEAT)
            write_varint(rec, pid)
            write_varint(rec, count)
        else:
            rec.append(TAG_PATH)
            write_varint(rec, pid)
        self._append_record(st, bytes(rec), count)

    def _append_record(self, st, rec, n_tokens):
        if st.cur and len(st.cur) + len(rec) > self.segment_bytes:
            self._seal(st)
        if st.cur_anchor is None:
            st.cur_anchor = SegmentAnchor(
                frames=tuple((fid, calls) for fid, calls in st.stack),
                tokens_before=st.tokens_seen,
                bytes_before=st.bytes_seen,
                segments_before=st.segments_sealed,
            )
        st.cur.extend(rec)
        st.cur_tokens += n_tokens
        st.tokens_seen += n_tokens
        st.bytes_seen += len(rec)
        st.retained_bytes += len(rec)
        while st.retained_bytes > self.ring_bytes and st.segments:
            seg = st.segments.popleft()
            st.segments_evicted += 1
            st.retained_bytes -= len(seg.body)
            st.evicted_tokens += seg.n_tokens
            st.evicted_bytes += len(seg.body)

    def _seal(self, st):
        st.segments.append(
            RingSegment(st.cur_anchor, bytes(st.cur), st.cur_tokens)
        )
        st.segments_sealed += 1
        st.cur = bytearray()
        st.cur_anchor = None
        st.cur_tokens = 0

    # -- results ------------------------------------------------------------

    def threads(self):
        return sorted(self._threads)

    def iter_segments(self, thread):
        """Surviving segments oldest-first, including the open one."""
        st = self._threads[thread]
        for seg in st.segments:
            yield seg
        if st.cur:
            yield RingSegment(st.cur_anchor, bytes(st.cur), st.cur_tokens)

    def suffix_anchor(self, thread):
        """Anchor of the oldest surviving segment — the eviction horizon."""
        for seg in self.iter_segments(thread):
            return seg.anchor
        return SegmentAnchor()

    def suffix_bytes(self, thread):
        """Raw record bytes of the surviving suffix (no segment framing)."""
        return b"".join(seg.body for seg in self.iter_segments(thread))

    def suffix_tokens(self, thread):
        return decode_tokens(self.suffix_bytes(thread))

    def retained_bytes(self, thread):
        return self._threads[thread].retained_bytes

    def lossy(self, thread=None):
        if thread is not None:
            return self._threads[thread].evicted_tokens > 0
        return any(st.evicted_tokens > 0 for st in self._threads.values())

    def thread_info(self, thread):
        st = self._threads[thread]
        return {
            "anchor": self.suffix_anchor(thread),
            "evicted_tokens": st.evicted_tokens,
            "evicted_bytes": st.evicted_bytes,
            "segments_written": st.segments_sealed + (1 if st.cur else 0),
            "segments_evicted": st.segments_evicted,
            "flushes": st.flushes,
            "retained_bytes": st.retained_bytes,
            "retained_tokens": st.cur_tokens
            + sum(seg.n_tokens for seg in st.segments),
            "total_bytes": st.bytes_seen,
            "total_tokens": st.tokens_seen,
        }

    def info(self):
        """JSON-ready-ish summary (anchors stay SegmentAnchor objects)."""
        return {
            "ring_bytes": self.ring_bytes,
            "segment_bytes": self.segment_bytes,
            "threads": {t: self.thread_info(t) for t in self.threads()},
        }


class PathRecorder:
    """Interpreter hook that records thread-local execution paths.

    ``retain_logs=False`` puts the recorder in flight-recorder mode: each
    flushed token batch is dropped from memory once the sink has it, so
    resident log size is bounded by the flush threshold (the sink — a
    :class:`RingTraceSink` — owns the retained suffix).
    """

    def __init__(self, program, paths=None, sink=None, retain_logs=True):
        self.program = program
        self.paths = paths if paths is not None else ProgramPaths.build(program)
        self.func_ids = {name: i for i, name in enumerate(sorted(program.functions))}
        self.func_names = {i: name for name, i in self.func_ids.items()}
        # thread name -> list of tokens
        self.logs = {}
        # thread name -> stack of [func_name, counter, current_block, ...]
        self._stacks = {}
        # Optional sink; thread name -> tokens already flushed.
        self.sink = sink
        self.retain_logs = retain_logs
        self._flushed = {}
        # Threads that already got their final=True flush this epoch.
        self._final_flushed = set()
        self.instrumentation_ops = 0
        self._finalized = False

    # -- streaming ----------------------------------------------------------

    def _maybe_flush(self, thread_name):
        sink = self.sink
        if sink is None:
            return
        if len(self.logs[thread_name]) - self._flushed[thread_name] >= sink.flush_every:
            self._flush_thread(thread_name)

    def _flush_thread(self, thread_name, final=False):
        """Flush one thread's pending tail; empty final flushes still count.

        A started thread must see exactly one ``final=True`` flush per
        epoch, even when its token count landed exactly on a flush
        boundary (or it recorded nothing at all) — otherwise the sink
        never learns the log completed cleanly.
        """
        log = self.logs[thread_name]
        done = self._flushed[thread_name]
        pending = log[done:]
        if not pending and not (final and thread_name not in self._final_flushed):
            return
        self.sink.flush(thread_name, pending, final=final)
        if final:
            self._final_flushed.add(thread_name)
        if self.retain_logs:
            self._flushed[thread_name] = len(log)
        else:
            del log[:]
            self._flushed[thread_name] = 0

    def _flush_pending(self, final=False):
        """Push every thread's unflushed tail to the sink."""
        if self.sink is None:
            return
        for thread_name in sorted(self.logs):
            self._flush_thread(thread_name, final=final)

    # -- interpreter hook interface -----------------------------------------

    def on_thread_start(self, thread):
        self.logs[thread.name] = []
        self._stacks[thread.name] = []
        self._flushed[thread.name] = 0

    def on_enter(self, thread, func_name):
        stack = self._stacks[thread.name]
        stack.append([func_name, 0, 0])
        self.logs[thread.name].append(("enter", self.func_ids[func_name]))
        self.instrumentation_ops += 1
        self._maybe_flush(thread.name)

    def on_edge(self, thread, func_name, src, dst):
        frame = self._stacks[thread.name][-1]
        bl = self.paths[func_name]
        reset = bl.backedge_reset.get((src, dst))
        if reset is not None:
            emit_add, new_counter = reset
            self.logs[thread.name].append(("path", frame[1] + emit_add))
            frame[1] = new_counter
            self.instrumentation_ops += 1
            self._maybe_flush(thread.name)
        else:
            val = bl.real_edge_val.get((src, dst), 0)
            if val:
                frame[1] += val
                self.instrumentation_ops += 1
        frame[2] = dst

    def on_exit(self, thread, func_name, exit_block):
        stack = self._stacks[thread.name]
        frame = stack.pop()
        bl = self.paths[func_name]
        final = frame[1] + bl.ret_edge_val.get(exit_block, 0)
        log = self.logs[thread.name]
        log.append(("path", final))
        log.append(("exit",))
        self.instrumentation_ops += 1
        self._maybe_flush(thread.name)

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self, interpreter):
        """Archive the logs so far and restart recording mid-execution.

        Implements the log side of the paper's Section 6.4 future work
        ("we plan to integrate CLAP with checkpointing"): each live frame
        contributes a ``resume`` token naming its current position, its
        Ball-Larus counter restarts at zero, and subsequent path ids
        decode as *suffix* segments from the resume block.

        Returns {thread_name: archived token list} for the prefix.
        """
        self._flush_pending(final=True)
        self._final_flushed = set()
        archived = self.logs
        self.logs = {}
        self._flushed = {}
        for thread in interpreter.threads.values():
            stack = self._stacks.get(thread.name)
            if stack is None:
                continue
            log = []
            for frame_state, frame in zip(stack, thread.frames):
                func_name = frame_state[0]
                log.append(("resume", self.func_ids[func_name], frame.block, frame.ip))
                frame_state[1] = 0
                frame_state[2] = frame.block
            self.logs[thread.name] = log
            self._flushed[thread.name] = 0
        return archived

    # -- finalization ---------------------------------------------------------

    def finalize(self, interpreter):
        """Dump partial paths for frames still live at the stop point.

        In the real system this is the crash-time log flush: each live
        frame contributes its unfinished path counter plus the exact stop
        position (block, ip).
        """
        if self._finalized:
            return
        self._finalized = True
        for thread in interpreter.threads.values():
            stack = self._stacks.get(thread.name)
            if not stack:
                continue
            log = self.logs[thread.name]
            # A thread stopped inside wait() already committed one or two of
            # the wait's three sub-SAPs; record how many (thread-local info).
            wait_stage = 0
            if thread.wait_resume is not None:
                wait_stage = 1 if thread.wait_resume[0] == "signaled-pending" else 2
            # Dump innermost-first: the decoder processes tokens in order
            # with the innermost open frame on top of its stack, so each
            # ``partial`` token closes the current top.
            innermost = True
            for frame_state, frame in reversed(list(zip(stack, thread.frames))):
                func_name, counter = frame_state[0], frame_state[1]
                stage = wait_stage if innermost else 0
                log.append(("partial", counter, frame.block, frame.ip, stage))
                innermost = False
        self._flush_pending(final=True)

    # -- results ---------------------------------------------------------------

    def encoded_logs(self):
        """{thread_name: bytes} — what would be written to disk."""
        return {name: encode_tokens(tokens) for name, tokens in self.logs.items()}

    def log_size_bytes(self):
        return sum(len(data) for data in self.encoded_logs().values())


_NO_CACHE = (None, None, None, None, None, None)


class FastPathRecorder(PathRecorder):
    """Fast-path token appender: same token streams, much less per-edge work.

    * Per-function edge tables merge ``backedge_reset`` and the non-zero
      ``real_edge_val`` entries into one dict, stored *in the frame* so the
      hot path does a single ``dict.get`` per edge — no per-edge attribute
      walks or ``paths[func]`` lookups.
    * A thread-identity cache (checked with ``is``) pins the current
      thread's stack/log/run/op cells, skipping the per-hook dict lookups
      while the scheduler keeps the same thread running.
    * Repeated path ids fold in place: a loop that re-executes one BL path
      N times appends a single mutable run cell ``["path", pid, count]``
      instead of N tuples (batched run-length folding; the encoder's RLE
      done at append time).
    * ``instrumentation_ops`` accumulates in per-thread cells and merges at
      finalize/checkpoint, avoiding attribute traffic per edge.

    Run cells materialize into plain ``("path", pid)`` tuples whenever the
    log crosses the flush/finalize boundary, so sinks, the decoder, and
    every downstream consumer see token streams identical to
    :class:`PathRecorder`'s.
    """

    def __init__(self, program, paths=None, sink=None, retain_logs=True):
        super().__init__(program, paths=paths, sink=sink, retain_logs=retain_logs)
        self._edge_tables = {}
        self._ret_vals = {}
        for name in program.functions:
            bl = self.paths[name]
            table = {}
            for edge, val in bl.real_edge_val.items():
                if val:
                    table[edge] = (False, val, 0)
            for edge, (emit_add, new_counter) in bl.backedge_reset.items():
                table[edge] = (True, emit_add, new_counter)
            self._edge_tables[name] = table
            self._ret_vals[name] = bl.ret_edge_val
        # thread name -> [active run cell or None]
        self._runs = {}
        # thread name -> [pending op count]
        self._ops = {}
        # (thread, stack, run holder, op cell, log, name)
        self._cache = _NO_CACHE

    def _activate(self, thread):
        name = thread.name
        cache = (
            thread,
            self._stacks[name],
            self._runs[name],
            self._ops[name],
            self.logs[name],
            name,
        )
        self._cache = cache
        return cache

    # -- hook interface (hot path) ------------------------------------------

    def on_thread_start(self, thread):
        super().on_thread_start(thread)
        self._runs[thread.name] = [None]
        self._ops[thread.name] = [0]

    def on_enter(self, thread, func_name):
        c = self._cache
        if c[0] is not thread:
            c = self._activate(thread)
        c[1].append([func_name, 0, 0, self._edge_tables[func_name]])
        c[2][0] = None
        c[4].append(("enter", self.func_ids[func_name]))
        c[3][0] += 1
        if self.sink is not None:
            self._maybe_flush_fast(c)

    def on_edge(self, thread, func_name, src, dst):
        c = self._cache
        if c[0] is not thread:
            c = self._activate(thread)
        frame = c[1][-1]
        info = frame[3].get((src, dst))
        if info is None:
            frame[2] = dst
            return
        back, add, new_counter = info
        if not back:
            frame[1] += add
            frame[2] = dst
            c[3][0] += 1
            return
        pid = frame[1] + add
        run = c[2]
        cell = run[0]
        if cell is not None and cell[1] == pid:
            cell[2] += 1
        else:
            cell = ["path", pid, 1]
            run[0] = cell
            c[4].append(cell)
        frame[1] = new_counter
        frame[2] = dst
        c[3][0] += 1
        if self.sink is not None:
            self._maybe_flush_fast(c)

    def on_exit(self, thread, func_name, exit_block):
        c = self._cache
        if c[0] is not thread:
            c = self._activate(thread)
        frame = c[1].pop()
        pid = frame[1] + self._ret_vals[func_name].get(exit_block, 0)
        run = c[2]
        cell = run[0]
        if cell is not None and cell[1] == pid:
            cell[2] += 1
        else:
            c[4].append(["path", pid, 1])
        run[0] = None
        c[4].append(("exit",))
        c[3][0] += 1
        if self.sink is not None:
            self._maybe_flush_fast(c)

    def _maybe_flush_fast(self, c):
        if len(c[4]) - self._flushed[c[5]] >= self.sink.flush_every:
            self._flush_thread(c[5])

    # -- materialization -----------------------------------------------------

    def _materialize(self, thread_name):
        """Expand run cells in the unflushed tail into plain tuples."""
        log = self.logs[thread_name]
        done = self._flushed[thread_name]
        tail = log[done:]
        if any(type(entry) is list for entry in tail):
            expanded = []
            for entry in tail:
                if type(entry) is list:
                    expanded.extend([("path", entry[1])] * entry[2])
                else:
                    expanded.append(entry)
            log[done:] = expanded
        self._runs[thread_name][0] = None

    def _merge_ops(self):
        for cell in self._ops.values():
            self.instrumentation_ops += cell[0]
            cell[0] = 0

    def _flush_thread(self, thread_name, final=False):
        self._materialize(thread_name)
        super()._flush_thread(thread_name, final=final)

    def checkpoint(self, interpreter):
        for thread_name in self.logs:
            self._materialize(thread_name)
        self._merge_ops()
        archived = super().checkpoint(interpreter)
        self._cache = _NO_CACHE
        self._runs = {name: [None] for name in self.logs}
        return archived

    def finalize(self, interpreter):
        if self._finalized:
            return
        for thread_name in self.logs:
            self._materialize(thread_name)
        self._merge_ops()
        self._cache = _NO_CACHE
        super().finalize(interpreter)

    def encoded_logs(self):
        if not self._finalized:
            for thread_name in self.logs:
                self._materialize(thread_name)
        return super().encoded_logs()
