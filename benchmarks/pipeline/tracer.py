"""In-memory spans for the traced benchmark run, measured from outside.

The traced run wraps the public callables of each pipeline layer at the
name its caller looks up (a class attribute or a module global), records
one span per call and restores every original afterwards.  Nothing under
``src/`` is edited, and the real ``reproduce_offline`` orchestration
runs unchanged.

Spans nest through :mod:`contextvars`, are timed with
``time.monotonic_ns`` and stay in memory until the run writes them out.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

import contextlib
import contextvars
import functools
import json
import os
import threading
import time

BENCH = "bench"

_current = contextvars.ContextVar("bench_span", default=None)


class Span:
    __slots__ = ("name", "layer", "start", "end", "tid", "parent")

    def __init__(self, name, layer, start, tid, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent


def _union_ns(intervals):
    """Total length covered by possibly overlapping (start, end) pairs."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Collects spans while it is installed."""

    def __init__(self):
        self.spans = []
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, layer):
        span = Span(
            name, layer, time.monotonic_ns(), threading.get_ident(),
            _current.get(),
        )
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.monotonic_ns()
            _current.reset(token)
            self.spans.append(span)

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- install / restore -------------------------------------------------

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        import repro.core.clap as clap
        import repro.store.synthesize as synthesize
        from repro.runtime.interpreter import Interpreter

        pipeline = clap.ClapPipeline
        targets = (
            (pipeline, "__init__", "analysis.pipeline_init"),
            (pipeline, "record_once", "tracing.record"),
            (pipeline, "solve", "solver.solve"),
            (pipeline, "replay", "runtime.replay"),
            (Interpreter, "run", "runtime.interpret"),
            (clap, "decode_log", "tracing.decode"),
            (clap, "decode_thread_tokens", "tracing.decode"),
            (clap, "execute_recorded_paths", "analysis.symexec"),
            (clap, "encode", "constraints.encode"),
            (clap, "compute_stats", "constraints.encode"),
            (synthesize, "synthesize_prefixes", "store.synthesize"),
        )
        try:
            for owner, attr, layer in targets:
                fn = owner.__dict__[attr]
                self._patch(owner, attr,
                            self._wrap(fn, "%s.%s" % (owner.__name__, attr), layer))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_self_ns(self, start, end):
        """Self time per layer for spans that started in [start, end]."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out = {}
        for span in self.spans:
            if span.layer == BENCH or not start <= span.start <= end:
                continue
            covered = _union_ns(
                (c.start, c.end) for c in children.get(id(span), ())
            )
            out[span.layer] = (
                out.get(span.layer, 0) + span.end - span.start - covered
            )
        return out

    def coverage(self, start, end):
        """Share of [start, end] covered by layer spans."""
        intervals = [
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.layer != BENCH and s.start < end and s.end > start
        ]
        return _union_ns(intervals) / max(end - start, 1)

    def chrome_trace(self, path):
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": s.start / 1000.0,
                "dur": (s.end - s.start) / 1000.0,
                "pid": pid,
                "tid": s.tid,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
