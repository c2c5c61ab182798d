"""The trace corpus: a directory of durable recorded failures.

Layout::

    corpus/
      corpus.json                 # {"format": 1} corpus marker
      entries/
        <entry-id>/
          manifest.json           # program source+hash, record params,
                                  # bug report, record-overhead stats
          trace.clap              # the .clap trace container

An entry is *self-contained*: its manifest carries the MiniLang source
and every scheduler parameter of the recorded run, so the batch service
can recompile the program and reproduce the failure from disk alone —
long after the recording process (and machine) is gone.

This module is the one place that knows the *failure record*: the
``program``, ``record``, ``bug`` and ``stats`` sections
(:func:`failure_record`) that a manifest and a fleet crash report share,
plus the optional ``ring`` section of a flight recording.  A loaded entry
is a :class:`StoredExecution`, a
:class:`~repro.core.clap.RecordedExecution` like a live recording.

``Corpus.add`` records twice on purpose: a first in-memory record finds
the failing seed, then the same seed is re-run with a
:class:`~repro.tracing.recorder.StreamingTraceSink` feeding a
:class:`~repro.store.container.ClapWriter`, so the bytes on disk come
from a genuine chunk-by-chunk streaming write (the crash-durability
path), not a post-hoc dump.  The two runs' logs are compared token for
token; any divergence means the scheduler is not deterministic and the
entry is refused rather than silently stored wrong.
"""

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass

from repro.core.clap import ClapConfig, ClapPipeline, RecordedExecution
from repro.minilang import compile_source
from repro.runtime.events import BugReport
from repro.store import durable
from repro.store.container import (
    CHUNK_RECOVERED,
    CHUNK_RING,
    ClapReader,
    ClapWriter,
    compact_container,
)
from repro.store.recover import RecoveryReport, recover_tokens
from repro.tracing.logfmt import SegmentAnchor, decode_tokens, encode_tokens
from repro.tracing.recorder import PathRecorder, StreamingTraceSink

CORPUS_FORMAT = 1
MANIFEST_FORMAT = 1

# ClapConfig fields a failure record persists; everything else (solver
# choice, time budgets) is a *reproduction-time* decision, not a property
# of the recorded execution.
RECORD_PARAMS = (
    "memory_model",
    "stickiness",
    "flush_prob",
    "max_steps",
    "max_cs",
    "pin_observed_reads",
    "ring_bytes",
    "ring_segment_bytes",
)

class CorpusError(Exception):
    """A structural problem with a corpus directory or entry."""


def source_sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the failure record ------------------------------------------------------


# The ``stats`` keys a live run reports, with their JSON types: what
# :func:`run_stats` writes, what a wire crash report carries and what the
# gateway reads back.  A manifest's ``stats`` adds what the store
# measures itself (``log_bytes``, ``time_record``), which reports leave
# out.
RUN_STATS_TYPES = {
    "thread_names": list,
    "n_instructions": int,
    "n_branches": int,
    "n_saps": int,
    "instrumentation_ops": int,
}


def run_stats(result, recorder):
    """The ``stats`` section of a live run (:data:`RUN_STATS_TYPES`):
    ``result`` is its ExecutionResult, ``recorder`` its finalized
    PathRecorder."""
    return {
        "thread_names": sorted(result.thread_names.values()),
        "n_instructions": result.total_instructions(),
        "n_branches": result.total_branches(),
        "n_saps": result.total_saps(),
        "instrumentation_ops": recorder.instrumentation_ops,
    }


def failure_record(source, name, config, seed, bug, stats):
    """The ``program``, ``record``, ``bug`` and ``stats`` sections a
    manifest and a wire crash report share."""
    return {
        "program": {
            "name": name,
            "source": source,
            "sha256": source_sha256(source),
        },
        "record": dict(
            {key: getattr(config, key) for key in RECORD_PARAMS},
            seed=seed,
        ),
        "bug": bug.to_json(),
        "stats": stats,
    }


def ring_section(ring):
    """A recording's ring snapshot (:attr:`RecordedExecution.ring`,
    anchors as :class:`SegmentAnchor`) as its JSON ``ring`` section."""
    threads = {
        thread: dict(info, anchor=info["anchor"].to_json())
        for thread, info in ring.get("threads", {}).items()
    }
    return {
        "ring_bytes": ring.get("ring_bytes"),
        "segment_bytes": ring.get("segment_bytes"),
        "lossy": any(
            info.get("evicted_tokens", 0) > 0 for info in threads.values()
        ),
        "threads": threads,
    }


def revive_ring(section):
    """The inverse of :func:`ring_section`: anchors back to objects."""
    return dict(
        section,
        threads={
            thread: dict(info, anchor=SegmentAnchor.from_json(info["anchor"]))
            for thread, info in section.get("threads", {}).items()
        },
    )


def check_storable(bug, logs, checkpoint=None):
    """Refuse what no entry can reproduce: a run with no failure, or a
    checkpointed run, whose ``resume`` streams need the snapshot they
    resume from — and a snapshot is not a container chunk (yet)."""
    if bug is None:
        raise CorpusError("refusing to store a recording with no failure")
    if checkpoint is not None or any(
        token[0] == "resume" for tokens in logs.values() for token in tokens
    ):
        raise CorpusError(
            "refusing to store a checkpointed recording: its logs resume "
            "from a snapshot, and the corpus does not store snapshots"
        )


class _StoredResult:
    """Duck-types ExecutionResult from manifest stats.

    ``saps_by_thread`` is empty: runtime SAP values are not persisted
    (CLAP never records them), so observed-read pinning degrades to a
    no-op for stored executions — exactly the paper's constraint that
    only control flow survives the crash.
    """

    def __init__(self, bug, stats):
        self.bug = bug
        self.thread_names = {
            i: name for i, name in enumerate(stats.get("thread_names", []))
        }
        self.saps_by_thread = {}
        self._stats = stats

    def total_instructions(self):
        return self._stats.get("n_instructions", 0)

    def total_branches(self):
        return self._stats.get("n_branches", 0)

    def total_saps(self):
        return self._stats.get("n_saps", 0)


@dataclass
class StoredExecution(RecordedExecution):
    """A :class:`~repro.core.clap.RecordedExecution` reloaded from a
    corpus entry: its recorder is a :class:`PathRecorder` holding the
    stored streams, its result reads the manifest's stats."""

    program: object = None
    entry_id: str | None = None
    # RecoveryReport when the container needed crash recovery.
    recovery: object = None


class CorpusEntry:
    """One recorded failure: ``manifest.json`` + ``trace.clap``."""

    def __init__(self, path):
        self.path = path
        self.entry_id = os.path.basename(os.path.normpath(path))
        self.manifest_path = os.path.join(path, "manifest.json")
        self.trace_path = os.path.join(path, "trace.clap")
        self._manifest = None

    @property
    def manifest(self):
        if self._manifest is None:
            try:
                with open(self.manifest_path, "r", encoding="utf-8") as fh:
                    self._manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CorpusError(
                    "entry %s: unreadable manifest: %s" % (self.entry_id, exc)
                ) from exc
        return self._manifest

    def _write_manifest(self, manifest):
        durable.write_json(self.manifest_path, manifest, indent=2)
        self._manifest = manifest

    # -- introspection ---------------------------------------------------

    def program_name(self):
        return self.manifest["program"]["name"]

    def bug(self):
        raw = self.manifest.get("bug")
        return None if raw is None else BugReport.from_json(raw)

    def compile_program(self):
        prog = self.manifest["program"]
        if source_sha256(prog["source"]) != prog["sha256"]:
            raise CorpusError(
                "entry %s: program source does not match its recorded hash"
                % self.entry_id
            )
        return compile_source(prog["source"], name=prog["name"])

    def config_kwargs(self, **overrides):
        """ClapConfig kwargs reproducing this entry's recorded setup."""
        kwargs = {
            key: self.manifest["record"][key]
            for key in RECORD_PARAMS
            if key in self.manifest["record"]
        }
        kwargs.update(overrides)
        return kwargs

    # -- operations ------------------------------------------------------

    def verify(self):
        """Check the container end to end; returns (ok, problems)."""
        problems = []
        try:
            manifest = self.manifest
        except CorpusError as exc:
            return False, [str(exc)]
        if not os.path.exists(self.trace_path):
            return False, ["trace.clap missing"]
        prog = manifest.get("program", {})
        if source_sha256(prog.get("source", "")) != prog.get("sha256"):
            problems.append("program source hash mismatch")
        reader = ClapReader.open(self.trace_path)
        problems.extend(reader.problems)
        return not problems, problems

    def load_execution(self, allow_recover=True):
        """Reload the recorded execution; recovers truncated traces.

        A container with a valid footer loads directly; a truncated one
        (crashed recorder) goes through :func:`recover_tokens` when
        ``allow_recover`` is set.  Returns a :class:`StoredExecution`.
        """
        program = self.compile_program()
        paths = program.paths
        reader = ClapReader.open(self.trace_path)
        ring = self.manifest.get("ring")
        if ring is None and any(c.flags & CHUNK_RING for c in reader.chunks):
            raise CorpusError(
                "entry %s: container holds flight-recorder (ring) chunks "
                "but the manifest has no ring metadata; refusing to treat "
                "a suffix log as a complete trace" % self.entry_id
            )
        recovery = None
        if reader.complete or self.manifest.get("recovered"):
            logs = reader.thread_tokens()
        elif allow_recover:
            logs, recovery = self._recover_tokens(reader, program, paths)
        else:
            raise CorpusError(
                "entry %s: damaged container: %s"
                % (self.entry_id, "; ".join(reader.problems))
            )
        recorder = PathRecorder(program, paths=paths)
        recorder.logs = logs
        return StoredExecution(
            seed=self.manifest["record"]["seed"],
            result=_StoredResult(self.bug(), self.manifest.get("stats", {})),
            recorder=recorder,
            shared=program.shared,
            ring=None if ring is None else revive_ring(ring),
            # None for legacy manifests, which then load under any model.
            memory_model=self.manifest["record"].get("memory_model"),
            program=program,
            entry_id=self.entry_id,
            recovery=recovery,
        )

    def _recover_tokens(self, reader, program, paths):
        logs, report = recover_tokens(
            reader.thread_tokens(), program, paths=paths, bug=self.bug()
        )
        if not logs:
            raise CorpusError(
                "entry %s: no thread survived recovery (%s)"
                % (self.entry_id, report.summary())
            )
        return logs, report

    def recover(self):
        """Rewrite a truncated container as a complete, recovered one.

        Returns the :class:`~repro.store.recover.RecoveryReport`.  The
        rewritten chunks carry ``CHUNK_RECOVERED`` and the manifest gains
        ``recovered: true`` so later loads skip re-recovery.  The
        container swap is the commit point; its footer also carries the
        report, so rerunning a recover interrupted before the manifest
        update finishes it.
        """
        reader = ClapReader.open(self.trace_path)
        if reader.complete:
            done = reader.meta.get("recovery")
            if done is None or self.manifest.get("recovered"):
                raise CorpusError(
                    "entry %s: container is complete; nothing to recover"
                    % self.entry_id
                )
            report = RecoveryReport(**done)
        else:
            program = self.compile_program()
            logs, report = self._recover_tokens(
                reader, program, program.paths
            )
            meta = dict(reader.meta)
            meta.pop("format", None)
            meta["recovered"] = report.summary()
            meta["recovery"] = asdict(report)
            with durable.staged(self.trace_path) as tmp:
                writer = ClapWriter(tmp)
                for thread in sorted(logs):
                    writer.write_chunk(
                        thread, logs[thread], final=True, flags=CHUNK_RECOVERED
                    )
                writer.close(meta=meta)
        self._write_manifest(
            dict(self.manifest, recovered=True, recovery=asdict(report))
        )
        return report

    def compact(self):
        """Merge streaming chunks; returns (old_size, new_size)."""
        with durable.staged(self.trace_path) as tmp:
            old, new = compact_container(self.trace_path, tmp)
        return old, new


class Corpus:
    """A directory of corpus entries."""

    def __init__(self, root):
        self.root = root
        self.entries_dir = os.path.join(root, "entries")

    @classmethod
    def create(cls, root):
        os.makedirs(os.path.join(root, "entries"), exist_ok=True)
        marker = os.path.join(root, "corpus.json")
        if not os.path.exists(marker):
            durable.write_json(marker, {"format": CORPUS_FORMAT})
        return cls(root)

    @classmethod
    def open(cls, root):
        marker = os.path.join(root, "corpus.json")
        if not os.path.isfile(marker):
            raise CorpusError("%s is not a corpus (no corpus.json)" % root)
        with open(marker, "r", encoding="utf-8") as fh:
            info = json.load(fh)
        if info.get("format") != CORPUS_FORMAT:
            raise CorpusError(
                "%s: unsupported corpus format %r" % (root, info.get("format"))
            )
        return cls(root)

    @classmethod
    def open_or_create(cls, root):
        if os.path.isfile(os.path.join(root, "corpus.json")):
            return cls.open(root)
        return cls.create(root)

    def entry_ids(self):
        if not os.path.isdir(self.entries_dir):
            return []
        return sorted(
            name
            for name in os.listdir(self.entries_dir)
            if not name.startswith(".")
            and os.path.isfile(
                os.path.join(self.entries_dir, name, "manifest.json")
            )
        )

    def entries(self):
        return [self.entry(entry_id) for entry_id in self.entry_ids()]

    def entry(self, entry_id):
        path = os.path.join(self.entries_dir, entry_id)
        if not os.path.isfile(os.path.join(path, "manifest.json")):
            raise CorpusError("no corpus entry %s" % entry_id)
        return CorpusEntry(path)

    # -- adding ----------------------------------------------------------

    def free_entry_id(self, base):
        """``base``, else the first free of ``base-2``, ``base-3``, ..."""
        entry_id, suffix = base, 1
        while os.path.exists(os.path.join(self.entries_dir, entry_id)):
            suffix += 1
            entry_id = "%s-%d" % (base, suffix)
        return entry_id

    @contextlib.contextmanager
    def _new_entry(self, entry_id):
        """Build entry ``entry_id`` in a staging directory, then commit it.

        The body writes ``trace.clap`` and ``manifest.json`` into the
        yielded staging :class:`CorpusEntry`; on a clean exit one
        :func:`durable.move` renames the directory into place, which is
        the entry's commit point.  An error discards the staging
        directory.  A crash leaves it behind under a dot name that
        :meth:`entry_ids` skips and a retry from the same process
        replaces, so it never blocks the retry.
        """
        path = os.path.join(self.entries_dir, entry_id)
        if os.path.exists(path):
            raise CorpusError("corpus entry %s already exists" % entry_id)
        staging = os.path.join(self.entries_dir, "." + durable.tmp_path(entry_id))
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        try:
            yield CorpusEntry(staging)
        except Exception:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        durable.move(staging, path)

    def add(self, source, name=None, config=None, entry_id=None,
            flush_every=16, recorded=None, extra_manifest=None):
        """Record one failure of ``source`` and persist it as an entry.

        ``config`` is a :class:`~repro.core.clap.ClapConfig` (or None for
        defaults); ``flush_every`` is the streaming sink's chunk
        granularity in tokens.  ``recorded`` (a
        :class:`~repro.core.clap.RecordedExecution` of the same program
        and config) skips the internal seed search — the sharded fleet
        records once to learn the trace's content hash, routes it, and
        then stores through here without repeating the search; the
        streaming re-run and its determinism check still happen.
        ``extra_manifest`` is a JSON-able dict merged into the manifest
        (the fleet stamps ``{"fleet": {shard, cluster}}``).  Returns the
        new :class:`CorpusEntry`.
        """
        program, config = _compile(source, name, config)
        pipeline = ClapPipeline(program, config)
        t0 = time.monotonic()
        if recorded is None:
            recorded = pipeline.record()
        time_record = time.monotonic() - t0
        check_storable(
            recorded.bug, recorded.recorder.logs, recorded.checkpoint
        )
        if entry_id is None:
            entry_id = "%s-s%d-%s" % (
                program.name, recorded.seed, source_sha256(source)[:8]
            )

        with self._new_entry(entry_id) as entry:
            # Genuine streaming write: re-run the failing seed with the
            # recorder flushing chunk by chunk into the container, then
            # check the durable bytes describe the very same execution.
            # Ring configs re-run through the bounded flight recorder
            # instead and persist one CHUNK_RING chunk per surviving
            # segment — the container then holds exactly the suffix a
            # post-mortem reader would have found, and the manifest
            # carries the decode anchors.
            writer = ClapWriter(entry.trace_path)
            meta = {
                "entry": entry_id,
                "program": program.name,
                "seed": recorded.seed,
            }
            if config.ring_bytes is not None:
                streamed = pipeline.record_once(recorded.seed)
                ring_sink = streamed.ring_sink
                for thread in ring_sink.threads():
                    # A thread with no surviving segment still gets one
                    # (empty) final chunk.
                    bodies = [
                        decode_tokens(seg.body)
                        for seg in ring_sink.iter_segments(thread)
                    ] or [[]]
                    for i, tokens in enumerate(bodies):
                        writer.write_chunk(
                            thread,
                            tokens,
                            final=(i == len(bodies) - 1),
                            flags=CHUNK_RING,
                        )
                meta["ring"] = True
            else:
                sink = StreamingTraceSink(writer, flush_every=flush_every)
                streamed = pipeline.record_once(recorded.seed, sink=sink)
            writer.close(meta=meta)
            if not recorded.bug.same_failure(streamed.bug) or (
                streamed.recorder.logs != recorded.recorder.logs
            ):
                raise CorpusError(
                    "seed %d replayed differently while streaming to disk; "
                    "refusing to store a non-deterministic recording"
                    % recorded.seed
                )

            entry._write_manifest(
                _manifest(
                    entry_id, program, source, config, recorded.seed,
                    recorded.bug,
                    run_stats(recorded.result, recorded.recorder),
                    recorded.recorder.logs, time_record, streamed.ring,
                    extra_manifest or {},
                )
            )
        return self.entry(entry_id)

    def add_recorded(self, source, logs, bug, stats, name=None, config=None,
                     entry_id=None, tag=None, seed=-1, provenance=None,
                     time_record=0.0, ring=None, extra_manifest=None):
        """Persist an already-recorded failing execution as an entry.

        ``logs`` are the run's finalized per-thread token streams, ``bug``
        its observed failure and ``stats`` its :func:`run_stats`.  This
        is how ``repro explore`` stores its replay-validated witnesses —
        ``seed`` is -1 because no scheduler seed produced the run, and
        ``provenance`` (a JSON-able dict, e.g. the SR3xx finding that
        drove the search) is kept in the manifest — and how the fleet
        stores ingested crash reports.  ``ring`` is a flight recording's
        ring snapshot: the streams are then its suffix.  Returns the new
        :class:`CorpusEntry`.
        """
        program, config = _compile(source, name, config)
        check_storable(bug, logs)
        if entry_id is None:
            # The program name may be a file path; an entry id must be a
            # single directory component under entries/.
            base_name = os.path.basename(program.name) or "program"
            entry_id = self.free_entry_id(
                "%s-%s-%s"
                % (base_name, tag or "witness", source_sha256(source)[:8])
            )

        with self._new_entry(entry_id) as entry:
            writer = ClapWriter(entry.trace_path)
            flags = 0 if ring is None else CHUNK_RING
            for thread in sorted(logs):
                writer.write_chunk(thread, logs[thread], final=True, flags=flags)
            writer.close(
                meta={"entry": entry_id, "program": program.name, "seed": seed}
            )
            extra = {"provenance": provenance} if provenance else {}
            extra.update(extra_manifest or {})
            entry._write_manifest(
                _manifest(
                    entry_id, program, source, config, seed, bug, stats,
                    logs, time_record, ring, extra,
                )
            )
        return self.entry(entry_id)


def _compile(source, name, config):
    if not isinstance(source, str):
        raise CorpusError(
            "corpus entries need the program source text to be "
            "self-contained; pass MiniLang source, not a compiled program"
        )
    return compile_source(source, name=name), config or ClapConfig()


def _manifest(entry_id, program, source, config, seed, bug, stats, logs,
              time_record, ring, extra):
    """The ``manifest.json`` of a new entry: ``stats`` gains what the
    store measures itself (the encoded log size, the time to record), a
    flight recording's ``ring`` snapshot becomes its ``ring`` section and
    the ``extra`` sections go last."""
    log_bytes = sum(len(encode_tokens(tokens)) for tokens in logs.values())
    stats = dict(stats, log_bytes=log_bytes, time_record=time_record)
    manifest = {"format": MANIFEST_FORMAT, "entry_id": entry_id}
    manifest.update(
        failure_record(source, program.name, config, seed, bug, stats)
    )
    manifest["recovered"] = False
    if ring is not None:
        manifest["ring"] = ring_section(ring)
    manifest.update(extra)
    return manifest
