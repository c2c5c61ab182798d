"""The async ingestion gateway: crash reports in, solve jobs out.

Fleet machines do not ship whole corpora — they ship **crash reports**:
one JSON object carrying the program source, the record parameters, the
observed failure and the hex-encoded per-thread Ball-Larus token streams
(the ``.clap`` chunk payloads; everything CLAP's recorder knows).  The
gateway is a small asyncio TCP server speaking newline-delimited JSON
that accepts these reports and, for each one:

1. validates it (field types, source hash, decodable token streams,
   failure present);
2. computes the trace's dedup-cluster signature
   (:mod:`repro.fleet.cluster`);
3. applies **backpressure**: a report that would enqueue a *new* solve
   while the durable queue is at its depth limit is rejected outright
   (the client retries later) — but a report joining an existing cluster
   is always accepted, because dedup adds no solve work;
4. stores the trace in its content-hash shard and registers the cluster
   membership (:meth:`repro.fleet.shards.ShardedCorpus.add_report`),
   answering ``enqueued`` (novel — a solve job is now durably queued) or
   ``deduped`` (an equivalent trace is already known; the solved
   schedule will be fanned out to this report too).

Ingestion work is blocking filesystem I/O, so the event loop hands it to
a worker thread (``run_in_executor``) and a lock serializes mutation of
the registry/manifests; the loop itself stays free to accept
connections.  Shutdown is **graceful**: the listener closes, in-flight
ingests finish (their reports are durably stored or rejected, never half
done), and — when the gateway owns a dispatcher — the solve queue is
drained before :meth:`IngestGateway.serve` returns.
"""

import asyncio
import dataclasses
import json
import socket
import threading

from repro.core.clap import ClapConfig
from repro.fleet.cluster import path_multiset
from repro.runtime.events import BugReport
from repro.runtime.memory import MEMORY_MODELS
from repro.store import corpus
from repro.tracing.logfmt import (
    MAX_STREAM_TOKENS,
    TraceDecodeError,
    decode_tokens,
    encode_tokens,
)

REPORT_FORMAT = 1

# Solve-queue depth at which novel reports start bouncing.
DEFAULT_MAX_QUEUE_DEPTH = 256

# Longest request line the server reads (asyncio's default stream limit).
MAX_LINE_BYTES = 2**16


class GatewayError(Exception):
    """A malformed or unacceptable crash report."""


# -- report construction ---------------------------------------------------


def _report(sections, recorded, ring):
    """A wire report: the failure record's sections, the recording's
    token streams hex-encoded and, for a flight recording, its ``ring``
    section."""
    report = dict(sections, format=REPORT_FORMAT, logs={
        thread: encode_tokens(tokens).hex()
        for thread, tokens in recorded.recorder.logs.items()
    })
    if ring is not None:
        report["ring"] = ring
    return report


def report_from_recorded(source, name, config, recorded):
    """Build the wire-format crash report for a local recording
    (a :class:`~repro.core.clap.RecordedExecution`)."""
    if recorded.bug is None:
        raise GatewayError("refusing to report an execution with no failure")
    sections = corpus.failure_record(
        source, name or "program", config, recorded.seed, recorded.bug,
        corpus.run_stats(recorded.result, recorded.recorder),
    )
    ring = recorded.ring and corpus.ring_section(recorded.ring)
    return _report(sections, recorded, ring)


def report_from_entry(entry):
    """Build a crash report from a stored corpus entry (for re-ingest).

    Only the run's own ``stats`` keys travel: the store-measured
    ``log_bytes`` and ``time_record`` would make exports of the same
    content differ, and ingest drops them anyway."""
    manifest = entry.manifest
    sections = {key: dict(manifest[key]) for key in ("program", "record", "bug")}
    stats = manifest["stats"]
    sections["stats"] = {
        key: stats[key] for key in corpus.RUN_STATS_TYPES if key in stats
    }
    return _report(sections, entry.load_execution(), manifest.get("ring"))


# Type of each ClapConfig field, for the report's record parameters.
_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(ClapConfig)}


def _typed(value, expected, what):
    """``value`` if it is a JSON ``expected`` (a type or union); raises
    :class:`GatewayError` otherwise.  JSON booleans are not numbers, and
    a float field also takes an integer."""
    if expected is float:
        expected = int | float
    if isinstance(value, bool) != (expected is bool) or not isinstance(
        value, expected
    ):
        raise GatewayError("%s has the wrong type: %r" % (what, value))
    return value


def validate_report(report):
    """Check a wire report and decode it; raises :class:`GatewayError`.

    Returns ``(source, name, config, logs, bug, stats, seed)`` ready for
    :meth:`~repro.fleet.shards.ShardedCorpus.add_report`; the optional
    ``ring`` section is checked by :func:`validate_ring`.
    """
    if not isinstance(report, dict):
        raise GatewayError("report must be a JSON object")
    if report.get("format") != REPORT_FORMAT:
        raise GatewayError(
            "unsupported report format %r" % report.get("format")
        )
    program = report.get("program")
    if not isinstance(program, dict) or not program.get("source"):
        raise GatewayError("report has no program source")
    source = _typed(program["source"], str, "program source")
    claimed = _typed(program.get("sha256"), str | None, "program sha256")
    if claimed and claimed != corpus.source_sha256(source):
        raise GatewayError("program source does not match its claimed hash")
    name = _typed(program.get("name"), str | None, "program name")
    bug_raw = report.get("bug")
    if not isinstance(bug_raw, dict) or not bug_raw.get("kind"):
        raise GatewayError("report has no failure — nothing to reproduce")
    bug = BugReport.from_json(bug_raw)
    for field in dataclasses.fields(bug):
        _typed(getattr(bug, field.name), field.type, "bug.%s" % field.name)
    raw_logs = report.get("logs")
    if not isinstance(raw_logs, dict) or not raw_logs:
        raise GatewayError("report has no recorded token streams")
    logs = {}
    # One run's threads share its step budget, so the token cap bounds
    # the whole report, not each stream alone.
    budget = MAX_STREAM_TOKENS
    for thread, blob in raw_logs.items():
        _typed(blob, str, "thread %r token stream" % thread)
        try:
            logs[thread] = decode_tokens(bytes.fromhex(blob), max_tokens=budget)
        except (ValueError, TraceDecodeError) as exc:
            raise GatewayError(
                "thread %r: undecodable token stream: %s" % (thread, exc)
            ) from exc
        budget -= len(logs[thread])
    try:
        corpus.check_storable(bug, logs)
    except corpus.CorpusError as exc:
        raise GatewayError(str(exc)) from exc
    record = _typed(report.get("record"), dict | None, "record") or {}
    params = {
        key: _typed(record[key], _CONFIG_TYPES[key], "record.%s" % key)
        for key in corpus.RECORD_PARAMS
        if key in record
    }
    if params.get("memory_model", "sc") not in MEMORY_MODELS:
        raise GatewayError(
            "record.memory_model %r is not one of %s"
            % (params["memory_model"], ", ".join(MEMORY_MODELS))
        )
    seed = _typed(record.get("seed", -1), int, "record.seed")
    stats = _typed(report.get("stats"), dict | None, "stats") or {}
    stats = {
        key: _typed(stats[key], expected, "stats.%s" % key)
        for key, expected in corpus.RUN_STATS_TYPES.items()
        if key in stats
    }
    config = ClapConfig(**params)
    return source, name or "program", config, logs, bug, stats, seed


def validate_ring(report, logs):
    """Check a validated report's optional ``ring`` section (a flight
    recording's suffix metadata) against its streams ``logs``; returns
    the ring snapshot with its anchors revived, or None.  Every token,
    evicted or not, cost the run a step, so the evicted counts (prefix
    synthesis pads to them) share the report's token cap with ``logs``.
    """
    ring = _typed(report.get("ring"), dict | None, "ring")
    if ring is None:
        return None
    threads = _typed(ring.get("threads", {}), dict, "ring.threads")
    counts = [ring.get("ring_bytes") or 0, ring.get("segment_bytes") or 0]
    for thread, info in threads.items():
        anchor = _typed(_typed(info, dict, "ring thread").get("anchor"),
                        dict, "ring anchor")
        frames = _typed(anchor.get("frames", []), list, "ring anchor frames")
        if thread not in logs or any(
            not isinstance(frame, list) or len(frame) != 2 for frame in frames
        ):
            raise GatewayError("ring.threads[%r] is malformed" % thread)
        counts += [value for key, value in info.items() if key != "anchor"]
        counts += [value for key, value in anchor.items() if key != "frames"]
        counts += sum(frames, [])
    if any(_typed(value, int, "ring count") < 0 for value in counts):
        raise GatewayError("ring section holds a negative count")
    evicted = sum(info.get("evicted_tokens", 0) for info in threads.values())
    if evicted + sum(map(len, logs.values())) > MAX_STREAM_TOKENS:
        raise GatewayError(
            "ring: more than %d recorded and evicted tokens" % MAX_STREAM_TOKENS
        )
    return corpus.revive_ring(ring)


# -- the gateway -----------------------------------------------------------


class IngestGateway:
    """Accepts crash reports into a fleet, with dedup and backpressure."""

    def __init__(self, fleet, max_queue_depth=DEFAULT_MAX_QUEUE_DEPTH,
                 dispatcher=None):
        self.fleet = fleet
        self.max_queue_depth = max_queue_depth
        # Optional FleetDispatcher; when present the 'drain' op and the
        # shutdown path solve the queued work before serve() returns.
        self.dispatcher = dispatcher
        self.address = None
        self._lock = threading.Lock()
        self.counters = {
            "ingested": 0,
            "enqueued": 0,
            "deduped": 0,
            "rejected": 0,
            "invalid": 0,
        }

    # -- the synchronous core (runs in an executor thread) ---------------

    def ingest(self, report):
        """Validate + store one report; returns the outcome dict.

        Thread-safe; this is the whole ingest path and can be called
        directly (the CLI's offline ``repro fleet ingest`` does).
        """
        with self._lock:
            return self._ingest_locked(report)

    def _ingest_locked(self, report):
        try:
            source, name, config, logs, bug, stats, seed = validate_report(
                report
            )
            ring = validate_ring(report, logs)
        except GatewayError as exc:
            self.counters["invalid"] += 1
            return {"status": "invalid", "reason": str(exc)}
        self.counters["ingested"] += 1
        _, _, material, signature = self.fleet.route(
            source, config.memory_model, bug, logs, ring
        )
        registry = self.fleet.registry()
        novel = registry.get(signature) is None
        depth = self.fleet.queue().depth()
        if novel and depth >= self.max_queue_depth:
            # Backpressure: only *novel* reports add solve work, so only
            # they bounce; dedup joins are free and always accepted.
            self.counters["rejected"] += 1
            return {
                "status": "rejected",
                "reason": "solve queue full (depth %d >= %d)"
                % (depth, self.max_queue_depth),
                "cluster": signature,
                "queue_depth": depth,
            }
        outcome = self.fleet.add_report(
            source, name, config, logs, bug, stats=stats, seed=seed, ring=ring
        )
        self.counters[outcome["status"]] += 1
        outcome["queue_depth"] = self.fleet.queue().depth()
        if outcome["status"] == "enqueued":
            # Near-miss diagnostic: the closest same-program cluster by
            # path-profile similarity (never a merge — see fleet.cluster).
            nearest, similarity = registry.nearest(
                material["program"], path_multiset(logs), exclude=signature
            )
            if nearest is not None:
                outcome["similar_to"] = nearest
                outcome["similarity"] = round(similarity, 4)
        return outcome

    def stats(self):
        fleet_stats = self.fleet.stats()
        fleet_stats["gateway"] = dict(self.counters)
        return fleet_stats

    # -- the async server -------------------------------------------------

    async def _respond(self, request):
        op = request.get("op")
        loop = asyncio.get_running_loop()
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "ingest":
            outcome = await loop.run_in_executor(
                None, self.ingest, request.get("report")
            )
            return dict(outcome, ok=outcome.get("status") != "invalid")
        if op == "stats":
            stats = await loop.run_in_executor(None, self.stats)
            return {"ok": True, "stats": stats}
        if op == "drain":
            if self.dispatcher is None:
                return {"ok": False, "error": "gateway has no dispatcher"}
            results, aggregate = await loop.run_in_executor(
                None, self.dispatcher.drain
            )
            return {
                "ok": True,
                "results": [r.to_dict() for r in results],
                "aggregate": aggregate,
            }
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "op": "shutdown"}
        return {"ok": False, "error": "unknown op %r" % op}

    async def _handle(self, reader, writer):
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF ends an unterminated line
                except asyncio.LimitOverrunError:
                    await self._answer(writer, {
                        "ok": False,
                        "error": "request line longer than %d bytes"
                        % MAX_LINE_BYTES,
                    })
                    # Read the rest of the line before closing, so the
                    # client sees the answer and an EOF, not a reset.
                    while chunk := await reader.read(MAX_LINE_BYTES):
                        if b"\n" in chunk:
                            break
                    break
                if not line:
                    break
                try:
                    request = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    response = {"ok": False, "error": "bad json: %s" % exc}
                else:
                    try:
                        response = await self._respond(request)
                    except Exception as exc:  # keep the server up
                        response = {
                            "ok": False,
                            "error": "%s: %s" % (type(exc).__name__, exc),
                        }
                await self._answer(writer, response)
        except ConnectionError:
            pass  # the client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _answer(writer, response):
        writer.write(
            (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
        )
        await writer.drain()

    async def serve(self, host="127.0.0.1", port=0, ready=None,
                    drain_on_shutdown=True):
        """Serve until a ``shutdown`` op arrives, then drain gracefully.

        ``ready`` (a ``threading.Event``) is set once the listener is
        bound and :attr:`address` holds the actual (host, port) — how a
        test or CLI driving the server from another thread learns the
        ephemeral port.  On shutdown the listener closes first (no new
        reports), in-flight ingests complete, and the dispatcher — if one
        was attached — drains the solve queue.  Returns the drain's
        ``(results, aggregate)`` or ``(None, None)``.
        """
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        self.address = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.address = None
        # The listener is closed; whatever the executor is still writing
        # finishes under the ingest lock before the drain below sees it.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._lock.acquire)
        self._lock.release()
        if drain_on_shutdown and self.dispatcher is not None:
            return await loop.run_in_executor(None, self.dispatcher.drain)
        return None, None


def request(address, payload, timeout=60.0):
    """One synchronous round-trip to a running gateway (test/CLI client)."""
    host, port = address
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return json.loads(b"".join(chunks).decode("utf-8"))
