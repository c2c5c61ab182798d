"""Ingestion gateway: validation, TCP e2e, backpressure, graceful drain."""

import asyncio
import json
import random
import threading

import pytest

from repro.bench.programs import get_benchmark
from repro.core.clap import ClapConfig, ClapPipeline
from repro.fleet import (
    FleetDispatcher,
    IngestGateway,
    report_from_recorded,
    request,
    validate_report,
)
from repro.fleet import gateway as gateway_module
from repro.fleet.gateway import GatewayError
from repro.minilang import compile_source
from repro.tracing.logfmt import TAG_REPEAT, write_varint

from tests.conftest import RACE_SRC
from tests.fleet.conftest import race_variant, record_config


def make_report(source, name, config=None):
    config = config or record_config()
    program = compile_source(source, name=name)
    recorded = ClapPipeline(program, config).record()
    return report_from_recorded(source, name, config, recorded)


@pytest.fixture(scope="module")
def race_report():
    return make_report(RACE_SRC, "race")


# -- validation ------------------------------------------------------------


def test_validate_report_roundtrip(race_report):
    source, name, config, logs, bug, stats, seed = validate_report(
        race_report
    )
    assert source == RACE_SRC
    assert name == "race"
    assert config.memory_model == "sc"
    assert bug.kind == "assertion"
    assert seed == race_report["record"]["seed"]
    assert set(logs) == set(race_report["logs"])
    assert all(isinstance(t, tuple) for ts in logs.values() for t in ts)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda r: r.pop("program"), "no program source"),
        (lambda r: r.update(format=99), "unsupported report format"),
        (lambda r: r["program"].update(sha256="0" * 64), "claimed hash"),
        (lambda r: r.pop("bug"), "no failure"),
        (lambda r: r.update(logs={}), "no recorded token streams"),
        (lambda r: r["logs"].update(main="zz"), "undecodable"),
        (
            lambda r: r["logs"].update(
                main=bytes([255, 255, 255]).hex()
            ),
            "undecodable",
        ),
    ],
)
def test_validate_report_rejects_malformed(race_report, mutate, message):
    report = json.loads(json.dumps(race_report))  # deep copy
    mutate(report)
    with pytest.raises(GatewayError, match=message):
        validate_report(report)


def test_ingest_counts_invalid_without_storing(fleet, race_report):
    gateway = IngestGateway(fleet)
    report = json.loads(json.dumps(race_report))
    report.pop("bug")
    outcome = gateway.ingest(report)
    assert outcome["status"] == "invalid"
    assert gateway.counters["invalid"] == 1
    assert fleet.stats()["entries"] == 0


def _set_first_log(report, blob):
    report["logs"][sorted(report["logs"])[0]] = blob


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["bug"].update(line="abc"),
        lambda r: r["bug"].update(line=None),
        lambda r: _set_first_log(r, 5),
        lambda r: r.update(record=[1]),
        lambda r: r["record"].update(seed="x"),
        lambda r: r["record"].update(memory_model="bogus"),
        lambda r: r.update(stats=[1]),
        lambda r: r["record"].update(max_steps="many"),
    ],
    ids=[
        "line-text",
        "line-null",
        "log-int",
        "record-list",
        "seed-text",
        "memory-model-bogus",
        "stats-list",
        "max-steps-text",
    ],
)
def test_ingest_rejects_mistyped_fields(fleet, race_report, mutate):
    """Every mistyped field is a counted ``invalid`` outcome: no crash,
    no stored entry, no queued solve."""
    gateway = IngestGateway(fleet)
    report = json.loads(json.dumps(race_report))
    mutate(report)
    outcome = gateway.ingest(report)
    assert outcome["status"] == "invalid"
    assert gateway.counters["invalid"] == 1
    assert gateway.counters["ingested"] == 0
    assert fleet.queue().depth() == 0
    assert fleet.stats()["entries"] == 0


def _repeat_blob(count, pid=0):
    """A token stream of one REPEAT record: ``("path", pid)`` x ``count``."""
    out = bytearray([TAG_REPEAT])
    write_varint(out, pid)
    write_varint(out, count)
    return bytes(out).hex()


@pytest.mark.parametrize(
    "blob",
    [
        # Found by a seeded fuzz: 12 bytes whose count is 18,283,381,833.
        "04fd45c988998e44c5231ebf",
        _repeat_blob(2**40),
        _repeat_blob(2**64),
    ],
    ids=["fuzz-found", "2**40", "2**64"],
)
def test_validate_report_refuses_oversized_repeat_counts(race_report, blob):
    """A REPEAT count past the token cap is refused before anything is
    allocated, and surfaces as a GatewayError."""
    report = json.loads(json.dumps(race_report))
    _set_first_log(report, blob)
    with pytest.raises(GatewayError, match="undecodable"):
        validate_report(report)


def test_validate_report_caps_tokens_across_streams(race_report, monkeypatch):
    """All threads of one run share its step budget, so two streams that
    each fit the cap are refused together (a cap of 100 keeps the
    allocation small)."""
    monkeypatch.setattr(gateway_module, "MAX_STREAM_TOKENS", 100)
    report = json.loads(json.dumps(race_report))
    threads = sorted(report["logs"])
    assert len(threads) >= 2
    for thread in threads:
        report["logs"][thread] = _repeat_blob(1)
    validate_report(report)
    for thread in threads[:2]:
        report["logs"][thread] = _repeat_blob(60)
    with pytest.raises(GatewayError, match="undecodable"):
        validate_report(report)


# -- seeded fuzz of validate_report ------------------------------------------

_FUZZ_SEED = 20240617
_FUZZ_CASES = 600

_JUNK_VALUES = (
    None, True, False, 0, -1, 1.5, 2**70, "", "x", "zz", [], [1], {}, {"a": 1},
)


def _nodes(value, path=()):
    """Every (path, container) of dicts and lists inside ``value``."""
    if isinstance(value, (dict, list)):
        yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _nodes(child, path + (key,))


def _random_tokens(rng):
    """Random, truncated or structurally plausible token bytes."""
    choice = rng.randrange(4)
    if choice == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
    out = bytearray()
    for _ in range(rng.randrange(1, 6)):
        tag = rng.randrange(7)
        out.append(tag)
        for _ in range(rng.randrange(4)):
            # Small values mostly; sometimes a long (huge) varint.
            write_varint(out, rng.choice((0, 1, 7, 300, 2**rng.randrange(80))))
    if choice == 2 and out:
        out = out[: rng.randrange(len(out))]  # truncated mid-record
    return bytes(out)


def _mutate(report, rng):
    """Apply one random malformation to ``report``; returns a label."""
    op = rng.randrange(7)
    if op == 0:
        return "whole report %r" % (rng.choice(_JUNK_VALUES),), rng.choice(
            _JUNK_VALUES
        )
    nodes = [(p, n) for p, n in _nodes(report) if n]
    if not nodes:
        return "emptied", report
    path, node = rng.choice(nodes)
    key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    if op == 1 and isinstance(node, dict):
        # A truncated object: drop every key from this one on.
        keys = list(node)
        for k in keys[keys.index(key):]:
            del node[k]
        return "truncated %r at %r" % (path, key), report
    if op == 2 and isinstance(node, dict):
        del node[key]
        return "dropped %r" % (path + (key,),), report
    if op == 3:
        node[key] = rng.choice(_JUNK_VALUES)
        return "mistyped %r = %r" % (path + (key,), node[key]), report
    if op == 4 and isinstance(node[key], str):
        text = node[key]
        node[key] = text[: rng.randrange(len(text) + 1)]
        return "truncated string %r" % (path + (key,),), report
    logs = report.get("logs")
    if not isinstance(logs, dict) or not logs:
        report["logs"] = rng.choice(_JUNK_VALUES)
        return "logs = %r" % (report["logs"],), report
    thread = rng.choice(sorted(logs))
    if op == 5 and isinstance(logs[thread], str):
        blob = logs[thread]
        logs[thread] = blob[: rng.randrange(len(blob) + 1)]
        return "truncated log %r" % thread, report
    logs[thread] = _random_tokens(rng).hex()
    return "random log %r" % thread, report


def test_validate_report_fuzz(race_report):
    """Seeded fuzz: every malformed, truncated or mistyped report either
    validates or raises GatewayError; nothing else escapes."""
    rng = random.Random(_FUZZ_SEED)
    outcomes = {"ok": 0, "invalid": 0}
    for case in range(_FUZZ_CASES):
        report = json.loads(json.dumps(race_report))
        labels = []
        for _ in range(rng.randrange(1, 4)):
            if not isinstance(report, dict):
                break
            label, report = _mutate(report, rng)
            labels.append(label)
        try:
            validate_report(report)
        except GatewayError:
            outcomes["invalid"] += 1
        except Exception as exc:  # the failure this test exists to catch
            pytest.fail(
                "fuzz case %d (seed %d): %s raised %s: %s"
                % (case, _FUZZ_SEED, "; ".join(labels), type(exc).__name__, exc)
            )
        else:
            outcomes["ok"] += 1
    # The fuzz must exercise both verdicts to mean anything.
    assert outcomes["ok"] > 0 and outcomes["invalid"] > 0, outcomes


# -- offline ingest: dedup and backpressure --------------------------------


def test_ingest_dedups_and_reports_nearest(fleet, race_report):
    gateway = IngestGateway(fleet)
    first = gateway.ingest(race_report)
    assert first["status"] == "enqueued"
    second = gateway.ingest(race_report)
    assert second["status"] == "deduped"
    assert second["cluster"] == first["cluster"]
    # A different program ingests as a new cluster; the near-miss
    # diagnostic points at the existing similar cluster, yet no merge.
    cousin = gateway.ingest(make_report(race_variant(5), "race5"))
    assert cousin["status"] == "enqueued"
    assert cousin["cluster"] != first["cluster"]
    assert gateway.counters == {
        "ingested": 3, "enqueued": 2, "deduped": 1, "rejected": 0,
        "invalid": 0,
    }


def test_lossy_reports_differing_in_eviction_get_two_clusters(fleet):
    # A flight run through a 40-byte ring, reported twice: the second
    # report claims three more evicted tokens before one thread's
    # surviving suffix.  Same logs, different prefix synthesis.
    bench = get_benchmark("flight", iters=10)
    config = ClapConfig(
        **dict(bench.config_kwargs(), ring_bytes=40, ring_segment_bytes=16)
    )
    report = make_report(bench.source, "flight", config)
    assert report["ring"]["lossy"]
    shifted = json.loads(json.dumps(report))
    thread, info = next(
        (thread, info)
        for thread, info in sorted(shifted["ring"]["threads"].items())
        if info["evicted_tokens"] > 0
    )
    info["evicted_tokens"] += 3
    info["anchor"]["tokens_before"] += 3
    gateway = IngestGateway(fleet)
    first = gateway.ingest(report)
    second = gateway.ingest(shifted)
    assert (first["status"], second["status"]) == ("enqueued", "enqueued")
    assert first["cluster"] != second["cluster"]
    # The same ring report again still joins its cluster.
    assert gateway.ingest(report)["status"] == "deduped"


def test_ring_report_without_evicted_counts_is_ingested(fleet):
    # The evicted-token count is optional on the wire.
    bench = get_benchmark("flight", iters=10)
    config = ClapConfig(
        **dict(bench.config_kwargs(), ring_bytes=40, ring_segment_bytes=16)
    )
    report = make_report(bench.source, "flight", config)
    for info in report["ring"]["threads"].values():
        info.pop("evicted_tokens")
    assert IngestGateway(fleet).ingest(report)["status"] == "enqueued"


def test_ring_report_that_evicted_nothing_joins_the_classic_cluster(fleet):
    bench = get_benchmark("flight", iters=10)
    classic = ClapConfig(**bench.config_kwargs())
    ring = ClapConfig(**dict(bench.config_kwargs(), ring_bytes=1 << 20))
    ring_report = make_report(bench.source, "flight", ring)
    assert not ring_report["ring"]["lossy"]
    gateway = IngestGateway(fleet)
    first = gateway.ingest(make_report(bench.source, "flight", classic))
    second = gateway.ingest(ring_report)
    assert (first["status"], second["status"]) == ("enqueued", "deduped")
    assert first["cluster"] == second["cluster"]


def test_backpressure_rejects_novel_accepts_dedup(fleet, race_report):
    gateway = IngestGateway(fleet, max_queue_depth=1)
    assert gateway.ingest(race_report)["status"] == "enqueued"
    # Queue is at depth 1: novel work bounces...
    novel = gateway.ingest(make_report(race_variant(5), "race5"))
    assert novel["status"] == "rejected"
    assert "queue full" in novel["reason"]
    # ...but an equivalent report is free (no new solve) and lands.
    assert gateway.ingest(race_report)["status"] == "deduped"
    assert fleet.stats()["entries"] == 2  # the rejected one was not stored
    assert fleet.queue().depth() == 1


def test_accepted_reports_survive_restart(fleet, race_report):
    """Durability: an accepted report's solve job outlives the gateway."""
    IngestGateway(fleet).ingest(race_report)
    # A fresh gateway/queue over the same root still sees the job.
    from repro.fleet import ShardedCorpus

    reopened = ShardedCorpus.open(fleet.root)
    assert reopened.queue().depth() == 1
    results, aggregate = FleetDispatcher(reopened, jobs=1).drain()
    assert aggregate["reproduced"] == len(results) == 1


# -- the TCP server --------------------------------------------------------


class GatewayThread:
    """Runs gateway.serve() on its own event loop in a thread."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.drained = None
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self._run, args=(ready,), daemon=True
        )
        self.thread.start()
        assert ready.wait(10), "gateway did not start"
        self.address = gateway.address

    def _run(self, ready):
        self.drained = asyncio.run(self.gateway.serve(ready=ready))

    def shutdown(self):
        request(self.address, {"op": "shutdown"})
        self.thread.join(timeout=60)
        assert not self.thread.is_alive()
        return self.drained


def test_tcp_end_to_end_with_graceful_drain(fleet, race_report):
    dispatcher = FleetDispatcher(fleet, jobs=2)
    gateway = IngestGateway(fleet, dispatcher=dispatcher)
    server = GatewayThread(gateway)

    assert request(server.address, {"op": "ping"})["ok"]
    assert not request(server.address, {"op": "bogus"})["ok"]
    bad = request(server.address, {"op": "ingest", "report": {"x": 1}})
    assert bad["status"] == "invalid"

    outcomes = [
        request(server.address, {"op": "ingest", "report": race_report})
        for _ in range(3)
    ]
    assert [o["status"] for o in outcomes] == [
        "enqueued", "deduped", "deduped",
    ]
    stats = request(server.address, {"op": "stats"})["stats"]
    assert stats["entries"] == 3
    assert stats["clusters"]["solves_avoided"] == 2
    assert stats["gateway"]["ingested"] == 3

    # Shutdown closes the listener and drains the queue before returning:
    # one solve, two fan-outs, everything reproduced.
    results, aggregate = server.shutdown()
    assert len(results) == 3
    assert aggregate["reproduced"] == 3
    assert aggregate["deduped"] == 2
    assert aggregate["clusters"]["solved"] == 1
    assert all(
        m["validated"]
        for m in fleet.registry().get(outcomes[0]["cluster"])["members"]
    )
    # The listener is really gone.
    with pytest.raises(OSError):
        request(server.address, {"op": "ping"}, timeout=2.0)


def test_tcp_drain_op(fleet, race_report):
    dispatcher = FleetDispatcher(fleet, jobs=1)
    gateway = IngestGateway(fleet, dispatcher=dispatcher)
    server = GatewayThread(gateway)
    try:
        request(server.address, {"op": "ingest", "report": race_report})
        response = request(
            server.address, {"op": "drain"}, timeout=300.0
        )
        assert response["ok"]
        assert response["aggregate"]["reproduced"] == 1
        assert response["results"][0]["status"] == "reproduced"
    finally:
        server.shutdown()
