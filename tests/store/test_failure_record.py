"""One failure record: what a corpus entry and a fleet crash report hold.

A recording goes through every store path — ``Corpus.add``, a reload,
the wire report, the gateway's validation, the fleet's ``add_report``
and a second reload — and comes out with the same logs, failure, record
parameters and ring metadata, reproducing with the same schedule.  A
checkpointed recording, whose logs resume from a snapshot the store does
not keep, is refused at every entry point.
"""

import json
import random

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.fleet import (
    IngestGateway,
    ShardedCorpus,
    report_from_entry,
    report_from_recorded,
    validate_report,
)
from repro.fleet.gateway import GatewayError, validate_ring
from repro.minilang import compile_source
from repro.store import Corpus, CorpusError
from repro.store.corpus import RECORD_PARAMS, RUN_STATS_TYPES, run_stats

from tests.conftest import RACE_SRC
from tests.core.test_checkpoint import LONG_RACE_SRC
from tests.store.test_synthesize import FLIGHT, flight_config

RECORDINGS = {
    "classic": (RACE_SRC, "race", lambda: ClapConfig(seeds=range(200))),
    "lossy-ring": (FLIGHT.source, "flight", flight_config),
}


@pytest.mark.parametrize("kind", sorted(RECORDINGS))
def test_failure_record_roundtrip(tmp_path, kind):
    source, name, make_config = RECORDINGS[kind]
    config = make_config()
    pipeline = ClapPipeline(compile_source(source, name=name), config)
    live = pipeline.record()
    assert live.lossy == (kind == "lossy-ring")

    entry = Corpus.create(str(tmp_path / "corpus")).add(
        source, name=name, config=config, recorded=live
    )
    first = entry.load_execution()
    wire = report_from_recorded(source, name, config, live)
    report = report_from_entry(entry)
    for key in ("program", "record", "bug", "stats", "logs", "ring"):
        assert wire.get(key) == report.get(key), key

    src, prog_name, cfg, logs, bug, stats, seed = validate_report(report)
    ring = validate_ring(report, logs)
    for key in RECORD_PARAMS:
        assert getattr(cfg, key) == getattr(config, key), key
    fleet = ShardedCorpus.create(str(tmp_path / "fleet"), shards=2)
    outcome = fleet.add_report(
        src, prog_name, cfg, logs, bug, stats=stats, seed=seed, ring=ring
    )
    second_entry = fleet.shard(outcome["shard"]).entry(outcome["entry_id"])
    second = second_entry.load_execution()
    assert second_entry.manifest["record"] == entry.manifest["record"]

    for loaded in (first, second):
        assert loaded.recorder.logs == live.recorder.logs
        assert loaded.bug == live.bug
        assert loaded.seed == live.seed
        assert loaded.memory_model == live.memory_model
        assert loaded.lossy == live.lossy
        if live.ring is None:
            assert loaded.ring is None
        else:
            for key in ("ring_bytes", "segment_bytes", "threads"):
                assert loaded.ring[key] == live.ring[key], key

    reports = [
        pipeline.reproduce_offline(recorded)
        for recorded in (live, first, second)
    ]
    assert all(r.reproduced for r in reports)
    assert reports[1].schedule == reports[0].schedule
    assert reports[2].schedule == reports[0].schedule


def test_export_is_byte_stable(tmp_path):
    """An exported report carries only the run's own stats, so exports
    of one entry, and of entries that differ only in the store-measured
    ``time_record``, are byte-identical."""
    config = ClapConfig(seeds=range(200))
    live = ClapPipeline(compile_source(RACE_SRC, name="race"), config).record()
    stats = run_stats(live.result, live.recorder)
    assert set(stats) == set(RUN_STATS_TYPES)
    corpus = Corpus.create(str(tmp_path))
    entries = [
        corpus.add_recorded(
            RACE_SRC, live.recorder.logs, live.bug, stats, name="race",
            config=config, seed=live.seed, time_record=time_record,
        )
        for time_record in (6.0e-07, 1.0e-05)
    ]
    assert entries[0].manifest["stats"]["time_record"] == 6.0e-07
    exports = [
        json.dumps(report_from_entry(entry), indent=2, sort_keys=True)
        for entry in (entries[0], entries[0], entries[1])
    ]
    assert exports[0] == exports[1] == exports[2]
    assert json.loads(exports[0])["stats"] == stats


# -- checkpointed recordings are refused ------------------------------------


@pytest.fixture(scope="module")
def checkpointed():
    config = ClapConfig(stickiness=0.4)
    program = compile_source(LONG_RACE_SRC, name="long_race")
    recorded = ClapPipeline(program, config).record(checkpoint_steps=150)
    assert recorded.n_checkpoints > 0
    assert any(
        token[0] == "resume"
        for tokens in recorded.recorder.logs.values()
        for token in tokens
    )
    return config, recorded


def test_corpus_add_refuses_checkpointed_recording(tmp_path, checkpointed):
    config, recorded = checkpointed
    corpus = Corpus.create(str(tmp_path))
    with pytest.raises(CorpusError, match="snapshot"):
        corpus.add(
            LONG_RACE_SRC, name="long_race", config=config, recorded=recorded
        )
    assert corpus.entry_ids() == []


def test_add_recorded_refuses_resume_streams(tmp_path, checkpointed):
    config, recorded = checkpointed
    corpus = Corpus.create(str(tmp_path))
    with pytest.raises(CorpusError, match="snapshot"):
        corpus.add_recorded(
            LONG_RACE_SRC,
            recorded.recorder.logs,
            recorded.bug,
            run_stats(recorded.result, recorded.recorder),
            name="long_race",
            config=config,
        )
    assert corpus.entry_ids() == []


def test_gateway_refuses_checkpointed_report(tmp_path, checkpointed):
    config, recorded = checkpointed
    fleet = ShardedCorpus.create(str(tmp_path), shards=2)
    report = report_from_recorded(LONG_RACE_SRC, "long_race", config, recorded)
    with pytest.raises(GatewayError, match="snapshot"):
        validate_report(report)
    outcome = IngestGateway(fleet).ingest(report)
    assert outcome["status"] == "invalid"
    assert "snapshot" in outcome["reason"]
    assert fleet.stats()["entries"] == 0


# -- the ring section of a wire report ---------------------------------------


@pytest.fixture(scope="module")
def lossy_report():
    config = flight_config()
    recorded = ClapPipeline(FLIGHT.compile(), config).record()
    assert recorded.lossy
    report = report_from_recorded(FLIGHT.source, "flight", config, recorded)
    return report, validate_report(report)[3]


def _lossy_thread(report):
    threads = report["ring"]["threads"]
    return next(t for t in sorted(threads) if threads[t]["evicted_tokens"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r, t: r.update(ring=[1]),
        lambda r, t: r["ring"]["threads"].update(ghost=r["ring"]["threads"][t]),
        lambda r, t: r["ring"]["threads"][t].pop("anchor"),
        lambda r, t: r["ring"]["threads"][t].update(evicted_tokens=-1),
        lambda r, t: r["ring"]["threads"][t].update(evicted_tokens=2**40),
        lambda r, t: r["ring"]["threads"][t].update(flushes="many"),
        lambda r, t: r["ring"]["threads"][t]["anchor"].update(frames=[[1]]),
        lambda r, t: r["ring"]["threads"][t]["anchor"].update(frames=[[0, 1.5]]),
        lambda r, t: r["ring"].update(ring_bytes=True),
    ],
    ids=[
        "not-an-object",
        "unknown-thread",
        "no-anchor",
        "negative-count",
        "evicted-over-cap",
        "count-text",
        "frame-not-a-pair",
        "frame-float",
        "ring-bytes-bool",
    ],
)
def test_validate_ring_rejects_malformed(lossy_report, mutate):
    report, logs = lossy_report
    report = json.loads(json.dumps(report))
    mutate(report, _lossy_thread(report))
    with pytest.raises(GatewayError):
        validate_ring(report, logs)


def test_validate_ring_fuzz(lossy_report):
    """Seeded fuzz of the ring section: every mutation either validates
    or raises GatewayError."""
    base, logs = lossy_report
    rng = random.Random(20261019)
    junk = (None, True, -1, 0, 2**70, 1.5, "", "x", [], [1, 2], {}, {"a": 1})
    outcomes = {"ok": 0, "invalid": 0}
    for case in range(300):
        report = json.loads(json.dumps(base))
        nodes = [report["ring"]]
        for node in nodes:
            children = node.values() if isinstance(node, dict) else node
            nodes.extend(c for c in children if isinstance(c, (dict, list)))
        node = rng.choice([n for n in nodes if n])
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if isinstance(node, dict) and rng.random() < 0.3:
            del node[key]
        else:
            node[key] = rng.choice(junk)
        try:
            validate_ring(report, logs)
        except GatewayError:
            outcomes["invalid"] += 1
        except Exception as exc:  # the failure this test exists to catch
            pytest.fail("case %d: %s: %s" % (case, type(exc).__name__, exc))
        else:
            outcomes["ok"] += 1
    assert outcomes["ok"] > 0 and outcomes["invalid"] > 0, outcomes
