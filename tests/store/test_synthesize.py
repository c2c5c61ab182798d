"""Flight-recorder end-to-end: reproduction from suffix logs.

The ``flight`` benchmark's call-heavy loop defeats run-length folding, so
a small ring genuinely evicts the loop prefix.  These tests drive the
full lossy pipeline — bounded recording, anchored suffix decode, prefix
synthesis, relaxed constraint encoding, solve, replay — plus the corpus
round-trip for lossy traces and the refusal paths that keep a suffix log
from ever being silently treated as a complete trace.
"""

import json

import pytest

from repro.bench.programs import get_benchmark
from repro.core.clap import ClapConfig, ClapError, ClapPipeline
from repro.store import ClapReader, Corpus, CorpusError
from repro.store.container import CHUNK_RING

# Small enough to solve in well under a second, lossy enough to evict
# ~27 tokens per worker (the whole loop prefix minus the retained tail).
FLIGHT = get_benchmark("flight", iters=10)
RING_KW = dict(ring_bytes=40, ring_segment_bytes=16)


def flight_config(**overrides):
    kw = FLIGHT.config_kwargs()
    kw.update(seeds=range(80), **RING_KW)
    kw.update(overrides)
    return ClapConfig(**kw)


@pytest.fixture(scope="module")
def lossy_run():
    program = FLIGHT.compile()
    pipeline = ClapPipeline(program, flight_config())
    recorded = pipeline.record()
    assert recorded is not None, "flight bug did not trigger"
    return program, pipeline, recorded


def test_ring_run_is_genuinely_lossy(lossy_run):
    _, _, recorded = lossy_run
    assert recorded.lossy
    workers = [
        info
        for t, info in recorded.ring["threads"].items()
        if info["evicted_tokens"] > 0
    ]
    assert len(workers) == 2, "both workers should lose their loop prefix"
    for info in workers:
        assert info["segments_evicted"] > 0
        assert info["retained_bytes"] < info["total_bytes"]
        assert info["anchor"].frames, "eviction horizon must sit in a frame"


def test_reproduce_from_evicted_log(lossy_run):
    """The tentpole acceptance: a bug whose loop prefix was evicted still
    reproduces, via synthesized prefixes."""
    _, pipeline, recorded = lossy_run
    report = pipeline.reproduce_offline(recorded)
    assert report.reproduced
    assert report.lossy
    # Satellite 6: recorder metrics ride on the report.
    metrics = report.recorder_metrics
    assert metrics["lossy"]
    assert metrics["ring_bytes"] == RING_KW["ring_bytes"]
    assert metrics["segments_evicted"] > 0
    assert 0 < metrics["bytes_retained"] < metrics["bytes_total"]
    assert json.dumps(metrics)  # JSON-ready for `repro trace --json`
    # Synthesis report (one entry per lossy thread): every evicted token
    # accounted for.
    assert report.synthesis
    assert any(t["synth_blocks"] > 0 for t in report.synthesis.values())
    for t in report.synthesis.values():
        assert t["residual_tokens"] == 0
    assert json.dumps(report.synthesis)


def test_full_budget_ring_is_lossless(lossy_run):
    """A generous budget keeps everything: same reproduction, no
    synthesis, anchors at stream start."""
    program, _, _ = lossy_run
    pipeline = ClapPipeline(
        program, flight_config(ring_bytes=1 << 20, ring_segment_bytes=256)
    )
    recorded = pipeline.record()
    assert recorded is not None
    assert not recorded.lossy
    report = pipeline.reproduce_offline(recorded)
    assert report.reproduced
    assert not report.lossy
    assert report.recorder_metrics["segments_evicted"] == 0


def test_synthesize_prefixes_rejects_impossible_deficit(lossy_run):
    """A claimed eviction count smaller than the anchored frames' minimum
    entry cost cannot be accounted for and must raise."""
    program, pipeline, recorded = lossy_run
    ring = dict(recorded.ring, threads=dict(recorded.ring["threads"]))
    for t, info in ring["threads"].items():
        if info["evicted_tokens"] > 0:
            ring["threads"][t] = dict(info, evicted_tokens=1)
    recorded_bad = type(recorded)(
        seed=recorded.seed,
        result=recorded.result,
        recorder=recorded.recorder,
        shared=recorded.shared,
        ring=ring,
        ring_sink=recorded.ring_sink,
    )
    with pytest.raises(ClapError) as err:
        pipeline.reproduce_offline(recorded_bad)
    assert "synthes" in str(err.value) or "account" in str(err.value)


# -- corpus round-trip -----------------------------------------------------


@pytest.fixture(scope="module")
def ring_corpus(tmp_path_factory):
    corpus = Corpus.create(str(tmp_path_factory.mktemp("ring_corpus")))
    entry = corpus.add(FLIGHT.source, name="flight", config=flight_config())
    return corpus, entry


def test_corpus_persists_ring_metadata(ring_corpus):
    _, entry = ring_corpus
    ring = entry.manifest["ring"]
    assert ring["lossy"] is True
    assert ring["ring_bytes"] == RING_KW["ring_bytes"]
    lossy_threads = [
        t for t, info in ring["threads"].items() if info["evicted_tokens"]
    ]
    assert len(lossy_threads) == 2
    for t in lossy_threads:
        anchor = ring["threads"][t]["anchor"]
        assert anchor["frames"], "anchor must serialize its frame chain"
        assert anchor["tokens_before"] == ring["threads"][t]["evicted_tokens"]
    # The container's chunks are ring-flagged suffix segments.
    reader = ClapReader.open(entry.trace_path)
    assert reader.complete
    assert all(c.flags & CHUNK_RING for c in reader.chunks)
    ok, problems = entry.verify()
    assert ok, problems


def test_corpus_lossy_roundtrip_reproduces(ring_corpus):
    corpus, _ = ring_corpus
    entry = corpus.entry(corpus.entry_ids()[0])  # cold caches
    stored = entry.load_execution()
    assert stored.lossy
    assert stored.ring["threads"]
    pipeline = ClapPipeline(
        stored.program, ClapConfig(**entry.config_kwargs())
    )
    report = pipeline.reproduce_offline(stored)
    assert report.reproduced
    assert report.lossy
    assert report.synthesis


def test_ring_chunks_without_manifest_meta_refused(ring_corpus, tmp_path):
    """Stripping the manifest's ring metadata must make the load refuse:
    the suffix log would otherwise masquerade as a complete trace."""
    corpus, entry = ring_corpus
    manifest = json.loads(open(entry.manifest_path).read())
    del manifest["ring"]
    clone_dir = tmp_path / "entries" / entry.entry_id
    clone_dir.mkdir(parents=True)
    (clone_dir / "manifest.json").write_text(json.dumps(manifest))
    (clone_dir / "trace.clap").write_bytes(
        open(entry.trace_path, "rb").read()
    )
    (tmp_path / "corpus.json").write_text('{"format": 1}')
    stripped = Corpus.open(str(tmp_path)).entry(entry.entry_id)
    with pytest.raises(CorpusError) as err:
        stripped.load_execution()
    assert "ring" in str(err.value)
