"""Every durable store survives a crash at every write boundary.

:func:`repro.service.faults.crash_at` makes the n-th write, fsync,
replace or rename inside ``store/durable.py`` raise.  For each operation
below the test counts the operation's boundaries, then reruns it on a
fresh copy of the same starting directory once per boundary, crashing
there.  The reopened state must equal the state before the operation or
the state after an uninterrupted run, and from the old state a retry
must reach the new one.
"""

import json
import os
import shutil

import pytest

from repro.core.clap import ClapConfig, ClapPipeline
from repro.fleet import FleetError, ShardedCorpus
from repro.fleet.cluster import ClusterRegistry
from repro.fleet.queue import DurableJobQueue
from repro.minilang import compile_source
from repro.service.batch import JsonlSink
from repro.service.faults import InjectedCrash, crash_at
from repro.store import Corpus
from repro.store.cache import AnalysisCache, SharedAnalysisCache
from repro.store.corpus import run_stats

from tests.conftest import RACE_SRC
from tests.fleet.conftest import six_entry_fleet
from tests.store.test_recover import (
    CONFIG as CRASHY_CONFIG,
    CRASHY_SRC,
    truncate_before,
    worker_final_chunk,
)

CONFIG = ClapConfig(seeds=range(50))


def tree(root):
    """Every file a reader of ``root`` can see, by relative path.

    Tmp files and dot-named staging directories are skipped; JSON files
    are parsed, without the run-dependent ``time_record`` stat.
    """
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [name for name in dirnames if not name.startswith(".")]
        for name in filenames:
            if ".tmp." in name:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                data = json.loads(data)
                if isinstance(data.get("stats"), dict):
                    data["stats"].pop("time_record", None)
            files[os.path.relpath(path, root)] = data
    return files


def crash_everywhere(tmp_path, base, op, state=tree, retry=None):
    """Run ``op(root)`` on copies of ``base``, crashing at each boundary.

    ``state(root)`` reads what a reopened store holds; ``retry(root)``
    (default: ``op``) is what a caller reruns after a crash.  Returns the
    number of boundaries.
    """
    old = state(_copy(base, tmp_path / "old"))
    ref = _copy(base, tmp_path / "ref")
    with crash_at(0) as counter:
        op(ref)
    new = state(ref)
    assert counter.boundaries > 0
    for n in range(1, counter.boundaries + 1):
        work = _copy(base, tmp_path / ("crash-%02d" % n))
        with pytest.raises(InjectedCrash), crash_at(n):
            op(work)
        got = state(work)
        assert got in (old, new), "crash at boundary %d" % n
        if got == old:
            (retry or op)(work)
            assert state(work) == new, "retry after boundary %d" % n
    return counter.boundaries


def _copy(base, dst):
    shutil.copytree(base, str(dst))
    return str(dst)


# -- corpus -----------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    program = compile_source(RACE_SRC, name="race")
    return ClapPipeline(program, CONFIG).record()


@pytest.fixture
def empty_corpus(tmp_path):
    return Corpus.create(str(tmp_path / "base")).root


def test_corpus_add(tmp_path, empty_corpus, recorded):
    def add(root):
        Corpus.open(root).add(
            RACE_SRC, name="race", config=CONFIG, recorded=recorded
        )

    # A crash before the staging directory's move leaves the old corpus;
    # the retry (same process) must not trip over the leftover.
    assert crash_everywhere(tmp_path, empty_corpus, add) == 6


def test_corpus_add_recorded(tmp_path, empty_corpus, recorded):
    def add(root):
        Corpus.open(root).add_recorded(
            RACE_SRC,
            recorded.recorder.logs,
            recorded.bug,
            run_stats(recorded.result, recorded.recorder),
            name="race",
            config=CONFIG,
            tag="witness",
            provenance={"mode": "test"},
        )

    assert crash_everywhere(tmp_path, empty_corpus, add) == 6


def _only_entry(root):
    corpus = Corpus.open(root)
    (entry_id,) = corpus.entry_ids()
    return corpus.entry(entry_id)


def test_entry_recover(tmp_path):
    corpus = Corpus.create(str(tmp_path / "base"))
    entry = corpus.add(
        CRASHY_SRC,
        name="crashy",
        config=ClapConfig(**CRASHY_CONFIG),
        flush_every=8,
    )
    truncate_before(
        entry.trace_path, worker_final_chunk(entry.trace_path).offset
    )
    old = tree(_copy(corpus.root, tmp_path / "old"))
    ref = _copy(corpus.root, tmp_path / "ref")
    with crash_at(0) as counter:
        _only_entry(ref).recover()
    new = tree(ref)
    # The container swap is the commit point; a crash after it and
    # before the manifest update leaves the recovered container under
    # the old manifest, and rerunning recover finishes the update.
    committed = dict(old)
    committed["entries/%s/trace.clap" % entry.entry_id] = new[
        "entries/%s/trace.clap" % entry.entry_id
    ]
    assert counter.boundaries == 6
    for n in range(1, counter.boundaries + 1):
        work = _copy(corpus.root, tmp_path / ("crash-%02d" % n))
        with pytest.raises(InjectedCrash), crash_at(n):
            _only_entry(work).recover()
        got = tree(work)
        assert got in (old, committed, new), "crash at boundary %d" % n
        if got != new:
            report = _only_entry(work).recover()
            assert report.validated
            assert tree(work) == new, "retry after boundary %d" % n


def test_entry_compact(tmp_path, recorded):
    corpus = Corpus.create(str(tmp_path / "base"))
    corpus.add(
        RACE_SRC, name="race", config=CONFIG, recorded=recorded, flush_every=2
    )

    def compact(root):
        _only_entry(root).compact()

    assert crash_everywhere(tmp_path, corpus.root, compact) == 2


# -- analysis cache ---------------------------------------------------------

MATERIAL = {
    "program": "p" * 64,
    "trace": "t" * 64,
    "memory_model": "sc",
}


def _cache_payloads(root):
    """What lookups can return: the readable entries.  ``index.json`` is
    advisory (reconciled against the entries on every use), so it is
    left out."""
    payloads = {}
    for path in AnalysisCache(root).entry_paths():
        with open(path, "rb") as fh:
            payloads[os.path.relpath(path, root)] = fh.read()
    return payloads


@pytest.mark.parametrize("tier", [AnalysisCache, SharedAnalysisCache])
def test_cache_store(tmp_path, tier):
    base = str(tmp_path / "base")
    tier(base).store(dict(MATERIAL, trace="u" * 64), {"t": 1}, "other")

    def store(root):
        tier(root).store(MATERIAL, {"t": 2}, "system", {"n": 1})

    def state(root):
        payloads = _cache_payloads(root)
        if tier is SharedAnalysisCache:
            return payloads, SharedAnalysisCache(root).usage()
        return payloads

    boundaries = crash_everywhere(tmp_path, base, store, state=state)
    assert boundaries == (8 if tier is SharedAnalysisCache else 4)


# -- job queue --------------------------------------------------------------


def _queue_state(root):
    """The queue as a restarted dispatcher sees it: reopened, then
    :meth:`~DurableJobQueue.recover` (on a copy, leaving ``root`` as the
    crash left it)."""
    reopened = root + "-reopened"
    shutil.rmtree(reopened, ignore_errors=True)
    shutil.copytree(root, reopened)
    queue = DurableJobQueue(reopened)
    queue.recover()
    return {state: queue.jobs(state) for state in queue.counts()}


@pytest.fixture
def queue_base(tmp_path):
    queue = DurableJobQueue(str(tmp_path / "base"))
    for n in range(3):
        queue.put({"n": n})
    queue.claim(1)
    return queue.root


@pytest.mark.parametrize(
    "op, boundaries",
    [
        (lambda q: q.put({"n": 3}), 4),
        (lambda q: q.claim(2), 6),
        (lambda q: q.complete("job-0000000000", result={"ok": True}), 4),
        (lambda q: q.fail("job-0000000000", reason="unsat"), 4),
        (lambda q: q.recover(), 3),
    ],
    ids=["put", "claim", "complete", "fail", "recover"],
)
def test_queue(tmp_path, queue_base, op, boundaries):
    def run(root):
        op(DurableJobQueue(root))

    assert (
        crash_everywhere(tmp_path, queue_base, run, state=_queue_state)
        == boundaries
    )


# -- fleet ------------------------------------------------------------------


def test_cluster_write(tmp_path):
    registry = ClusterRegistry(str(tmp_path / "base"))
    signature = "ab" * 32
    registry.create(signature, {"program": "x"}, {"shard": 0, "entry_id": "e"})

    def solve(root):
        ClusterRegistry(root).mark_solved(signature, [[0, 1], [1, 0]], 1)

    assert crash_everywhere(tmp_path, registry.root, solve) == 4


def _fleet_view(root):
    """The reopened fleet: its shard count, config and shard manifests,
    or None when there is no fleet yet."""
    try:
        fleet = ShardedCorpus.open(os.path.join(root, "fleet"))
    except FleetError:
        return None
    return (
        fleet.n_shards,
        fleet.config,
        [fleet.shard_manifest(i) for i in range(fleet.n_shards)],
    )


def test_fleet_marker(tmp_path):
    base = str(tmp_path / "base")
    os.makedirs(base)

    def create(root):
        ShardedCorpus.create(os.path.join(root, "fleet"), shards=2)

    # fleet.json, then per shard corpus.json and shard.json.
    assert crash_everywhere(tmp_path, base, create, state=_fleet_view) == 20


def test_shard_manifest(tmp_path, recorded):
    fleet = ShardedCorpus.create(str(tmp_path / "base"), shards=1)
    # An entry added behind the fleet's back: shard.json lags until the
    # shard is synced.
    fleet.shard(0).add(RACE_SRC, name="race", config=CONFIG, recorded=recorded)

    def sync(root):
        ShardedCorpus.open(root).sync_shard(0)

    assert crash_everywhere(tmp_path, fleet.root, sync) == 4


def test_rebalance_shrink(tmp_path):
    """A 4 -> 2 rebalance interrupted anywhere: the reopened fleet lists
    every entry once with unchanged content, and a rerun reaches the
    uninterrupted result."""
    fleet = six_entry_fleet(str(tmp_path / "base"))

    def rebalance(root):
        ShardedCorpus.open(root).rebalance(shards=2)

    def contents(root):
        listed = {}
        for _shard, entry in ShardedCorpus.open(root).entries():
            manifest = dict(entry.manifest)
            manifest.pop("fleet")
            manifest["stats"].pop("time_record")
            with open(entry.trace_path, "rb") as fh:
                assert entry.entry_id not in listed
                listed[entry.entry_id] = (manifest, fh.read())
        return listed

    assert len(contents(fleet.root)) == 6
    boundaries = crash_everywhere(
        tmp_path, fleet.root, rebalance, state=contents, retry=rebalance
    )
    assert boundaries > 20
    uninterrupted = tree(str(tmp_path / "ref"))
    for n in range(1, boundaries + 1):
        assert tree(str(tmp_path / ("crash-%02d" % n))) == uninterrupted, n


# -- batch results sink -----------------------------------------------------


def _sink_base(tmp_path):
    base = str(tmp_path / "base")
    sink = JsonlSink(os.path.join(base, "results.jsonl"))
    sink.write({"run": 1})
    sink.close()
    return base


def test_jsonl_sink_write(tmp_path):
    """A line is the sink's own write boundary: it appends and fsyncs
    each line itself and makes no ``durable`` call, so a crash between
    any two lines leaves the previous lines readable and a new sink
    carries on from them."""
    base = _sink_base(tmp_path)
    lines = [{"run": 2, "n": n} for n in range(3)]
    for k in range(len(lines) + 1):
        root = _copy(base, tmp_path / ("kill-%d" % k))
        path = os.path.join(root, "results.jsonl")
        sink = JsonlSink(path)
        with crash_at(1):
            for record in lines[:k]:
                sink.write(record)
        sink._fh.close()  # killed: close() never runs
        got = JsonlSink.read(path + ".partial")
        assert got == [{"run": 1}] + lines[:k]
        retry = JsonlSink(path)
        for record in lines[k:]:
            retry.write(record)
        retry.close()
        assert JsonlSink.read(path) == [{"run": 1}] + lines


def test_jsonl_sink_close(tmp_path):
    base = _sink_base(tmp_path)

    def run(root):
        sink = JsonlSink(os.path.join(root, "results.jsonl"))
        sink.write({"run": 2})
        sink.close()

    def results(root):
        return JsonlSink.read(os.path.join(root, "results.jsonl"))

    def reopen_and_close(root):
        JsonlSink(os.path.join(root, "results.jsonl")).close()

    assert (
        crash_everywhere(
            tmp_path, base, run, state=results, retry=reopen_and_close
        )
        == 2
    )
