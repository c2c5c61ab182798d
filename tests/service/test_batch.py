"""Batch engine end to end: corpus in, JSONL + aggregate table out."""

import argparse

import pytest

from repro.cli import build_parser
from repro.core.clap import ClapConfig
from repro.service import (
    STATUS_REPRODUCED,
    STATUS_TIMEOUT,
    JsonlSink,
    format_batch_table,
    run_batch,
    run_repro_job,
)
from repro.service.faults import corrupt_chunk
from repro.service.jobs import JobSpec
from repro.store import Corpus

from tests.conftest import RACE_SRC

ORDER_SRC = """
int ready = 0;
int data = 0;

void producer() {
    data = 41;
    ready = 1;
}

int main() {
    int t = 0;
    t = spawn producer();
    if (ready == 1) {
        assert(data == 42);
    }
    join(t);
    return 0;
}
"""


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus"))
    corpus = Corpus.create(root)
    corpus.add(RACE_SRC, name="race", config=ClapConfig(seeds=range(50)))
    corpus.add(ORDER_SRC, name="order", config=ClapConfig(seeds=range(200)))
    return root


def test_batch_reproduces_all(corpus_root, tmp_path):
    sink_path = str(tmp_path / "results.jsonl")
    results, aggregate = run_batch(corpus_root, jobs=2, sink_path=sink_path)
    assert aggregate["jobs"] == 2
    assert aggregate["reproduced"] == 2
    assert all(r.status == STATUS_REPRODUCED for r in results)
    # Sink got one flushed line per job, matching the returned results.
    records = JsonlSink.read(sink_path)
    assert len(records) == 2
    assert {r["entry_id"] for r in records} == {r.entry_id for r in results}
    table = format_batch_table(results, aggregate)
    assert "reproduced" in table
    assert "2 jobs" in table


def test_injected_crash_is_retried_and_succeeds(corpus_root):
    corpus = Corpus.open(corpus_root)
    victim = corpus.entry_ids()[0]
    results, aggregate = run_batch(
        corpus_root,
        jobs=2,
        faults_by_entry={victim: {"kill_worker": {"attempts": [1]}}},
    )
    assert aggregate["reproduced"] == 2
    by_id = {r.entry_id: r for r in results}
    assert by_id[victim].attempts == 2
    assert all(
        r.attempts == 1 for r in results if r.entry_id != victim
    )


def test_injected_slow_solve_times_out_without_stalling(corpus_root, tmp_path):
    corpus = Corpus.open(corpus_root)
    slow = corpus.entry_ids()[0]
    sink_path = str(tmp_path / "results.jsonl")
    results, aggregate = run_batch(
        corpus_root,
        jobs=2,
        timeout=2.0,
        faults_by_entry={slow: {"slow_solve": {"seconds": 60}}},
        sink_path=sink_path,
    )
    by_id = {r.entry_id: r for r in results}
    assert by_id[slow].status == STATUS_TIMEOUT
    others = [r for r in results if r.entry_id != slow]
    assert all(r.status == STATUS_REPRODUCED for r in others)
    # The timeout is in the durable sink too, not just the return value.
    records = {r["entry_id"]: r for r in JsonlSink.read(sink_path)}
    assert records[slow]["status"] == STATUS_TIMEOUT


def test_job_on_corrupt_entry_fails_cleanly(corpus_root, tmp_path):
    # Copy the corpus so the corruption does not leak into other tests.
    import shutil

    root = str(tmp_path / "corpus")
    shutil.copytree(corpus_root, root)
    corpus = Corpus.open(root)
    entry = corpus.entries()[0]
    corrupt_chunk(entry.trace_path, 0)
    ok, problems = entry.verify()
    assert not ok
    outcome = run_repro_job(
        JobSpec(corpus_root=root, entry_id=entry.entry_id).to_dict()
    )
    assert outcome["status"] in ("failed", "reproduced")
    # A corrupt chunk loses trace data; the job must not crash the
    # worker.  (Recovery may still salvage enough to reproduce.)
    assert outcome["entry_id"] == entry.entry_id


def test_unknown_entry_fails_not_crashes(corpus_root):
    outcome = run_repro_job(
        JobSpec(corpus_root=corpus_root, entry_id="nope").to_dict()
    )
    assert outcome["status"] == "failed"
    assert "nope" in outcome["reason"]


def _declared_solvers(*command):
    """The ``--solver`` choices the CLI declares for ``repro <command>``."""
    parser = build_parser()
    for name in command:
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return next(
        action.choices for action in parser._actions if action.dest == "solver"
    )


def test_every_declared_solver_reproduces_in_a_batch_job(tmp_path):
    # Batch and fleet jobs run in daemonic pool workers, which may not
    # fork: every solver the CLI offers there must solve in-process.
    root = str(tmp_path / "corpus")
    Corpus.create(root).add(
        RACE_SRC, name="race", config=ClapConfig(stickiness=0.3)
    )
    solvers = set(_declared_solvers("batch")) | set(
        _declared_solvers("fleet", "drain")
    )
    for solver in sorted(solvers):
        results, _aggregate = run_batch(root, jobs=1, solver=solver)
        assert [r.status for r in results] == [STATUS_REPRODUCED], (
            solver,
            results[0].reason,
        )
