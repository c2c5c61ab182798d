"""Worker-pool failure paths: crashes retried, timeouts killed, no stalls."""

import os
import time

from repro.service.pool import WorkerPool


def _job_ok(spec, attempt):
    return {
        "entry_id": spec["entry_id"],
        "status": "reproduced",
        "attempt_seen": attempt,
        "worker_pid": os.getpid(),
    }


def _job_crash_then_ok(spec, attempt):
    # Die like a SIGKILL'd worker until the configured attempt.
    if attempt < spec.get("ok_on_attempt", 2):
        os._exit(9)
    return _job_ok(spec, attempt)


def _job_maybe_hang(spec, attempt):
    if spec.get("hang"):
        time.sleep(120)
    return _job_ok(spec, attempt)


def _job_raise(spec, attempt):
    raise ValueError("executor bug for %s" % spec["entry_id"])


def spec(entry_id, **extra):
    base = {
        "entry_id": entry_id,
        "timeout": 5.0,
        "max_attempts": 3,
        "backoff": 0.05,
    }
    base.update(extra)
    return base


def test_happy_path_order_preserved():
    pool = WorkerPool(_job_ok, jobs=2)
    outcomes = pool.run([spec("a"), spec("b"), spec("c")])
    assert [o["entry_id"] for o in outcomes] == ["a", "b", "c"]
    assert all(o["status"] == "reproduced" for o in outcomes)
    assert all(o["attempts"] == 1 for o in outcomes)


def test_crashed_worker_is_retried_and_succeeds():
    pool = WorkerPool(_job_crash_then_ok, jobs=2)
    outcomes = pool.run([spec("flaky", ok_on_attempt=2), spec("solid", ok_on_attempt=1)])
    flaky, solid = outcomes
    assert flaky["status"] == "reproduced"
    assert flaky["attempts"] == 2
    assert flaky["attempt_seen"] == 2
    assert solid["attempts"] == 1


def test_crash_every_attempt_is_terminal():
    pool = WorkerPool(_job_crash_then_ok, jobs=1)
    outcomes = pool.run([spec("doomed", ok_on_attempt=99, max_attempts=2)])
    assert outcomes[0]["status"] == "crashed"
    assert outcomes[0]["attempts"] == 2
    assert "died" in outcomes[0]["reason"]


def test_timeout_job_is_killed_and_does_not_stall_pool():
    pool = WorkerPool(_job_maybe_hang, jobs=2)
    t0 = time.monotonic()
    outcomes = pool.run(
        [
            spec("hangs", hang=True, timeout=1.0),
            spec("quick-1"),
            spec("quick-2"),
            spec("quick-3"),
        ]
    )
    elapsed = time.monotonic() - t0
    hung, *quick = outcomes
    assert hung["status"] == "timeout"
    assert "budget" in hung["reason"]
    assert all(o["status"] == "reproduced" for o in quick)
    # The hang burned one worker for ~1s; everything else flowed through
    # the other worker.  Nothing waited for the 120s sleep.
    assert elapsed < 30


def test_timeout_is_terminal_no_retry():
    pool = WorkerPool(_job_maybe_hang, jobs=1)
    outcomes = pool.run([spec("hangs", hang=True, timeout=0.5, max_attempts=3)])
    assert outcomes[0]["status"] == "timeout"
    assert outcomes[0]["attempts"] == 1


def test_executor_exception_retried_then_crashed():
    pool = WorkerPool(_job_raise, jobs=1)
    outcomes = pool.run([spec("bug", max_attempts=2)])
    assert outcomes[0]["status"] == "crashed"
    assert outcomes[0]["attempts"] == 2
    assert "executor raised" in outcomes[0]["reason"]
    assert "ValueError" in outcomes[0]["reason"]


def test_more_jobs_than_workers():
    pool = WorkerPool(_job_ok, jobs=2)
    outcomes = pool.run([spec(str(i)) for i in range(9)])
    assert len(outcomes) == 9
    assert all(o["status"] == "reproduced" for o in outcomes)
    pids = {o["worker_pid"] for o in outcomes}
    assert 1 <= len(pids) <= 2


# -- channel mode ---------------------------------------------------------


def _job_send_event(spec, attempt, channel):
    channel.send({"event": "progress", "entry_id": spec["entry_id"]})
    if spec.get("linger"):
        time.sleep(float(spec["linger"]))
    return {"entry_id": spec["entry_id"], "status": "reproduced"}


def test_channel_send_reaches_on_message():
    events = []
    pool = WorkerPool(_job_send_event, jobs=2, channel=True)
    outcomes = pool.run(
        [spec("x"), spec("y")], on_message=events.append
    )
    assert all(o["status"] == "reproduced" for o in outcomes)
    assert sorted(e["entry_id"] for e in events) == ["x", "y"]
    assert all(e["event"] == "progress" for e in events)


def test_stop_remaining_cancels_pending_and_running():
    stopped = []

    def on_message(payload):
        # First progress event wins; everything else must be cancelled.
        if not stopped:
            stopped.append(payload["entry_id"])
            pool.stop_remaining()

    pool = WorkerPool(_job_send_event, jobs=2, channel=True)
    t0 = time.monotonic()
    outcomes = pool.run(
        [
            spec("slow-1", linger=30.0, timeout=60.0),
            spec("slow-2", linger=30.0, timeout=60.0),
            spec("never-started-1", linger=30.0, timeout=60.0),
            spec("never-started-2", linger=30.0, timeout=60.0),
        ],
        on_message=on_message,
    )
    elapsed = time.monotonic() - t0
    # Nothing waited for a 30s linger: cancellation killed the running
    # workers within the poll interval and dropped the queue.
    assert elapsed < 10
    statuses = [o["status"] for o in outcomes]
    assert statuses.count("cancelled") == 4
    assert pool.counters["cancelled"] == 4
    assert all(
        "stopped" in o["reason"] for o in outcomes if o["status"] == "cancelled"
    )


def test_counters_track_respawns():
    pool = WorkerPool(_job_crash_then_ok, jobs=1)
    outcomes = pool.run([spec("flaky", ok_on_attempt=2)])
    assert outcomes[0]["status"] == "reproduced"
    assert pool.counters["respawns"] == 1
