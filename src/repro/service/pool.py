"""A multiprocess worker pool with per-job timeouts and bounded retry.

Why not ``multiprocessing.Pool``: the stdlib pool cannot kill one hung
job without tearing down the whole pool, and a worker that dies silently
(our ``kill_worker`` fault, or a real segfault) hangs ``map`` forever.
This pool gives every worker its **own task queue**, so the parent always
knows exactly which job a worker holds and can:

* kill and respawn a worker whose job exceeds its wall-clock budget
  (the job is recorded as ``timeout`` — terminal, since the same
  deterministic solve would time out again);
* detect a worker that died mid-job (exit code set, no result) and retry
  the job with exponential backoff up to its ``max_attempts``, after
  which it is recorded as ``crashed``.

Results come back over one shared queue.  The pool never pickles live
pipeline state: tasks are plain dicts and the job executor is a
top-level importable function (or a picklable callable object carrying
read-only state, like the portfolio's job runner).

Pools created with ``channel=True`` additionally give every worker a
one-way IPC side channel (:class:`WorkerChannel`): workers ``send``
payloads the parent hands to the caller's ``on_message`` hook (the
portfolio solver's per-rung progress events).  The caller may react by
calling :meth:`WorkerPool.stop_remaining`, which cancels every
unfinished job — pending jobs are marked ``cancelled`` without ever
dispatching, and busy workers are killed within one poll interval.
``WorkerPool.counters`` records respawns and cancellations for the run.
"""

import collections
import multiprocessing
import os
import queue
import time


class WorkerChannel:
    """A worker's side of the pool IPC channel: ``send`` delivers a
    payload to the parent's ``on_message`` hook."""

    def __init__(self, outbox):
        self._outbox = outbox

    def send(self, payload):
        self._outbox.put(payload)


def _worker_main(run_job, task_queue, result_queue, outbox=None):
    """Worker loop: take (job_id, spec, attempt), report a result dict.

    Exceptions escaping ``run_job`` are reported as ``"error"`` outcomes
    rather than killing the worker — only ``os._exit`` / signals (real
    crashes and the injected kind) take the silent-death path the parent
    detects via exit codes.
    """
    channel = WorkerChannel(outbox) if outbox is not None else None
    while True:
        item = task_queue.get()
        if item is None:
            return
        job_id, spec, attempt = item
        try:
            if channel is not None:
                result = run_job(spec, attempt, channel)
            else:
                result = run_job(spec, attempt)
            result_queue.put((job_id, os.getpid(), "ok", result))
        except BaseException as exc:
            result_queue.put(
                (job_id, os.getpid(), "error", "%s: %s" % (type(exc).__name__, exc))
            )


class _Worker:
    """One worker process plus its private task queue."""

    def __init__(self, ctx, run_job, result_queue, outbox=None):
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(run_job, self.task_queue, result_queue, outbox),
            daemon=True,
        )
        self.process.start()
        # (job_id, deadline) while busy, else None.
        self.job = None

    def dispatch(self, job_id, spec, attempt, deadline):
        self.job = (job_id, deadline)
        self.task_queue.put((job_id, spec, attempt))

    def kill(self):
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def dead(self):
        return self.process.exitcode is not None


class _JobState:
    __slots__ = ("spec", "attempt", "ready_at", "started_at", "first_start")

    def __init__(self, spec):
        self.spec = spec
        self.attempt = 1
        self.ready_at = 0.0
        self.started_at = None
        self.first_start = None


class WorkerPool:
    """Run job dicts through ``run_job`` across ``jobs`` worker processes.

    ``run_job(spec, attempt) -> result dict`` must be a top-level
    function or picklable callable.  Per-job policy is read from the
    spec dict itself: ``timeout`` (seconds), ``max_attempts`` and
    ``backoff`` (exponential base for retry delays).

    With ``channel=True`` the executor is instead called as
    ``run_job(spec, attempt, channel)`` where ``channel`` is a
    :class:`WorkerChannel`; a payload the worker ``send``s is handed to
    ``run(..., on_message=...)``.
    """

    def __init__(self, run_job, jobs=2, poll_interval=0.05, channel=False):
        if jobs < 1:
            raise ValueError("need at least one worker")
        self.run_job = run_job
        self.jobs = jobs
        self.poll_interval = poll_interval
        self.channel = channel
        self._ctx = multiprocessing.get_context()
        self._stop = False
        self.counters = {"respawns": 0, "cancelled": 0}

    def stop_remaining(self):
        """Cancel every job that has not finished yet.

        Pending jobs are recorded as ``cancelled`` without dispatching;
        busy workers are killed (and their jobs recorded ``cancelled``)
        within one poll interval.  Safe to call from ``on_message`` /
        ``on_outcome`` callbacks.
        """
        self._stop = True

    def run(self, specs, on_outcome=None, on_message=None):
        """Execute every spec; returns outcome dicts in spec order.

        Each outcome is the executor's result dict plus the pool's own
        bookkeeping: ``attempts``, ``wall_time`` and — for jobs the pool
        itself terminated — ``status`` of ``timeout``, ``crashed`` or
        ``cancelled``.  ``on_outcome(index, outcome)`` fires as each job
        completes; ``on_message(payload)`` fires for every payload a
        worker ``send``s over the channel.
        """
        self._stop = False
        self.counters = {"respawns": 0, "cancelled": 0}
        result_queue = self._ctx.Queue()
        outbox = self._ctx.Queue() if self.channel else None
        workers = [
            _Worker(self._ctx, self.run_job, result_queue, outbox)
            for _ in range(min(self.jobs, max(len(specs), 1)))
        ]
        states = {i: _JobState(spec) for i, spec in enumerate(specs)}
        pending = collections.deque(sorted(states))
        outcomes = {}

        def finish(job_id, outcome):
            state = states[job_id]
            outcome.setdefault("status", "failed")
            outcome["attempts"] = state.attempt
            outcome["wall_time"] = round(
                time.monotonic() - state.first_start, 6
            )
            outcomes[job_id] = outcome
            if on_outcome is not None:
                on_outcome(job_id, outcome)

        def requeue_or_crash(job_id, worker_pid, reason):
            state = states[job_id]
            max_attempts = int(state.spec.get("max_attempts", 3))
            if state.attempt < max_attempts:
                backoff = float(state.spec.get("backoff", 0.25))
                state.ready_at = time.monotonic() + backoff * (
                    2 ** (state.attempt - 1)
                )
                state.attempt += 1
                pending.append(job_id)
            else:
                finish(
                    job_id,
                    {
                        "entry_id": state.spec.get("entry_id", ""),
                        "status": "crashed",
                        "reason": reason,
                        "worker_pid": worker_pid,
                    },
                )

        def drain_channel():
            if outbox is None:
                return
            while True:
                try:
                    payload = outbox.get_nowait()
                except queue.Empty:
                    return
                if on_message is not None:
                    on_message(payload)

        try:
            while len(outcomes) < len(specs):
                now = time.monotonic()
                # Dispatch ready jobs to idle, live workers.
                for worker in workers:
                    if not pending or self._stop:
                        break
                    if worker.job is not None or worker.dead():
                        continue
                    job_id = None
                    for _ in range(len(pending)):
                        candidate = pending.popleft()
                        if states[candidate].ready_at <= now:
                            job_id = candidate
                            break
                        pending.append(candidate)
                    if job_id is None:
                        break
                    state = states[job_id]
                    state.started_at = now
                    if state.first_start is None:
                        state.first_start = now
                    deadline = now + float(state.spec.get("timeout", 120.0))
                    worker.dispatch(job_id, state.spec, state.attempt, deadline)

                # Drain results.
                try:
                    job_id, pid, kind, payload = result_queue.get(
                        timeout=self.poll_interval
                    )
                except queue.Empty:
                    pass
                else:
                    for worker in workers:
                        if worker.job is not None and worker.job[0] == job_id:
                            worker.job = None
                            break
                    if job_id not in outcomes:
                        if kind == "ok":
                            finish(job_id, dict(payload))
                        else:
                            requeue_or_crash(
                                job_id, pid, "executor raised: %s" % payload
                            )

                # Drain channel traffic before acting on cancellation so a
                # winner's result can never race its own stop signal.
                drain_channel()

                # Cancellation: drop what never started, kill what did.
                if self._stop:
                    while pending:
                        job_id = pending.popleft()
                        if job_id in outcomes:
                            continue
                        state = states[job_id]
                        if state.first_start is None:
                            state.first_start = time.monotonic()
                        finish(
                            job_id,
                            {
                                "entry_id": state.spec.get("entry_id", ""),
                                "status": "cancelled",
                                "reason": "pool stopped before dispatch",
                            },
                        )
                        self.counters["cancelled"] += 1
                    for worker in workers:
                        if worker.job is None:
                            continue
                        job_id, _ = worker.job
                        pid = worker.process.pid
                        worker.kill()
                        worker.job = None
                        if job_id not in outcomes:
                            finish(
                                job_id,
                                {
                                    "entry_id": states[job_id].spec.get(
                                        "entry_id", ""
                                    ),
                                    "status": "cancelled",
                                    "reason": "pool stopped while running",
                                    "worker_pid": pid,
                                },
                            )
                            self.counters["cancelled"] += 1
                    continue

                # Kill workers whose job blew its budget; respawn.
                now = time.monotonic()
                for i, worker in enumerate(workers):
                    if worker.job is None:
                        continue
                    job_id, deadline = worker.job
                    if now < deadline:
                        continue
                    pid = worker.process.pid
                    worker.kill()
                    workers[i] = _Worker(
                        self._ctx, self.run_job, result_queue, outbox
                    )
                    self.counters["respawns"] += 1
                    state = states[job_id]
                    finish(
                        job_id,
                        {
                            "entry_id": state.spec.get("entry_id", ""),
                            "status": "timeout",
                            "reason": "exceeded %.1fs wall-clock budget"
                            % float(state.spec.get("timeout", 120.0)),
                            "worker_pid": pid,
                        },
                    )

                # Detect workers that died without reporting; respawn + retry.
                for i, worker in enumerate(workers):
                    if worker.job is None or not worker.dead():
                        continue
                    job_id, _ = worker.job
                    pid = worker.process.pid
                    code = worker.process.exitcode
                    workers[i] = _Worker(
                        self._ctx, self.run_job, result_queue, outbox
                    )
                    self.counters["respawns"] += 1
                    if job_id not in outcomes:
                        requeue_or_crash(
                            job_id,
                            pid,
                            "worker pid %s died with exit code %s" % (pid, code),
                        )
        finally:
            for worker in workers:
                if worker.job is None and not worker.dead():
                    worker.task_queue.put(None)
                else:
                    worker.kill()
            for worker in workers:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.kill()

        return [outcomes[i] for i in range(len(specs))]
