"""A durable, crash-safe job queue backed by a directory tree.

The ingestion gateway must never lose an accepted crash report: a report
whose solve is pending has to survive a gateway restart (or crash) and a
dispatcher worker dying mid-solve.  This queue gets that durability from
the filesystem alone, with every write and rename going through
:mod:`repro.store.durable`:

* one JSON file per job, replaced atomically, so a job file is either
  absent or complete — never torn;
* job state *is* directory membership: ``pending/``, ``active/``,
  ``done/``, ``failed/``.  State transitions are single durable renames
  (claim) or write-new-then-unlink pairs (complete/fail) ordered so a
  crash at any point leaves the job recoverable;
* :meth:`recover` (run on open) moves orphaned ``active/`` jobs back to
  ``pending/`` — a dispatcher that died mid-solve re-runs the job, it
  does not lose it.  A job present in both ``active/`` and a terminal
  directory (crash between write and unlink) resolves to the terminal
  state.

Jobs are FIFO by a monotonically increasing sequence number baked into
the filename, so ``sorted(listdir)`` is dispatch order.  One process
owns the queue at a time (the gateway); workers never touch it — the
dispatcher claims on their behalf.
"""

import json
import os

from repro.store import durable

STATE_PENDING = "pending"
STATE_ACTIVE = "active"
STATE_DONE = "done"
STATE_FAILED = "failed"

_STATES = (STATE_PENDING, STATE_ACTIVE, STATE_DONE, STATE_FAILED)


class QueueError(Exception):
    """A structural problem with the queue directory."""


class DurableJobQueue:
    """Directory-backed FIFO of JSON job payloads."""

    def __init__(self, root):
        self.root = root
        for state in _STATES:
            os.makedirs(os.path.join(root, state), exist_ok=True)
        self._next_seq = 1 + max(
            (job["seq"] for job in self._iter_all()), default=-1
        )

    # -- plumbing --------------------------------------------------------

    def _dir(self, state):
        return os.path.join(self.root, state)

    def _job_path(self, state, job_id):
        return os.path.join(self._dir(state), job_id + ".json")

    def _write_job(self, state, record):
        durable.write_json(self._job_path(state, record["id"]), record)

    def _read_job(self, state, job_id):
        try:
            with open(self._job_path(state, job_id), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise QueueError(
                "job %s in %s is unreadable: %s" % (job_id, state, exc)
            ) from exc

    def _job_ids(self, state):
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self._dir(state))
            if name.endswith(".json") and ".tmp." not in name
        )

    def _iter_all(self):
        for state in _STATES:
            yield from self.jobs(state)

    # -- producer side ---------------------------------------------------

    def put(self, payload):
        """Durably enqueue ``payload``; returns the job id."""
        seq = self._next_seq
        self._next_seq += 1
        job_id = "job-%010d" % seq
        self._write_job(
            STATE_PENDING, {"id": job_id, "seq": seq, "payload": payload}
        )
        return job_id

    # -- consumer side ---------------------------------------------------

    def claim(self, limit, accept=None):
        """Move up to ``limit`` pending jobs to ``active``; FIFO order.

        ``accept(payload) -> bool`` skips jobs the caller cannot run yet
        (the dispatcher's per-shard concurrency limit) without losing
        their queue position.  Returns the claimed job records.
        """
        claimed = []
        for job_id in self._job_ids(STATE_PENDING):
            if len(claimed) >= limit:
                break
            record = self._read_job(STATE_PENDING, job_id)
            if record is None:
                continue
            if accept is not None and not accept(record["payload"]):
                continue
            durable.move(
                self._job_path(STATE_PENDING, job_id),
                self._job_path(STATE_ACTIVE, job_id),
            )
            claimed.append(record)
        return claimed

    def _finish(self, job_id, state, extra):
        record = self._read_job(STATE_ACTIVE, job_id)
        if record is None:
            raise QueueError("job %s is not active" % job_id)
        record.update(extra)
        # Terminal copy first, then unlink: a crash in between leaves the
        # job in both places and recover() resolves to the terminal state.
        self._write_job(state, record)
        try:
            os.remove(self._job_path(STATE_ACTIVE, job_id))
        except OSError:
            pass
        return record

    def complete(self, job_id, result=None):
        """Mark an active job done, attaching its result."""
        return self._finish(job_id, STATE_DONE, {"result": result})

    def fail(self, job_id, reason=""):
        """Mark an active job failed, attaching the reason."""
        return self._finish(job_id, STATE_FAILED, {"reason": reason})

    def recover(self):
        """Requeue active jobs orphaned by a crash; returns their count.

        An active job that also exists in ``done``/``failed`` (the crash
        hit between the terminal write and the active unlink) is cleaned
        up, not requeued.
        """
        requeued = 0
        for job_id in self._job_ids(STATE_ACTIVE):
            active_path = self._job_path(STATE_ACTIVE, job_id)
            terminal = any(
                os.path.exists(self._job_path(state, job_id))
                for state in (STATE_DONE, STATE_FAILED)
            )
            if terminal:
                os.remove(active_path)
                continue
            durable.move(active_path, self._job_path(STATE_PENDING, job_id))
            requeued += 1
        return requeued

    # -- introspection ---------------------------------------------------

    def counts(self):
        return {state: len(self._job_ids(state)) for state in _STATES}

    def depth(self):
        """Outstanding work: pending + active (the backpressure gauge)."""
        counts = self.counts()
        return counts[STATE_PENDING] + counts[STATE_ACTIVE]

    def jobs(self, state):
        """All job records in ``state``, FIFO order."""
        records = []
        for job_id in self._job_ids(state):
            record = self._read_job(state, job_id)
            if record is not None:
                records.append(record)
        return records
