"""Fault injection for exercising the batch service's failure paths.

Real worker pools die in three ways: a worker crashes mid-job, a job
hangs past its budget, and the data it reads is corrupt.  Each has a
deterministic injection hook here so tests and CI can force the path
instead of waiting for it:

``kill_worker``
    ``{"attempts": [1, 2]}`` — the worker calls :func:`os._exit` at the
    start of the listed attempts (1-based).  ``os._exit`` bypasses
    ``finally`` blocks and result reporting, exactly like a SIGKILL'd
    process, so the pool sees a silent worker death and must retry.

``slow_solve``
    ``{"seconds": 30}`` — sleep inside the job before the solve phase,
    driving the job over its wall-clock budget so the pool's
    timeout-kill path fires.

``corrupt_chunk``
    Not a job-time fault: :func:`corrupt_chunk` flips one byte inside a
    chosen chunk of a ``.clap`` container on disk (the CI job uses it to
    prove ``corpus verify`` catches bit rot).

``crash_at``
    Not a job-time fault either: :func:`crash_at` makes the n-th write,
    fsync, replace or rename in :mod:`repro.store.durable` raise
    :class:`InjectedCrash`, so tests can interrupt any durable store at
    every write boundary.
"""

import contextlib
import os
import time

from repro.store import durable
from repro.store.container import ClapReader, ContainerError, flip_byte

KILL_EXIT_CODE = 43


def maybe_kill_worker(faults, attempt):
    """Die like a SIGKILL'd worker if this attempt is marked for death."""
    spec = (faults or {}).get("kill_worker")
    if spec and attempt in spec.get("attempts", []):
        os._exit(KILL_EXIT_CODE)


def maybe_slow_solve(faults):
    """Stall before solving so the job blows its wall-clock budget."""
    spec = (faults or {}).get("slow_solve")
    if spec:
        time.sleep(float(spec.get("seconds", 60.0)))


def corrupt_chunk(trace_path, chunk_index=0, mask=0x01):
    """Flip one byte inside chunk ``chunk_index``'s compressed payload.

    Returns the absolute file offset that was flipped.  The flip lands in
    the chunk body (past the header varints), so the chunk's CRC check —
    not a lucky parse error — is what must catch it.
    """
    reader = ClapReader.open(trace_path)
    if not reader.chunks:
        raise ContainerError("%s has no chunks to corrupt" % trace_path)
    chunk = reader.chunks[chunk_index]
    # Last byte before the CRC trailer: always inside the zlib payload.
    offset = chunk.offset + chunk.size - 5
    flip_byte(trace_path, offset, mask=mask)
    return offset


class InjectedCrash(BaseException):
    """Raised by :func:`crash_at`.  A ``BaseException``, so the handlers
    for ordinary errors, which a killed process would never run, do not
    run either."""


class CrashCounter:
    """The write boundaries :func:`crash_at` has seen so far."""

    def __init__(self, crash_on):
        self.crash_on = crash_on
        self.boundaries = 0


@contextlib.contextmanager
def crash_at(n):
    """Raise :class:`InjectedCrash` at the n-th (1-based) durable write,
    fsync, replace or rename inside the ``with`` block.

    The operation at that boundary does not happen.  ``crash_at(0)``
    never fires; its yielded :class:`CrashCounter` then counts the
    boundaries an operation has.
    """
    counter = CrashCounter(n)

    def boundary(primitive):
        def hooked(*args):
            counter.boundaries += 1
            if counter.boundaries == counter.crash_on:
                raise InjectedCrash(
                    "injected crash at durable write boundary %d" % n
                )
            return primitive(*args)

        return hooked

    names = ("_write", "_fsync", "_replace", "_rename")
    saved = {name: getattr(durable, name) for name in names}
    for name, primitive in saved.items():
        setattr(durable, name, boundary(primitive))
    try:
        yield counter
    finally:
        for name, primitive in saved.items():
            setattr(durable, name, primitive)
