"""Durable writes: the one crash-safety protocol every store uses.

Corpus entries, the analysis cache and its index, queue jobs, cluster
records, the fleet marker and shard manifests, and finished batch
result logs all commit through here, so a crash at any write boundary
leaves either the old file or the new one, never a torn one.  A file is
written to ``<path>.tmp.<pid>``, flushed, fsynced and ``os.replace``-d
onto ``path``, then the parent directory is fsynced; :func:`move`
renames and fsyncs both parents.  Interrupted writes leave only
``*.tmp.<pid>`` files, which every listing skips.

The primitives are module attributes so that
:func:`repro.service.faults.crash_at` can interpose on each boundary.
"""

import contextlib
import json
import os

_replace = os.replace
_rename = os.rename
_fsync = os.fsync


def _write(fh, data):
    fh.write(data)


def tmp_path(path):
    """The scratch name a write of ``path`` goes through first."""
    return "%s.tmp.%d" % (path, os.getpid())


def _fsync_dir(path):
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


def _commit(tmp, path):
    _replace(tmp, path)
    _fsync_dir(os.path.dirname(path))


def write_bytes(path, data):
    """Atomically replace ``path`` with ``data``."""
    tmp = tmp_path(path)
    with open(tmp, "wb") as fh:
        _write(fh, data)
        fh.flush()
        _fsync(fh.fileno())
    _commit(tmp, path)


def write_json(path, obj, indent=None):
    """Atomically replace ``path`` with ``obj`` as sorted-key JSON."""
    text = json.dumps(obj, indent=indent, sort_keys=True) + "\n"
    write_bytes(path, text.encode("utf-8"))


@contextlib.contextmanager
def staged(path):
    """Yield a tmp path for a writer that fsyncs its own file (a
    ``ClapWriter``); a clean exit commits it onto ``path``."""
    tmp = tmp_path(path)
    yield tmp
    _commit(tmp, path)


def move(src, dst):
    """Rename ``src`` (a file or directory) onto ``dst``, durably."""
    _rename(src, dst)
    parents = (os.path.dirname(os.path.abspath(p)) for p in (dst, src))
    for parent in dict.fromkeys(parents):  # each once, dst's first
        _fsync_dir(parent)
