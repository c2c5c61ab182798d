"""Content-addressed analysis cache: skip symexec + encode on re-runs.

The offline front end — decode, symbolic re-execution, constraint
encoding — is a pure function of (program, per-thread path logs, memory
model).  ``repro batch`` re-runs the same corpus entries over and over
(new solver, regression sweeps, CI), so this cache persists the front
end's output inside the corpus directory and replays it on hits, driving
the re-analysis cost per run toward zero.

Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the sha256 of a
canonical JSON *key material* dict::

    {"program":      sha256 of the compiled program,
     "trace":        sha256 over every thread's encoded token stream,
     "memory_model": "sc" | "tso" | "pso"}

The payload is a pickle holding the schema version, the key material,
the thread summaries, the encoded :class:`ConstraintSystem` and the
constraint-stats snapshot.  A lookup whose stored schema version no
longer matches the current one is *stale*: it is deleted, counted
(``CacheStats.stale``) and reported as a miss — ``repro corpus verify``
performs the same check corpus-wide.
"""

import hashlib
import json
import os
import pickle

from repro.constraints.stats import CacheStats
from repro.store import durable
from repro.tracing.logfmt import encode_tokens

# Bump whenever the pickled payload shape, the ThreadSummary /
# ConstraintSystem classes, or the encoding rules change incompatibly:
# every existing entry then invalidates itself on first touch.
# v2: ThreadSummary grew the `asserts` field (explore retargeting).
# v3: the FENCE sync SAP kind (weak-memory robustness pass) — cached
#     summaries from before the fence statement existed must not be
#     reused for programs that now compile differently.
# v4: the static Frw pruning layer is gone, so the key material lost its
#     "prune" configuration and the stats snapshot its static counters.
# v5: Frw's no-middle clauses left the encoding for the solver's lazy
#     theory, and the happens-before pruner is gone with its two
#     ConstraintSystem fields; a v4 system carries eager no-middle
#     clauses and pruned reads-from candidates.
# v6: the ConstraintSystem carries F as an integer image (atom table,
#     flat per-kind literal lists, Frw universes) instead of Clause,
#     ExactlyOne and AtMostOne objects; a v5 entry may not even unpickle.
ANALYSIS_SCHEMA_VERSION = 6


class AnalysisCache:
    """One cache directory (normally ``<corpus>/cache``) plus counters."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.stats = CacheStats()

    # -- keying ----------------------------------------------------------

    @staticmethod
    def program_fingerprint(program):
        """Content hash of a compiled program.

        Compiled programs are deterministic pickles of their source (the
        compiler is pure), so the pickle is a faithful content address;
        any recompile of identical source maps to the same entry.
        """
        return hashlib.sha256(pickle.dumps(program)).hexdigest()

    @staticmethod
    def trace_fingerprint(logs):
        """Content hash over every thread's encoded token stream.

        ``logs`` maps each thread to its token list: a recorder's
        ``logs`` (live, or loaded from a corpus entry) or an ingested
        report's decoded streams.
        """
        digest = hashlib.sha256()
        for thread in sorted(logs):
            digest.update(thread.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(encode_tokens(logs[thread]))
            digest.update(b"\x00")
        return digest.hexdigest()

    @classmethod
    def key_material(cls, program, recorder, memory_model):
        return {
            "program": cls.program_fingerprint(program),
            "trace": cls.trace_fingerprint(recorder.logs),
            "memory_model": memory_model,
        }

    @staticmethod
    def key_of(material):
        canon = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".pkl")

    # -- lookups ---------------------------------------------------------

    def load(self, material):
        """Return the payload dict for ``material``, or None on a miss.

        Stale entries (schema mismatch, unreadable pickle) are deleted
        and counted as both ``stale`` and a miss.
        """
        key = self.key_of(material)
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            payload = pickle.loads(blob)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != ANALYSIS_SCHEMA_VERSION
        ):
            self._discard(path)
            self.stats.stale += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        return payload

    def store(self, material, summaries, system, stats_dict=None):
        """Persist one front-end result; returns the entry key."""
        key = self.key_of(material)
        path = self._path(key)
        payload = {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "material": material,
            "summaries": summaries,
            "system": system,
            "stats": stats_dict or {},
        }
        blob = pickle.dumps(payload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        durable.write_bytes(path, blob)  # readers never see a torn entry
        self.stats.bytes_written += len(blob)
        return key

    @staticmethod
    def _discard(path):
        try:
            os.remove(path)
        except OSError:
            pass

    # -- maintenance -----------------------------------------------------

    def entry_paths(self):
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in sorted(filenames):
                if filename.endswith(".pkl"):
                    found.append(os.path.join(dirpath, filename))
        return sorted(found)

    def verify(self, remove=True):
        """Check every entry; returns [(path, problem), ...] for the bad.

        An entry is bad when its pickle is unreadable, its stored schema
        version is not the current one, or the sha256 of its stored key
        material no longer matches its filename (so the payload could
        never be legitimately returned for its key).  Bad entries are
        deleted when ``remove`` is set — the ``repro corpus verify``
        behavior.
        """
        problems = []
        for path in self.entry_paths():
            problem = None
            try:
                with open(path, "rb") as fh:
                    payload = pickle.loads(fh.read())
            except Exception as exc:
                problem = "unreadable: %s" % (exc,)
                payload = None
            if problem is None and (
                not isinstance(payload, dict)
                or payload.get("schema") != ANALYSIS_SCHEMA_VERSION
            ):
                problem = "schema %r != current %d" % (
                    payload.get("schema") if isinstance(payload, dict) else None,
                    ANALYSIS_SCHEMA_VERSION,
                )
            if problem is None:
                expected = os.path.basename(path)[: -len(".pkl")]
                if self.key_of(payload.get("material", {})) != expected:
                    problem = "key material does not hash to the filename"
            if problem is not None:
                problems.append((path, problem))
                if remove:
                    self._discard(path)
                    self.stats.stale += 1
        return problems


class SharedAnalysisCache(AnalysisCache):
    """The fleet-wide shared cache tier: content addressing + a budget.

    One cache directory serves every shard of a reproduction fleet and
    every worker process draining its queue, so unlike the per-corpus
    :class:`AnalysisCache` it cannot grow without bound.  This subclass
    adds what a shared tier needs:

    * a **size budget** (``max_bytes``): after every store, total payload
      size is brought back under budget by deleting least-recently-used
      entries (counted in ``stats.evictions``);
    * an **LRU index** (``index.json`` at the cache root) mapping key →
      ``[size, seq]`` where ``seq`` is a monotonically increasing access
      stamp.  The index goes through :mod:`repro.store.durable` like
      every entry, so a killed worker never leaves a torn index behind.

    The index is advisory, never authoritative: it is reconciled against
    the entry files on every update, so a missing/unreadable index — or
    one another worker clobbered — only skews the LRU order.  Entries the
    index has never seen get access stamp 0 and are evicted first; an
    entry evicted while a concurrent reader held its key is simply a
    miss on that reader's next lookup.
    """

    INDEX_NAME = "index.json"

    def __init__(self, root, max_bytes=None):
        super().__init__(root)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None: unbounded)")
        self.max_bytes = max_bytes

    # -- the LRU index ---------------------------------------------------

    def _index_path(self):
        return os.path.join(self.root, self.INDEX_NAME)

    def _read_index(self):
        try:
            with open(self._index_path(), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        index = {}
        for key, row in raw.items():
            if (
                isinstance(row, list)
                and len(row) == 2
                and all(isinstance(v, int) for v in row)
            ):
                index[key] = row
        return index

    def _reconcile(self, index):
        """Make the index agree with the entry files actually on disk."""
        on_disk = {
            os.path.basename(path)[: -len(".pkl")]: path
            for path in self.entry_paths()
        }
        for key in list(index):
            if key not in on_disk:
                del index[key]
        for key, path in on_disk.items():
            if key not in index:
                try:
                    index[key] = [os.path.getsize(path), 0]
                except OSError:
                    pass
        return index

    def _touch(self, key, evict=False):
        index = self._reconcile(self._read_index())
        if key in index:
            seq = 1 + max(row[1] for row in index.values())
            index[key][1] = seq
        if evict and self.max_bytes is not None:
            self._evict(index, protect=key)
        durable.write_json(self._index_path(), index)

    def _evict(self, index, protect=None):
        """Delete LRU entries until the cache fits its byte budget.

        ``protect`` (the key just stored or hit) is never evicted — a
        budget smaller than one entry must not thrash the entry it was
        just asked to keep.
        """
        total = sum(row[0] for row in index.values())
        victims = sorted(
            (key for key in index if key != protect),
            key=lambda key: (index[key][1], key),
        )
        for key in victims:
            if total <= self.max_bytes:
                break
            total -= index[key][0]
            self._discard(self._path(key))
            del index[key]
            self.stats.evictions += 1

    # -- budget-aware lookups --------------------------------------------

    def load(self, material):
        payload = super().load(material)
        if payload is not None:
            self._touch(self.key_of(material))
        return payload

    def store(self, material, summaries, system, stats_dict=None):
        key = super().store(material, summaries, system, stats_dict=stats_dict)
        self._touch(key, evict=True)
        return key

    def usage(self):
        """{entries, bytes, max_bytes} for the entries on disk now."""
        index = self._reconcile(self._read_index())
        return {
            "entries": len(index),
            "bytes": sum(row[0] for row in index.values()),
            "max_bytes": self.max_bytes,
        }
