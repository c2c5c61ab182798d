"""Trace dedup/clustering by Ball-Larus whole-path profiles.

A reproduction fleet sees the same failure many times: the paper's
recorder captures only thread-local control flow, so *every* runtime
interleaving that drives each thread down the same paths produces the
same log — crash reports from thousands of machines collapse onto a
small set of distinct per-thread whole-path profiles.  One constraint
solve serves all of them.

The **dedup invariant** this module enforces: two reports share a
cluster iff they have the same program (source hash), the same memory
model, the same failure site, and byte-identical per-thread whole-path
profiles.  Equal profiles mean equal decoded paths, equal symbolic
summaries and therefore an identical constraint system — so the
representative's solved schedule replays every member's failure, and
every member hits the representative's entry in the shared analysis
cache (the cluster signature refines the cache key).  Anything weaker
(e.g. merging on profile *similarity*) could put traces with different
path constraints in one cluster and hand a member a schedule that does
not reproduce its failure; similarity is therefore reported as a
diagnostic (:func:`profile_similarity`, the gateway's nearest-cluster
hint) but never used to merge.

:class:`ClusterRegistry` persists one JSON record per cluster —
representative, members, solve status, the solved schedule for fan-out —
each replaced atomically through :mod:`repro.store.durable`.
"""

import hashlib
import json
import os

from repro.store import durable
from repro.tracing.logfmt import encode_tokens

CLUSTER_FORMAT = 1

STATUS_PENDING = "pending"
STATUS_SOLVED = "solved"
STATUS_FAILED = "failed"


class ClusterError(Exception):
    """A structural problem with the cluster registry."""


# -- profiles and signatures ----------------------------------------------


def profile_digests(logs):
    """{thread: sha256 hex of the thread's whole-path profile bytes}.

    ``logs`` maps thread names to token lists (the
    :class:`~repro.tracing.recorder.PathRecorder` log shape).  The
    encoded token stream *is* the Ball-Larus whole-path profile, so its
    hash is a faithful profile fingerprint.
    """
    return {
        thread: hashlib.sha256(encode_tokens(tokens)).hexdigest()
        for thread, tokens in logs.items()
    }


def path_multiset(logs):
    """{(thread, path_id): count} over every ``path`` token.

    The bag-of-paths abstraction of a trace: what similarity is measured
    on.  Deliberately coarser than the whole-path profile — two traces
    can share a multiset yet differ in path order.
    """
    counts = {}
    for thread, tokens in logs.items():
        for token in tokens:
            if token[0] == "path":
                key = (thread, token[1])
                counts[key] = counts.get(key, 0) + 1
    return counts


def profile_similarity(logs_a, logs_b):
    """Weighted Jaccard similarity of two traces' path multisets.

    1.0 means identical bags of Ball-Larus path ids; 0.0 means disjoint.
    Diagnostic only — clustering requires exact whole-path equality.
    """
    return _multiset_jaccard(path_multiset(logs_a), path_multiset(logs_b))


def cluster_material(program_sha, memory_model, bug, logs, ring=None):
    """The canonical key material a cluster signature hashes.

    ``bug`` is a :class:`~repro.runtime.events.BugReport`.  Everything
    that decides whether one solved schedule serves both reports is in
    here; nothing else is.  A flight recording's ``ring`` snapshot (anchors
    as :class:`~repro.tracing.logfmt.SegmentAnchor`) adds each thread's
    eviction horizon: its evicted-token count and its anchor's
    ``tokens_before``, which size the synthesized prefix and so the
    constraint system.  Threads that lost nothing add nothing, so a ring
    that evicted nothing keys like the classic report of the same logs.
    """
    material = {
        "program": program_sha,
        "memory_model": memory_model,
        "bug": bug.to_json(),
        "profiles": profile_digests(logs),
    }
    horizons = {}
    for thread, info in (ring or {}).get("threads", {}).items():
        horizon = [info.get("evicted_tokens", 0), info["anchor"].tokens_before]
        if horizon != [0, 0]:
            horizons[thread] = horizon
    if horizons:
        material["ring"] = horizons
    return material


def cluster_signature(material):
    """sha256 over the canonical JSON of :func:`cluster_material`."""
    canon = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- the registry ----------------------------------------------------------


class ClusterRegistry:
    """One directory of cluster records: ``<root>/<sig[:2]>/<sig>.json``."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, signature):
        return os.path.join(self.root, signature[:2], signature + ".json")

    def _write(self, record):
        path = self._path(record["signature"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        durable.write_json(path, record, indent=2)
        return record

    def get(self, signature):
        """The cluster record for ``signature``, or None."""
        try:
            with open(self._path(signature), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise ClusterError(
                "cluster %s: unreadable record: %s" % (signature[:12], exc)
            ) from exc

    def signatures(self):
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".json") and ".tmp." not in filename:
                    found.append(filename[: -len(".json")])
        return sorted(found)

    def create(self, signature, material, representative, path_counts=None):
        """Register a new cluster with its representative as first member.

        ``representative`` is ``{"shard": int, "entry_id": str}``;
        ``path_counts`` (the :func:`path_multiset` of the representative,
        serialized by :meth:`encode_path_counts`) feeds the
        nearest-cluster similarity diagnostic.
        """
        if self.get(signature) is not None:
            raise ClusterError("cluster %s already exists" % signature[:12])
        record = {
            "format": CLUSTER_FORMAT,
            "signature": signature,
            "material": material,
            "representative": dict(representative),
            "members": [dict(representative, validated=True)],
            "status": STATUS_PENDING,
            "schedule": None,
            "context_switches": -1,
            "solve": {},
            "path_counts": path_counts or {},
        }
        return self._write(record)

    def add_member(self, signature, member):
        """Attach one more equivalent report; returns the record."""
        record = self.get(signature)
        if record is None:
            raise ClusterError("no cluster %s" % signature[:12])
        record["members"].append(dict(member, validated=False))
        return self._write(record)

    def mark_solved(self, signature, schedule, context_switches, solve=None):
        record = self.get(signature)
        if record is None:
            raise ClusterError("no cluster %s" % signature[:12])
        record["status"] = STATUS_SOLVED
        record["schedule"] = [list(uid) for uid in schedule]
        record["context_switches"] = context_switches
        record["solve"] = dict(solve or {})
        return self._write(record)

    def mark_failed(self, signature, reason):
        record = self.get(signature)
        if record is None:
            raise ClusterError("no cluster %s" % signature[:12])
        record["status"] = STATUS_FAILED
        record["solve"] = {"reason": reason}
        return self._write(record)

    def mark_member_validated(self, signature, entry_id, ok):
        record = self.get(signature)
        if record is None:
            raise ClusterError("no cluster %s" % signature[:12])
        for member in record["members"]:
            if member["entry_id"] == entry_id:
                member["validated"] = bool(ok)
        return self._write(record)

    # -- similarity diagnostics ----------------------------------------

    @staticmethod
    def encode_path_counts(counts):
        """JSON-able form of :func:`path_multiset` output."""
        by_thread = {}
        for (thread, path_id), count in sorted(counts.items()):
            by_thread.setdefault(thread, []).append([path_id, count])
        return by_thread

    @staticmethod
    def decode_path_counts(by_thread):
        counts = {}
        for thread, rows in by_thread.items():
            for path_id, count in rows:
                counts[(thread, path_id)] = count
        return counts

    def nearest(self, program_sha, counts, exclude=None):
        """(signature, similarity) of the most similar same-program
        cluster, or (None, 0.0) — the gateway's near-miss diagnostic."""
        best_sig, best_sim = None, 0.0
        for signature in self.signatures():
            if signature == exclude:
                continue
            record = self.get(signature)
            if record is None:
                continue
            if record["material"].get("program") != program_sha:
                continue
            theirs = self.decode_path_counts(record.get("path_counts", {}))
            sim = _multiset_jaccard(counts, theirs)
            if sim > best_sim:
                best_sig, best_sim = signature, sim
        return best_sig, best_sim

    def stats(self):
        """Aggregate dedup counters across every cluster record."""
        stats = {
            "clusters": 0,
            "members": 0,
            "solved": 0,
            "failed": 0,
            "pending": 0,
            "solves_avoided": 0,
            "members_validated": 0,
        }
        for signature in self.signatures():
            record = self.get(signature)
            if record is None:
                continue
            stats["clusters"] += 1
            members = record.get("members", [])
            stats["members"] += len(members)
            stats["solves_avoided"] += max(0, len(members) - 1)
            stats["members_validated"] += sum(
                1 for m in members if m.get("validated")
            )
            stats[record.get("status", STATUS_PENDING)] += 1
        return stats


def _multiset_jaccard(a, b):
    if not a and not b:
        return 1.0
    inter = sum(min(a[key], b[key]) for key in a.keys() & b.keys())
    union = sum(max(a.get(key, 0), b.get(key, 0)) for key in a.keys() | b.keys())
    return inter / union if union else 1.0
