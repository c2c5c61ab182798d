"""The sharded trace corpus: fleet-scale storage routed by content hash.

A single flat corpus directory stops scaling long before "millions of
crash reports": every ``ls`` walks every entry, every add contends on one
directory, and there is no unit of placement to spread across disks or
machines.  The fleet layer partitions storage into **shards** — each a
perfectly ordinary :class:`~repro.store.corpus.Corpus` — and routes every
trace by its content hash (the same fingerprint
:class:`~repro.store.cache.AnalysisCache` keys analyses by), so equal
traces always land in the same shard and placement needs no coordination
or lookup table.

Layout::

    fleet-root/
      fleet.json                  # {"format": 1, "shards": N, config…}
      shards/
        shard-00/                 # a normal Corpus (corpus.json, entries/)
          shard.json              # per-shard manifest: entry → {fingerprint,
          …                       #   cluster, program} (rebuildable cache)
      clusters/                   # ClusterRegistry (fleet.cluster)
      queue/                      # DurableJobQueue (fleet.queue)
      cache/                      # SharedAnalysisCache — the shared tier

Every fleet entry's manifest carries a ``fleet`` section (shard index,
cluster signature, trace fingerprint), so the per-shard ``shard.json``
manifests are pure caches: :meth:`ShardedCorpus.sync_shard` rebuilds one
from its entries' manifests after a crash or manual surgery, and
:meth:`ShardedCorpus.rebalance` re-routes every entry after a shard-count
change (updating the cluster registry's shard references to match).
"""

import json
import os

from repro.core.clap import ClapConfig, ClapPipeline
from repro.fleet.cluster import (
    ClusterRegistry,
    cluster_material,
    cluster_signature,
    path_multiset,
)
from repro.fleet.queue import DurableJobQueue
from repro.minilang import compile_source
from repro.store import durable
from repro.store.cache import AnalysisCache, SharedAnalysisCache
from repro.store.corpus import Corpus, source_sha256

FLEET_FORMAT = 1
SHARD_MANIFEST_FORMAT = 1

# Default size budget for the shared analysis cache tier (64 MiB); the
# CLI and fleet.json config can override.
DEFAULT_CACHE_BUDGET = 64 * 1024 * 1024


class FleetError(Exception):
    """A structural problem with a fleet directory."""


class ShardedCorpus:
    """A fleet root: N hash-routed shards plus the shared fleet services."""

    def __init__(self, root, n_shards, config=None):
        self.root = root
        self.n_shards = n_shards
        self.config = dict(config or {})
        self.shards_dir = os.path.join(root, "shards")
        self._shards = {}

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, root, shards=4, cache_max_bytes=DEFAULT_CACHE_BUDGET):
        if shards < 1:
            raise FleetError("a fleet needs at least one shard")
        marker = os.path.join(root, "fleet.json")
        if os.path.exists(marker):
            raise FleetError("%s is already a fleet" % root)
        os.makedirs(os.path.join(root, "shards"), exist_ok=True)
        fleet = cls(root, shards, {"cache_max_bytes": cache_max_bytes})
        fleet._write_marker()
        for index in range(shards):
            fleet.shard(index)
        return fleet

    @classmethod
    def open(cls, root):
        marker = os.path.join(root, "fleet.json")
        if not os.path.isfile(marker):
            raise FleetError("%s is not a fleet (no fleet.json)" % root)
        with open(marker, "r", encoding="utf-8") as fh:
            info = json.load(fh)
        if info.get("format") != FLEET_FORMAT:
            raise FleetError(
                "%s: unsupported fleet format %r" % (root, info.get("format"))
            )
        config = {k: v for k, v in info.items() if k not in ("format", "shards")}
        return cls(root, int(info["shards"]), config)

    @classmethod
    def open_or_create(cls, root, shards=4,
                       cache_max_bytes=DEFAULT_CACHE_BUDGET):
        if os.path.isfile(os.path.join(root, "fleet.json")):
            return cls.open(root)
        return cls.create(root, shards=shards, cache_max_bytes=cache_max_bytes)

    def _write_marker(self):
        durable.write_json(
            os.path.join(self.root, "fleet.json"),
            dict(self.config, format=FLEET_FORMAT, shards=self.n_shards),
            indent=2,
        )

    # -- the shared fleet services --------------------------------------

    def registry(self):
        return ClusterRegistry(os.path.join(self.root, "clusters"))

    def queue(self):
        return DurableJobQueue(os.path.join(self.root, "queue"))

    def shared_cache(self):
        return SharedAnalysisCache(
            os.path.join(self.root, "cache"),
            max_bytes=self.config.get("cache_max_bytes"),
        )

    # -- shard plumbing --------------------------------------------------

    @staticmethod
    def shard_name(index):
        return "shard-%02d" % index

    def shard_root(self, index):
        return os.path.join(self.shards_dir, self.shard_name(index))

    def shard(self, index):
        """The :class:`Corpus` behind shard ``index`` (created lazily)."""
        if not 0 <= index < self.n_shards:
            raise FleetError(
                "shard %d out of range (fleet has %d)" % (index, self.n_shards)
            )
        if index not in self._shards:
            self._shards[index] = Corpus.open_or_create(self.shard_root(index))
            self._ensure_shard_manifest(index)
        return self._shards[index]

    def shard_of(self, fingerprint):
        """Route a trace content hash (hex) to its home shard."""
        return int(fingerprint[:16], 16) % self.n_shards

    # -- per-shard manifests ---------------------------------------------

    def _shard_manifest_path(self, index):
        return os.path.join(self.shard_root(index), "shard.json")

    def _ensure_shard_manifest(self, index):
        if not os.path.isfile(self._shard_manifest_path(index)):
            self._write_shard_manifest(index, {})

    def shard_manifest(self, index):
        try:
            with open(
                self._shard_manifest_path(index), "r", encoding="utf-8"
            ) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return self.sync_shard(index)
        if manifest.get("format") != SHARD_MANIFEST_FORMAT:
            return self.sync_shard(index)
        return manifest

    def _write_shard_manifest(self, index, entries):
        manifest = {
            "format": SHARD_MANIFEST_FORMAT,
            "shard": index,
            "entries": entries,
        }
        durable.write_json(self._shard_manifest_path(index), manifest, indent=2)
        return manifest

    def sync_shard(self, index):
        """Rebuild shard ``index``'s manifest from its entries' manifests.

        The per-entry ``fleet`` manifest section is authoritative;
        ``shard.json`` is a cache of it.  Entries added to the shard
        behind the fleet's back (plain ``repro corpus add``) appear with
        a fingerprint computed from their stored trace.
        """
        entries = {
            entry.entry_id: self._entry_row(entry)
            for entry in self.shard(index).entries()
        }
        return self._write_shard_manifest(index, entries)

    @staticmethod
    def _entry_row(entry):
        """``entry``'s ``shard.json`` row, read off its manifest."""
        info = entry.manifest.get("fleet") or {}
        fingerprint = info.get("fingerprint") or AnalysisCache.trace_fingerprint(
            entry.load_execution().recorder.logs
        )
        return {
            "fingerprint": fingerprint,
            "cluster": info.get("cluster", ""),
            "program": entry.program_name(),
        }

    # -- adding traces ---------------------------------------------------

    def _register_cluster(self, signature, material, counts, index, entry_id):
        """Create/extend the trace's cluster; enqueue a solve if novel.

        Returns ``(status, job_id)`` where status is ``"enqueued"`` for a
        new cluster (solve job durably queued) or ``"deduped"`` when an
        equivalent trace is already known.
        """
        registry = self.registry()
        member = {"shard": index, "entry_id": entry_id}
        if registry.get(signature) is not None:
            registry.add_member(signature, member)
            return "deduped", None
        registry.create(
            signature,
            material,
            member,
            path_counts=ClusterRegistry.encode_path_counts(counts),
        )
        job_id = self.queue().put(
            {
                "kind": "solve",
                "cluster": signature,
                "shard": index,
                "entry_id": entry_id,
            }
        )
        return "enqueued", job_id

    def _fleet_stamp(self, index, signature, fingerprint):
        return {
            "fleet": {
                "shard": index,
                "cluster": signature,
                "fingerprint": fingerprint,
            }
        }

    def route(self, source, memory_model, bug, logs, ring=None):
        """Where a trace goes: ``(fingerprint, shard index, cluster
        material, cluster signature)``; ``ring`` is a flight recording's
        ring snapshot (see :func:`~repro.fleet.cluster.cluster_material`)."""
        fingerprint = AnalysisCache.trace_fingerprint(logs)
        material = cluster_material(
            source_sha256(source), memory_model, bug, logs, ring
        )
        signature = cluster_signature(material)
        return fingerprint, self.shard_of(fingerprint), material, signature

    def add(self, source, name=None, config=None, flush_every=16):
        """Record one failure locally and store it routed by content hash.

        Records once (the seed search), routes the trace by fingerprint,
        then persists through :meth:`Corpus.add`'s streaming write +
        determinism check into the home shard.  Returns an outcome dict:
        shard, entry_id, cluster signature and dedup status.
        """
        if not isinstance(source, str):
            raise FleetError("fleet entries need MiniLang source text")
        program = compile_source(source, name=name)
        config = config or ClapConfig()
        recorded = ClapPipeline(program, config).record()
        fingerprint, index, material, signature = self.route(
            source, config.memory_model, recorded.bug, recorded.recorder.logs,
            recorded.ring,
        )

        corpus = self.shard(index)
        entry = corpus.add(
            source,
            name=name,
            config=config,
            entry_id=corpus.free_entry_id(
                "%s-s%d-%s"
                % (program.name, recorded.seed, source_sha256(source)[:8])
            ),
            flush_every=flush_every,
            recorded=recorded,
            extra_manifest=self._fleet_stamp(index, signature, fingerprint),
        )
        return self._registered(
            index, entry, fingerprint, signature, material,
            recorded.recorder.logs,
        )

    def add_report(self, source, name, config, logs, bug, stats=None,
                   seed=-1, via="gateway", ring=None):
        """Store an already-recorded crash report (the gateway's path).

        No re-execution happens — the report's logs are trusted as-is and
        written straight into the routed shard's container; ``ring`` is
        a flight recording's ring snapshot (see
        :meth:`Corpus.add_recorded`).  Returns the same outcome dict
        shape as :meth:`add`.
        """
        fingerprint, index, material, signature = self.route(
            source, config.memory_model, bug, logs, ring
        )
        entry = self.shard(index).add_recorded(
            source,
            logs,
            bug,
            stats or {},
            name=name,
            config=config,
            tag="r" + signature[:8],
            seed=seed,
            provenance={"mode": via},
            ring=ring,
            extra_manifest=self._fleet_stamp(index, signature, fingerprint),
        )
        return self._registered(
            index, entry, fingerprint, signature, material, logs
        )

    def _registered(self, index, entry, fingerprint, signature, material,
                    logs):
        """List a stored entry in its shard manifest and its cluster;
        returns the outcome dict :meth:`add` and :meth:`add_report`
        share."""
        rows = self.shard_manifest(index)["entries"]
        rows[entry.entry_id] = self._entry_row(entry)
        self._write_shard_manifest(index, rows)
        status, job_id = self._register_cluster(
            signature, material, path_multiset(logs), index, entry.entry_id
        )
        return {
            "shard": index,
            "entry_id": entry.entry_id,
            "cluster": signature,
            "fingerprint": fingerprint,
            "status": status,
            "job_id": job_id,
        }

    # -- introspection ---------------------------------------------------

    def _shards_on_disk(self):
        """``(index, Corpus)`` for shards ``0..n-1`` and every other
        ``shard-*`` directory: an interrupted rebalance can leave entries
        in a shard past the current count."""
        indices = set(range(self.n_shards))
        for name in os.listdir(self.shards_dir):
            if name.startswith("shard-"):
                indices.add(int(name[len("shard-"):]))
        return [
            (i, self.shard(i) if i < self.n_shards else Corpus(self.shard_root(i)))
            for i in sorted(indices)
        ]

    def entries(self):
        """Every (shard_index, CorpusEntry) in the fleet, shard order."""
        return [
            (index, entry)
            for index, corpus in self._shards_on_disk()
            for entry in corpus.entries()
        ]

    def stats(self):
        """Per-shard and total counters for ``repro fleet stats``."""
        shards = []
        for index in range(self.n_shards):
            manifest = self.shard_manifest(index)
            rows = manifest["entries"]
            trace_bytes = 0
            for entry_id in rows:
                path = os.path.join(
                    self.shard_root(index), "entries", entry_id, "trace.clap"
                )
                try:
                    trace_bytes += os.path.getsize(path)
                except OSError:
                    pass
            shards.append(
                {
                    "shard": index,
                    "entries": len(rows),
                    "clusters": len(
                        {row["cluster"] for row in rows.values() if row["cluster"]}
                    ),
                    "programs": len({row["program"] for row in rows.values()}),
                    "trace_bytes": trace_bytes,
                }
            )
        return {
            "shards": shards,
            "entries": sum(s["entries"] for s in shards),
            "trace_bytes": sum(s["trace_bytes"] for s in shards),
            "clusters": self.registry().stats(),
            "queue": self.queue().counts(),
            "cache": self.shared_cache().usage(),
        }

    # -- rebalance -------------------------------------------------------

    def rebalance(self, shards=None):
        """Re-route every entry after a shard-count change (or repair).

        Each entry's home is recomputed from its stored trace fingerprint
        under the new shard count; misplaced entries move (one durable
        directory rename each), shard manifests are rebuilt, and cluster
        registry records are updated to the new shard indices.  Every
        step is idempotent, so rerunning an interrupted rebalance
        completes it.  Returns
        ``{"shards": new_count, "moved": n, "entries": total}``.
        """
        new_count = self.n_shards if shards is None else int(shards)
        if new_count < 1:
            raise FleetError("a fleet needs at least one shard")

        # Collect every entry on disk (a rerun after a crash finds some
        # in shards past the count the marker already names).
        placements = [
            (index, entry.entry_id, self._entry_row(entry)["fingerprint"])
            for index, entry in self.entries()
        ]

        self.n_shards = new_count
        self._shards = {}
        self._write_marker()
        for index in range(new_count):
            self.shard(index)

        moved = 0
        new_shard_of = {}
        for old_index, entry_id, fingerprint in placements:
            target = self.shard_of(fingerprint)
            new_shard_of[entry_id] = target
            if target != old_index:
                dst = os.path.join(self.shard_root(target), "entries", entry_id)
                if os.path.exists(dst):
                    raise FleetError(
                        "rebalance collision: %s already exists in shard %d"
                        % (entry_id, target)
                    )
                durable.move(
                    os.path.join(self.shard_root(old_index), "entries", entry_id),
                    dst,
                )
                moved += 1
            # Stamp the entry with its home.  Also checked for entries
            # that stay put: a crash between a move and this write leaves
            # a moved entry stamped with its old shard.
            entry = self.shard(target).entry(entry_id)
            fleet_info = dict(entry.manifest.get("fleet") or {})
            if fleet_info.get("shard") != target:
                fleet_info["shard"] = target
                fleet_info.setdefault("fingerprint", fingerprint)
                entry._write_manifest(dict(entry.manifest, fleet=fleet_info))

        for index, corpus in self._shards_on_disk():
            if index < new_count:
                self.sync_shard(index)
            elif corpus.entry_ids():
                raise FleetError(
                    "rebalance bug: %s still holds entries"
                    % self.shard_name(index)
                )

        # The cluster registry references (shard, entry_id) pairs; point
        # them at the new homes.
        registry = self.registry()
        for signature in registry.signatures():
            record = registry.get(signature)
            if record is None:
                continue
            changed = False
            for ref in [record["representative"], *record["members"]]:
                target = new_shard_of.get(ref.get("entry_id"))
                if target is not None and ref.get("shard") != target:
                    ref["shard"] = target
                    changed = True
            if changed:
                registry._write(record)

        return {
            "shards": new_count,
            "moved": moved,
            "entries": len(placements),
        }
