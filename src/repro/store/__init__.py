"""Durable trace storage: the ``.clap`` container and the corpus layout.

CLAP's value proposition is an always-on recorder whose output survives
the failure it records.  This package makes that durable:

* :mod:`repro.store.container` — the on-disk ``.clap`` trace container:
  per-thread :mod:`repro.tracing.logfmt` token streams wrapped in
  zlib-compressed, CRC32-checked chunks with a varint-indexed footer.
  The streaming writer flushes chunk by chunk, so a recorder that dies
  mid-run leaves a recoverable prefix instead of nothing.
* :mod:`repro.store.recover` — turns that prefix back into a decodable
  trace: trims each thread's token stream to its last consistent event
  and synthesizes the ``partial`` tokens a crashed recorder never wrote.
* :mod:`repro.store.corpus` — the failure record and the corpus layout:
  one entry per recorded failure (``trace.clap`` + ``manifest.json``
  with program source/hash, seed, schedule parameters, bug report and
  record-overhead stats, the sections a fleet crash report shares) plus
  add / load / verify / compact / recover operations.  A loaded entry is
  a :class:`~repro.core.clap.RecordedExecution`.
* :mod:`repro.store.cache` — the content-addressed analysis cache that
  lets ``repro batch`` re-runs skip symbolic execution and constraint
  encoding for (program, trace, memory model) keys already
  analyzed — plus its fleet-wide shared tier
  (:class:`~repro.store.cache.SharedAnalysisCache`: one directory serving
  every shard, with a size budget, LRU eviction and eviction counters).
"""

from repro.store.cache import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisCache,
    SharedAnalysisCache,
)
from repro.store.container import (
    ChunkInfo,
    ClapReader,
    ClapWriter,
    ContainerError,
    flip_byte,
)
from repro.store.corpus import (
    Corpus,
    CorpusEntry,
    CorpusError,
    StoredExecution,
)
from repro.store.recover import RecoveryError, RecoveryReport, recover_tokens

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisCache",
    "SharedAnalysisCache",
    "ChunkInfo",
    "ClapReader",
    "ClapWriter",
    "ContainerError",
    "flip_byte",
    "Corpus",
    "CorpusEntry",
    "CorpusError",
    "StoredExecution",
    "RecoveryError",
    "RecoveryReport",
    "recover_tokens",
]
