"""Streaming delta ingestion — source → WAL → batcher → engine.

PARIS computes alignments by fixpoint over whole ontologies; the
resident service absorbs deltas through a warm-start fixpoint that is
orders of magnitude faster than the cold run — fast enough that the
bottleneck becomes *getting deltas in*: one synchronous HTTP POST (and
one warm pass, and optionally one snapshot) per writer batch.  This
package puts a streaming ingestion pipeline in front of the engine:

``repro.service.stream.sources``
    Where deltas come from: an NDJSON append-only file tailer and a
    watched spool directory, feeding the same internal queue as
    ``POST /delta``.
``repro.service.stream.wal``
    Durability: every *accepted* delta is appended (fsync'd) to a
    segmented write-ahead log before application; snapshots record the
    WAL offset they absorbed, so a restart replays exactly the
    un-snapshotted suffix (:func:`replay_wal`).  Group commit
    (``--wal-group-commit-ms``) lets concurrent writers share one
    fsync at unchanged per-delta durability; segment rotation
    (``--wal-segment-bytes``) plus compaction (``repro wal compact``,
    or automatically after each snapshot) bound the log's disk
    footprint.  The WAL doubles as the replication log read replicas
    tail (:mod:`repro.service.replica`).
``repro.service.stream.batcher``
    Coalescing + admission control: queued deltas are merged
    (:func:`repro.service.delta.compose_deltas` — add/remove of the
    same triple cancel) so one warm pass absorbs many small writes;
    a bounded queue rejects overload with
    :class:`~repro.service.stream.batcher.QueueFullError` (HTTP 429 +
    ``Retry-After``), and per-source sequence numbers make redelivery
    idempotent.

Exactly-once-replay guarantee: a delta stream ingested through any
combination of watch-file, WAL, and batcher produces scores equal
(within 1e-9) to the same deltas applied one-by-one via
``POST /delta``; and a crash mid-batch followed by snapshot + WAL
replay reaches that same state — triple changes are idempotent sets
and the warm fixpoint converges on the *final* graphs, so coalescing,
reordering-free replay, and partial reapplication all land on the same
numeric fixpoint.  Enforced by the coalescing hypothesis property and
the crash-recovery test in ``tests/test_stream.py``.

Wired into the CLI as ``repro serve --watch PATH --wal --max-batch N
--max-lag-ms M --max-queue Q`` and the offline ``repro replay WAL
--state-dir DIR`` recovery tool; observable through ``GET /stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .batcher import DeltaBatcher, QueueFullError
from .sources import (
    NdjsonFileTailer,
    SpoolDirectorySource,
    decode_stream_line,
    make_source,
)
from .wal import (
    WalCorruptionError,
    WalFailedError,
    WalGapError,
    WalRecord,
    WriteAheadLog,
    replay_wal,
)


@dataclass
class StreamStack:
    """One serve process's ingestion plumbing, started/stopped as one.

    ``stop`` tears down in dependency order: sources first (no new
    submissions), then the batcher (drains the queue through the
    engine), then the WAL file handle — after which a final snapshot
    records the fully-applied WAL offset.
    """

    batcher: DeltaBatcher
    wal: Optional[WriteAheadLog] = None
    sources: List = field(default_factory=list)

    def start(self) -> "StreamStack":
        self.batcher.start()
        for source in self.sources:
            source.start()
        return self

    def stop(self) -> None:
        for source in self.sources:
            source.stop()
        self.batcher.close(drain=True)
        if self.wal is not None:
            self.wal.close()

    def stats(self) -> dict:
        payload = self.batcher.stats()
        if self.sources:
            payload["sources"] = [source.stats() for source in self.sources]
        return payload


__all__ = [
    "DeltaBatcher",
    "QueueFullError",
    "NdjsonFileTailer",
    "SpoolDirectorySource",
    "decode_stream_line",
    "make_source",
    "StreamStack",
    "WalCorruptionError",
    "WalFailedError",
    "WalGapError",
    "WalRecord",
    "WriteAheadLog",
    "replay_wal",
]
