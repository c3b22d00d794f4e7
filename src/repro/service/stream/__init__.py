"""Streaming delta ingestion — source → WAL → batcher → engine.

PARIS computes alignments by fixpoint over whole ontologies; the
resident service absorbs deltas through a warm-start fixpoint that is
orders of magnitude faster than the cold run — fast enough that the
bottleneck becomes *getting deltas in*.  This package is the one write
path of every primary: ``POST /delta`` and the ``--watch`` sources all
feed the same WAL-backed, coalescing queue in front of the engine.

``repro.service.stream.sources``
    Where deltas come from besides ``POST /delta``: an NDJSON
    append-only file tailer and a watched spool directory, feeding the
    same internal queue.
``repro.service.stream.wal``
    Durability: every *accepted* delta is appended (fsync'd) to a
    segmented write-ahead log before it is acknowledged or applied;
    snapshots record the WAL offset they absorbed, so a restart
    replays exactly the un-snapshotted suffix (:func:`replay_wal`).
    Group commit (``--wal-group-commit-ms``) lets concurrent writers
    share one fsync at unchanged per-delta durability; segment
    rotation (``--wal-segment-bytes``) plus compaction (``repro wal
    compact``, or automatically after each snapshot) bound the log's
    disk footprint.  The WAL doubles as the replication log read
    replicas tail (:mod:`repro.service.replica`).
``repro.service.stream.batcher``
    Coalescing + admission control: queued deltas are merged
    (:func:`repro.service.delta.compose_deltas` — add/remove of the
    same triple cancel) so one warm pass absorbs many small writes;
    a bounded queue rejects overload with
    :class:`~repro.service.stream.batcher.QueueFullError` (HTTP 429 +
    ``Retry-After``), and per-source sequence numbers make redelivery
    idempotent.

Exactly-once-replay guarantee: a delta stream ingested through any
combination of watch-file and ``POST /delta``, coalesced in any way,
produces scores equal (within 1e-9) to the same deltas applied
one-by-one; and a crash mid-batch followed by snapshot + WAL replay
reaches that same state — triple changes are idempotent sets and the
warm fixpoint converges on the *final* graphs, so coalescing,
reordering-free replay, and partial reapplication all land on the same
numeric fixpoint.  Enforced by the coalescing hypothesis property and
the crash-recovery test in ``tests/test_stream.py``.

Wired into the CLI as ``repro serve --state-dir DIR [--watch PATH]
[--max-batch N] [--max-lag-ms M] [--max-queue Q]`` and the offline
``repro replay WAL --state-dir DIR`` recovery tool; observable through
``GET /stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Union

from ...obs import get_event_logger
from .batcher import DeltaBatcher, QueueFullError
from .sources import (
    NdjsonFileTailer,
    SpoolDirectorySource,
    decode_stream_line,
    make_source,
)
from .wal import (
    WalBehindSnapshotError,
    WalCorruptionError,
    WalFailedError,
    WalGapError,
    WalRecord,
    WriteAheadLog,
    replay_wal,
)

_log = get_event_logger("repro.stream")


@dataclass
class StreamStack:
    """One primary's ingestion plumbing, started/stopped as one.

    Build it with :meth:`open`.  ``stop`` tears down in dependency
    order: sources first (no new submissions), then the batcher
    (drains the queue through the engine), then the WAL file handle —
    after which a final snapshot records the fully-applied WAL offset.
    Usable as a context manager: ``with StreamStack.open(...) as
    stream:`` starts it and stops it on exit.
    """

    batcher: DeltaBatcher
    wal: WriteAheadLog
    sources: List = field(default_factory=list)

    @classmethod
    def open(
        cls,
        service,
        state_dir: Union[str, Path],
        *,
        segment_bytes: int = 0,
        group_commit: float = 0.0,
        max_queue: int = 256,
        max_batch: int = 32,
        max_lag: float = 0.0,
        watch: Iterable[Union[str, Path]] = (),
    ) -> "StreamStack":
        """Open ``state_dir/wal.ndjson``, replay its un-snapshotted
        suffix into ``service`` and return the (unstarted) stack, with
        one source per ``watch`` path.  The engine's provenance ring is
        wired in first, so replayed records land in it (as non-live
        timelines) and later fsyncs stamp ``durable``."""
        wal = WriteAheadLog(
            Path(state_dir) / "wal.ndjson",
            segment_bytes=segment_bytes,
            group_commit=group_commit,
        )
        wal.provenance = service.provenance
        replayed = replay_wal(service, wal, max_batch=max_batch)
        if replayed:
            _log.info(
                "replayed un-snapshotted WAL records",
                records=replayed,
                offset=service.state.wal_offset,
            )
        batcher = DeltaBatcher(
            service, wal, max_queue=max_queue, max_batch=max_batch, max_lag=max_lag
        )
        sources = [make_source(batcher, path) for path in watch]
        for source in sources:
            _log.info("streaming deltas", source=source.source_id)
        return cls(batcher=batcher, wal=wal, sources=sources)

    def start(self) -> "StreamStack":
        self.batcher.start()
        for source in self.sources:
            source.start()
        return self

    def stop(self) -> None:
        for source in self.sources:
            source.stop()
        self.batcher.close(drain=True)
        self.wal.close()

    def __enter__(self) -> "StreamStack":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

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
    "WalBehindSnapshotError",
    "WalCorruptionError",
    "WalFailedError",
    "WalGapError",
    "WalRecord",
    "WriteAheadLog",
    "replay_wal",
]
