"""WAL followers: how a replica reads the primary's replication log.

Two transports behind one ``fetch(after_offset, limit)`` interface:

* :class:`FileWalFollower` — shared storage.  Opens the primary's WAL
  read-only and tails it directly; rotation and compaction under the
  reader are handled by the segmented log itself (see
  :mod:`repro.service.stream.wal`).  Assumes the WAL lives on durable
  storage the primary fsyncs (its default), so every record the
  follower can read is one the primary acknowledged.  It keeps the
  cursor of the last record it returned and resumes the next fetch's
  walk there, so a fetch costs the new records, not the log; a cursor
  the log no longer honours (compaction, a replaced file) falls back
  to the full walk with the same result.
* :class:`HttpWalFollower` — log shipping for replicas without shared
  storage.  ``GET /wal?from=OFFSET&limit=N`` on the primary returns
  NDJSON records (the on-disk format verbatim) capped at the
  *durable* offset, with the primary's current offset in the
  ``X-Wal-Offset`` header; ``410 Gone`` signals a compacted prefix
  (mapped to :class:`~repro.service.stream.wal.WalGapError`, which
  makes the replica re-bootstrap from a fresh snapshot).

Both return a :class:`WalFetch`: the records plus the source's known
head offset, which is what the replica's staleness accounting
(``lag_ms`` in ``GET /stats``) is computed from.  The records of one
fetch share their terms: each resource name and literal is one object.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import List, NamedTuple, Optional, Union
from urllib.parse import urlencode

from ... import client
from ..stream.wal import WalCursor, WalGapError, WalRecord, WriteAheadLog


class WalFetch(NamedTuple):
    """One follower poll: new records + the source log's head offset."""

    records: List[WalRecord]
    source_offset: int


class FileWalFollower:
    """Tail the primary's WAL directly on shared storage."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.wal = WriteAheadLog(self.path, read_only=True)
        self.source_id = f"wal:{self.path}"
        #: Cursor of the last record :meth:`fetch` returned: the next
        #: fetch resumes its walk there (see ``WriteAheadLog.replay``).
        self._cursor: Optional[WalCursor] = None

    def fetch(self, after_offset: int, limit: int = 256) -> WalFetch:
        # The head probe is a cheap tail-line read; taking it first
        # short-circuits the idle steady state (no decode of the log
        # 20x/sec just to learn nothing is new) and keeps the reported
        # head honest while a backlogged replica works through
        # full-limit fetches — a fetch capped at `limit` must NOT
        # report its own last record as the head, or the replica's
        # lag accounting would claim caught-up mid-backlog and the
        # router's ?max_lag_ms= staleness bound would silently serve
        # stale data.
        head = self.wal.current_offset()
        # Never apply records an fsync has not covered: a
        # group-committing primary's buffered appends reach the shared
        # file *before* their fsync, and a record a primary crash can
        # still lose must not enter a replica (the same cap GET /wal
        # applies at the durable offset).  A log without a marker
        # predates group commit — every complete line was fsync'd.
        durable = self.wal.durable_marker()
        if durable is not None:
            head = min(head, durable)
        if head <= after_offset:
            return WalFetch([], max(head, after_offset))
        # Replay yields the contiguous offsets after_offset + 1, ...,
        # so counting caps the fetch at the head without decoding the
        # record past it.
        replay = self.wal.replay(after_offset=after_offset, resume=self._cursor)
        records = list(islice(replay, min(limit, head - after_offset)))
        if records:
            self._cursor = records[-1].cursor
        head = max(head, records[-1].offset if records else after_offset)
        return WalFetch(records, head)


class HttpWalFollower:
    """Ship the WAL over the primary's ``GET /wal`` endpoint."""

    def __init__(self, primary_url: str, timeout: float = 30.0) -> None:
        self.primary_url = primary_url.rstrip("/")
        self.timeout = timeout
        self.source_id = f"http:{self.primary_url}/wal"

    def fetch(self, after_offset: int, limit: int = 256) -> WalFetch:
        query = urlencode({"from": after_offset, "limit": limit})
        url = f"{self.primary_url}/wal?{query}"
        status, headers, body = client.request(url, timeout=self.timeout)
        if status == 410:
            # The primary compacted the requested suffix away.
            try:
                detail = json.loads(body)
            except ValueError:
                detail = {}
            raise WalGapError(after_offset, int(detail.get("oldest", after_offset + 2)))
        if status != 200:
            raise OSError(f"{url} answered HTTP {status}")
        head = int(headers.get("X-Wal-Offset", "0"))
        records = []
        expected = after_offset + 1
        terms: dict = {}  # one decode batch: each term built once per body
        for line in body.decode("utf-8").splitlines():
            if not line.strip():
                continue
            record = WalRecord.from_json(json.loads(line), terms)
            if record.offset != expected:
                raise ValueError(
                    f"log shipping out of order: offset {record.offset} "
                    f"where {expected} was expected"
                )
            expected = record.offset + 1
            records.append(record)
        head = max(head, records[-1].offset if records else after_offset)
        return WalFetch(records, head)


def make_follower(source: Union[str, Path]):
    """``http(s)://`` sources get log shipping; anything else is a
    path to the primary's state directory (or its WAL file) on shared
    storage."""
    text = str(source)
    if text.startswith("http://") or text.startswith("https://"):
        return HttpWalFollower(text)
    path = Path(source)
    if path.is_dir():
        path = path / "wal.ndjson"
    return FileWalFollower(path)
