"""Secondary read indexes, keyset cursors, and WAL-offset ETags.

``GET /alignment`` used to rebuild and sort the full maximal
assignment on every request — O(matched · log matched) per read, under
the engine lock.  This module is the production read path behind the
paginated/top-k/neighborhood query surface (see ``docs/api.md``):

* :class:`QueryIndex` — a sorted secondary index over the maximal
  assignment, built once at engine attach and then maintained
  **incrementally** from the warm loop's net change log
  (:meth:`repro.core.result.AlignmentResult.net_assignment_changes`):
  each applied delta folds O(frontier) row updates into the sorted
  order, so a paginated read is a binary search plus a slice — and it
  never takes the engine lock, which is what lets replicas serve pages
  while a warm pass is absorbing a batch.
* **Keyset cursors** — opaque (urlsafe base64 JSON) and *stable*: a
  cursor names the last row served, not a positional offset, so rows
  inserted or removed by concurrent deltas never duplicate or silently
  skip entries that existed at both ends of the walk.  Every cursor is
  stamped with the read tag (applied WAL offset + state version) it
  was minted at; a page served under a different tag is flagged
  ``changed_since_cursor`` so the client *detects* the concurrent
  delta and can either resume (the keyset stays valid) or restart for
  a consistent snapshot.
* **Read tags / ETags** — :func:`read_etag` derives the entity tag
  every read endpoint sends from the applied WAL offset (falling back
  to the state version while no WAL record has been applied).  A replica at WAL
  offset K serves the same scores as the primary at offset K (the
  1e-9 replication contract), so the tag is comparable across nodes:
  routers and CDNs may cache a response and revalidate it with
  ``If-None-Match`` for a 304 anywhere in the fleet.

:class:`ChangeEvent` is the change-log record the engine emits per
applied batch — shared by this index and the subscription surface
(:mod:`repro.service.subs`).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY

READS_TOTAL = REGISTRY.counter(
    "repro_reads_total",
    "Alignment read queries served, by query shape.",
    labelnames=("kind",),
)
READ_ROWS = REGISTRY.counter(
    "repro_reads_rows_total",
    "Alignment rows returned by read queries, by query shape.",
    labelnames=("kind",),
)
CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total",
    "Conditional reads answered 304 Not Modified (If-None-Match matched).",
    labelnames=("route",),
)

#: Hard cap on rows per page; larger ``limit`` values are clamped.
MAX_PAGE_LIMIT = 1000

#: Index row key: ``(-probability, left, right)`` — ascending key order
#: is descending probability with deterministic name tie-breaks, the
#: same total order ``GET /alignment`` always served.
RowKey = Tuple[float, str, str]

#: Served row: ``(left, right, probability)``.
Row = Tuple[str, str, float]


def read_etag(version: int, wal_offset: int) -> str:
    """The entity tag of every read endpoint's current state.

    Keyed on the applied WAL offset — replica at offset K ≡ primary at
    offset K, so the tag validates across the whole fleet — and on the
    state version while that offset is 0: an empty log, a snapshot
    written before the WAL existed, or an engine fed through
    :meth:`~repro.service.engine.AlignmentService.apply_delta` without
    a log.  Weak (``W/``) because cross-node payloads agree to 1e-9,
    not necessarily byte-for-byte.
    """
    if wal_offset:
        return f'W/"w{wal_offset}"'
    return f'W/"v{version}"'


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """Weak ``If-None-Match`` comparison (RFC 9110 §8.8.3.2)."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    opaque = etag[2:] if etag.startswith("W/") else etag
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == opaque:
            return True
    return False


class CursorError(ValueError):
    """A cursor that cannot be decoded or does not fit the query."""


def encode_cursor(payload: dict) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor(text: str) -> dict:
    padded = text + "=" * (-len(text) % 4)
    try:
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeDecodeError) as error:
        raise CursorError(f"undecodable cursor: {error}") from None
    if not isinstance(payload, dict) or payload.get("v") != 1:
        raise CursorError("cursor is not a version-1 alignment cursor")
    return payload


def make_cursor(key: RowKey, threshold: float, tag: Tuple[int, int]) -> str:
    """Mint the opaque cursor naming ``key`` as the last served row."""
    return encode_cursor(
        {
            "v": 1,
            "k": [key[0], key[1], key[2]],
            "t": threshold,
            "o": [tag[0], tag[1]],
        }
    )


def parse_cursor(text: str, threshold: float) -> Tuple[RowKey, Tuple[int, int]]:
    """Decode a page cursor; reject one minted for a different query."""
    payload = decode_cursor(text)
    key = payload.get("k")
    tag = payload.get("o")
    if (
        not isinstance(key, list)
        or len(key) != 3
        or not isinstance(key[0], (int, float))
        or not isinstance(key[1], str)
        or not isinstance(key[2], str)
        or not isinstance(tag, list)
        or len(tag) != 2
    ):
        raise CursorError("malformed cursor payload")
    if payload.get("t") != threshold:
        raise CursorError(
            f"cursor was minted for threshold={payload.get('t')}, "
            f"request asks threshold={threshold}"
        )
    return (float(key[0]), key[1], key[2]), (int(tag[0]), int(tag[1]))


@dataclass(frozen=True)
class ChangeEvent:
    """One entity's maximal-assignment change in one applied batch.

    ``side`` names the ontology ``entity`` belongs to (``left`` events
    come from the 1→2 assignment, ``right`` from 2→1).  Dropped
    assignments carry ``counterpart=None, probability=0.0``; fresh ones
    carry ``previous_counterpart=None, previous_probability=0.0``.
    """

    side: str
    entity: str
    counterpart: Optional[str]
    probability: float
    previous_counterpart: Optional[str]
    previous_probability: float
    wal_offset: int
    version: int

    @property
    def magnitude(self) -> float:
        """Absolute score movement of this change."""
        return abs(self.probability - self.previous_probability)

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "entity": self.entity,
            "counterpart": self.counterpart,
            "probability": self.probability,
            "previous_counterpart": self.previous_counterpart,
            "previous_probability": self.previous_probability,
            "wal_offset": self.wal_offset,
            "version": self.version,
        }


class QueryIndex:
    """Sorted secondary index over the left→right maximal assignment.

    Rows are keyed ``(-probability, left, right)`` so ascending key
    order is the canonical serving order (best first, names break
    ties).  All reads run under the index's own lock, never the engine
    lock; updates are folded in by the engine at the end of each
    applied delta, O(log n) per changed entity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys: List[RowKey] = []
        self._by_left: Dict[str, RowKey] = {}
        #: Read tag of the state the index reflects.
        self.version = 0
        self.wal_offset = 0

    # -- maintenance ---------------------------------------------------

    def rebuild(self, assignment12, *, version: int, wal_offset: int) -> None:
        """Full rebuild from a maximal assignment (engine attach)."""
        keys = [
            (-probability, left.name, right.name)
            for left, (right, probability) in assignment12.items()
        ]
        keys.sort()
        with self._lock:
            self._keys = keys
            self._by_left = {key[1]: key for key in keys}
            self.version = version
            self.wal_offset = wal_offset

    def apply_changes(self, changes, *, version: int, wal_offset: int) -> int:
        """Fold one batch's net assignment delta into the sorted order.

        ``changes`` maps a left :class:`~repro.rdf.terms.Resource` to
        its new ``(counterpart, probability)`` or ``None`` (dropped) —
        exactly the left half of
        :meth:`~repro.core.result.AlignmentResult.net_assignment_changes`.
        Returns the number of row mutations performed.
        """
        mutations = 0
        with self._lock:
            for left, match in changes.items():
                name = left.name
                old_key = self._by_left.pop(name, None)
                if old_key is not None:
                    position = bisect_left(self._keys, old_key)
                    del self._keys[position]
                    mutations += 1
                if match is not None:
                    key = (-match[1], name, match[0].name)
                    insort(self._keys, key)
                    self._by_left[name] = key
                    mutations += 1
            self.version = version
            self.wal_offset = wal_offset
        return mutations

    # -- reads ---------------------------------------------------------

    def read_tag(self) -> Tuple[int, int]:
        """``(version, wal_offset)`` of the state this index reflects."""
        with self._lock:
            return self.version, self.wal_offset

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def _threshold_boundary(self, threshold: float) -> int:
        """Index past the last row with probability ≥ ``threshold``
        (rows form a prefix in key order)."""
        if threshold <= 0.0:
            return len(self._keys)
        return bisect_left(self._keys, (math.nextafter(-threshold, math.inf),))

    def page(
        self,
        threshold: float = 0.0,
        after: Optional[RowKey] = None,
        limit: int = MAX_PAGE_LIMIT,
    ) -> Tuple[List[Row], Optional[RowKey]]:
        """One keyset page: up to ``limit`` rows strictly after ``after``.

        Returns ``(rows, next_key)`` where ``next_key`` is the cursor
        key for the following page, or ``None`` when the walk is done.
        """
        limit = max(1, min(limit, MAX_PAGE_LIMIT))
        with self._lock:
            end = self._threshold_boundary(threshold)
            start = 0 if after is None else bisect_right(self._keys, after, hi=end)
            slice_keys = self._keys[start : min(start + limit, end)]
            exhausted = start + len(slice_keys) >= end
        rows = [(key[1], key[2], -key[0]) for key in slice_keys]
        next_key = None if (exhausted or not slice_keys) else slice_keys[-1]
        return rows, next_key

    def top(self, count: int, threshold: float = 0.0) -> List[Row]:
        """The ``count`` best rows at or above ``threshold``."""
        rows, _next = self.page(threshold=threshold, limit=count)
        return rows

    def snapshot_keys(self, threshold: float = 0.0) -> Sequence[RowKey]:
        """A consistent snapshot of the matching row keys (one shallow
        list copy — tuple references, not rendered rows — so a
        streaming full dump iterates stable data without holding the
        lock across the response write)."""
        with self._lock:
            return self._keys[: self._threshold_boundary(threshold)]


def iter_row_chunks(
    keys: Sequence[RowKey], render, chunk_rows: int = 256
) -> Iterator[bytes]:
    """Render ``keys`` to response-body chunks of ``chunk_rows`` rows.

    ``render(rows)`` maps a list of :data:`Row` to one ``bytes`` chunk;
    the full body never exists in memory — the regression test in
    ``tests/test_read_path.py`` caps the per-request peak allocation.
    """
    for start in range(0, len(keys), chunk_rows):
        rows = [(key[1], key[2], -key[0]) for key in keys[start : start + chunk_rows]]
        chunk = render(rows)
        if chunk:
            yield chunk
