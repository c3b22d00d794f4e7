"""Per-delta provenance: trace contexts, stage timelines, freshness.

PR 7 gave every *process* metrics and span traces; this module gives
every *delta* a cross-process story.  A delta entering the write path
(``POST /delta``, an NDJSON tailer, a spool directory) is assigned a
**trace context** — the client's ``X-Request-Id``, the trace-id field
of a W3C ``traceparent``, or a synthesized id — and every stage of the
pipeline stamps a wall-clock timestamp against it:

``ingest``
    the delta was received and validated (batcher entry),
``enqueue``
    it was admitted past dedup/admission control and appended to the
    WAL buffer,
``durable``
    its WAL offset was covered by an ``fsync`` (the durability point),
``applied``
    the primary engine published its scores,
``replica_applied``
    a replica's engine applied the shipped record,
``notified``
    subscribers (long-poll watchers / webhooks) were woken for it.

Stamps live in a bounded in-memory :class:`ProvenanceRing` (one per
engine; the newest ring feeds the scrape-time freshness gauges) and —
for the stamps known at append time — in the WAL record itself
(``prov`` field, schema v2; see :mod:`repro.service.stream.wal`), so a
replica can reconstruct the primary-side timeline from the shipped
log.  Wall clocks (``time.time``) are used throughout because the
timeline crosses processes; cross-host skew is clamped at zero when
deriving durations.

Derived telemetry:

* ``repro_delta_stage_seconds{stage=...}`` — histogram over the four
  pipeline legs (``ingest_to_durable``, ``durable_to_applied``,
  ``applied_to_replica``, ``applied_to_notified``).  Observed exactly
  once per delta per leg, and only for *live* traffic: WAL replay
  after a restart re-registers timelines for debugging but does not
  re-observe (restart must not double-count histograms).
* ``repro_freshness_seconds{stage=...}`` — scrape-time gauges: seconds
  since each stage last fired on this role (−1 until it has).

The ``GET /provenance?trace=`` / ``?offset=`` endpoints (primary and
replica) and the ``repro trace`` CLI read the ring back out.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .metrics import REGISTRY

#: Stage names in pipeline order (also the order ``repro trace`` prints).
STAGES: Tuple[str, ...] = (
    "ingest",
    "enqueue",
    "durable",
    "applied",
    "replica_applied",
    "notified",
)

#: Histogram legs derived from consecutive stage stamps.
STAGE_LEGS: Tuple[str, ...] = (
    "ingest_to_durable",
    "durable_to_applied",
    "applied_to_replica",
    "applied_to_notified",
)

DELTA_STAGE_SECONDS = REGISTRY.histogram(
    "repro_delta_stage_seconds",
    "Per-delta latency of each write-pipeline leg "
    "(ingest->durable->applied->replica/notified), from provenance stamps",
    labelnames=("stage",),
)

FRESHNESS_SECONDS = REGISTRY.gauge(
    "repro_freshness_seconds",
    "Seconds since a delta last reached each pipeline stage on this "
    "role (-1 until the stage has fired); computed at scrape time",
    labelnames=("stage",),
)

#: Longest client-supplied request id accepted verbatim.
MAX_TRACE_ID_LEN = 128

_TRACEPARENT_RE = re.compile(
    r"^[0-9a-f]{2}-([0-9a-f]{32})-[0-9a-f]{16}-[0-9a-f]{2}$"
)


def new_trace_id() -> str:
    """A synthesized trace id (32 lowercase hex chars, uuid4)."""
    return uuid.uuid4().hex


def sanitize_trace_id(raw: object) -> Optional[str]:
    """A client-supplied request id, cleaned — or ``None`` if unusable.

    Accepts any printable, whitespace-free string up to
    :data:`MAX_TRACE_ID_LEN` chars; anything else (empty, control
    characters, oversized) is rejected so log lines and label values
    stay well-formed.
    """
    if not isinstance(raw, str):
        return None
    cleaned = raw.strip()
    if not cleaned or len(cleaned) > MAX_TRACE_ID_LEN:
        return None
    for ch in cleaned:
        if not ch.isprintable() or ch.isspace():
            return None
    return cleaned


def extract_trace_id(headers) -> Tuple[str, bool]:
    """The trace id for an incoming HTTP request: ``(id, generated)``.

    Precedence: a usable ``X-Request-Id`` wins; else the trace-id field
    of a well-formed W3C ``traceparent``; else a synthesized id
    (``generated=True``).  ``headers`` is any mapping with ``.get``
    (e.g. ``http.client.HTTPMessage``).
    """
    rid = sanitize_trace_id(headers.get("X-Request-Id"))
    if rid is not None:
        return rid, False
    traceparent = headers.get("traceparent")
    if isinstance(traceparent, str):
        match = _TRACEPARENT_RE.match(traceparent.strip().lower())
        if match is not None and match.group(1) != "0" * 32:
            return match.group(1), False
    return new_trace_id(), True


class _Entry:
    """One delta's timeline (ring-internal)."""

    __slots__ = (
        "trace",
        "offset",
        "source",
        "seq",
        "stamps",
        "merged_traces",
        "live",
        "replayed",
        "remote",
    )

    def __init__(
        self,
        trace: str,
        offset: Optional[int],
        source: str,
        seq: Optional[int],
        live: bool,
        replayed: bool,
        remote: bool,
    ) -> None:
        self.trace = trace
        self.offset = offset
        self.source = source
        self.seq = seq
        self.stamps: Dict[str, float] = {}
        self.merged_traces: Tuple[str, ...] = ()
        self.live = live
        self.replayed = replayed
        self.remote = remote


class ProvenanceRing:
    """Bounded, thread-safe store of recent delta timelines.

    One ring per engine (``AlignmentService.provenance``); a replica
    node keeps a single ring across engine swaps so re-bootstrap does
    not lose history.  Entries are indexed by trace id and — when the
    delta went through the WAL — by offset; the oldest entry is evicted
    past ``capacity``.  Stamping by offset (``stamp_upto``) sweeps each
    entry at most once per stage via per-stage high-water marks, so the
    hot path stays O(new entries), not O(ring).

    Entries come in three flavours:

    * **live local** (``admit``): real traffic on the primary — stamps
      drive the stage histograms;
    * **replayed local** (``register_record(live=False)``): WAL replay
      after restart — timelines are reconstructed (``replayed`` flag)
      but never observed into histograms;
    * **remote** (``register_record(remote=True)``): a replica's view
      of a shipped record — primary-side stamps come from the record's
      ``prov`` field, the local apply stamps ``replica_applied``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("provenance ring capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._order: Deque[_Entry] = deque()
        self._by_trace: Dict[str, _Entry] = {}
        self._by_offset: Dict[int, _Entry] = {}
        self._offsets: List[int] = []  # sorted; admission order == offset order
        self._high_water: Dict[str, int] = {}
        self._last_ts: Dict[str, float] = {}

    # -- admission ------------------------------------------------------

    def admit(
        self,
        trace: str,
        *,
        source: str = "http",
        seq: Optional[int] = None,
        offset: Optional[int] = None,
        ingest_ts: Optional[float] = None,
        enqueue_ts: Optional[float] = None,
        live: bool = True,
    ) -> None:
        """Record a freshly ingested delta (primary write path)."""
        with self._lock:
            entry = _Entry(
                trace, offset, source, seq, live=live, replayed=False, remote=False
            )
            if ingest_ts is not None:
                entry.stamps["ingest"] = ingest_ts
                self._note_last("ingest", ingest_ts)
            if enqueue_ts is not None:
                entry.stamps["enqueue"] = enqueue_ts
                self._note_last("enqueue", enqueue_ts)
            self._index(entry)

    def register_record(
        self, record, *, live: bool = False, remote: bool = False
    ) -> None:
        """Reconstruct an entry from a WAL record's ``prov`` stamps.

        Used by WAL replay on the primary (``live=False`` — debugging
        timeline only, no histogram observations) and by the replica
        apply loop (``remote=True`` — the subsequent engine apply stamps
        ``replica_applied``).  Records without provenance (schema v1)
        still get an entry so ``GET /provenance?offset=`` works; their
        trace is synthesized.
        """
        prov = getattr(record, "prov", None) or {}
        trace = sanitize_trace_id(prov.get("trace")) or new_trace_id()
        with self._lock:
            if record.offset in self._by_offset:
                return  # already registered (idempotent redelivery)
            entry = _Entry(
                trace,
                record.offset,
                record.source,
                record.seq,
                live=live,
                replayed=not remote,
                remote=remote,
            )
            for stage, key in (
                ("ingest", "ingest_ts"),
                ("enqueue", "enqueue_ts"),
                ("durable", "durable_ts"),
                ("applied", "applied_ts"),
            ):
                value = prov.get(key)
                if isinstance(value, (int, float)):
                    entry.stamps[stage] = float(value)
            # Anything read back from the log is durable by definition;
            # advance the durable high-water so a later fsync of *new*
            # appends does not mis-stamp these with its own clock.
            high = self._high_water.get("durable", 0)
            if record.offset > high:
                self._high_water["durable"] = record.offset
            self._index(entry)

    def _index(self, entry: _Entry) -> None:
        self._order.append(entry)
        self._by_trace[entry.trace] = entry
        if entry.offset is not None:
            self._by_offset[entry.offset] = entry
            self._offsets.append(entry.offset)
        while len(self._order) > self._capacity:
            evicted = self._order.popleft()
            if self._by_trace.get(evicted.trace) is evicted:
                del self._by_trace[evicted.trace]
            if evicted.offset is not None:
                if self._by_offset.get(evicted.offset) is evicted:
                    del self._by_offset[evicted.offset]
                if self._offsets and self._offsets[0] == evicted.offset:
                    self._offsets.pop(0)

    # -- stamping -------------------------------------------------------

    def stamp_upto(self, stage: str, offset: Optional[int], ts: Optional[float] = None) -> None:
        """Stamp ``stage`` on every entry at or below ``offset`` that
        lacks it (fsync covers a prefix; apply publishes a prefix)."""
        if offset is None or offset <= 0:
            return
        now = time.time() if ts is None else ts
        with self._lock:
            for entry in self._sweep(stage, offset):
                self._stamp(entry, stage, now)

    def stamp_applied_upto(self, offset: Optional[int], ts: Optional[float] = None) -> None:
        """An engine published scores up to ``offset``: local entries
        get ``applied``, remote (replica-registered) entries get
        ``replica_applied`` — one call, routed per entry."""
        if offset is None or offset <= 0:
            return
        now = time.time() if ts is None else ts
        with self._lock:
            for entry in self._sweep("applied", offset):
                self._stamp(entry, "replica_applied" if entry.remote else "applied", now)

    def stamp_traces(self, stage: str, traces: Iterable[str], ts: Optional[float] = None) -> None:
        """Stamp by trace id, for entries that have no offset to sweep
        by.  No serving path calls it any more (every batch carries a
        WAL offset); it stays only while the benchmark's layer table
        still wraps it."""
        now = time.time() if ts is None else ts
        with self._lock:
            for trace in traces:
                entry = self._by_trace.get(trace)
                if entry is not None:
                    self._stamp(entry, stage, now)

    def note_merge(self, traces: Iterable[str]) -> None:
        """The batcher coalesced these traces into one warm pass."""
        merged = tuple(traces)
        if len(merged) < 2:
            return
        with self._lock:
            for trace in merged:
                entry = self._by_trace.get(trace)
                if entry is not None:
                    entry.merged_traces = merged

    def _sweep(self, hw_stage: str, offset: int) -> List[_Entry]:
        """Entries in ``(high_water[hw_stage], offset]`` (lock held)."""
        high = self._high_water.get(hw_stage, 0)
        if offset <= high:
            return []
        lo = bisect_right(self._offsets, high)
        hi = bisect_right(self._offsets, offset)
        self._high_water[hw_stage] = offset
        return [self._by_offset[off] for off in self._offsets[lo:hi]]

    def _stamp(self, entry: _Entry, stage: str, ts: float) -> None:
        """Record one stamp + derived histogram leg (lock held)."""
        if stage in entry.stamps:
            return
        entry.stamps[stage] = ts
        self._note_last(stage, ts)
        if not entry.live:
            return  # replayed timeline: reconstruct, don't re-observe
        stamps = entry.stamps
        if stage == "durable" and "ingest" in stamps:
            DELTA_STAGE_SECONDS.observe(
                max(0.0, ts - stamps["ingest"]), stage="ingest_to_durable"
            )
        elif stage == "applied" and "durable" in stamps:
            DELTA_STAGE_SECONDS.observe(
                max(0.0, ts - stamps["durable"]), stage="durable_to_applied"
            )
        elif stage == "replica_applied":
            # Best-available primary reference; clamped for clock skew.
            for ref in ("applied", "durable", "enqueue", "ingest"):
                if ref in stamps:
                    DELTA_STAGE_SECONDS.observe(
                        max(0.0, ts - stamps[ref]), stage="applied_to_replica"
                    )
                    break
        elif stage == "notified":
            ref = stamps.get("replica_applied", stamps.get("applied"))
            if ref is not None:
                DELTA_STAGE_SECONDS.observe(
                    max(0.0, ts - ref), stage="applied_to_notified"
                )

    def _note_last(self, stage: str, ts: float) -> None:
        if ts > self._last_ts.get(stage, float("-inf")):
            self._last_ts[stage] = ts

    # -- read side ------------------------------------------------------

    def lookup_trace(self, trace: str) -> Optional[dict]:
        with self._lock:
            entry = self._by_trace.get(trace)
            return None if entry is None else self._payload(entry)

    def lookup_offset(self, offset: int) -> Optional[dict]:
        with self._lock:
            entry = self._by_offset.get(offset)
            return None if entry is None else self._payload(entry)

    def offset_stamps(self, offset: int) -> Dict[str, float]:
        """``{durable_ts, applied_ts}`` (as known) for a WAL offset —
        what ``GET /wal`` folds into shipped records so replicas see
        the primary-side stamps the on-disk record cannot contain."""
        with self._lock:
            entry = self._by_offset.get(offset)
            if entry is None:
                return {}
            out: Dict[str, float] = {}
            if "durable" in entry.stamps:
                out["durable_ts"] = entry.stamps["durable"]
            if "applied" in entry.stamps:
                out["applied_ts"] = entry.stamps["applied"]
            return out

    def _payload(self, entry: _Entry) -> dict:
        timeline = {
            stage: entry.stamps[stage] for stage in STAGES if stage in entry.stamps
        }
        return {
            "found": True,
            "trace": entry.trace,
            "offset": entry.offset,
            "source": entry.source,
            "seq": entry.seq,
            "timeline": timeline,
            "merged_traces": list(entry.merged_traces),
            "replayed": entry.replayed,
        }

    def last_ts(self, stage: str) -> Optional[float]:
        with self._lock:
            return self._last_ts.get(stage)

    def age(self, stage: str) -> float:
        """Seconds since ``stage`` last fired, or −1 if it never has."""
        last = self.last_ts(stage)
        if last is None:
            return -1.0
        return max(0.0, time.time() - last)

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)


# The freshness gauges resolve through a module-level "active ring"
# pointer rather than per-ring callbacks: engines are rebuilt on
# replica re-bootstrap and tests spin up many, and the newest engine's
# ring is the one whose freshness this process should report
# (consistent with the replica gauges' newest-wins callbacks).
_ACTIVE_RING: Optional[ProvenanceRing] = None
_ACTIVE_LOCK = threading.Lock()


def set_active_ring(ring: ProvenanceRing) -> None:
    """Point the scrape-time freshness gauges at ``ring``."""
    global _ACTIVE_RING
    with _ACTIVE_LOCK:
        _ACTIVE_RING = ring


def _freshness(stage: str) -> float:
    ring = _ACTIVE_RING
    return -1.0 if ring is None else ring.age(stage)


for _stage in STAGES:
    FRESHNESS_SECONDS.set_callback(
        (lambda stage=_stage: _freshness(stage)), stage=_stage
    )
del _stage
