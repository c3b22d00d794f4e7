"""HTTP front-end for the alignment service (stdlib only).

A :class:`ThreadingHTTPServer` over :class:`~repro.service.engine.AlignmentService`:

* ``GET  /healthz``                  — liveness + state summary, WAL
  applied/appended/durable offsets, and the engine's ``degraded``
  reason (non-null after a fail-stop), so probes need not parse
  ``/stats``
* ``GET  /metrics``                  — Prometheus text exposition of the
  process :data:`~repro.obs.metrics.REGISTRY` (request latencies, WAL
  offsets, span durations, …; see ROADMAP.md "Observability")
* ``GET  /stats``                    — ingestion/work counters (queue depth,
  WAL offsets, cumulative ``pairs_touched``).  A primary adds its
  stream stack's ``ingest`` sub-payload, a replica a ``replication``
  sub-payload (applied/source offsets, ``lag_ms``).
* ``GET  /pair/<left>/<right>``      — one pair's probability (URL-quoted names)
* ``GET  /alignment``                — the maximal assignment, served from the
  engine's secondary :class:`~repro.service.query.QueryIndex`:
  ``?limit=N&cursor=…`` keyset pages, ``?top=K`` best-K, ``?entity=X``
  per-entity neighborhood, ``?threshold=T`` filter on all shapes,
  ``?format=tsv`` TSV; the unpaginated dump streams chunk-wise.  See
  ``docs/api.md`` for the full parameter/caching reference.
* ``GET  /watch?entity=X&epsilon=E`` — long-poll change notification
  (:mod:`repro.service.subs`); ``GET /subscriptions`` lists webhooks,
  ``POST /subscribe`` / ``POST /unsubscribe`` manage them (primary)

Every read endpoint sends a weak ``ETag`` derived from the applied WAL
offset and honours ``If-None-Match`` with a 304 (``docs/api.md``,
"Caching").
* ``GET  /wal?from=K&limit=N``       — log shipping for replicas without
  shared storage: NDJSON WAL records beyond offset K, capped at the
  durable offset, primary's head in ``X-Wal-Offset``; ``410`` when the
  suffix was compacted away (re-bootstrap from a snapshot)
* ``GET  /snapshot/latest``          — the newest snapshot file verbatim
  (replica bootstrap; pickle, trusted-cluster only)
* ``POST /delta``                    — submit a JSON delta batch (see
  :meth:`repro.service.delta.Delta.from_json`) to the primary's shared
  ingest queue (the same queue as the ``--watch`` sources): it is
  WAL-appended and fsync'd, coalesced with its neighbours and applied
  by one warm-start pass, and the response carries its *batch's*
  report.  Optional ``?source=<id>&seq=<n>`` query parameters tag the
  delta for idempotent redelivery (a duplicate gets ``{"duplicate":
  true}``), and a full queue answers ``429`` with a ``Retry-After``
  header.
* ``POST /snapshot``                 — force a snapshot

A server built with a :class:`~repro.service.replica.ReplicaNode` is a
*read replica*: every ``POST`` answers ``403`` pointing writers at the
primary, and the engine is resolved through the node per request so a
re-bootstrap (after WAL compaction outran the replica) swaps it
atomically under the readers.

Concurrency: request handlers run on one thread each; the engine
serializes mutation and reads behind its own lock, so a long warm pass
never corrupts a concurrent query (it just waits).

A primary always has a :class:`~repro.service.stream.StreamStack`
(WAL → batcher → engine); ``server.stream is None`` only on replicas.

``run_server`` adds the process plumbing for ``repro serve``: SIGTERM /
SIGINT stop the streaming sources, drain the ingest queue, take a final
snapshot and exit cleanly, which is what the CI service-smoke job
asserts.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, unquote, urlparse

from .delta import Delta
from .engine import AlignmentService
from .query import (
    CACHE_HITS,
    READ_ROWS,
    READS_TOTAL,
    CursorError,
    etag_matches,
    iter_row_chunks,
    make_cursor,
    parse_cursor,
    read_etag,
)
from .stream import QueueFullError, StreamStack, WriteAheadLog
from .subs import SubscriptionManager
from ..io.alignment_io import render_assignment_rows
from ..obs import get_event_logger
from ..obs.http import ObservedHandlerMixin, route_label

_log = get_event_logger("repro.serve")

#: Default page size of ``GET /alignment?limit=…`` (cap in
#: :data:`repro.service.query.MAX_PAGE_LIMIT`).
DEFAULT_PAGE_LIMIT = 100

#: Route inventory of the primary/replica server.  ``tests/test_docs.py``
#: asserts every entry — and every literal the dispatch below matches —
#: is documented in ``docs/api.md``.
ROUTES = {
    "GET /healthz": "liveness, state summary, WAL applied/appended/durable offsets",
    "GET /metrics": "Prometheus text exposition of the process registry",
    "GET /stats": "ingestion/work counters (+replication lag on replicas)",
    "GET /wal": "NDJSON log shipping for replica catch-up",
    "GET /snapshot/latest": "newest snapshot file (replica bootstrap)",
    "GET /pair/<left>/<right>": "one instance pair's probability and context",
    "GET /alignment": "maximal assignment: paginated, top-k, per-entity, or streamed dump",
    "GET /watch": "long-poll for changes to one entity's alignments",
    "GET /provenance": "one delta's stage timeline, by ?trace= or ?offset=",
    "GET /digest": "offset-keyed state digest (+range sub-digests, +self-verify)",
    "GET /subscriptions": "registered webhook subscriptions",
    "POST /delta": "apply a JSON delta batch (primary only)",
    "POST /snapshot": "force a snapshot (primary only)",
    "POST /subscribe": "register a change webhook (primary only)",
    "POST /unsubscribe": "remove a webhook subscription (primary only)",
}


def _row_objects(rows) -> list:
    return [
        {"left": left, "right": right, "probability": probability}
        for left, right, probability in rows
    ]


def _alignment_json_chunks(keys, threshold: float, meta: dict):
    """Chunked JSON body of the unpaginated alignment dump — same
    object shape as before, produced without ever holding the full
    serialized document."""
    prefix = (
        json.dumps({"threshold": threshold, **meta})[:-1] + ', "pairs": ['
    ).encode("utf-8")
    yield prefix
    state = {"first": True}

    def render(rows) -> bytes:
        if not rows:
            return b""
        text = ", ".join(json.dumps(obj) for obj in _row_objects(rows))
        if state["first"]:
            state["first"] = False
            return text.encode("utf-8")
        return (", " + text).encode("utf-8")

    yield from iter_row_chunks(keys, render)
    yield b"]}"


class AlignmentRequestHandler(ObservedHandlerMixin, BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`AlignmentService`.

    Connection settings, the send path and the body reader come from
    :class:`~repro.obs.http.ObservedHandlerMixin`; this class adds the
    routes and the ETag/304 decision."""

    server_version = "repro-serve/1.0"

    @property
    def service(self) -> AlignmentService:
        replica = self.server.replica  # type: ignore[attr-defined]
        if replica is not None:
            # Resolved per request: a re-bootstrap after a WAL gap
            # swaps the replica's engine, and readers must follow it.
            return replica.service
        return self.server.service  # type: ignore[attr-defined]

    def _error(self, status: int, message: str) -> None:
        self.send_json({"error": message}, status=status)

    # -- caching helpers -----------------------------------------------

    def _state_etag(self) -> str:
        """Read tag of the engine-locked read endpoints (healthz,
        stats, pair, entity neighborhood)."""
        state = self.service.state
        return read_etag(state.version, state.wal_offset)

    @staticmethod
    def _cache_headers(etag: str, extra: Optional[dict] = None) -> dict:
        # no-cache = "revalidate every time": with the WAL-offset ETag
        # a revalidation round-trip is the proof of currency the
        # bounded-staleness contract promises, and a 304 costs no body.
        headers = {"ETag": etag, "Cache-Control": "no-cache"}
        if extra:
            headers.update(extra)
        return headers

    def _maybe_not_modified(self, etag: str) -> bool:
        """Answer 304 when the client's ``If-None-Match`` is current."""
        if not etag_matches(self.headers.get("If-None-Match"), etag):
            return False
        CACHE_HITS.inc(route=route_label(self.path))
        self.send_bytes(b"", status=304, headers=self._cache_headers(etag))
        return True

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_get()
        except RuntimeError as error:
            # The engine fail-stopped after a mid-delta failure.
            self._error(503, str(error))

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [unquote(part) for part in url.path.split("/") if part]
        replica = self.server.replica  # type: ignore[attr-defined]
        if parts == ["healthz"]:
            stream = self.server.stream  # type: ignore[attr-defined]
            wal = stream.wal if stream is not None else None
            auditor = getattr(self.server, "auditor", None)
            degraded = auditor.degraded() if auditor is not None else None
            if wal is not None and wal.failure is not None:
                degraded = f"wal refuses writes after a failed flush/fsync ({wal.failure})"
            etag = self._state_etag()
            # A latched audit mismatch or WAL failure must reach probes
            # at once: the state ETag did not move, so skip the 304 path.
            if degraded is None and self._maybe_not_modified(etag):
                return
            payload = self.service.health()
            payload["role"] = "replica" if replica is not None else "primary"
            if degraded is not None and payload["status"] == "ok":
                payload["status"] = "degraded"
                payload["degraded"] = degraded
            # Probes get the WAL position without parsing /stats: what
            # the engine applied, and (with a log attached) what the
            # primary appended / made durable.
            wal_info = {"applied_offset": self.service.state.wal_offset}
            if wal is not None:
                wal_info["appended_offset"] = wal.offset
                wal_info["durable_offset"] = wal.durable_offset
            payload["wal"] = wal_info
            self.send_json(payload, headers=self._cache_headers(etag))
            return
        if parts == ["metrics"]:
            self.serve_metrics()
            return
        if parts == ["stats"]:
            etag = self._state_etag()
            if self._maybe_not_modified(etag):
                return
            payload = self.service.stats()
            payload["role"] = "replica" if replica is not None else "primary"
            if replica is not None:
                payload["replication"] = replica.stats()
            else:
                payload["ingest"] = self.server.stream.stats()  # type: ignore[attr-defined]
            auditor = getattr(self.server, "auditor", None)
            if auditor is not None:
                payload["audit"] = auditor.stats()
            self.send_json(payload, headers=self._cache_headers(etag))
            return
        if parts == ["digest"]:
            self._route_get_digest(url)
            return
        if parts == ["wal"]:
            self._route_get_wal(url)
            return
        if parts == ["snapshot", "latest"]:
            self._route_get_snapshot()
            return
        if len(parts) == 3 and parts[0] == "pair":
            etag = self._state_etag()
            if self._maybe_not_modified(etag):
                return
            READS_TOTAL.inc(kind="pair")
            self.send_json(
                self.service.pair(parts[1], parts[2]),
                headers=self._cache_headers(etag),
            )
            return
        if parts == ["alignment"]:
            self._route_get_alignment(url)
            return
        if parts == ["watch"]:
            self._route_get_watch(url)
            return
        if parts == ["provenance"]:
            self._route_get_provenance(url)
            return
        if parts == ["subscriptions"]:
            subs = self.server.subs  # type: ignore[attr-defined]
            self.send_json({"subscriptions": subs.subscriptions()})
            return
        self._error(404, f"no such resource: {url.path}")

    def _route_get_digest(self, url) -> None:
        """``GET /digest`` — the state digest `repro doctor` compares.

        ``?offset=K`` answers from the bounded checkpoint history (409
        once K aged out, so the doctor knows to re-quiesce);
        ``?lo=&hi=`` serves a live entity-range sub-digest for the
        divergence binary search; ``?verify=1`` recomputes the digest
        in full alongside the incremental one.
        """
        # keep_blank_values: `?lo=` (the empty string, sorting before
        # every name) is how the doctor asks for the unbounded range.
        query = parse_qs(url.query, keep_blank_values=True)
        offset: Optional[int] = None
        if "offset" in query:
            try:
                offset = int(query["offset"][0])
            except ValueError:
                self._error(400, f"invalid offset {query['offset'][0]!r}")
                return
        lo = query.get("lo", [None])[0]
        hi = query.get("hi", [None])[0]
        verify = query.get("verify", ["0"])[0] not in ("0", "", "false")
        etag = self._state_etag()
        if self._maybe_not_modified(etag):
            return
        try:
            payload = self.service.digest_payload(
                offset=offset, lo=lo, hi=hi, verify=verify
            )
        except KeyError as error:
            self._error(409, str(error.args[0]))
            return
        payload["role"] = (
            "replica"
            if self.server.replica is not None  # type: ignore[attr-defined]
            else "primary"
        )
        self.send_json(payload, headers=self._cache_headers(etag))

    def _route_get_alignment(self, url) -> None:
        """The alignment read surface: keyset pages, top-k, per-entity
        neighborhoods, and the streamed full dump — all served from the
        engine's secondary :class:`~repro.service.query.QueryIndex`
        (the neighborhood from the per-entity store indexes), never by
        sorting the full table per request."""
        query = parse_qs(url.query)
        try:
            threshold = float(query.get("threshold", ["0.0"])[0])
        except ValueError:
            self._error(400, "threshold must be a number")
            return
        entity = query.get("entity", [None])[0]
        if entity is not None:
            etag = self._state_etag()
            if self._maybe_not_modified(etag):
                return
            payload = self.service.neighborhood(entity)
            READS_TOTAL.inc(kind="entity")
            READ_ROWS.inc(
                len(payload["as_left"]) + len(payload["as_right"]), kind="entity"
            )
            self.send_json(payload, headers=self._cache_headers(etag))
            return
        # Index-served reads bypass the engine lock but must still
        # refuse on a fail-stopped engine (503 via do_GET).
        self.service._check_consistent()
        index = self.service.query_index
        version, wal_offset = index.read_tag()
        etag = read_etag(version, wal_offset)
        meta = {"version": version, "wal_offset": wal_offset}
        if "top" in query:
            try:
                count = int(query["top"][0])
            except ValueError:
                self._error(400, "top must be an integer")
                return
            if count <= 0:
                self._error(400, "top must be positive")
                return
            if self._maybe_not_modified(etag):
                return
            rows = index.top(count, threshold)
            READS_TOTAL.inc(kind="top")
            READ_ROWS.inc(len(rows), kind="top")
            self.send_json(
                {
                    "threshold": threshold,
                    "top": count,
                    "pairs": _row_objects(rows),
                    **meta,
                },
                headers=self._cache_headers(etag),
            )
            return
        if "cursor" in query or "limit" in query:
            try:
                limit = int(query.get("limit", [str(DEFAULT_PAGE_LIMIT)])[0])
            except ValueError:
                self._error(400, "limit must be an integer")
                return
            if limit <= 0:
                self._error(400, "limit must be positive")
                return
            after = None
            changed = False
            cursor_text = query.get("cursor", [None])[0]
            if cursor_text:
                try:
                    after, minted_tag = parse_cursor(cursor_text, threshold)
                except CursorError as error:
                    self._error(400, str(error))
                    return
                # The keyset stays valid across deltas; the flag tells
                # the client its walk now spans more than one state.
                changed = tuple(minted_tag) != (version, wal_offset)
            if self._maybe_not_modified(etag):
                return
            rows, next_key = index.page(threshold, after, limit)
            READS_TOTAL.inc(kind="page")
            READ_ROWS.inc(len(rows), kind="page")
            self.send_json(
                {
                    "threshold": threshold,
                    "limit": limit,
                    "pairs": _row_objects(rows),
                    "next_cursor": (
                        make_cursor(next_key, threshold, (version, wal_offset))
                        if next_key is not None
                        else None
                    ),
                    "changed_since_cursor": changed,
                    **meta,
                },
                headers=self._cache_headers(etag),
            )
            return
        # Unpaginated dump: a consistent key snapshot (tuple refs, not
        # rendered rows), streamed chunk-wise — the response body never
        # materializes in memory.
        if self._maybe_not_modified(etag):
            return
        keys = index.snapshot_keys(threshold)
        READS_TOTAL.inc(kind="dump")
        READ_ROWS.inc(len(keys), kind="dump")
        if query.get("format", ["json"])[0] == "tsv":
            # render_assignment_rows orders by (left, right): pre-sort
            # the keys so per-chunk rendering concatenates to the exact
            # bytes the single-shot renderer produced.
            tsv_keys = sorted(keys, key=lambda key: (key[1], key[2], -key[0]))
            self.send_chunked(
                iter_row_chunks(
                    tsv_keys,
                    lambda rows: render_assignment_rows(rows).encode("utf-8"),
                ),
                "text/plain; charset=utf-8",
                self._cache_headers(etag),
            )
            return
        self.send_chunked(
            _alignment_json_chunks(keys, threshold, meta),
            "application/json",
            self._cache_headers(etag),
        )

    def _route_get_watch(self, url) -> None:
        """Long-poll: park until the entity's alignment moves > ε."""
        query = parse_qs(url.query)
        entity = query.get("entity", [None])[0]
        if not entity:
            self._error(400, "watch requires an entity query parameter")
            return
        try:
            epsilon = float(query.get("epsilon", ["0.0"])[0])
            after = int(query["after"][0]) if "after" in query else None
            timeout = float(query.get("timeout", ["25"])[0])
        except ValueError:
            self._error(400, "epsilon/timeout must be numbers, after an integer")
            return
        timeout = max(0.0, min(timeout, 60.0))
        subs = self.server.subs  # type: ignore[attr-defined]
        notification = subs.wait(entity, epsilon=epsilon, after=after, timeout=timeout)
        if notification is None:
            # Timed out with no qualifying change; the version is the
            # cursor to resume from (pass it back as ``after=``).
            self.send_json(
                {"entity": entity, "timeout": True, "version": subs.current_version()}
            )
            return
        self.send_json(notification)

    def _route_get_provenance(self, url) -> None:
        """Debug endpoint: one delta's stage timeline, reconstructed
        from the engine's provenance ring (plus, for an offset the ring
        has already evicted, the stamps the WAL record itself carries).
        Served by the primary and by replicas (each reports its own
        view; ``repro trace`` merges them); the router forwards it to
        the primary via its wildcard ``GET *`` rule."""
        from .stream.wal import WalCorruptionError, WalGapError

        query = parse_qs(url.query)
        trace = query.get("trace", [None])[0]
        offset_raw = query.get("offset", [None])[0]
        if (trace is None) == (offset_raw is None):
            self._error(400, "pass exactly one of ?trace= or ?offset=")
            return
        offset = None
        if offset_raw is not None:
            try:
                offset = int(offset_raw)
            except ValueError:
                self._error(400, "offset must be an integer")
                return
        replica = self.server.replica  # type: ignore[attr-defined]
        role = "replica" if replica is not None else "primary"
        ring = getattr(self.service, "provenance", None)
        payload = None
        if ring is not None:
            payload = (
                ring.lookup_trace(trace)
                if trace is not None
                else ring.lookup_offset(offset)
            )
        if payload is None and offset is not None:
            # Ring miss (evicted, or a restart that never replayed this
            # far): fall back to the stamps the record itself carries —
            # a bounded read of one WAL suffix, not a full decode.
            stream = self.server.stream  # type: ignore[attr-defined]
            wal = stream.wal if stream is not None else None
            if wal is not None:
                try:
                    record = next(wal.replay(after_offset=offset - 1), None)
                except (WalGapError, WalCorruptionError):
                    record = None
                if record is not None and record.offset == offset:
                    prov = record.prov or {}
                    timeline = {
                        stage: prov[key]
                        for stage, key in (
                            ("ingest", "ingest_ts"),
                            ("enqueue", "enqueue_ts"),
                        )
                        if isinstance(prov.get(key), (int, float))
                    }
                    payload = {
                        "found": True,
                        "trace": prov.get("trace"),
                        "offset": record.offset,
                        "source": record.source,
                        "seq": record.seq,
                        "timeline": timeline,
                        "merged_traces": [],
                        "replayed": False,
                    }
        if payload is None:
            self.send_json(
                {"found": False, "role": role, "trace": trace, "offset": offset},
                status=404,
            )
            return
        payload["role"] = role
        self.send_json(payload)

    def _route_get_wal(self, url) -> None:
        """Log shipping: NDJSON WAL records for replica catch-up."""
        from .stream.wal import WalCorruptionError, WalGapError

        stream = self.server.stream  # type: ignore[attr-defined]
        if stream is None:
            self._error(404, "a replica ships no write-ahead log; ask the primary")
            return
        wal = stream.wal
        query = parse_qs(url.query)
        try:
            after = int(query.get("from", ["0"])[0])
            limit = int(query.get("limit", ["1000"])[0])
        except ValueError:
            self._error(400, "from and limit must be integers")
            return
        limit = max(1, min(limit, 10_000))
        # Never ship past the durable offset: a record the primary has
        # not fsync'd could vanish in a crash, and a replica that
        # applied it would be ahead of the log it must converge to.
        durable = wal.durable_offset
        if after >= durable:
            # The caught-up steady state, O(1): no decode of the log
            # 20x/sec per replica just to ship an empty page.
            self.send_bytes(
                b"", "application/x-ndjson", headers={"X-Wal-Offset": str(durable)}
            )
            return
        lines = []
        ring = getattr(self.service, "provenance", None)
        # Replay yields the contiguous offsets after + 1, ..., so
        # counting stops at the page end (or the durable offset)
        # without decoding the record past it.
        try:
            for record in islice(wal.replay(after), min(limit, durable - after)):
                payload = record.to_json()
                if ring is not None and payload.get("prov") is not None:
                    # The on-disk record is written before its fsync and
                    # before its apply, so those stamps can only ride
                    # along at ship time, from the primary's ring.
                    payload["prov"].update(ring.offset_stamps(record.offset))
                lines.append(json.dumps(payload, sort_keys=True))
        except WalGapError as gap:
            self.send_json({"error": str(gap), "oldest": gap.oldest}, status=410)
            return
        except WalCorruptionError as error:
            # Never ship from a log we cannot decode — and never let
            # the exception tear the connection down without a status.
            self._error(500, f"write-ahead log is corrupt: {error}")
            return
        body = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        self.send_bytes(
            body, "application/x-ndjson", headers={"X-Wal-Offset": str(durable)}
        )

    def _route_get_snapshot(self) -> None:
        """Serve the newest snapshot file for replica bootstrap."""
        from .state import latest_version, snapshot_path

        state_dir = self.server.state_dir  # type: ignore[attr-defined]
        path = snapshot_path(state_dir) if state_dir is not None else None
        if path is None:
            self._error(404, "no snapshot available yet")
            return
        self.send_bytes(
            path.read_bytes(),
            "application/octet-stream",
            headers={"X-State-Version": str(latest_version(state_dir))},
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.server.replica is not None:  # type: ignore[attr-defined]
            # Read replica: its state is a function of the primary's
            # WAL; accepting a local write would fork it.
            self._error(403, "read-only replica; send writes to the primary")
            return
        try:
            self._route_post()
        except RuntimeError as error:
            self._error(503, str(error))

    def _route_post(self) -> None:
        url = urlparse(self.path)
        if url.path == "/snapshot":
            state_dir = self.server.state_dir  # type: ignore[attr-defined]
            if state_dir is None:
                self._error(409, "server runs without a state directory")
                return
            # Captured before the snapshot: the ingest thread may apply
            # further batches while we persist, and compaction must
            # never outrun what this snapshot actually covers.
            covered = self.service.state.wal_offset
            try:
                path = self.service.snapshot(state_dir)
            except OSError as error:
                self._error(500, f"snapshot failed: {error}")
                return
            reclaimed = maybe_compact_wal(
                self.server.stream.wal, covered  # type: ignore[attr-defined]
            )
            self.send_json({"snapshot": str(path), "wal_bytes_compacted": reclaimed})
            return
        if url.path in ("/subscribe", "/unsubscribe"):
            self._route_post_subscription(url.path)
            return
        if url.path != "/delta":
            self._error(404, f"no such resource: {url.path}")
            return
        raw = self.read_body(self.MAX_BODY)
        if raw is None:
            return
        if not raw:
            self._error(400, "delta body must be non-empty JSON")
            return
        query = parse_qs(url.query)
        source = query.get("source", ["http"])[0]
        try:
            seq = int(query["seq"][0]) if "seq" in query else None
        except ValueError:
            self._error(400, "seq must be an integer")
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
            delta = Delta.from_json(payload)
            # Shared ingest queue: WAL'd, coalesced, admission-
            # controlled; the response is the composed batch's report
            # (None = idempotently dropped duplicate).  The request id
            # becomes the delta's provenance trace.
            report = self.server.stream.batcher.submit(  # type: ignore[attr-defined]
                delta, source=source, seq=seq, wait=True, trace=self.request_id
            )
            if report is None:
                self.send_json({"duplicate": True, "source": source, "seq": seq})
                return
        except (ValueError, UnicodeDecodeError) as error:
            self._error(400, f"bad delta: {error}")
            return
        except QueueFullError as error:
            self.send_json(
                {"error": str(error)},
                status=429,
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
            return
        except RuntimeError as error:
            # Engine fail-stopped (this or an earlier delta died
            # mid-mutation): refuse rather than serve inconsistency.
            self._error(503, str(error))
            return
        except Exception as error:  # noqa: BLE001 - fail-stop surface
            # The engine just poisoned itself for this unexpected
            # failure; report it instead of killing the handler thread.
            self._error(500, f"delta failed mid-apply: {error!r}")
            return
        self.send_json(report.to_json())

    def _route_post_subscription(self, path: str) -> None:
        """Webhook registry: register / remove a change subscription."""
        raw = self.read_body(1024 * 1024)
        if raw is None:
            return
        if not raw:
            self._error(400, "subscription body must be non-empty JSON")
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._error(400, f"bad subscription body: {error}")
            return
        if not isinstance(payload, dict):
            self._error(400, "subscription body must be a JSON object")
            return
        subs = self.server.subs  # type: ignore[attr-defined]
        if path == "/unsubscribe":
            sub_id = payload.get("id")
            if not isinstance(sub_id, str):
                self._error(400, "unsubscribe requires a string id")
                return
            self.send_json({"id": sub_id, "removed": subs.unsubscribe(sub_id)})
            return
        url = payload.get("url")
        entity = payload.get("entity")
        epsilon = payload.get("epsilon", 0.0)
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            self._error(400, "subscribe requires an http(s) url")
            return
        if not isinstance(entity, str) or not entity:
            self._error(400, "subscribe requires an entity")
            return
        if not isinstance(epsilon, (int, float)) or epsilon < 0:
            self._error(400, "epsilon must be a non-negative number")
            return
        self.send_json(subs.subscribe(url, entity, float(epsilon)), status=201)


def maybe_compact_wal(wal: WriteAheadLog, covered: int) -> int:
    """Auto-compaction trigger: after a snapshot made ``covered``
    durable, sealed WAL segments at or below it are dead weight.  Only
    fires on a segmented log (``--wal-segment-bytes``); returns the
    bytes reclaimed.

    ``covered`` must be an offset some *persisted* snapshot covers.
    Callers racing the ingest thread capture it *before* snapshotting —
    the snapshot can only cover more, so the compaction stays
    conservative; reading ``state.wal_offset`` after the snapshot could
    see a newer offset no snapshot has persisted yet and delete
    segments a crash-restart still needs."""
    if not wal.segment_bytes:
        return 0
    reclaimed, _deleted = wal.compact(covered)
    return reclaimed


def build_server(
    service: Optional[AlignmentService],
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir: Optional[Union[str, Path]] = None,
    verbose: bool = False,
    snapshot_every: int = 1,
    stream: Optional[StreamStack] = None,
    replica=None,
    handler_timeout: Optional[float] = 30.0,
    subs: Optional[SubscriptionManager] = None,
    auditor=None,
) -> ThreadingHTTPServer:
    """Create (but do not start) the HTTP server.

    A primary needs ``stream``, the :class:`~repro.service.stream.StreamStack`
    (see :meth:`~repro.service.stream.StreamStack.open`) that every
    ``POST /delta`` goes through; the caller starts and stops it.  A
    replica (``replica``, a :class:`~repro.service.replica.ReplicaNode`)
    takes none: it is read-only, the engine is resolved through the
    node per request, and every ``POST`` answers 403.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (the in-process tests do).
    ``handler_timeout`` bounds how long one handler thread waits on a
    client's socket (request line or body); a stalled upload gets a
    ``408`` instead of pinning the thread forever.  ``None`` disables
    the deadline (trusted-network deployments only).
    ``snapshot_every=N`` snapshots after every Nth version that changed
    something (a full state pickle is O(corpus), so large deployments
    raise this or set 0 to snapshot only on shutdown / ``POST
    /snapshot``; durability comes from the log either way).  The
    policy runs once per applied *batch*, as the batcher's
    ``on_batch_applied`` hook — installed here unless the caller
    already set one — so HTTP waiters sharing a batch never repeat it.
    Each policy snapshot also triggers WAL compaction
    (:func:`maybe_compact_wal`) on a segmented log.
    ``subs`` is the change-subscription manager behind ``GET /watch``
    and the webhook registry; when omitted, one is created on
    ``state_dir`` and wired to the engine here (callers that replay a
    WAL before serving — ``repro serve`` — construct and attach their
    own first, so replayed changes reach persisted subscribers).
    """
    if (replica is None) == (stream is None):
        raise ValueError("a primary server needs a stream stack; a replica takes none")
    if replica is not None and service is None:
        service = replica.service
    if subs is None:
        subs = SubscriptionManager(state_dir=state_dir)
        if replica is not None:
            # Re-attached across re-bootstraps: the node swaps engines.
            replica.attach_subscriptions(subs)
        else:
            service.add_change_listener(subs.publish)
            subs.advance(service.state.version, service.state.wal_offset)
    # Provenance wiring: the subscription manager stamps "notified"
    # into the engine's ring (on a replica, the node's ring —
    # replica.service.provenance already points at it).
    if subs.provenance is None:
        subs.provenance = service.provenance
    server = ThreadingHTTPServer((host, port), AlignmentRequestHandler)
    server.subs = subs  # type: ignore[attr-defined]
    server.service = service  # type: ignore[attr-defined]
    server.state_dir = Path(state_dir) if state_dir is not None else None  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.stream = stream  # type: ignore[attr-defined]
    server.replica = replica  # type: ignore[attr-defined]
    server.handler_timeout = handler_timeout  # type: ignore[attr-defined]
    # The background correctness auditor (see repro.service.audit):
    # /healthz consults it for the degraded flip, /stats embeds its
    # counters.  Owned and started by the caller; None = not auditing.
    server.auditor = auditor  # type: ignore[attr-defined]
    server.daemon_threads = True
    if (
        stream is not None
        and state_dir is not None
        and snapshot_every > 0
        and stream.batcher.on_batch_applied is None
    ):

        def _snapshot_policy(report) -> None:
            # Snapshot versions that actually changed something, every
            # snapshot_every-th version.
            changed = report.applied_add + report.applied_remove > 0
            if changed and report.version % snapshot_every == 0:
                covered = service.state.wal_offset
                service.snapshot(state_dir)
                maybe_compact_wal(stream.wal, covered)

        stream.batcher.on_batch_applied = _snapshot_policy
    return server


def serve_until_signalled(server: ThreadingHTTPServer) -> None:
    """Serve until SIGTERM/SIGINT, then restore handlers and close.

    The one implementation of the signal dance every long-running
    ``repro`` process (``serve``, ``replica``, ``route``) shares:
    handlers are installed around ``serve_forever``, ``shutdown`` runs
    off the serving thread (it would deadlock on it), and the previous
    handlers are restored before the socket closes.
    """

    def _shutdown(signum, _frame) -> None:
        _log.info("received signal, shutting down", signal=signum)
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {
        sig: signal.signal(sig, _shutdown) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        server.server_close()


def run_server(
    service: AlignmentService,
    host: str,
    port: int,
    stream: StreamStack,
    state_dir: Optional[Union[str, Path]] = None,
    verbose: bool = True,
    snapshot_every: int = 1,
    subs: Optional[SubscriptionManager] = None,
    auditor=None,
) -> int:
    """Serve a primary until SIGTERM/SIGINT; snapshot on the way out.

    The :class:`~repro.service.stream.StreamStack`'s sources and
    batcher run for the server's lifetime; shutdown stops the sources,
    drains the queue through the engine, and only then snapshots — so
    the final snapshot's WAL offset covers everything ingested.

    ``auditor`` (a :class:`~repro.service.audit.StateAuditor`) is
    started with the server and stopped with it; ``/healthz`` and
    ``/stats`` surface it via ``build_server``.

    Returns the process exit code (0 on a clean, signalled shutdown).
    """
    server = build_server(
        service,
        host,
        port,
        state_dir=state_dir,
        verbose=verbose,
        snapshot_every=snapshot_every,
        stream=stream,
        subs=subs,
        auditor=auditor,
    )
    actual_host, actual_port = server.server_address[:2]
    _log.info(
        "serving alignment",
        left=service.state.ontology1.name,
        right=service.state.ontology2.name,
        url=f"http://{actual_host}:{actual_port}",
        version=service.state.version,
    )

    stream.start()
    if auditor is not None:
        auditor.start()
    try:
        serve_until_signalled(server)
    finally:
        if auditor is not None:
            auditor.stop()
        # Sources stop, the queue drains through the engine, the WAL
        # closes — before the snapshot records the offset.
        stream.stop()
        server.subs.close()  # type: ignore[attr-defined]
        if state_dir is not None:
            path = service.snapshot(state_dir)
            _log.info("state saved", path=str(path))
            reclaimed = maybe_compact_wal(stream.wal, service.state.wal_offset)
            if reclaimed:
                _log.info("compacted covered WAL segments", bytes=reclaimed)
    return 0
