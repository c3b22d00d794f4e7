"""Read router: one front door over a primary and N read replicas.

``repro route --primary URL --replica URL ...`` runs this stdlib HTTP
proxy.  It answers its clients through the same handler base as the
primary and replicas (:mod:`repro.obs.http`: one send path, one body
reader), over HTTP/1.0 (below):

* **Reads** (``GET /pair/...``, ``GET /alignment``) fan out across the
  healthy replicas round-robin; when none is healthy they fall back to
  the primary, so a dead replica fleet degrades to single-node service
  instead of an outage.
* **Writes** (any ``POST``) are forwarded to the primary verbatim —
  status, body and ``Retry-After`` come back unchanged, so admission
  control (429) and validation errors (400) look the same through the
  router as against the primary.
* **Bounded staleness**: a read may carry ``?min_offset=K`` (serve
  only from a replica whose applied WAL offset is at least K — e.g.
  the offset a write report returned, for read-your-writes) and/or
  ``?max_lag_ms=M`` (serve only from a replica that verified itself
  caught up within the last M milliseconds).  Constrained reads are
  answered by replicas only; when none qualifies the router answers
  ``503`` with a ``Retry-After`` header instead of silently serving
  stale data.  Offsets and lags come from each replica's
  ``GET /stats`` (cached briefly; refreshed on demand when a cached
  value fails a constraint).
* **Health**: a background thread polls every target's ``GET /stats``;
  a failed poll (or a failed forwarded read) ejects the replica from
  rotation, a succeeding poll readmits it.  ``GET /healthz`` /
  ``GET /stats`` on the router itself report per-target health,
  offsets and routing counters; ``GET /metrics`` exposes the same as
  Prometheus text (per-backend health gauge, ejection counter, routed
  read/write counters, request latency histograms).
"""

from __future__ import annotations

import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ... import client
from ...obs import get_event_logger
from ...obs.http import ObservedHandlerMixin, route_label
from ...obs.metrics import REGISTRY
from ..query import CACHE_HITS

_log = get_event_logger("repro.router")

#: Route inventory of the router role (``tests/test_docs.py`` asserts
#: every entry is documented in ``docs/api.md``).  ``GET *`` covers the
#: transparent forward of any other read (``/watch``, ``/wal``,
#: ``/snapshot/latest``, ``/subscriptions``, …) to the primary.
ROUTES = {
    "GET /healthz": "router + backend fleet health",
    "GET /stats": "routing counters and per-backend offsets/lag",
    "GET /metrics": "the router's own Prometheus registry",
    "GET /pair/<left>/<right>": "routed read (replicas round-robin, staleness bounds)",
    "GET /alignment": "routed read (replicas round-robin, staleness bounds)",
    "GET /fleet": "fan GET /digest across all backends, compare at common offsets",
    "GET /provenance": "relayed to the primary (ETag/request-id semantics)",
    "GET *": "any other read, forwarded to the primary verbatim",
    "POST *": "any write, forwarded to the primary verbatim",
}

BACKEND_HEALTHY = REGISTRY.gauge(
    "repro_router_backend_healthy",
    "1 while the backend is in rotation, 0 while ejected.",
    labelnames=("backend",),
)
EJECTIONS = REGISTRY.counter(
    "repro_router_ejections_total",
    "Healthy-to-ejected transitions per backend (probe or forward failure).",
    labelnames=("backend",),
)
READS_ROUTED = REGISTRY.counter(
    "repro_router_reads_routed_total",
    "Reads successfully answered through the router.",
)
WRITES_FORWARDED = REGISTRY.counter(
    "repro_router_writes_forwarded_total",
    "Writes forwarded to the primary.",
)
REJECTED_STALE = REGISTRY.counter(
    "repro_router_rejected_stale_total",
    "Constrained reads rejected because no replica met the staleness bound.",
)
PRIMARY_FALLBACKS = REGISTRY.counter(
    "repro_router_primary_fallbacks_total",
    "Reads served by the primary because no replica was available.",
)


def compare_fleet_digests(
    primary_url: str,
    replica_urls: List[str],
    *,
    timeout: float,
    verify: bool = False,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Fetch ``GET /digest`` from the primary and every replica, and
    compare each replica against the primary *at the replica's own
    offset*: through the primary's offset-keyed checkpoint history
    (``/digest?offset=``) when the replica lags.  ``GET /fleet`` and
    ``repro doctor`` both report from this.

    Returns ``(primary, replicas)``.  ``primary`` is the primary's
    ``/digest`` payload, or ``{"error": ...}`` when it did not answer
    (``replicas`` is then empty).  Each replica entry holds ``url``,
    ``role`` and ``match``: true or false, or ``None`` with an
    ``error`` when the replica did not answer or the common offset
    aged out of the primary's history (unknown, not wrong).  An
    answering replica adds its ``wal_offset`` and ``digest``, and with
    ``verify`` (every node also recomputes its digest from scratch,
    ``?verify=1``) its ``verified`` flag.
    """
    suffix = "?verify=1" if verify else ""

    def fetch(url: str, query: str) -> Tuple[Optional[dict], str]:
        status, payload = client.get_json(url + "/digest" + query, headers=headers, timeout=timeout)
        if status == 200 and isinstance(payload, dict):
            return payload, ""
        return None, f"GET /digest failed (http {status})" if status else f"{url} unreachable"

    primary, error = fetch(primary_url, suffix)
    if primary is None:
        return {"error": error}, []
    replicas: List[Dict[str, object]] = []
    for url in replica_urls:
        node: Dict[str, object] = {"url": url, "role": "replica"}
        replicas.append(node)
        payload, error = fetch(url, suffix)
        if payload is None:
            node.update(match=None, error=error)
            continue
        node["wal_offset"] = payload["wal_offset"]
        node["digest"] = payload["digest"]
        if verify:
            node["verified"] = payload.get("verified")
        if payload["wal_offset"] == primary["wal_offset"]:
            reference = primary["digest"]
        else:
            at, _error = fetch(primary_url, f"?offset={payload['wal_offset']}")
            if at is None:
                node.update(match=None, error="common offset aged out of history")
                continue
            reference = at.get("at_offset", at)["digest"]
        node["match"] = payload["digest"] == reference
    return primary, replicas


class _Target:
    """One backend (primary or replica) and its cached probe state."""

    def __init__(self, url: str, is_primary: bool = False) -> None:
        self.url = url.rstrip("/")
        self.is_primary = is_primary
        self.healthy = True
        self.stats: Dict[str, object] = {}
        self.stats_at = 0.0
        self.served = 0
        self.failures = 0
        self.lock = threading.Lock()
        BACKEND_HEALTHY.set(1, backend=self.url)

    def _set_health(self, healthy: bool) -> None:
        """Record a health state (caller holds :attr:`lock`); gauge,
        ejection counter, and log line fire only on transitions."""
        if healthy and not self.healthy:
            BACKEND_HEALTHY.set(1, backend=self.url)
            _log.info("backend readmitted", backend=self.url)
        elif not healthy and self.healthy:
            BACKEND_HEALTHY.set(0, backend=self.url)
            EJECTIONS.inc(backend=self.url)
            _log.warning("backend ejected", backend=self.url, failures=self.failures)
        self.healthy = healthy

    def probe(self, timeout: float) -> bool:
        """Refresh the cached ``/stats``; flips :attr:`healthy`."""
        status, stats = client.get_json(self.url + "/stats", timeout=timeout)
        if status != 200 or stats is None:
            with self.lock:
                self.failures += 1
                self._set_health(False)
            return False
        with self.lock:
            self.stats = stats
            self.stats_at = time.monotonic()
            self._set_health(True)
        return True

    def wal_offset(self) -> int:
        with self.lock:
            return int(self.stats.get("wal_offset", -1))

    def lag_ms(self) -> Optional[float]:
        """Replication lag *as of now*: the replica's reported lag plus
        the age of the sample it came from.  ``None`` (no sample yet,
        or a replica that never verified the log head) means the
        staleness is unknown — the eligibility check treats it as
        unbounded."""
        with self.lock:
            if not self.stats:
                return None
            replication = self.stats.get("replication")
            if isinstance(replication, dict):
                reported = replication.get("lag_ms")
                if reported is None:
                    return None
                reported = float(reported)
            else:
                reported = 0.0  # the primary is its own head
            age_ms = (time.monotonic() - self.stats_at) * 1000.0
        return reported + age_ms

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            payload: Dict[str, object] = {
                "url": self.url,
                "healthy": self.healthy,
                "served": self.served,
                "failures": self.failures,
            }
            if self.stats:
                payload["wal_offset"] = self.stats.get("wal_offset")
                replication = self.stats.get("replication")
                if isinstance(replication, dict):
                    payload["lag_ms"] = replication.get("lag_ms")
                # Auditor surface (PR 10), straight from the backend's
                # cached /stats: the fleet view of who last self-checked.
                audit = self.stats.get("audit")
                if isinstance(audit, dict):
                    payload["audit"] = {
                        key: audit.get(key)
                        for key in (
                            "last_audit_ts",
                            "checks",
                            "mismatches",
                            "digest",
                            "digest_offset",
                        )
                        if key in audit
                    }
                elif "digest" in self.stats:
                    payload["digest"] = self.stats.get("digest")
                    payload["digest_offset"] = self.stats.get("digest_offset")
        return payload


class ReadRouter:
    """Routing state shared by the handler threads (module docstring)."""

    def __init__(
        self,
        primary_url: str,
        replica_urls: List[str],
        check_interval: float = 1.0,
        stats_ttl: float = 0.25,
        retry_after: float = 1.0,
        request_timeout: float = 120.0,
        probe_timeout: float = 5.0,
        refresh_timeout: float = 1.0,
    ) -> None:
        self.primary = _Target(primary_url, is_primary=True)
        self.replicas = [_Target(url) for url in replica_urls]
        self.check_interval = check_interval
        self.stats_ttl = stats_ttl
        self.retry_after = retry_after
        self.request_timeout = request_timeout
        self.probe_timeout = probe_timeout
        self.refresh_timeout = min(refresh_timeout, probe_timeout)
        self.reads_routed = 0
        self.writes_forwarded = 0
        self.rejected_stale = 0
        self.primary_fallbacks = 0
        self._rr = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- health ---------------------------------------------------------

    def start(self) -> "ReadRouter":
        self.probe_all()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._health_loop, name="repro-router-health", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def probe_all(self) -> None:
        for target in (self.primary, *self.replicas):
            target.probe(self.probe_timeout)

    def _health_loop(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(self.check_interval)
            if self._stop.is_set():
                return
            self.probe_all()

    # -- candidate selection -------------------------------------------

    def _satisfies(
        self, target: _Target, min_offset: Optional[int], max_lag_ms: Optional[float]
    ) -> bool:
        if min_offset is not None and target.wal_offset() < min_offset:
            return False
        if max_lag_ms is not None:
            lag = target.lag_ms()
            if lag is None or lag > max_lag_ms:
                return False
        return True

    def _eligible(
        self,
        target: _Target,
        min_offset: Optional[int],
        max_lag_ms: Optional[float],
        refresh: bool,
    ) -> bool:
        if not target.healthy:
            return False
        if min_offset is None and max_lag_ms is None:
            return True
        if self._satisfies(target, min_offset, max_lag_ms):
            return True
        # One on-demand refresh per target, with a short timeout: a
        # constrained read exists to answer quickly and honestly, so a
        # wedged replica must cost it about a second, not the full
        # background probe budget twice over.
        stale_sample = time.monotonic() - target.stats_at > self.stats_ttl
        if refresh and stale_sample and target.probe(self.refresh_timeout):
            return self._satisfies(target, min_offset, max_lag_ms)
        return False

    def pick_read_targets(
        self, min_offset: Optional[int], max_lag_ms: Optional[float]
    ) -> List[_Target]:
        """Replicas to try for one read, in round-robin order.

        Unconstrained reads with zero healthy replicas fall back to the
        primary; constrained reads never do — the staleness contract is
        answered honestly with a 503 by the caller instead.
        """
        constrained = min_offset is not None or max_lag_ms is not None
        candidates = [
            replica
            for replica in self.replicas
            if self._eligible(replica, min_offset, max_lag_ms, refresh=constrained)
        ]
        if candidates:
            with self._lock:
                start = self._rr
                self._rr += 1
            return candidates[start % len(candidates) :] + candidates[: start % len(candidates)]
        if not constrained and self.primary.healthy:
            # Zero healthy replicas: degrade to single-node service.
            # (The handler counts primary_fallbacks when the forward
            # actually succeeds, and appends the primary as the last
            # resort for replicas that died since the last probe.)
            return [self.primary]
        return []

    def stats_payload(self) -> Dict[str, object]:
        return {
            "role": "router",
            "reads_routed": self.reads_routed,
            "writes_forwarded": self.writes_forwarded,
            "rejected_stale": self.rejected_stale,
            "primary_fallbacks": self.primary_fallbacks,
            "primary": self.primary.snapshot(),
            "replicas": [replica.snapshot() for replica in self.replicas],
        }

    def health_payload(self) -> Dict[str, object]:
        healthy_replicas = sum(1 for replica in self.replicas if replica.healthy)
        status = "ok" if (self.primary.healthy or healthy_replicas) else "degraded"
        return {
            "status": status,
            "role": "router",
            "primary_healthy": self.primary.healthy,
            "replicas": len(self.replicas),
            "replicas_healthy": healthy_replicas,
        }


class RouterRequestHandler(ObservedHandlerMixin, BaseHTTPRequestHandler):
    """The router's routes.  Connection settings (socket deadline,
    body limit), the send path and the body reader come from
    :class:`~repro.obs.http.ObservedHandlerMixin`, as on the primary
    and replicas."""

    server_version = "repro-route/1.0"
    #: Every answer closes its connection.  Over keep-alive each later
    #: response would wait out the send path's delayed-ACK stall
    #: (``repro.obs.http``); keep-alive comes with its fix.
    protocol_version = "HTTP/1.0"

    @property
    def router(self) -> ReadRouter:
        return self.server.router  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------

    def _unavailable(self, payload: dict, status: int) -> None:
        """An error the client should retry after the router's back-off."""
        self.send_json(payload, status, {"Retry-After": f"{self.router.retry_after:g}"})

    def _relay(self, status: int, headers, body: bytes, target_url: str) -> None:
        if status == 304:
            # Backend revalidation hit relayed through the router: the
            # WAL-offset ETag validates fleet-wide, so this counts as a
            # cache hit on the router surface too.
            CACHE_HITS.inc(route=route_label(self.path))
        # X-Wal-Offset / X-State-Version make forwarded /wal and
        # /snapshot/latest responses usable by a replica pointed at the
        # router instead of the primary (chained replication); ETag /
        # Cache-Control carry the read-caching contract through.
        relayed = {
            name: headers[name]
            for name in (
                "Retry-After",
                "X-Wal-Offset",
                "X-State-Version",
                "ETag",
                "Cache-Control",
            )
            if name in headers
        }
        relayed["X-Served-By"] = target_url
        self.send_bytes(body, headers.get("Content-Type"), status, relayed)

    def _forward(
        self, target: _Target, method: str, path_query: str, body: Optional[bytes]
    ) -> Optional[Tuple[int, object, bytes]]:
        """One proxied request; None means the target is unreachable."""
        headers = {"Content-Type": "application/json"} if body else {}
        # Conditional reads validate end-to-end: the backend's 304 is
        # an answer like any other status and is relayed.
        if_none_match = self.headers.get("If-None-Match")
        if if_none_match is not None:
            headers["If-None-Match"] = if_none_match
        # Trace propagation: the backend sees the same request id the
        # router echoes to the client (generated here when the client
        # sent none), so one id lines up all three roles' access logs —
        # and a forwarded POST /delta's provenance trace.
        if self.request_id is not None:
            headers["X-Request-Id"] = self.request_id
        try:
            # Every HTTP status (400/404/429/503…) is a *backend answer*,
            # not a router failure: it is relayed untouched.
            return client.request(
                target.url + path_query, method, body, headers, self.router.request_timeout
            )
        except OSError:
            with target.lock:
                target.failures += 1
                target._set_health(False)
            return None

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts == ["healthz"]:
            self.send_json(self.router.health_payload())
            return
        if parts == ["stats"]:
            self.send_json(self.router.stats_payload())
            return
        if parts == ["metrics"]:
            # The router's own process registry — not proxied: backend
            # health/ejections and the router's request series live here.
            self.serve_metrics()
            return
        if parts and parts[0] in ("pair", "alignment"):
            self._route_read(url)
            return
        if parts == ["fleet"]:
            self._route_fleet()
            return
        if parts == ["provenance"]:
            # Delta timelines live on the primary's ring; relayed with
            # the standard ETag/request-id semantics.  (Per-replica
            # timelines are still read off each node directly — that is
            # what `repro trace --replicas` does.)
            self._forward_primary()
            return
        # Everything else (e.g. /wal for a chained replica) is the
        # primary's business.
        self._forward_primary()

    def _forward_primary(self) -> None:
        result = self._forward(self.router.primary, "GET", self.path, None)
        if result is None:
            self._unavailable({"error": "primary unreachable"}, 502)
            return
        self._relay(*result, self.router.primary.url)

    def _route_fleet(self) -> None:
        """``GET /fleet`` — the router-side half of `repro doctor`
        (:func:`compare_fleet_digests`), plus how far each replica is
        ``behind`` the primary."""
        router = self.router
        primary, replicas = compare_fleet_digests(
            router.primary.url,
            [replica.url for replica in router.replicas],
            timeout=router.probe_timeout,
            headers={"X-Request-Id": self.request_id} if self.request_id else None,
        )
        if "error" in primary:
            self._unavailable(
                {
                    "role": "router",
                    "error": "primary digest unavailable",
                    "detail": primary,
                },
                502,
            )
            return
        for node in replicas:
            if "wal_offset" in node:
                node["behind"] = primary["wal_offset"] - node["wal_offset"]
        nodes = [
            {
                "url": router.primary.url,
                "role": "primary",
                "wal_offset": primary["wal_offset"],
                "digest": primary["digest"],
                "match": True,
            },
            *replicas,
        ]
        self.send_json(
            {
                "role": "router",
                "wal_offset": primary["wal_offset"],
                "digest": primary["digest"],
                "consistent": all(node["match"] is not False for node in replicas),
                "divergent": [node["url"] for node in replicas if node["match"] is False],
                "nodes": nodes,
            }
        )

    def _route_read(self, url) -> None:
        router = self.router
        query = parse_qs(url.query)
        try:
            min_offset = int(query["min_offset"][0]) if "min_offset" in query else None
            max_lag_ms = (
                float(query["max_lag_ms"][0]) if "max_lag_ms" in query else None
            )
        except ValueError:
            self.send_json(
                {"error": "min_offset must be an integer, max_lag_ms a number"},
                status=400,
            )
            return
        # NaN would fail every `lag > max_lag_ms` comparison and turn a
        # "bounded staleness" read into an unbounded one that *looks*
        # constrained; negative bounds are equally meaningless.  Reject
        # instead of silently serving arbitrarily stale data.
        if max_lag_ms is not None and (
            math.isnan(max_lag_ms) or math.isinf(max_lag_ms) or max_lag_ms < 0
        ):
            self.send_json(
                {"error": "max_lag_ms must be a finite non-negative number"},
                status=400,
            )
            return
        if min_offset is not None and min_offset < 0:
            self.send_json({"error": "min_offset must be a non-negative integer"}, status=400)
            return
        constrained = min_offset is not None or max_lag_ms is not None
        targets = router.pick_read_targets(min_offset, max_lag_ms)
        if not constrained and router.primary not in targets:
            # Replicas that die between health probes are discovered at
            # forward time; an unconstrained read must still degrade to
            # the primary rather than 503 while it is healthy.
            targets.append(router.primary)
        for target in targets:
            result = self._forward(target, "GET", self.path, None)
            if result is None:
                continue  # ejected; try the next candidate
            with router._lock:
                router.reads_routed += 1
                if target.is_primary:
                    router.primary_fallbacks += 1
            READS_ROUTED.inc()
            if target.is_primary:
                PRIMARY_FALLBACKS.inc()
            with target.lock:
                target.served += 1
            self._relay(*result, target.url)
            return
        if constrained:
            with router._lock:
                router.rejected_stale += 1
            REJECTED_STALE.inc()
            self._unavailable(
                {
                    "error": "no replica satisfies the staleness bound",
                    "min_offset": min_offset,
                    "max_lag_ms": max_lag_ms,
                },
                503,
            )
            return
        self._unavailable({"error": "no healthy backend for reads"}, 503)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        router = self.router
        body = self.read_body(self.MAX_BODY)
        if body is None:
            return
        result = self._forward(router.primary, "POST", self.path, body or None)
        if result is None:
            self._unavailable({"error": "primary unreachable; write not applied"}, 502)
            return
        with router._lock:
            router.writes_forwarded += 1
        WRITES_FORWARDED.inc()
        self._relay(*result, router.primary.url)


def build_router_server(
    router: ReadRouter,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    handler_timeout: Optional[float] = 30.0,
) -> ThreadingHTTPServer:
    """Create (but do not start) the router's HTTP server.

    ``handler_timeout`` bounds each handler thread's socket waits
    (``None`` disables); a client that stalls mid-upload gets ``408``
    instead of occupying a thread indefinitely.
    """
    server = ThreadingHTTPServer((host, port), RouterRequestHandler)
    server.router = router  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.handler_timeout = handler_timeout  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
