"""The one HTTP handler base of every role: wire, access log, metrics.

:class:`ObservedHandlerMixin` is mixed in by the primary/replica
handler and by the read router, so how a response goes on the wire is
decided here, once:

* **connection settings** — HTTP/1.1 keep-alive (the router
  overrides it with HTTP/1.0), a per-server socket deadline
  (``handler_timeout``), the body limit and the ``verbose`` gate of
  the stdlib's own log lines;
* **one send path** — :meth:`~ObservedHandlerMixin.send_bytes` (and
  :meth:`~ObservedHandlerMixin.send_json` on top) frames a body with
  ``Content-Length``; a 304 goes through it with no body;
  :meth:`~ObservedHandlerMixin.send_chunked` streams a chunked body;
* **one body reader** — :meth:`~ObservedHandlerMixin.read_body` parses
  and bounds ``Content-Length``; a refused, stalled or short upload is
  answered and closes the connection.

Both send methods bill the body bytes they write; ``handle_one_request``
then emits one access-log line (method, path, status, bytes, duration,
request id, plus ``source``/``seq`` query params when present — the
idempotent-delta ingest identity) and feeds the request metrics.
``parse_request`` stamps the start time *after* the request line is
read, so keep-alive idle time between requests is not billed to the
next request.

``parse_request`` also resolves the request's trace context (see
:mod:`repro.obs.provenance`): the client's ``X-Request-Id`` or W3C
``traceparent`` trace-id, else a generated id.  ``send_response``
echoes it as ``X-Request-Id`` on every response from every role (the
stdlib's ``send_error`` included), and the access log carries it, so
one id follows a request through router, primary, and replicas.

The access log and the ``repro_requests_total`` /
``repro_request_duration_seconds`` / ``repro_response_bytes_total``
series therefore have one definition.  Paths are normalized to a fixed
route set (:func:`route_label`) before becoming label values —
`/pair/<l>/<r>` has unbounded raw paths but exactly one
``route="/pair"`` series — keeping metric cardinality bounded no
matter what clients request.

``serve_metrics`` renders the process :data:`~repro.obs.metrics.REGISTRY`
as the Prometheus text format; each role's handler routes
``GET /metrics`` to it.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from typing import Iterable, Mapping, Optional

from .logging import get_event_logger, get_logger
from .metrics import REGISTRY
from .provenance import extract_trace_id, new_trace_id

REQUESTS_TOTAL = REGISTRY.counter(
    "repro_requests_total",
    "HTTP requests served, by method, normalized route, and status.",
    labelnames=("method", "route", "status"),
)
REQUEST_SECONDS = REGISTRY.histogram(
    "repro_request_duration_seconds",
    "HTTP request service time (request line read to response flushed).",
    labelnames=("method", "route"),
)
RESPONSE_BYTES = REGISTRY.counter(
    "repro_response_bytes_total",
    "Response body bytes written by the send path (chunked bodies included), by route.",
    labelnames=("method", "route"),
)

#: First-segment prefixes that map to themselves; anything else is
#: ``other`` so hostile or typo'd paths cannot mint new series.
_KNOWN_ROUTES = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/wal",
        "/snapshot",
        "/pair",
        "/alignment",
        "/delta",
        "/provenance",
        "/watch",
        "/subscribe",
        "/unsubscribe",
        "/subscriptions",
    }
)

_access_log = get_logger("repro.access")
_http_log = get_event_logger("repro.http")


def route_label(path: str) -> str:
    """Normalize a request path to a bounded route label."""
    head = path.split("?", 1)[0]
    first = "/" + head.split("/", 2)[1] if head.startswith("/") and len(head) > 1 else head
    return first if first in _KNOWN_ROUTES else "other"


class ObservedHandlerMixin:
    """Wire handling, access log and request metrics for the
    ``BaseHTTPRequestHandler`` of every role (module docstring)."""

    #: Keep-alive, and chunked transfer-encoding for the streamed dump.
    protocol_version = "HTTP/1.1"
    #: Socket timeout per request (seconds).  Handler threads are a
    #: finite resource: a client that sends ``Content-Length: N`` and
    #: then stalls must not pin one forever on ``rfile.read``.  The
    #: server's ``handler_timeout`` overrides it (``None`` disables).
    timeout = 30.0
    #: Upper bound on accepted request bodies (64 MiB).
    MAX_BODY = 64 * 1024 * 1024
    # The writer is the stdlib's unbuffered one and Nagle's algorithm
    # stays on, so headers and body leave in two socket writes and a
    # keep-alive client waits out the delayed ACK (~40 ms) for a body.
    # ROADMAP item 1 holds the fix (TCP_NODELAY, one write).

    _obs_started: Optional[float] = None
    _obs_status: Optional[int] = None
    _obs_bytes = 0
    _body_read = False
    #: Request id for the in-flight request: the client's
    #: ``X-Request-Id`` (or ``traceparent`` trace-id), else generated.
    #: Echoed on every response and written to the access log; ``POST
    #: /delta`` threads it into the delta's provenance as the trace id.
    request_id: Optional[str] = None
    request_id_generated: bool = True

    def setup(self) -> None:  # noqa: D102
        self.timeout = getattr(self.server, "handler_timeout", self.timeout)
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # BaseHTTPRequestHandler's own logging (errors, send_error);
        # the structured access log comes from handle_one_request.
        if getattr(self.server, "verbose", False):
            _http_log.debug("http", detail=format % args)

    def parse_request(self) -> bool:  # noqa: D102 - hook, see module doc
        self._obs_started = time.perf_counter()
        self._obs_status = None
        self._obs_bytes = 0
        self._body_read = False
        self.request_id = None
        self.request_id_generated = True
        ok = super().parse_request()
        if ok:
            try:
                self.request_id, generated = extract_trace_id(self.headers)
                self.request_id_generated = generated
            except Exception:  # noqa: BLE001 - ids must never kill a request
                self.request_id = new_trace_id()
        return ok

    def send_response(self, code, message=None):  # noqa: D102
        self._obs_status = int(code)
        result = super().send_response(code, message)
        # Echo the request id on *every* response — success, error
        # (send_error routes through here), or 304 — so clients and the
        # router can correlate.  Handlers must not set it themselves.
        if self.request_id is not None:
            super().send_header("X-Request-Id", self.request_id)
        return result

    # -- the send path ---------------------------------------------------

    def _send_head(
        self, status: int, content_type: Optional[str], headers: Optional[Mapping[str, str]]
    ) -> None:
        self.send_response(status)
        if content_type is not None:
            self.send_header("Content-Type", content_type)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if not self._body_read and self._declared_length() != 0:
            # The request body was never read: its bytes would be
            # parsed as the next request on this connection.
            self.send_header("Connection", "close")

    def send_bytes(
        self,
        body: bytes,
        content_type: Optional[str] = None,
        status: int = 200,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Send one response with a ``Content-Length``-framed body.  A
        304 carries no body and so no ``Content-Length``."""
        self._send_head(status, content_type, headers)
        if status != 304:
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)
        self._obs_bytes += len(body)

    def send_json(
        self, payload: object, status: int = 200, headers: Optional[Mapping[str, str]] = None
    ) -> None:
        """:meth:`send_bytes` of ``payload`` as JSON."""
        self.send_bytes(json.dumps(payload).encode("utf-8"), "application/json", status, headers)

    def send_chunked(
        self,
        chunks: Iterable[bytes],
        content_type: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Send a 200 whose body is ``chunks`` in chunked transfer
        encoding: the full payload never exists in memory."""
        self._send_head(200, content_type, headers)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for chunk in chunks:
            if chunk:
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                self._obs_bytes += len(chunk)
        self.wfile.write(b"0\r\n\r\n")

    def serve_metrics(self) -> None:
        """Respond to ``GET /metrics`` with the process registry."""
        self.send_bytes(REGISTRY.render().encode("utf-8"), REGISTRY.CONTENT_TYPE)

    # -- the body reader -------------------------------------------------

    def _declared_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent, -1 when
        malformed)."""
        try:
            return int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return -1

    def read_body(self, max_bytes: int) -> Optional[bytes]:
        """The declared request body (``b""`` when none), or ``None``
        after answering the client: 400 for a malformed or negative
        ``Content-Length`` or one above ``max_bytes``, 408 when the
        sender stalls past the socket timeout, 400 for a short body.
        Each refusal closes the connection: the request framing is
        broken, so nothing further on this socket can be trusted."""
        length = self._declared_length()
        if length < 0:
            self.send_json({"error": "bad Content-Length"}, status=400)
            return None
        if length > max_bytes:
            self.send_json({"error": "body too large"}, status=400)
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.send_json({"error": "timed out reading request body"}, status=408)
            return None
        if len(body) < length:
            self.send_json(
                {"error": f"short body: got {len(body)} of {length} declared bytes"},
                status=400,
            )
            return None
        self._body_read = True
        return body

    # -- access log and request metrics ----------------------------------

    def handle_one_request(self) -> None:  # noqa: D102
        super().handle_one_request()
        started = self._obs_started
        status = self._obs_status
        if started is None or status is None or not getattr(self, "command", None):
            return  # connection closed / unparseable request line
        self._obs_started = None
        duration = time.perf_counter() - started
        path = getattr(self, "path", "") or ""
        route = route_label(path)
        method = self.command
        body_bytes = self._obs_bytes
        REQUESTS_TOTAL.inc(method=method, route=route, status=status)
        REQUEST_SECONDS.observe(duration, method=method, route=route)
        if body_bytes:
            RESPONSE_BYTES.inc(body_bytes, method=method, route=route)
        fields = {
            "method": method,
            "path": path.split("?", 1)[0],
            "status": status,
            "bytes": body_bytes,
            "duration_ms": round(duration * 1e3, 3),
        }
        if self.request_id is not None:
            fields["request_id"] = self.request_id
        if "?" in path:
            query = urllib.parse.parse_qs(path.split("?", 1)[1])
            for key in ("source", "seq"):
                if key in query:
                    fields[key] = query[key][0]
        _access_log.info("request", extra=fields)
