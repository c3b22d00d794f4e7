"""Service hardening: stalled clients, bogus staleness params, wedged stop.

Three production failure modes fixed together:

* a client that declares ``Content-Length: N`` and then stalls used to
  pin a handler thread forever on ``rfile.read`` — now the socket
  deadline answers ``408`` (stall) or ``400`` (short body) in bounded
  wall-clock time, on the primary and the router alike;
* ``?max_lag_ms=nan`` used to *silently disable* bounded staleness
  (every NaN comparison in ``_satisfies`` is False) — now NaN/inf/
  negative bounds are rejected with ``400``;
* ``ReplicaNode.stop()`` used to join its tail thread with a timeout
  and never check ``is_alive()`` — a wedged follower is now logged and
  latched into ``stats()``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import ParisConfig
from repro.client import get_json, post_json, request
from repro.datasets.incremental import family_pair
from repro.service import AlignmentService
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import build_server
from repro.testing import (
    free_port,
    serve_in_thread,
    serve_primary,
    spawn,
    stop,
    url_of,
    wait_ready,
)


def raw_request_status(address, payload: bytes, stall: bool) -> tuple:
    """Send a POST whose body is shorter than its Content-Length, then
    either stall (keep the socket open) or half-close.  Returns the
    status line and how long the server took to answer."""
    host, port = address[:2]
    declared = len(payload) + 64  # always lie: promise more than sent
    head = (
        f"POST /delta HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {declared}\r\n\r\n"
    ).encode("ascii")
    started = time.monotonic()
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(head + payload)
        if not stall:
            sock.shutdown(socket.SHUT_WR)
        sock.settimeout(30)
        status = sock.makefile("rb").readline().decode("ascii", "replace")
    return status, time.monotonic() - started


class TestStalledClients:
    @pytest.fixture()
    def server(self, tmp_path):
        left, right = family_pair(2)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        with serve_primary(service, tmp_path, snapshot_every=0, handler_timeout=1.0) as server:
            yield server

    def test_stalled_body_answers_408_in_bounded_time(self, server):
        status, elapsed = raw_request_status(server.server_address, b'{"add1": [', stall=True)
        assert " 408 " in status
        # One handler_timeout (1s) plus scheduling slack — not forever,
        # and nowhere near a default-socket-timeout scale.
        assert elapsed < 15

    def test_half_closed_body_answers_400(self, server):
        status, elapsed = raw_request_status(server.server_address, b'{"add1": [', stall=False)
        assert " 400 " in status
        assert elapsed < 15

    def test_wellformed_posts_still_work(self, server):
        from repro.service import Delta

        # The timeout machinery must not break honest uploads: the full
        # body is read and the delta applies (a no-op report).
        status, report = post_json(url_of(server, "/delta"), Delta().to_json())
        assert status == 200
        assert report["applied_add"] == 0 and report["applied_remove"] == 0


class TestRouterHardening:
    @pytest.fixture()
    def router_server(self):
        # Validation runs before any backend is consulted, so an
        # unreachable primary and zero replicas are enough here.
        router = ReadRouter("http://127.0.0.1:9", [], retry_after=0.1)
        server = build_router_server(router, handler_timeout=1.0)
        with serve_in_thread(server):
            yield server

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "-5", "-0.5"])
    def test_bogus_max_lag_ms_rejected(self, router_server, value):
        status, payload = get_json(url_of(router_server, f"/pair/a/b?max_lag_ms={value}"))
        assert status == 400
        assert "max_lag_ms" in payload["error"]

    def test_negative_min_offset_rejected(self, router_server):
        status, payload = get_json(url_of(router_server, "/pair/a/b?min_offset=-1"))
        assert status == 400
        assert "min_offset" in payload["error"]

    def test_valid_bounds_still_accepted(self, router_server):
        # No replica can satisfy them here; the answer must be the
        # honest 503, not a validation 400.
        status, _payload = get_json(
            url_of(router_server, "/pair/a/b?min_offset=0&max_lag_ms=5000")
        )
        assert status == 503

    def test_stalled_write_answers_408(self, router_server):
        status, elapsed = raw_request_status(
            router_server.server_address, b'{"add1": [', stall=True
        )
        assert " 408 " in status
        assert elapsed < 15

    def test_half_closed_write_answers_400(self, router_server):
        status, elapsed = raw_request_status(
            router_server.server_address, b'{"add1": [', stall=False
        )
        assert " 400 " in status
        assert elapsed < 15


class TestWedgedFollowerStop:
    def test_stop_surfaces_wedged_tail_thread(self, tmp_path):
        left, right = family_pair(2)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        replica = ReplicaNode(state_dir, batch=4)
        release = threading.Event()
        replica.poll_once = lambda: (release.wait(60), 0)[1]  # wedge the loop
        replica.start()
        time.sleep(0.05)  # let the tail thread enter the blocked poll

        replica.stop(timeout=0.2)
        assert replica.wedged
        assert replica.stats()["wedged"] is True
        # A replica server surfaces the flag to operators via /stats.
        server = build_server(None, "127.0.0.1", 0, replica=replica)
        with serve_in_thread(server) as url:
            status, stats = get_json(url + "/stats")
            assert status == 200 and stats["replication"]["wedged"] is True

        # Once the blockage clears, a later stop() joins and unlatches.
        release.set()
        replica.stop(timeout=30)
        assert not replica.wedged
        assert replica.stats()["wedged"] is False


class TestClientStatusRule:
    """Every HTTP status is an answer; only an unreachable peer raises."""

    @pytest.fixture()
    def url(self):
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                status = int(self.path.strip("/"))
                body = b"" if status == 304 else json.dumps({"status": status}).encode()
                self.send_response(status)
                self.send_header("X-Probe", str(status))
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with serve_in_thread(ThreadingHTTPServer(("127.0.0.1", 0), Handler)) as url:
            yield url

    @pytest.mark.parametrize("code", [304, 404, 410, 503])
    def test_every_status_comes_back_with_headers_and_body(self, url, code):
        status, headers, body = request(f"{url}/{code}")
        assert status == code and headers["X-Probe"] == str(code)
        assert body == (b"" if code == 304 else json.dumps({"status": code}).encode())

    def test_closed_port_raises_oserror(self):
        url = f"http://127.0.0.1:{free_port()}/"
        with pytest.raises(OSError):
            request(url, timeout=5)
        assert get_json(url, timeout=5) == (0, None)


class TestFleetHarness:
    def test_wait_ready_fails_fast_when_the_node_dies_at_boot(self, tmp_path):
        missing = str(tmp_path / "missing.nt")
        started = time.monotonic()
        node = spawn(
            "serve", missing, missing, "--state-dir", str(tmp_path / "state"),
            stderr=subprocess.DEVNULL,
        )
        try:
            with pytest.raises(RuntimeError, match=r"exited with code [1-9]"):
                wait_ready(node)
        finally:
            stop(node)
        assert time.monotonic() - started < 30
