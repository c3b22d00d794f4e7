"""The wire behaviour every role shares through the one handler base.

Primary, replica and router all answer through
:class:`repro.obs.http.ObservedHandlerMixin`, so the checks here run
against them over real sockets:

* primary and replica speak HTTP/1.1 and keep the connection open; the
  router speaks HTTP/1.0 and closes it;
* a 304 leaves in one write with no body;
* the body reader answers an oversized ``Content-Length`` with one
  message, and a request whose body was never read closes the
  connection instead of parsing the body as the next request;
* response bytes are billed from what the send path wrote, chunked
  bodies included.

Nothing here asserts on timing: write counts are deterministic.
"""

from __future__ import annotations

import http.client
import json
import socket
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro import ParisConfig
from repro.datasets.incremental import family_pair
from repro.obs.http import ObservedHandlerMixin, RESPONSE_BYTES
from repro.service import AlignmentService, Delta
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import build_server
from repro.testing import serve_in_thread, serve_primary, wait_until

#: One small read per role: the engine roles' pair read, the router's
#: own health payload (it needs no backend to answer).
SMALL_READ = {"primary": "/pair/p0a/q0a", "replica": "/pair/p0a/q0a", "router": "/healthz"}


class CountingSocket(socket.socket):
    """An accepted connection that records the size of every write."""

    def send(self, data, *args):
        self.writes.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.writes.append(len(data))
        return super().sendall(data, *args)


@contextmanager
def counting_writes(server) -> Iterator[list]:
    """Wrap each connection ``server`` accepts inside the block in a
    :class:`CountingSocket`; yields the (growing) list of them."""
    accepted = []
    accept = server.get_request

    def get_request():
        conn, address = accept()
        sock = CountingSocket(fileno=conn.detach())
        sock.writes = []
        accepted.append(sock)
        return sock, address

    server.get_request = get_request
    try:
        yield accepted
    finally:
        del server.get_request


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    left, right = family_pair(3)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    state_dir = tmp_path_factory.mktemp("wire") / "state"
    service.snapshot(state_dir)
    with serve_primary(service, state_dir, snapshot_every=0) as primary:
        replica = ReplicaNode(state_dir, batch=8)
        replica_server = build_server(None, "127.0.0.1", 0, replica=replica)
        # An unreachable primary and no replicas: the router's own
        # routes and its body reader need no backend.
        router_server = build_router_server(ReadRouter("http://127.0.0.1:9", [], retry_after=0.1))
        with serve_in_thread(replica_server), serve_in_thread(router_server):
            yield {"primary": primary, "replica": replica_server, "router": router_server}
        replica.stop()
        replica_server.subs.close()
    primary.subs.close()


def connect(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def exchange(conn, method, path, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response, response.read()


@pytest.mark.parametrize(
    ("role", "version", "keep_alive"),
    [("primary", 11, True), ("replica", 11, True), ("router", 10, False)],
)
def test_protocol_version_and_keep_alive(fleet, role, version, keep_alive):
    conn = connect(fleet[role])
    try:
        response, _body = exchange(conn, "GET", SMALL_READ[role])
        assert response.status == 200
        assert response.version == version
        assert response.will_close is not keep_alive
        assert len(response.headers.get_all("X-Request-Id")) == 1
    finally:
        conn.close()


@pytest.mark.parametrize("role", ("primary", "replica"))
def test_not_modified_is_one_bodyless_write(fleet, role):
    with counting_writes(fleet[role]) as accepted:
        conn = connect(fleet[role])
        try:
            response, _body = exchange(conn, "GET", "/pair/p0a/q0a")
            etag = response.headers["ETag"]
            writes_before = len(accepted[0].writes)
            response, body = exchange(
                conn, "GET", "/pair/p0a/q0a", headers={"If-None-Match": etag}
            )
            assert response.status == 304 and body == b""
            assert response.headers["ETag"] == etag
            assert len(response.headers.get_all("X-Request-Id")) == 1
            # RFC 9110: a 304 carries no Content-Length unless it names
            # the 200's length; the send path sends none.
            assert response.headers.get("Content-Length") is None
            assert len(accepted[0].writes) == writes_before + 1
        finally:
            conn.close()


@pytest.mark.parametrize(
    ("role", "path", "limit"),
    [
        ("primary", "/delta", ObservedHandlerMixin.MAX_BODY),
        ("primary", "/subscribe", 1024 * 1024),
        ("router", "/delta", ObservedHandlerMixin.MAX_BODY),
    ],
)
def test_oversized_body_has_one_message_and_closes(fleet, role, path, limit):
    conn = connect(fleet[role])
    try:
        # Declare one byte too many and send nothing: the refusal must
        # not wait for (or read) the body.
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(limit + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read()) == {"error": "body too large"}
        assert response.will_close
    finally:
        conn.close()


def test_unread_body_closes_the_connection(fleet):
    # A replica refuses writes before reading the body; the body's
    # bytes must not be parsed as a next request on this connection.
    conn = connect(fleet["replica"])
    try:
        response, _body = exchange(conn, "POST", "/delta", body=b'{"add1": []}')
        assert response.status == 403
        assert response.will_close
    finally:
        conn.close()


def test_refused_query_after_a_read_body_keeps_the_connection(fleet):
    conn = connect(fleet["primary"])
    try:
        response, body = exchange(conn, "POST", "/delta?seq=x", body=b'{"add1": []}')
        assert response.status == 400
        assert json.loads(body) == {"error": "seq must be an integer"}
        assert not response.will_close
        response, _body = exchange(conn, "GET", "/healthz")
        assert response.status == 200
    finally:
        conn.close()


def test_expect_100_continue_is_answered_before_the_body(fleet):
    host, port = fleet["primary"].server_address[:2]
    body = json.dumps(Delta().to_json()).encode("utf-8")
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            (
                "POST /delta HTTP/1.1\r\n"
                f"Host: {host}\r\nExpect: 100-continue\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
        )
        with sock.makefile("rb") as reader:
            assert reader.readline().startswith(b"HTTP/1.1 100")
            while reader.readline() not in (b"\r\n", b""):
                pass
            sock.sendall(body)
            assert reader.readline().startswith(b"HTTP/1.1 200")


@pytest.mark.parametrize("role", ("primary", "replica"))
def test_chunked_dump_bills_the_bytes_written(fleet, role):
    before = RESPONSE_BYTES.value(method="GET", route="/alignment")
    conn = connect(fleet[role])
    try:
        response, body = exchange(conn, "GET", "/alignment")
        assert response.headers["Transfer-Encoding"] == "chunked"
        assert json.loads(body)["pairs"]
    finally:
        conn.close()
    # The metric is fed after the response flushes: wait for it.
    wait_until(lambda: RESPONSE_BYTES.value(method="GET", route="/alignment") > before, 30)
    assert RESPONSE_BYTES.value(method="GET", route="/alignment") - before == len(body)
