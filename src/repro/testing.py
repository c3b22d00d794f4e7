"""Test fleet: boot, wait for, scrape and stop ``repro`` nodes.

One harness for the tests and the service demos under ``examples/``.
Runtime modules never import it.

Subprocess nodes::

    with Fleet() as fleet:
        primary = fleet.spawn("serve", "left.nt", "right.nt", "--state-dir", "state")
        health = wait_ready(primary)
        ...
        assert stop(primary) == 0

In-process servers::

    with serve_primary(service, state_dir) as server:
        payload, headers = fetch_json(url_of(server, "/stats"))
    with serve_in_thread(build_server(None, "127.0.0.1", 0, replica=node)) as url:
        payload, headers = fetch_json(url + "/stats")

Every spawned node listens on a port :func:`free_port` picked, so no
run needs a fixed port or a port setting.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .client import request
from .datasets.incremental import family_addition
from .service.delta import Delta
from .service.server import build_server
from .service.stream import StreamStack


def free_port() -> int:
    """A TCP port nothing on 127.0.0.1 listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Node(NamedTuple):
    """One ``python -m repro`` child process and its base URL."""

    url: str
    proc: subprocess.Popen


def spawn(*argv: str, stderr: Any = None) -> Node:
    """Run ``python -m repro <argv> --port <free port>``."""
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, "--port", str(port)], stderr=stderr
    )
    return Node(f"http://127.0.0.1:{port}", proc)


def wait_until(predicate: Callable[[], Any], timeout: float = 60.0) -> Any:
    """Poll ``predicate`` until it returns a truthy value; return it."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        assert time.monotonic() < deadline, f"condition not met within {timeout:.0f}s"
        time.sleep(0.05)


def wait_ready(node: Node, timeout: float = 120.0) -> dict:
    """Poll ``GET /healthz`` until it answers 2xx; return its payload.

    Raises at once, naming the exit code, if the child has exited."""

    def ready():
        code = node.proc.poll()
        if code is not None:
            raise RuntimeError(f"{node.url}: node exited with code {code} before ready")
        return _answer(node.url + "/healthz")

    return wait_until(ready, timeout)[0]


def stop(node: Node, timeout: float = 60.0) -> int:
    """SIGTERM ``node`` and return its exit code; SIGKILL only if it
    has not exited after ``timeout`` seconds."""
    if node.proc.poll() is None:
        node.proc.send_signal(signal.SIGTERM)
    try:
        return node.proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        node.proc.kill()
        return node.proc.wait(timeout=10)


class Fleet:
    """Spawns nodes and stops every one still running on exit."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []

    def spawn(self, *argv: str, stderr: Any = None) -> Node:
        node = spawn(*argv, stderr=stderr)
        self.nodes.append(node)
        return node

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        for node in reversed(self.nodes):
            stop(node)


def fetch_json(
    url: str,
    payload: Any = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float = 120.0,
) -> Tuple[Any, Any]:
    """``GET`` (or ``POST`` the JSON ``payload``) that must answer 2xx:
    ``(decoded body, response headers)``."""
    method, body, headers = "GET", None, dict(headers or {})
    if payload is not None:
        method, body = "POST", json.dumps(payload).encode("utf-8")
        headers.setdefault("Content-Type", "application/json")
    status, response_headers, raw = request(url, method, body, headers, timeout)
    assert 200 <= status < 300, (url, status, raw[:500])
    return json.loads(raw), response_headers


def wait_json(
    url: str, headers: Optional[Mapping[str, str]] = None, timeout: float = 120.0
) -> Tuple[Any, Any]:
    """:func:`fetch_json` a ``GET``, retrying while ``url`` is
    unreachable or answers a non-2xx status."""
    return wait_until(lambda: _answer(url, headers), timeout)


def _answer(url: str, headers: Optional[Mapping[str, str]] = None) -> Optional[Tuple[Any, Any]]:
    """``(decoded body, headers)`` if ``url`` answers 2xx, else ``None``."""
    try:
        status, response_headers, raw = request(url, headers=headers, timeout=2)
    except OSError:
        return None
    return (json.loads(raw), response_headers) if 200 <= status < 300 else None


def scrape(url: str) -> dict:
    """``GET /metrics`` from base ``url`` and parse the Prometheus text
    into ``{series-with-labels: value}``, asserting its content type and
    that every line is a ``# HELP``/``# TYPE`` comment or a sample."""
    status, headers, raw = request(url + "/metrics")
    assert status == 200, (url, status)
    content_type = headers["Content-Type"]
    assert content_type.startswith("text/plain; version=0.0.4"), content_type
    series = {}
    for line in raw.decode("utf-8").splitlines():
        assert line, "blank line in exposition"
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        name_part, value = line.rsplit(" ", 1)
        series[name_part] = float(value)
    return series


def url_of(server, path: str = "") -> str:
    """Base URL of an in-process HTTP server, plus ``path``."""
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


@contextmanager
def serve_in_thread(server) -> Iterator[str]:
    """Serve ``server`` on a daemon thread and yield its base URL; on
    exit shut it down, close its socket and join the thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield url_of(server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive(), "server thread did not stop"


@contextmanager
def serve_primary(
    service, state_dir, stream_options: Optional[Mapping[str, Any]] = None, **server_options
) -> Iterator[Any]:
    """Serve ``service`` as a primary over ``state_dir`` on a daemon
    thread; yield the server (its stack is ``server.stream``).
    ``stream_options`` go to ``StreamStack.open``, ``server_options``
    to ``build_server``.  On exit the server stops, then the stack."""
    with StreamStack.open(service, state_dir, **(stream_options or {})) as stream:
        server = build_server(
            service, "127.0.0.1", 0, state_dir=state_dir, stream=stream, **server_options
        )
        with serve_in_thread(server):
            yield server


def family_delta(start: int, count: int = 1) -> Delta:
    """A delta adding ``count`` synthetic families from index ``start``
    to both sides (see :func:`repro.datasets.incremental.family_addition`)."""
    add1, add2 = family_addition(start, count)
    return Delta(add1=tuple(add1), add2=tuple(add2))
