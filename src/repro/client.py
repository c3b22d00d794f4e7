"""The one HTTP client every node, CLI command and test talks through.

The status rule: every HTTP status is an answer.  A 304, 404, 410 or
503 comes back as ``(status, headers, body)`` just like a 200, and each
caller decides what the status means for it.  Only a peer that cannot
be reached (refused, reset, timed out) raises, as :class:`OSError`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional, Tuple

DEFAULT_TIMEOUT = 30.0


def request(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Tuple[int, Any, bytes]:
    """One exchange: ``(status, response headers, body)`` for every status."""
    req = urllib.request.Request(url, data=body, method=method, headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.headers, error.read()


def get_json(url: str, headers=None, timeout: float = DEFAULT_TIMEOUT) -> Tuple[int, Any]:
    """``GET`` returning ``(status, decoded body)``.  The body is ``None``
    when it is not JSON; status 0 means ``url`` was unreachable."""
    return _json_exchange(url, "GET", None, headers, timeout)


def post_json(url: str, payload: Any, headers=None, timeout: float = DEFAULT_TIMEOUT):
    """``POST`` ``payload`` as JSON; answers like :func:`get_json`."""
    headers = {"Content-Type": "application/json", **(headers or {})}
    return _json_exchange(url, "POST", json.dumps(payload).encode("utf-8"), headers, timeout)


def _json_exchange(url, method, body, headers, timeout) -> Tuple[int, Any]:
    try:
        status, _headers, raw = request(url, method, body, headers, timeout)
    except OSError:
        return 0, None
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, None
