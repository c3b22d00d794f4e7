"""In-memory span recorder that wraps the program's public calls.

The benchmark does not change code under ``src/``.  For a traced run it
replaces selected functions and methods of ``repro`` with wrappers that
record one span per call: name, start, end, the span that was open on the
same thread when the call began (its parent) and a few attributes.  Each
wrapper is installed under the name its callers look it up by: a method on
its class, a function in the namespace of the module that imported it.

Spans stay in a list in memory and are written out once, when the process
ends (``dump``).  ``attribute`` turns the spans of many operations into the
per-layer "where an op's time goes" table: a span's self time is its
duration minus the part of it that its child spans cover, and the root
span's self time is the end-to-end time no layer span covers.

Clocks are ``time.monotonic()``: CLOCK_MONOTONIC on Linux, so spans from the
load generator and from the server process share one time base.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans while ``enabled``; one instance per process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def record(self, name: str, start: float, end: float, **attrs) -> dict:
        """Record a span measured by the caller (a client request, an op)."""
        stack = self._stack()
        span = {
            "id": f"{os.getpid()}:{self.new_id()}",
            "name": name,
            "start": start,
            "end": end,
            "parent": stack[-1] if stack else None,
        }
        span.update(attrs)
        if self.enabled:
            self.spans.append(span)
        return span

    def call(self, name: str, func: Callable, args, kwargs, on_call=None, on_result=None):
        """Run ``func`` inside a span named ``name``."""
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        span = {
            "id": f"{os.getpid()}:{self.new_id()}",
            "name": name,
            "parent": stack[-1] if stack else None,
        }
        if on_call is not None:
            span.update(on_call(args, kwargs))
        stack.append(span["id"])
        span["start"] = time.monotonic()
        try:
            result = func(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            stack.pop()
            self.spans.append(span)
        if on_result is not None:
            span.update(on_result(result))
        return result

    def wrap(self, target: str, name: str, on_call=None, on_result=None) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` by a traced
        wrapper, keeping classmethod/staticmethod binding intact."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, on_call, on_result)

        traced.__wrapped__ = func
        setattr(owner, attr, kind(traced) if kind is not None else traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def attribute(roots: List[dict], spans: List[dict], links: Dict[str, List[str]]):
    """Self time per layer name, summed over the trees under ``roots``.

    ``spans`` is every recorded span (any process).  Children are the
    spans whose ``parent`` is a span's id, plus ``links[id]``: spans that
    ran on another thread or process on that span's behalf (the server
    handler of a client request, the batch that applied a queued delta).
    A span shared by several roots counts once for each of them, because
    each of those operations waited for it.  Returns the self time in ms
    per span name, summed over all roots.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    for parent_id, linked in links.items():
        children.setdefault(parent_id, []).extend(
            by_id[child] for child in linked if child in by_id
        )
    self_ms: Dict[str, float] = {}
    for root in roots:
        pending = [root]
        while pending:
            span = pending.pop()
            kids = children.get(span["id"], [])
            covered = _covered(span["start"], span["end"], kids)
            self_ms[span["name"]] = self_ms.get(span["name"], 0.0) + (
                span["end"] - span["start"] - covered
            ) * 1000.0
            pending.extend(kids)
    return self_ms


def _covered(start: float, end: float, kids: List[dict]) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    intervals = sorted(
        (max(start, kid["start"]), min(end, kid["end"])) for kid in kids
    )
    total = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def load_spans(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def find(spans: List[dict], name: str, start: Optional[float] = None,
         end: Optional[float] = None) -> List[dict]:
    """Spans called ``name`` that started inside [start, end]."""
    return [
        span for span in spans
        if span["name"] == name
        and (start is None or span["start"] >= start)
        and (end is None or span["start"] <= end)
    ]
