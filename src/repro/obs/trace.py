"""Span timers: lightweight tracing of the fixpoint engine's stages.

``with span("pass.instance", frontier=1234):`` times a block, and three
things happen when it closes:

1. the duration lands in the ``repro_span_duration_seconds{span=...}``
   histogram (process registry, so ``GET /metrics`` shows stage-level
   latency distributions);
2. a DEBUG line goes to the ``repro.trace`` logger with the span name,
   duration, and every annotation — this is the "one span line per
   fixpoint pass with frontier size and duration" contract;
3. the finished :class:`Span` attaches to its parent, building a tree.

Nesting is tracked with a **thread-local stack** — each worker/handler
thread has its own active-span chain, so the batcher flush thread's
spans never interleave into an aligner tree built on the request
thread.  The engine wraps a whole ``align()`` / ``warm_align()`` in a
root span via :func:`root_span` and keeps the finished tree; `/stats`
serializes it (:meth:`Span.to_dict`) as ``last_align_profile``.

Overhead discipline: spans wrap *stages* (a pass, a kernel build, a
WAL fsync), never per-instance work, so a cold align adds a few dozen
``perf_counter`` calls.  Spans are always on, so their cost is inside
every latency ``perfbench/`` measures and ``BENCHMARK.json`` bounds.
Annotations discovered mid-stage (a warm pass learns its frontier size
after expansion) are added with :meth:`Span.annotate`.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .logging import get_logger
from .metrics import REGISTRY

#: Every span's duration feeds this one histogram, labelled by span name
#: (names are a small fixed set — pass/kernel/wal/batcher stages —
#: so cardinality stays bounded).
SPAN_SECONDS = REGISTRY.histogram(
    "repro_span_duration_seconds",
    "Duration of traced stages (fixpoint passes, kernel builds, WAL syncs).",
    labelnames=("span",),
)

_log = get_logger("repro.trace")

_state = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


class Span:
    """One timed stage: name, wall duration, annotations, children."""

    __slots__ = ("name", "fields", "children", "duration", "_started")

    def __init__(self, name: str, fields: Dict[str, Any]) -> None:
        self.name = name
        self.fields = fields
        self.children: List[Span] = []
        self.duration: Optional[float] = None
        self._started = time.perf_counter()

    def annotate(self, **fields: Any) -> None:
        """Attach fields learned mid-stage (e.g. warm frontier size)."""
        self.fields.update(fields)

    def finish(self) -> float:
        self.duration = time.perf_counter() - self._started
        return self.duration

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready tree — the `/stats` ``last_align_profile`` shape."""
        node: Dict[str, Any] = {
            "span": self.name,
            "duration_s": round(self.duration, 6) if self.duration is not None else None,
        }
        if self.fields:
            node.update(self.fields)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    # Readable in pytest failures / debug dumps.
    def __repr__(self) -> str:  # pragma: no cover - repr only
        return f"Span({self.name!r}, duration={self.duration}, fields={self.fields})"


def current_span() -> Optional[Span]:
    """The innermost active span on this thread, if any — lets deep
    call sites annotate without plumbing handles."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(name: str, **fields: Any) -> Iterator[Span]:
    """Time a stage; attach to the enclosing span on this thread."""
    node = Span(name, dict(fields))
    stack = _stack()
    parent = stack[-1] if stack else None
    stack.append(node)
    try:
        yield node
    finally:
        stack.pop()
        duration = node.finish()
        if parent is not None:
            parent.children.append(node)
        SPAN_SECONDS.observe(duration, span=name)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                name,
                extra={"duration_ms": round(duration * 1e3, 3), **node.fields},
            )


@contextmanager
def root_span(name: str, **fields: Any) -> Iterator[Span]:
    """Like :func:`span`, but starts a fresh tree even if this thread
    already has active spans (an align triggered from inside a traced
    batcher flush still yields a self-contained profile)."""
    previous = getattr(_state, "stack", None)
    _state.stack = []
    try:
        with span(name, **fields) as node:
            yield node
    finally:
        _state.stack = previous if previous is not None else []
