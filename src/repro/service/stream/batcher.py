"""Coalescing batcher with admission control.

The single funnel in front of the engine: HTTP writers and streaming
sources all :meth:`DeltaBatcher.submit` into one bounded queue.  A
submitted delta is validated, deduplicated (per-source sequence
numbers), admission-checked, durably WAL-appended — in that order —
and then waits in the queue until the flush loop coalesces it with its
neighbours (:func:`repro.service.delta.compose_deltas`) and applies
one composed batch through
:meth:`repro.service.engine.AlignmentService.apply_delta`, so one warm
fixpoint pass absorbs many small writes.

Flush policy: a batch closes when it holds ``max_batch`` deltas or
when the oldest queued delta has waited ``max_lag`` seconds, whichever
comes first — the two knobs trade ingest throughput against freshness.

Admission control: when the queue already holds ``max_queue`` deltas,
:meth:`submit` raises :class:`QueueFullError` (the HTTP front-end maps
it to ``429`` with a ``Retry-After`` header) *before* touching the
WAL, so back-pressured writers retry without consuming durability.

Idempotent redelivery: a writer may tag each delta with a
monotonically increasing per-source sequence number; a redelivered
(``seq`` at or below the source's high-water mark) delta is
acknowledged but dropped.  A delta is durable the moment its WAL
append is fsync'd, so the mark moves at admission, and the marks are
recovered from the WAL on restart: redelivery stays idempotent across
crashes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from ...obs import get_event_logger
from ...obs.metrics import REGISTRY
from ...obs.provenance import new_trace_id
from ...obs.trace import span
from ..delta import Delta, compose_deltas, validate_delta
from ..engine import AlignmentService, DeltaReport
from .wal import WriteAheadLog

_log = get_event_logger("repro.batcher")

QUEUE_DEPTH = REGISTRY.gauge(
    "repro_batcher_queue_depth",
    "Deltas admitted but not yet applied (queued + in-flight).",
)
ACCEPTED = REGISTRY.counter(
    "repro_batcher_accepted_total",
    "Deltas admitted into the ingest queue.",
)
DUPLICATES = REGISTRY.counter(
    "repro_batcher_duplicates_total",
    "Redelivered deltas acknowledged but dropped (seq at or below high-water).",
)
REJECTED = REGISTRY.counter(
    "repro_batcher_rejected_total",
    "Deltas rejected by admission control (queue full).",
)
BATCHES = REGISTRY.counter(
    "repro_batcher_batches_total",
    "Composed batches successfully applied to the engine.",
)
COALESCED = REGISTRY.counter(
    "repro_batcher_coalesced_total",
    "Deltas absorbed by successfully applied batches.",
)


class QueueFullError(RuntimeError):
    """Admission control rejected a delta: the ingest queue is full."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"ingest queue is full ({depth} deltas pending); "
            f"retry in {retry_after:g}s"
        )
        self.depth = depth
        self.retry_after = retry_after


@dataclass
class _Pending:
    """One queued delta and its completion slot."""

    delta: Delta
    wal_offset: int
    enqueued_at: float
    source: str = "http"
    seq: Optional[int] = None
    trace: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)
    report: Optional[DeltaReport] = None
    error: Optional[BaseException] = None


class DeltaBatcher:
    """Bounded ingest queue + coalescing flush loop (module docstring).

    Parameters
    ----------
    service:
        The engine consuming composed batches.
    wal:
        The write-ahead log: every accepted delta is fsync'd to it
        before :meth:`submit` acknowledges it, and the per-source
        sequence high-water marks are recovered from it.
    max_queue:
        Admission bound: queued-but-unapplied deltas beyond this are
        rejected with :class:`QueueFullError`.
    max_batch:
        Most deltas composed into one engine batch.
    max_lag:
        Longest time (seconds) the oldest queued delta may wait before
        its batch is flushed regardless of size (``0``: flush as soon
        as the flush loop is free; deltas that queue up behind a
        running batch still coalesce into the next one).
    retry_after:
        The back-off hint carried by :class:`QueueFullError`.
    on_batch_applied:
        Called once per successfully applied batch with its
        :class:`~repro.service.engine.DeltaReport` — the snapshot
        policy hook (``repro serve`` wires ``--snapshot-every``
        through it, so one batch triggers at most one snapshot no
        matter how many HTTP waiters shared it).  Failures are logged,
        never propagated: the batch itself already applied.
    """

    def __init__(
        self,
        service: AlignmentService,
        wal: WriteAheadLog,
        max_queue: int = 256,
        max_batch: int = 32,
        max_lag: float = 0.0,
        retry_after: float = 1.0,
        on_batch_applied: Optional[Callable[[DeltaReport], None]] = None,
    ) -> None:
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        self.service = service
        self.wal = wal
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.max_lag = max_lag
        self.retry_after = retry_after
        self.on_batch_applied = on_batch_applied
        self._queue: Deque[_Pending] = deque()
        self._ready = threading.Condition()
        self._last_seqs: Dict[str, int] = wal.last_seqs
        self._in_flight = 0
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        # Cumulative counters (read via stats()).
        self.accepted = 0
        self.duplicates = 0
        self.rejected = 0
        self.batches = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def submit(
        self,
        delta: Delta,
        source: str = "http",
        seq: Optional[int] = None,
        wait: bool = False,
        timeout: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> Optional[DeltaReport]:
        """Admit one delta into the ingest queue.

        Raises ``ValueError`` for an invalid delta (nothing consumed),
        :class:`QueueFullError` when admission control rejects it, and
        ``RuntimeError`` after :meth:`close`.  Returns ``None`` for a
        duplicate (``seq`` at or below the source's high-water mark) or
        a fire-and-forget submit; with ``wait=True`` it blocks until
        the delta's batch was applied and returns that batch's
        :class:`~repro.service.engine.DeltaReport` (re-raising the
        batch's failure, if any).

        ``trace`` is the delta's provenance id (the HTTP front-end
        passes the request id, streaming sources synthesize one per
        record); when omitted one is generated, so every admitted
        delta has a reconstructable timeline.
        """
        validate_delta(delta)
        ingest_ts = time.time()
        if trace is None:
            trace = new_trace_id()
        duplicate = False
        with self._ready:
            if self._closed:
                raise RuntimeError("delta batcher is closed")
            if seq is not None:
                last = self._last_seqs.get(source)
                duplicate = last is not None and seq <= last
            if duplicate:
                self.duplicates += 1
                DUPLICATES.inc()
            else:
                # Pending = queued + popped-but-still-applying: the
                # bound measures what stats() reports as queue_depth.
                depth = len(self._queue) + self._in_flight
                if depth >= self.max_queue:
                    self.rejected += 1
                    REJECTED.inc()
                    raise QueueFullError(depth, self.retry_after)
                # Buffered append under the queue lock keeps WAL order
                # == application order; the fsync happens below,
                # outside the lock, so concurrent writers can share
                # one group commit.
                enqueue_ts = time.time()
                prov = {
                    "trace": trace,
                    "ingest_ts": ingest_ts,
                    "enqueue_ts": enqueue_ts,
                }
                offset = self.wal.append(delta, source, seq, sync=False, prov=prov)
                self.service.provenance.admit(
                    trace,
                    source=source,
                    seq=seq,
                    offset=offset,
                    ingest_ts=ingest_ts,
                    enqueue_ts=enqueue_ts,
                )
                if seq is not None:
                    # The delta is durable the moment it is admitted: a
                    # redelivery may be acked as duplicate even if this
                    # batch later fails, because restart replays it
                    # from the log.
                    self._last_seqs[source] = seq
                pending = _Pending(delta, offset, time.monotonic(), source, seq, trace)
                self._queue.append(pending)
                self.accepted += 1
                ACCEPTED.inc()
                QUEUE_DEPTH.set(len(self._queue) + self._in_flight)
                self._ready.notify_all()
        if duplicate:
            # The original record may still be buffered (its submitter
            # is inside its group fsync): acking the duplicate promises
            # durability, so join the fsync before answering.
            self.wal.sync()
            return None
        # Durability point: after this sync returns, the delta survives
        # a crash (replayed from the WAL on restart).  Concurrent
        # submitters share the leader's fsync (see WriteAheadLog.sync),
        # so per-delta ack-after-fsync costs one group commit, not one
        # fsync each.
        self.wal.sync(offset)
        if not wait:
            return None
        if not pending.done.wait(timeout):
            raise TimeoutError("timed out waiting for the delta's batch")
        if pending.error is not None:
            raise pending.error
        return pending.report

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything queued so far has been applied."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while self._queue or self._in_flight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._ready.wait(remaining if remaining is not None else 0.1)
        return True

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------

    def start(self) -> "DeltaBatcher":
        """Start the flush loop thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-delta-batcher", daemon=True
            )
            self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the flush loop; by default after draining the queue."""
        with self._ready:
            self._closed = True
            if not drain:
                for pending in self._queue:
                    pending.error = RuntimeError("batcher closed before this delta ran")
                    pending.done.set()
                self._queue.clear()
            self._ready.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=120)
            self._thread = None

    def _take_batch(self) -> List[_Pending]:
        """Wait for work, honour the flush policy, pop one batch."""
        with self._ready:
            while not self._queue and not self._closed:
                self._ready.wait(0.1)
            if not self._queue:
                return []
            deadline = self._queue[0].enqueued_at + self.max_lag
            while len(self._queue) < self.max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._ready.wait(remaining)
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.max_batch))
            ]
            self._in_flight += len(batch)
            return batch

    def _finish(self, batch: List[_Pending]) -> None:
        with self._ready:
            self._in_flight -= len(batch)
            QUEUE_DEPTH.set(len(self._queue) + self._in_flight)
            self._ready.notify_all()
        for pending in batch:
            pending.done.set()

    def _apply(self, batch: List[_Pending]) -> None:
        composed = compose_deltas(pending.delta for pending in batch)
        wal_offset = batch[-1].wal_offset
        try:
            # Never apply records an fsync has not covered: a crash
            # after apply + snapshot but before the fsync would leave a
            # snapshot claiming WAL offsets the log does not hold.
            # Inside the try: an fsync failure must reach the batch's
            # waiters as an error, not kill the flush loop and hand
            # them a success-shaped None.
            self.wal.sync(wal_offset)
            report = self.service.apply_delta(composed, wal_offset=wal_offset)
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            # The engine poisoned itself if mutation had started; every
            # waiter of this batch gets the failure, and later batches
            # fail fast on the engine's fail-stop check.
            for pending in batch:
                pending.error = error
            return
        self.batches += 1
        self.coalesced += len(batch)
        BATCHES.inc()
        COALESCED.inc(len(batch))
        # Coalescing provenance: every member of the batch learns which
        # traces shared its warm pass (the engine stamps "applied" by
        # WAL offset).
        self.service.provenance.note_merge(
            [pending.trace for pending in batch if pending.trace]
        )
        for pending in batch:
            pending.report = report
        if self.on_batch_applied is not None:
            try:
                self.on_batch_applied(report)
            except Exception as error:  # noqa: BLE001 - policy hook only
                # The batch applied; a failing side-effect (e.g. a full
                # disk under the snapshot) must not kill the flush loop
                # or mark the batch failed.
                _log.warning("on_batch_applied failed", error=str(error))

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if not batch:
                return  # closed and drained
            try:
                with span("batcher.flush", deltas=len(batch)):
                    self._apply(batch)
            finally:
                self._finish(batch)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Queue/WAL/coalescing counters for ``GET /stats``."""
        with self._ready:
            return {
                "queue_depth": len(self._queue) + self._in_flight,
                "accepted": self.accepted,
                "duplicates": self.duplicates,
                "rejected": self.rejected,
                "batches": self.batches,
                "coalesced_deltas": self.coalesced,
                "wal_appended": self.wal.offset,
                "max_queue": self.max_queue,
                "max_batch": self.max_batch,
                "max_lag_ms": self.max_lag * 1000.0,
            }
