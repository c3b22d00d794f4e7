"""A read replica: snapshot bootstrap + WAL tailing into its own engine.

:class:`ReplicaNode` owns a full :class:`~repro.service.engine.AlignmentService`
— the same engine the primary runs — and keeps it converged to the
primary by applying the primary's WAL records:

1. **Bootstrap.**  Load the newest state the replica can reach: its
   *own* snapshot directory first (crash resume — a replica killed
   mid-apply restarts from its own snapshot and replays only the WAL
   suffix beyond it), otherwise the primary's newest snapshot (read
   directly from the shared state directory, or fetched over
   ``GET /snapshot/latest``).  The snapshot's ``wal_offset`` is the
   tail position.
2. **Tail.**  A poll thread fetches records beyond the applied offset
   through a :mod:`follower <repro.service.replica.follower>`,
   coalesces each fetch (:func:`~repro.service.delta.compose_deltas` —
   the same composition the primary's batcher applies, so one warm
   pass absorbs a whole backlog) and applies it with the batch's last
   WAL offset.  Because the warm fixpoint converges to numeric
   stationarity on the *final* graphs, a replica at WAL offset K
   scores equal (within 1e-9) to the primary at offset K no matter how
   the records were chopped into batches.
3. **Re-bootstrap.**  When the primary compacted records the replica
   still needed (:class:`~repro.service.stream.wal.WalGapError`), the
   replica re-runs step 1 from the primary's newer snapshot — which by
   the compaction rule covers everything that was dropped.

Staleness accounting: ``lag_ms`` is the time since the replica last
*verified* it was caught up to the source log's head (0 at every poll
that finds nothing new).  With a healthy poll loop it stays around the
poll interval; a dead or backlogged replica's lag grows without bound,
which is what the router's ``?max_lag_ms=`` bounded-staleness reads
key off.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ... import client
from ...obs import get_event_logger
from ...obs.metrics import REGISTRY
from ...obs.provenance import ProvenanceRing, set_active_ring
from ...obs.trace import span
from ..delta import compose_deltas
from ..engine import AlignmentService
from ..state import AlignmentState, latest_version, load_state, load_state_bytes
from ..stream.wal import WalGapError
from .follower import make_follower

_log = get_event_logger("repro.replica")

SOURCE_OFFSET = REGISTRY.gauge(
    "repro_replica_source_offset",
    "Last observed head offset of the source WAL.",
)
LAG_RECORDS = REGISTRY.gauge(
    "repro_replica_lag_records",
    "WAL records the replica still has to apply (source head - applied).",
)
LAG_MS = REGISTRY.gauge(
    "repro_replica_lag_ms",
    "Milliseconds since the replica last verified it was caught up "
    "(-1 until it has done so at least once).",
)
RECORDS_APPLIED = REGISTRY.counter(
    "repro_replica_records_applied_total",
    "WAL records applied by the replica tail loop.",
)
REBOOTSTRAPS = REGISTRY.counter(
    "repro_replica_rebootstraps_total",
    "Snapshot re-bootstraps forced by WAL compaction gaps.",
)


def _fetch_primary_snapshot(primary_url: str, timeout: float = 120.0) -> AlignmentState:
    url = primary_url.rstrip("/") + "/snapshot/latest"
    status, _headers, data = client.request(url, timeout=timeout)
    if status != 200:
        raise OSError(f"{url} answered HTTP {status}")
    return load_state_bytes(data, origin=url)


def bootstrap_state(
    source: Union[str, Path], state_dir: Optional[Union[str, Path]] = None
) -> AlignmentState:
    """Newest reachable state: own ``state_dir`` snapshot if present
    (crash resume), else the primary's (shared dir or HTTP)."""
    if state_dir is not None:
        directory = Path(state_dir)
        if directory.is_dir() and latest_version(directory) is not None:
            return load_state(directory)
    text = str(source)
    if text.startswith("http://") or text.startswith("https://"):
        return _fetch_primary_snapshot(text)
    path = Path(source)
    if path.is_file() or path.suffix == ".ndjson":
        # The source may name the WAL file itself (make_follower
        # accepts either form); the snapshots live next to it.
        path = path.parent
    return load_state(path)


class ReplicaNode:
    """One read replica (engine + follower + poll thread).

    Parameters
    ----------
    source:
        The primary: an ``http(s)://`` base URL (log shipping) or the
        primary's state directory on shared storage.
    state_dir:
        The replica's *own* snapshot directory (optional).  Used for
        crash resume and written every ``snapshot_every`` applied
        batches; never the primary's directory — a replica must not
        write where the primary snapshots.
    poll_interval:
        Seconds between tail polls.
    batch:
        Most WAL records fetched (and coalesced into one warm pass)
        per poll.
    """

    def __init__(
        self,
        source: Union[str, Path],
        state_dir: Optional[Union[str, Path]] = None,
        poll_interval: float = 0.05,
        batch: int = 256,
        snapshot_every: int = 0,
    ) -> None:
        self.source = source
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.poll_interval = poll_interval
        self.batch = batch
        self.snapshot_every = snapshot_every
        self.follower = make_follower(source)
        #: Change-subscription manager this node publishes into
        #: (:meth:`attach_subscriptions`); survives engine swaps.
        self._subs = None
        #: One provenance ring for the node's whole life: a WAL-gap
        #: re-bootstrap swaps the engine but must not lose the delta
        #: timelines already collected (every built engine points here).
        self.provenance = ProvenanceRing()
        #: The node's background correctness auditor, when one runs
        #: (:class:`repro.service.audit.StateAuditor`, attached by the
        #: CLI).  Like the ring it outlives engine swaps — but a
        #: re-bootstrap *clears* its mismatch latch: the state was
        #: replaced wholesale from a primary snapshot (integrity-checked
        #: against the digest it carries), so stale divergence evidence
        #: must not keep /healthz degraded.
        self.auditor = None
        self.service = self._build_service(bootstrap_state(source, self.state_dir))
        self.bootstrapped_at_offset = self.applied_offset
        self.records_applied = 0
        self.batches_applied = 0
        self.rebootstraps = 0
        self.last_error: Optional[str] = None
        #: True once :meth:`stop` gave up waiting for the tail thread.
        #: A wedged follower keeps its (stale) engine serving reads but
        #: must be visible in ``/stats`` — operators page on this, and
        #: the router's lag bound quietly stops being satisfiable.
        self.wedged = False
        self._source_offset = self.applied_offset
        #: Monotonic time of the last poll that verified this replica
        #: caught up to the source log's head — None until the first
        #: one, so a freshly bootstrapped replica with an unknown
        #: backlog never reports a bounded lag it has not earned.
        self._caught_up_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # Scrape-time gauges: re-registering on re-construction means
        # the newest node in the process owns the series (one replica
        # per process in production; tests spin up several).
        SOURCE_OFFSET.set_callback(lambda: float(self._locked_source_offset()))
        LAG_RECORDS.set_callback(
            lambda: float(max(0, self._locked_source_offset() - self.applied_offset))
        )
        LAG_MS.set_callback(
            lambda: -1.0 if (lag := self.lag_ms()) is None else lag
        )

    def _locked_source_offset(self) -> int:
        with self._lock:
            return self._source_offset

    def _build_service(self, state: AlignmentState) -> AlignmentService:
        service = AlignmentService.from_state(state)
        service.provenance = self.provenance
        set_active_ring(self.provenance)
        if self._subs is not None:
            service.add_change_listener(self._subs.publish)
            self._subs.advance(state.version, state.wal_offset)
        return service

    def attach_subscriptions(self, subs) -> None:
        """Publish this node's change log into ``subs`` — re-applied to
        every engine a re-bootstrap builds, so replica-side ``/watch``
        long-polls survive WAL-gap recoveries."""
        self._subs = subs
        self.service.add_change_listener(subs.publish)
        subs.advance(self.service.state.version, self.service.state.wal_offset)

    # ------------------------------------------------------------------

    @property
    def applied_offset(self) -> int:
        return self.service.state.wal_offset

    def start(self) -> "ReplicaNode":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-replica-tail", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 120.0) -> None:
        """Signal the tail thread and wait up to ``timeout`` seconds.

        The join deadline can pass with the thread still alive (a poll
        blocked on a dead primary's socket, a warm pass stuck on a huge
        batch).  Silently returning would report a clean shutdown that
        never happened, so the wedge is logged and latched into
        :meth:`stats` instead; a later ``stop()`` retries the join.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                self.wedged = True
                _log.warning(
                    "tail thread still running at shutdown; proceeding without it",
                    timeout_s=timeout,
                    wedged=True,
                )
            else:
                self.wedged = False
                self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
                self.last_error = None
            except WalGapError as gap:
                _log.warning(
                    "WAL suffix compacted away; re-bootstrapping from snapshot",
                    gap=str(gap),
                )
                try:
                    self._rebootstrap()
                except Exception as error:  # noqa: BLE001 - retried next poll
                    self.last_error = repr(error)
            except Exception as error:  # noqa: BLE001 - retried next poll
                # Transient (primary restarting, shared FS hiccup):
                # recorded for /stats, retried on the next poll.  A
                # poisoned engine fail-stops below us and keeps
                # surfacing here rather than serving inconsistency.
                self.last_error = repr(error)
            self._stop.wait(self.poll_interval)

    def poll_once(self) -> int:
        """One tail step: fetch → coalesce → apply.  Returns the
        number of records applied (tests drive this directly for
        deterministic replication)."""
        fetch = self.follower.fetch(self.applied_offset, limit=self.batch)
        if fetch.records:
            # Register the shipped timelines first: the engine apply
            # below stamps replica_applied on them (and observes the
            # applied_to_replica leg against the primary-side stamps
            # the records carry).
            for record in fetch.records:
                self.provenance.register_record(record, live=True, remote=True)
            with span("replica.apply", records=len(fetch.records)):
                composed = compose_deltas(record.delta for record in fetch.records)
                self.service.apply_delta(
                    composed, wal_offset=fetch.records[-1].offset
                )
            self.records_applied += len(fetch.records)
            RECORDS_APPLIED.inc(len(fetch.records))
            self.batches_applied += 1
            if (
                self.state_dir is not None
                and self.snapshot_every > 0
                and self.batches_applied % self.snapshot_every == 0
            ):
                # Through the engine, not save_state directly: its
                # fail-stop check refuses to persist a poisoned state
                # the replica would otherwise resume from and serve.
                self.service.snapshot(self.state_dir)
        with self._lock:
            self._source_offset = max(fetch.source_offset, self.applied_offset)
            if self.applied_offset >= self._source_offset:
                self._caught_up_at = time.monotonic()
        return len(fetch.records)

    def catch_up(self, target_offset: int, timeout: float = 120.0) -> None:
        """Apply until ``target_offset`` is reached (tests/bootstrap)."""
        deadline = time.monotonic() + timeout
        while self.applied_offset < target_offset:
            if self.poll_once() == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"replica stuck at offset {self.applied_offset}, "
                        f"wanted {target_offset}"
                    )
                time.sleep(0.01)

    def _rebootstrap(self) -> None:
        """Reload from the newest primary snapshot after a WAL gap.

        The compaction rule only drops segments a durable snapshot
        covers, so the snapshot we fetch here is always at or beyond
        the gap.  The engine object is swapped whole; the HTTP handler
        resolves the service through this node per request, so readers
        move to the new engine on their next call.
        """
        state = bootstrap_state(self.source, state_dir=None)
        if state.wal_offset < self.applied_offset:
            # Shared-storage race: LATEST may trail what we already
            # applied.  Keep the fresher in-memory engine.
            return
        self.service = self._build_service(state)
        self.rebootstraps += 1
        REBOOTSTRAPS.inc()
        if self.auditor is not None:
            self.auditor.reset()
        if self.state_dir is not None:
            self.service.snapshot(self.state_dir)

    def snapshot(self) -> Optional[Path]:
        """Persist the replica's own resume point (``None`` without a
        state dir).  Raises ``RuntimeError`` when the engine fail-
        stopped — a poisoned state must never become the snapshot a
        restart resumes from."""
        if self.state_dir is None:
            return None
        return self.service.snapshot(self.state_dir)

    # ------------------------------------------------------------------

    def lag_ms(self) -> Optional[float]:
        """Milliseconds since the replica last *verified* itself caught
        up to the source log's head; ``None`` until it has done so at
        least once (an unverified replica must not look fresh to the
        router's ``?max_lag_ms=`` bound)."""
        with self._lock:
            if self._caught_up_at is None:
                return None
            return (time.monotonic() - self._caught_up_at) * 1000.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            source_offset = self._source_offset
        return {
            "source": self.follower.source_id,
            "applied_offset": self.applied_offset,
            "source_offset": source_offset,
            "behind": max(0, source_offset - self.applied_offset),
            "lag_ms": self.lag_ms(),
            "records_applied": self.records_applied,
            "batches_applied": self.batches_applied,
            "rebootstraps": self.rebootstraps,
            "bootstrapped_at_offset": self.bootstrapped_at_offset,
            "last_error": self.last_error,
            "wedged": self.wedged,
        }
