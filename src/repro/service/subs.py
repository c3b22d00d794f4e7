"""Change subscriptions: long-poll watches and webhook deliveries.

The engine emits a :class:`~repro.service.query.ChangeEvent` batch for
every applied delta (the same net change log that maintains the
secondary query indexes).  :class:`SubscriptionManager` turns that log
into a push surface:

* **Long-poll** — ``GET /watch?entity=X&epsilon=ε`` parks the request
  on a condition variable until some alignment involving ``X`` moves by
  more than ``ε`` (or its counterpart changes), then answers with one
  *collapsed* notification: all buffered events for the entity since
  the client's cursor fold into a single net change, so a subscriber
  sees exactly one notification per crossing, not one per fixpoint
  wobble.
* **Webhooks** — ``POST /subscribe`` registers a URL; a delivery
  thread POSTs the same collapsed notification shape whenever a
  registered entity crosses its ε.  Deliveries are deduped per
  subscriber per cycle and the per-subscriber cursor is persisted
  (``subscriptions.json`` in the state directory), so a restarted
  server — whose WAL replay regenerates the un-snapshotted tail of the
  change log — resumes deliveries without loss *and* without
  duplicates.

Cursors are **state versions**, not process-local sequence numbers:
the engine stamps every event with the monotone state version (and WAL
offset) of the batch that produced it, versions survive restarts via
snapshots, and WAL replay re-derives events for exactly the versions
the snapshot missed.  A subscriber at version V therefore needs — and
receives — precisely the events with version > V.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Union

from .. import client
from ..obs import get_event_logger
from ..obs.metrics import REGISTRY
from .query import ChangeEvent

_log = get_event_logger("repro.subs")

SUBSCRIPTIONS_ACTIVE = REGISTRY.gauge(
    "repro_subscriptions_active",
    "Registered webhook subscriptions.",
)
NOTIFICATIONS_TOTAL = REGISTRY.counter(
    "repro_notifications_total",
    "Collapsed change notifications delivered, by transport.",
    labelnames=("transport",),
)


def collapse_events(events: Sequence[ChangeEvent]) -> List[dict]:
    """Fold an entity's event run into one net change per side.

    The first event contributes the *previous* state, the last the
    *current* one; intermediate wobble (a score that moved and moved
    back within the window) cancels out, which is what makes the
    ε test below a test on the **net** movement.
    """
    by_side: Dict[str, List[ChangeEvent]] = {}
    for event in events:
        by_side.setdefault(event.side, []).append(event)
    changes = []
    for side in sorted(by_side):
        run = by_side[side]
        first, last = run[0], run[-1]
        changes.append(
            {
                "side": side,
                "entity": last.entity,
                "counterpart": last.counterpart,
                "probability": last.probability,
                "previous_counterpart": first.previous_counterpart,
                "previous_probability": first.previous_probability,
                "magnitude": abs(last.probability - first.previous_probability),
                "counterpart_changed": first.previous_counterpart != last.counterpart,
                "events_collapsed": len(run),
            }
        )
    return changes


def _qualifies(changes: List[dict], epsilon: float) -> bool:
    return any(
        change["magnitude"] > epsilon or change["counterpart_changed"]
        for change in changes
    )


class SubscriptionManager:
    """Ring-buffered change log with long-poll and webhook consumers.

    One manager serves one node (primary or replica); the engine —
    every engine, across replica re-bootstraps — publishes into it via
    :meth:`publish`, which the service wires up as a change listener.
    """

    #: Default long-poll park time (seconds); clients re-poll on None.
    DEFAULT_WAIT = 30.0

    def __init__(
        self,
        state_dir: Optional[Union[str, Path]] = None,
        buffer_size: int = 65536,
        webhook_timeout: float = 5.0,
    ) -> None:
        self._cond = threading.Condition()
        self._events: Deque[ChangeEvent] = deque(maxlen=buffer_size)
        #: Highest state version whose events have been published (also
        #: advanced by event-free batches, so cursors never stall).
        self._version = 0
        self._wal_offset = 0
        self._webhooks: Dict[str, dict] = {}
        self._next_id = 1
        self._closed = False
        self.webhook_timeout = webhook_timeout
        self._path = (
            Path(state_dir) / "subscriptions.json" if state_dir is not None else None
        )
        #: Optional :class:`repro.obs.provenance.ProvenanceRing` of the
        #: engine this manager listens to (wired by the server/CLI):
        #: publishing events for a WAL offset stamps ``notified`` on the
        #: deltas it covers — the moment watchers woke for them.
        self.provenance = None
        self._load()
        SUBSCRIPTIONS_ACTIVE.set_callback(lambda: float(len(self._webhooks)))
        self._delivery_thread = threading.Thread(
            target=self._delivery_loop, name="subs-delivery", daemon=True
        )
        self._delivery_thread.start()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        if self._path is None or not self._path.exists():
            return
        try:
            payload = json.loads(self._path.read_text("utf-8"))
            self._webhooks = {
                str(key): dict(value)
                for key, value in payload.get("subscriptions", {}).items()
            }
            self._next_id = int(payload.get("next_id", len(self._webhooks) + 1))
        except (ValueError, OSError) as error:
            _log.warning("unreadable subscriptions file", error=str(error))

    def _persist_locked(self) -> None:
        if self._path is None:
            return
        payload = {"subscriptions": self._webhooks, "next_id": self._next_id}
        tmp = self._path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1), "utf-8")
            tmp.replace(self._path)
        except OSError as error:
            _log.warning("could not persist subscriptions", error=str(error))

    # -- the publish side (engine change listener) ---------------------

    def publish(
        self, events: Sequence[ChangeEvent], version: int, wal_offset: int
    ) -> None:
        """Append one applied batch's events and wake every waiter.

        Called from the engine's change-listener hook (engine lock
        held; this condition is leaf-level, so the ordering is
        acyclic).  Events must arrive in version order, which serial
        delta application guarantees.
        """
        with self._cond:
            # Replay after restart re-derives events for versions the
            # persisted cursors may already cover; buffering them is
            # harmless (consumers filter by version) but never move the
            # cursor backwards.
            self._events.extend(events)
            if version > self._version:
                self._version = version
            if wal_offset > self._wal_offset:
                self._wal_offset = wal_offset
            self._cond.notify_all()
        if events and self.provenance is not None:
            # Outside the condition (ring lock is leaf-level too, but
            # waiters are already awake — stamping must not delay them).
            self.provenance.stamp_upto("notified", wal_offset)

    def advance(self, version: int, wal_offset: int) -> None:
        """Advance the cursor without events (attach/no-op batches)."""
        self.publish((), version, wal_offset)

    # -- long-poll -----------------------------------------------------

    def current_version(self) -> int:
        with self._cond:
            return self._version

    def _notification_locked(
        self, entity: str, epsilon: float, after: int
    ) -> Optional[dict]:
        matching = [
            event
            for event in self._events
            if event.entity == entity and event.version > after
        ]
        if not matching:
            return None
        changes = collapse_events(matching)
        if not _qualifies(changes, epsilon):
            return None
        return {
            "entity": entity,
            "epsilon": epsilon,
            "changes": changes,
            "version": max(event.version for event in matching),
            "wal_offset": max(event.wal_offset for event in matching),
        }

    def wait(
        self,
        entity: str,
        epsilon: float = 0.0,
        after: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Optional[dict]:
        """Block until ``entity`` nets a change > ``epsilon`` past
        version ``after`` (default: from now), or ``timeout`` expires.

        Returns the collapsed notification, or ``None`` on timeout —
        the long-poll 204.  Clients resume with ``after=<version>``
        from the last notification; missed-while-away changes answer
        immediately from the buffer.
        """
        deadline = time.monotonic() + (
            self.DEFAULT_WAIT if timeout is None else timeout
        )
        with self._cond:
            if after is None:
                after = self._version
            while True:
                notification = self._notification_locked(entity, epsilon, after)
                if notification is not None:
                    NOTIFICATIONS_TOTAL.inc(transport="longpoll")
                    return notification
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return None
                self._cond.wait(timeout=min(remaining, 1.0))

    # -- webhooks ------------------------------------------------------

    def subscribe(self, url: str, entity: str, epsilon: float = 0.0) -> dict:
        """Register a webhook; deliveries start after the current version."""
        with self._cond:
            sub_id = f"sub-{self._next_id}"
            self._next_id += 1
            record = {
                "id": sub_id,
                "url": url,
                "entity": entity,
                "epsilon": epsilon,
                "delivered_version": self._version,
            }
            self._webhooks[sub_id] = record
            self._persist_locked()
            self._cond.notify_all()
            return dict(record)

    def unsubscribe(self, sub_id: str) -> bool:
        with self._cond:
            removed = self._webhooks.pop(sub_id, None)
            if removed is not None:
                self._persist_locked()
            return removed is not None

    def subscriptions(self) -> List[dict]:
        with self._cond:
            return [dict(record) for record in self._webhooks.values()]

    def _pending_deliveries_locked(self) -> List[dict]:
        pending = []
        for record in self._webhooks.values():
            notification = self._notification_locked(
                record["entity"],
                float(record["epsilon"]),
                int(record["delivered_version"]),
            )
            if notification is not None:
                pending.append({"record": record, "notification": notification})
        return pending

    def _delivery_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                pending = self._pending_deliveries_locked()
                if not pending:
                    self._cond.wait(timeout=1.0)
                    continue
            for item in pending:
                self._deliver(item["record"], item["notification"])

    def _deliver(self, record: dict, notification: dict) -> None:
        body = json.dumps(notification).encode("utf-8")
        try:
            status, _headers, _body = client.request(
                record["url"], "POST", body, {"Content-Type": "application/json"},
                self.webhook_timeout,
            )
            failure = None if 200 <= status < 300 else f"HTTP {status}"
        except (OSError, ValueError) as error:
            failure = str(error)
        if failure is not None:
            # Cursor stays put: the delivery retries on the next cycle,
            # so a flapping endpoint loses nothing (it may later get a
            # *wider* collapsed window — still one deduped POST).
            _log.warning(
                "webhook delivery failed",
                subscription=record["id"],
                url=record["url"],
                error=failure,
            )
            return
        with self._cond:
            # Re-check: an unsubscribe may have raced the POST.
            live = self._webhooks.get(record["id"])
            if live is not None and notification["version"] > int(
                live["delivered_version"]
            ):
                live["delivered_version"] = notification["version"]
                self._persist_locked()
        NOTIFICATIONS_TOTAL.inc(transport="webhook")

    # -- lifecycle -----------------------------------------------------

    def stats(self) -> dict:
        with self._cond:
            return {
                "subscriptions": len(self._webhooks),
                "buffered_events": len(self._events),
                "version": self._version,
                "wal_offset": self._wal_offset,
            }

    def close(self) -> None:
        """Stop the delivery thread and release every parked waiter."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._delivery_thread.join(timeout=5.0)
