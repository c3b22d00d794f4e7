"""Unit and property tests for the production read path's data layer.

Covers :mod:`repro.service.query` (secondary index, keyset cursors,
ETags), the change-log exposure in :mod:`repro.core.result`
(``merge_assignment_deltas`` / ``net_assignment_changes``), and
:mod:`repro.service.subs` (event collapsing, long-poll dedup, webhook
delivery with persisted cursors).

The hypothesis property at the bottom is the ISSUE's cursor-stability
contract: a full page walk interleaved with random delta batches
yields exactly the union of a consistent snapshot plus
flagged-resumable pages — entities untouched by every delta appear
exactly once (no duplicates, no silent skips), every served row was
true at the moment it was served, and every page served after a
concurrent delta carries the ``changed_since_cursor`` flag.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import (
    IterationSnapshot,
    assignment_delta,
    merge_assignment_deltas,
)
from repro.rdf.terms import Resource
from repro.service.query import (
    ChangeEvent,
    CursorError,
    QueryIndex,
    etag_matches,
    make_cursor,
    parse_cursor,
    read_etag,
)
from repro.service.subs import NOTIFICATIONS_TOTAL, SubscriptionManager, collapse_events
from repro.testing import serve_in_thread, wait_until


def _assignment(pairs):
    """{left name: (right name, prob)} → the engine's Resource-keyed shape."""
    return {
        Resource(left): (Resource(right), probability)
        for left, (right, probability) in pairs.items()
    }


def _rows(index, threshold=0.0):
    rows, cursor = [], None
    while True:
        page, cursor = index.page(threshold=threshold, after=cursor, limit=3)
        rows.extend(page)
        if cursor is None:
            return rows


class TestQueryIndex:
    def test_rebuild_orders_like_the_alignment_endpoint(self):
        index = QueryIndex()
        index.rebuild(
            _assignment({"b": ("y", 0.5), "a": ("x", 0.9), "c": ("z", 0.5)}),
            version=3,
            wal_offset=7,
        )
        assert _rows(index) == [("a", "x", 0.9), ("b", "y", 0.5), ("c", "z", 0.5)]
        assert index.read_tag() == (3, 7)
        assert len(index) == 3

    def test_threshold_is_a_prefix_including_exact_boundary(self):
        index = QueryIndex()
        index.rebuild(
            _assignment({"a": ("x", 0.9), "b": ("y", 0.5), "c": ("z", 0.1)}),
            version=1,
            wal_offset=0,
        )
        assert [row[0] for row in index.top(10, threshold=0.5)] == ["a", "b"]
        assert [row[0] for row in index.top(10, threshold=0.500001)] == ["a"]
        assert len(index.snapshot_keys(threshold=0.1)) == 3
        assert index.top(2) == [("a", "x", 0.9), ("b", "y", 0.5)]

    def test_apply_changes_insert_update_remove(self):
        index = QueryIndex()
        index.rebuild(
            _assignment({"a": ("x", 0.9), "b": ("y", 0.5)}), version=1, wal_offset=1
        )
        mutations = index.apply_changes(
            {
                Resource("b"): None,  # dropped
                Resource("a"): (Resource("x"), 0.2),  # demoted
                Resource("d"): (Resource("w"), 0.7),  # fresh
            },
            version=2,
            wal_offset=5,
        )
        assert mutations == 4  # remove b, remove+insert a, insert d
        assert _rows(index) == [("d", "w", 0.7), ("a", "x", 0.2)]
        assert index.read_tag() == (2, 5)

    def test_page_after_key_resumes_without_overlap(self):
        index = QueryIndex()
        index.rebuild(
            _assignment({f"e{i}": ("x", 1.0 - i / 10) for i in range(10)}),
            version=1,
            wal_offset=0,
        )
        first, cursor = index.page(limit=4)
        rest, end = index.page(after=cursor, limit=100)
        assert [r[0] for r in first + rest] == [f"e{i}" for i in range(10)]
        assert end is None


class TestCursors:
    def test_roundtrip(self):
        key = (-0.75, "left-é", "right/слово")
        text = make_cursor(key, 0.5, (3, 9))
        assert parse_cursor(text, 0.5) == (key, (3, 9))

    def test_threshold_mismatch_rejected(self):
        text = make_cursor((-0.75, "a", "b"), 0.5, (1, 1))
        with pytest.raises(CursorError, match="threshold"):
            parse_cursor(text, 0.6)

    @pytest.mark.parametrize(
        "bad", ["", "garbage!!", "aGVsbG8", "eyJ2IjogMn0", "eyJ2IjogMX0"]
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(CursorError):
            parse_cursor(bad, 0.0)


class TestEtags:
    def test_wal_offset_wins_over_version(self):
        assert read_etag(4, 17) == 'W/"w17"'
        assert read_etag(4, 0) == 'W/"v4"'

    def test_weak_compare(self):
        etag = read_etag(1, 9)
        assert etag_matches(etag, etag)
        assert etag_matches('"w9"', etag)  # strong form still validates
        assert etag_matches('W/"w8", W/"w9"', etag)
        assert etag_matches("*", etag)
        assert not etag_matches('W/"w8"', etag)
        assert not etag_matches(None, etag)


class TestChangeLogExposure:
    def test_merge_drops_reverted_entities(self):
        a, b = Resource("a"), Resource("b")
        x, y = Resource("x"), Resource("y")
        base = {a: (x, 0.5)}
        deltas = [
            {a: (x, 0.9), b: (y, 0.4)},  # pass 1
            {a: (x, 0.5)},  # pass 2 reverts a to the base value
        ]
        assert merge_assignment_deltas(deltas, base) == {b: (y, 0.4)}

    def test_net_changes_match_full_diff_over_a_snapshot_chain(self):
        a, b, c = Resource("a"), Resource("b"), Resource("c")
        x, y = Resource("x"), Resource("y")
        base = {a: (x, 0.5), c: (y, 0.3)}
        passes = [
            {a: (x, 0.8), b: (y, 0.6)},
            {a: (x, 0.8), b: (y, 0.7)},  # c dropped in pass 2
        ]
        previous = None
        previous_assignment = dict(base)
        chain = []
        for index, assignment in enumerate(passes, start=1):
            delta = assignment_delta(previous_assignment, assignment)
            snapshot = IterationSnapshot(
                index=index,
                duration_seconds=0.0,
                change_fraction=None,
                num_equivalences=len(assignment),
                assignment12_delta=delta,
                assignment21_delta=delta,
                relations12=None,
                relations21=None,
                previous=previous,
                base12=dict(base) if previous is None else {},
                base21=dict(base) if previous is None else {},
            )
            chain.append(snapshot)
            previous = snapshot
            previous_assignment = dict(assignment)
        merged = merge_assignment_deltas(
            (snap.assignment12_delta for snap in chain), chain[0].base12
        )
        assert merged == assignment_delta(base, passes[-1])
        assert merged == {a: (x, 0.8), b: (y, 0.7), c: None}


def _event(entity, prob, prev_prob, version, counterpart="x", prev="x", side="left"):
    return ChangeEvent(
        side=side,
        entity=entity,
        counterpart=counterpart,
        probability=prob,
        previous_counterpart=prev,
        previous_probability=prev_prob,
        wal_offset=version,
        version=version,
    )


class TestCollapse:
    def test_run_nets_out_first_previous_last_current(self):
        changes = collapse_events(
            [
                _event("e", 0.9, 0.5, 1),
                _event("e", 0.4, 0.9, 2),
                _event("e", 0.55, 0.4, 3),
            ]
        )
        (change,) = changes
        assert change["previous_probability"] == 0.5
        assert change["probability"] == 0.55
        assert change["magnitude"] == pytest.approx(0.05)
        assert change["events_collapsed"] == 3
        assert not change["counterpart_changed"]

    def test_sides_collapse_independently(self):
        changes = collapse_events(
            [_event("e", 0.9, 0.5, 1, side="left"), _event("e", 0.2, 0.1, 1, side="right")]
        )
        assert [change["side"] for change in changes] == ["left", "right"]


class TestSubscriptionManager:
    def test_longpoll_collapses_to_exactly_one_notification(self):
        subs = SubscriptionManager()
        try:
            subs.publish([_event("e", 0.9, 0.5, 1)], version=1, wal_offset=1)
            subs.publish([_event("e", 0.95, 0.9, 2)], version=2, wal_offset=2)
            note = subs.wait("e", epsilon=0.1, after=0, timeout=0.1)
            assert note is not None and len(note["changes"]) == 1
            assert note["changes"][0]["magnitude"] == pytest.approx(0.45)
            assert note["version"] == 2
            # Resuming past the delivered version: nothing new → dedup.
            assert subs.wait("e", epsilon=0.1, after=note["version"], timeout=0.1) is None
        finally:
            subs.close()

    def test_epsilon_filters_but_counterpart_change_always_fires(self):
        subs = SubscriptionManager()
        try:
            subs.publish([_event("e", 0.52, 0.5, 1)], version=1, wal_offset=1)
            assert subs.wait("e", epsilon=0.1, after=0, timeout=0.1) is None
            subs.publish(
                [_event("e", 0.52, 0.52, 2, counterpart="y", prev="x")],
                version=2,
                wal_offset=2,
            )
            note = subs.wait("e", epsilon=0.1, after=0, timeout=0.1)
            assert note is not None
            assert note["changes"][0]["counterpart_changed"]
        finally:
            subs.close()

    def test_wait_wakes_on_publish(self):
        subs = SubscriptionManager()
        try:
            result = {}

            def park():
                result["note"] = subs.wait("e", epsilon=0.0, timeout=10.0)

            thread = threading.Thread(target=park)
            thread.start()
            time.sleep(0.2)
            subs.publish([_event("e", 0.9, 0.1, 1)], version=1, wal_offset=1)
            thread.join(timeout=10.0)
            assert result["note"] is not None
        finally:
            subs.close()

    def test_webhook_delivers_once_and_cursor_survives_restart(self, tmp_path):
        received = []

        class Hook(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.append(json.loads(self.rfile.read(length)))
                self.send_response(204)
                self.end_headers()

            def log_message(self, *args):
                pass

        sink = HTTPServer(("127.0.0.1", 0), Hook)
        threading.Thread(target=sink.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{sink.server_address[1]}/hook"

        subs = SubscriptionManager(state_dir=tmp_path)
        record = subs.subscribe(url, "e", epsilon=0.1)
        subs.publish(
            [_event("e", 0.9, 0.5, 1), _event("e", 0.95, 0.9, 1)],
            version=1,
            wal_offset=1,
        )
        deadline = time.monotonic() + 10.0
        while not received and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(received) == 1  # two events, one collapsed delivery
        assert received[0]["changes"][0]["probability"] == 0.95
        time.sleep(0.3)
        assert len(received) == 1  # and never a duplicate
        subs.close()

        # Restart: WAL replay re-publishes version 1; the persisted
        # delivered_version cursor filters it — lossless, duplicate-free.
        reborn = SubscriptionManager(state_dir=tmp_path)
        assert reborn.subscriptions()[0]["id"] == record["id"]
        reborn.publish([_event("e", 0.95, 0.5, 1)], version=1, wal_offset=1)
        time.sleep(0.5)
        assert len(received) == 1
        # A genuinely new version past the cursor still delivers.
        reborn.publish([_event("e", 0.2, 0.95, 2)], version=2, wal_offset=2)
        deadline = time.monotonic() + 10.0
        while len(received) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(received) == 2
        reborn.close()
        sink.shutdown()

    def test_failed_webhook_delivery_keeps_the_cursor(self, tmp_path):
        answers = [500, 204]
        seen = []  # (status answered, delivered_version when the POST arrived)

        class Hook(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                status = answers.pop(0) if answers else 204
                seen.append((status, subs.subscriptions()[0]["delivered_version"]))
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        delivered = NOTIFICATIONS_TOTAL.value(transport="webhook")
        subs = SubscriptionManager(state_dir=tmp_path)
        try:
            with serve_in_thread(HTTPServer(("127.0.0.1", 0), Hook)) as url:
                subs.subscribe(url + "/hook", "e", epsilon=0.1)
                subs.publish([_event("e", 0.9, 0.5, 1)], version=1, wal_offset=1)
                wait_until(lambda: subs.subscriptions()[0]["delivered_version"] == 1, 10)
                time.sleep(0.3)
        finally:
            subs.close()
        assert seen == [(500, 0), (204, 0)]
        assert NOTIFICATIONS_TOTAL.value(transport="webhook") == delivered + 1


# -- the cursor-stability property -----------------------------------------

_names = st.integers(min_value=0, max_value=29).map(lambda i: f"e{i}")
_probs = st.integers(min_value=1, max_value=100).map(lambda i: i / 100)
_match = st.tuples(st.sampled_from(["x", "y", "z"]), _probs)
_base = st.dictionaries(_names, _match, min_size=1, max_size=25)
_batches = st.lists(
    st.dictionaries(_names, st.one_of(st.none(), _match), min_size=1, max_size=6),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(base=_base, batches=_batches, page_size=st.integers(1, 7), data=st.data())
def test_page_walk_under_concurrent_deltas(base, batches, page_size, data):
    """The tentpole contract: keyset pages under concurrent deltas are
    the union of a consistent snapshot plus flagged-resumable pages —
    untouched entities appear exactly once, every served row was true
    when served, and concurrent deltas are never silent."""
    index = QueryIndex()
    index.rebuild(_assignment(base), version=1, wal_offset=1)
    shadow = dict(base)  # ground truth at the index's current tag
    pending = list(batches)
    served = []
    flags = []
    cursor_key, cursor_tag = None, index.read_tag()
    version = 1
    applied_mid_walk = 0
    while True:
        # A delta batch may land between any two pages.
        if pending and data.draw(st.booleans(), label="interleave delta"):
            batch = pending.pop(0)
            version += 1
            if cursor_key is not None:
                applied_mid_walk += 1
            index.apply_changes(
                {
                    Resource(name): (
                        None
                        if match is None
                        else (Resource(match[0]), match[1])
                    )
                    for name, match in batch.items()
                },
                version=version,
                wal_offset=version,
            )
            for name, match in batch.items():
                if match is None:
                    shadow.pop(name, None)
                else:
                    shadow[name] = match
        serve_tag = index.read_tag()
        flags.append(serve_tag != cursor_tag and cursor_key is not None)
        rows, next_key = index.page(after=cursor_key, limit=page_size)
        for left, right, probability in rows:
            # Every served row was true at the moment it was served.
            assert shadow.get(left) == (right, probability)
        served.extend(rows)
        if next_key is None:
            break
        cursor_key, cursor_tag = next_key, serve_tag

    touched = set().union(*batches) if batches else set()
    for name in set(base) - touched:
        # No duplicates, no silent skips for entities no delta moved.
        assert sum(1 for row in served if row[0] == name) == 1, name
    # Concurrent deltas are detected: any batch applied after a cursor
    # was minted must raise the changed_since_cursor flag on a later
    # page (tags are monotone, so any applied batch changes the tag).
    applied = len(batches) - len(pending)
    if applied_mid_walk:
        assert any(flags), "a concurrent delta went undetected"
    if not applied:
        # No interleaved deltas: the walk IS the consistent snapshot.
        expected = sorted(
            ((left, match[0], match[1]) for left, match in base.items()),
            key=lambda row: (-row[2], row[0], row[1]),
        )
        assert served == expected
        assert not any(flags)
