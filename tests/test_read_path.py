"""HTTP-level tests for the production read path.

Exercises the full surface the ISSUE added to the serving stack, over
real sockets against all three roles (primary, replica, router):
keyset pagination with concurrent-delta detection, top-k and
per-entity neighborhood reads, WAL-offset ETags with ``If-None-Match``
revalidation (304 on every read endpoint, relayed through the router),
the streamed full dump (chunked transfer, TSV byte-identity, capped
per-request peak allocation), long-poll ``/watch`` and the webhook
subscription endpoints.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.client import post_json, request
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_pair
from repro.io.alignment_io import render_assignment_rows
from repro.service import AlignmentService
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import _alignment_json_chunks, build_server
from repro.testing import family_delta, fetch_json, serve_in_thread, serve_primary, url_of


READ_PATHS = (
    "/healthz",
    "/stats",
    "/pair/p0a/q0a",
    "/alignment",
    "/alignment?top=2",
    "/alignment?limit=3",
    "/alignment?entity=p0a",
)


@pytest.fixture()
def primary(tmp_path):
    left, right = family_pair(5)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    with serve_primary(service, tmp_path / "state", snapshot_every=0) as server:
        yield server, service
    server.subs.close()


class TestAlignmentReads:
    def test_page_walk_concatenates_to_the_full_dump(self, primary):
        server, _service = primary
        dump, headers = fetch_json(url_of(server, "/alignment"))
        assert headers["ETag"] == 'W/"v0"'
        walked, cursor, pages = [], None, 0
        while True:
            path = "/alignment?limit=4" + (f"&cursor={cursor}" if cursor else "")
            page, page_headers = fetch_json(url_of(server, path))
            assert page_headers["ETag"] == headers["ETag"]
            assert not page["changed_since_cursor"]
            assert page["version"] == dump["version"]
            assert page["wal_offset"] == dump["wal_offset"]
            walked.extend(page["pairs"])
            pages += 1
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert walked == dump["pairs"]
        assert pages == -(-len(dump["pairs"]) // 4)

    def test_top_k_is_a_prefix_of_the_dump(self, primary):
        server, _service = primary
        dump, _headers = fetch_json(url_of(server, "/alignment"))
        top, _headers = fetch_json(url_of(server, "/alignment?top=3"))
        assert top["pairs"] == dump["pairs"][:3]
        assert top["top"] == 3

    def test_threshold_matches_a_full_table_filter(self, primary):
        server, service = primary
        dump, _headers = fetch_json(url_of(server, "/alignment"))
        threshold = sorted(p["probability"] for p in dump["pairs"])[len(dump["pairs"]) // 2]
        filtered, _headers = fetch_json(url_of(server, f"/alignment?threshold={threshold}"))
        expected = [p for p in dump["pairs"] if p["probability"] >= threshold]
        assert filtered["pairs"] == expected
        paged, _headers = fetch_json(url_of(server, f"/alignment?threshold={threshold}&limit=100"))
        assert paged["pairs"] == expected
        # ...and against the engine's own full-table filter.
        table = service.alignment(threshold)
        assert len(expected) == len(table)

    def test_entity_neighborhood(self, primary):
        server, _service = primary
        payload, _headers = fetch_json(url_of(server, "/alignment?entity=p0a"))
        assert payload["entity"] == "p0a"
        assert payload["best_counterpart_as_left"]["right"] == "q0a"
        probabilities = [row["probability"] for row in payload["as_left"]]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_streamed_tsv_is_byte_identical_to_the_renderer(self, primary):
        server, service = primary
        status, headers, body = request(url_of(server, "/alignment?format=tsv"))
        assert status == 200
        assert headers["Transfer-Encoding"] == "chunked"
        assert body == render_assignment_rows(service.alignment(0.0)).encode("utf-8")

    def test_json_dump_streams_chunked(self, primary):
        server, _service = primary
        status, headers, body = request(url_of(server, "/alignment"))
        assert status == 200
        assert headers["Transfer-Encoding"] == "chunked"
        assert "Content-Length" not in headers
        assert len(json.loads(body)["pairs"]) == 15

    @pytest.mark.parametrize(
        "path",
        [
            "/alignment?threshold=abc",
            "/alignment?top=abc",
            "/alignment?top=0",
            "/alignment?limit=abc",
            "/alignment?limit=0",
            "/alignment?cursor=garbage",
        ],
    )
    def test_bad_read_parameters_are_400(self, primary, path):
        server, _service = primary
        status, _headers, body = request(url_of(server, path))
        assert status == 400, body

    def test_cursor_with_wrong_threshold_is_400(self, primary):
        server, _service = primary
        page, _headers = fetch_json(url_of(server, "/alignment?limit=2&threshold=0.5"))
        status, _headers, body = request(
            url_of(server, f"/alignment?limit=2&threshold=0.6&cursor={page['next_cursor']}"),
        )
        assert status == 400
        assert b"threshold" in body


class TestCaching:
    def test_304_on_every_read_endpoint(self, primary):
        server, _service = primary
        for path in READ_PATHS:
            _status, headers, _body = request(url_of(server, path))
            etag = headers["ETag"]
            assert etag, path
            assert headers["Cache-Control"] == "no-cache"
            status, revalidated, body = request(
                url_of(server, path),
                headers={"If-None-Match": etag},
            )
            assert status == 304, (path, status)
            assert revalidated["ETag"] == etag
            assert body == b""

    def test_delta_invalidates_and_flags_open_cursors(self, primary):
        server, _service = primary
        page, headers = fetch_json(url_of(server, "/alignment?limit=4"))
        etag = headers["ETag"]
        fetch_json(url_of(server, "/delta"), family_delta(5).to_json())
        # The old validator no longer matches: full 200 with a new tag.
        status, fresh_headers, _body = request(
            url_of(server, "/alignment?limit=4"),
            headers={"If-None-Match": etag},
        )
        assert status == 200
        assert fresh_headers["ETag"] != etag
        # The open cursor still pages (keyset), but flags the delta.
        resumed, _headers = fetch_json(
            url_of(server, f"/alignment?limit=4&cursor={page['next_cursor']}"),
        )
        assert resumed["changed_since_cursor"]
        assert resumed["pairs"]
        # The new validator revalidates.
        status, _headers, _body = request(
            url_of(server, "/alignment"),
            headers={"If-None-Match": fresh_headers["ETag"]},
        )
        assert status == 304

    def test_streaming_dump_peak_allocation_is_capped(self):
        """Regression for the full-JSON materialization fix: producing
        the dump body must never allocate anything close to the full
        serialized document."""
        keys = [(-(1.0 - i / 60000), f"entity-{i:06d}", f"match-{i:06d}") for i in range(30000)]
        meta = {"version": 9, "wal_offset": 9}
        full_size = sum(len(c) for c in _alignment_json_chunks(keys, 0.0, meta))
        assert full_size > 1_500_000
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            total = 0
            for chunk in _alignment_json_chunks(keys, 0.0, meta):
                total += len(chunk)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == full_size
        assert peak - baseline < full_size / 4, (peak - baseline, full_size)


class TestWatch:
    def test_exactly_one_deduped_notification(self, primary):
        server, _service = primary
        result = {}

        def watch():
            result["note"], _headers = fetch_json(
                url_of(server, "/watch?entity=p5a&epsilon=0.05&timeout=30"),
            )

        thread = threading.Thread(target=watch)
        thread.start()
        time.sleep(0.3)
        fetch_json(url_of(server, "/delta"), family_delta(5).to_json())
        thread.join(timeout=30)
        note = result["note"]
        assert note["entity"] == "p5a"
        assert len(note["changes"]) == 1  # collapsed: one net change
        assert note["changes"][0]["probability"] > 0.9
        assert note["version"] == 1
        # Resuming past the delivered version: dedup → timeout.
        replay, _headers = fetch_json(
            url_of(server, f"/watch?entity=p5a&after={note['version']}&timeout=0.2"),
        )
        assert replay["timeout"] is True

    def test_watch_requires_entity(self, primary):
        server, _service = primary
        status, _headers, _body = request(url_of(server, "/watch"))
        assert status == 400

    def test_stable_entity_times_out(self, primary):
        server, _service = primary
        fetch_json(url_of(server, "/delta"), family_delta(5).to_json())
        note, _headers = fetch_json(url_of(server, "/watch?entity=p0a&after=0&timeout=0.2"))
        assert note["timeout"] is True


class TestSubscriptions:
    def test_webhook_lifecycle(self, primary):
        server, _service = primary
        received = []

        class Hook(BaseHTTPRequestHandler):
            def do_POST(self):
                received.append(
                    json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                )
                self.send_response(204)
                self.end_headers()

            def log_message(self, *args):
                pass

        sink = HTTPServer(("127.0.0.1", 0), Hook)
        with serve_in_thread(sink):
            record = fetch_json(
                url_of(server, "/subscribe"),
                {
                    "url": f"http://127.0.0.1:{sink.server_address[1]}/hook",
                    "entity": "p5a",
                    "epsilon": 0.05,
                },
            )[0]
            assert record["id"] == "sub-1"
            listed, _headers = fetch_json(url_of(server, "/subscriptions"))
            assert [sub["id"] for sub in listed["subscriptions"]] == ["sub-1"]
            fetch_json(url_of(server, "/delta"), family_delta(5).to_json())
            deadline = time.monotonic() + 30
            while not received and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(received) == 1
            assert received[0]["entity"] == "p5a"
            assert received[0]["changes"][0]["probability"] > 0.9
            time.sleep(0.3)
            assert len(received) == 1  # delivered exactly once
            removed = fetch_json(url_of(server, "/unsubscribe"), {"id": "sub-1"})[0]
            assert removed["removed"] is True
            listed, _headers = fetch_json(url_of(server, "/subscriptions"))
            assert listed["subscriptions"] == []

    @pytest.mark.parametrize(
        "payload",
        [
            {"entity": "x"},
            {"url": "ftp://nope", "entity": "x"},
            {"url": "http://h/hook", "entity": ""},
            {"url": "http://h/hook", "entity": "x", "epsilon": -1},
            "not an object",
        ],
    )
    def test_subscribe_validation(self, primary, payload):
        server, _service = primary
        assert post_json(url_of(server, "/subscribe"), payload)[0] == 400


class TestReplicaAndRouter:
    @pytest.fixture()
    def cluster(self, tmp_path):
        left, right = family_pair(6)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        with serve_primary(primary, state_dir, snapshot_every=0) as primary_server:
            primary_server.stream.batcher.submit(family_delta(6), "writer", 1, wait=True)
            replica = ReplicaNode(state_dir, batch=8)
            replica.catch_up(1)
            replica_server = build_server(None, "127.0.0.1", 0, replica=replica)
            router = ReadRouter(
                url_of(primary_server),
                [url_of(replica_server)],
                check_interval=0.2,
                stats_ttl=0.05,
            )
            router_server = build_router_server(router)
            with serve_in_thread(replica_server), serve_in_thread(router_server):
                router.start()
                yield {
                    "primary_server": primary_server,
                    "replica_server": replica_server,
                    "router_server": router_server,
                }
                router.stop()
            replica.stop()
        primary_server.subs.close()
        replica_server.subs.close()

    @pytest.mark.parametrize("role", ["replica_server", "router_server"])
    def test_304_on_every_read_endpoint_all_roles(self, cluster, role):
        server = cluster[role]
        paths = ["/pair/p0a/q0a", "/alignment", "/alignment?top=2",
                 "/alignment?limit=3"]
        if role == "replica_server":
            # /healthz and /stats are state-stamped on engine-backed
            # roles; the router's own health/stats describe live fleet
            # state and are deliberately uncacheable.
            paths += ["/healthz", "/stats"]
        for path in paths:
            _status, headers, _body = request(url_of(server, path))
            etag = headers["ETag"]
            assert etag, (role, path)
            status, revalidated, body = request(
                url_of(server, path),
                headers={"If-None-Match": etag},
            )
            assert status == 304, (role, path, status)
            assert revalidated["ETag"] == etag
            assert body == b""

    def test_etags_are_cross_node_comparable(self, cluster):
        _dump, primary_headers = fetch_json(url_of(cluster["primary_server"], "/alignment"))
        _dump, replica_headers = fetch_json(url_of(cluster["replica_server"], "/alignment"))
        assert primary_headers["ETag"] == replica_headers["ETag"] == 'W/"w1"'
        # A validator minted against the primary revalidates the replica.
        status, _headers, _body = request(
            url_of(cluster["replica_server"], "/alignment"),
            headers={"If-None-Match": primary_headers["ETag"]},
        )
        assert status == 304

    def test_replica_serves_the_paginated_surface(self, cluster):
        dump, _headers = fetch_json(url_of(cluster["replica_server"], "/alignment"))
        page, _headers = fetch_json(url_of(cluster["replica_server"], "/alignment?limit=5"))
        assert page["pairs"] == dump["pairs"][:5]
        top, _headers = fetch_json(url_of(cluster["replica_server"], "/alignment?top=2"))
        assert top["pairs"] == dump["pairs"][:2]
        entity, _headers = fetch_json(url_of(cluster["replica_server"], "/alignment?entity=p6a"))
        assert entity["best_counterpart_as_left"]["right"] == "q6a"

    def test_router_relays_etags_and_304(self, cluster):
        router_server = cluster["router_server"]
        dump, headers = fetch_json(url_of(router_server, "/alignment"))
        etag = headers["ETag"]
        assert etag == 'W/"w1"'
        assert dump["pairs"]
        status, revalidated, body = request(
            url_of(router_server, "/alignment"),
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert revalidated["ETag"] == etag
        assert body == b""
        # Pagination rides through the router unchanged.
        page, _headers = fetch_json(url_of(router_server, "/alignment?limit=3"))
        assert page["pairs"] == dump["pairs"][:3]
        assert page["next_cursor"]
