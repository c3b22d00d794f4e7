"""End-to-end delta provenance (PR 9).

Covers the provenance layer bottom-up: trace-context extraction, the
:class:`~repro.obs.provenance.ProvenanceRing` (stamping, histogram
gating, eviction, coalescing provenance), WAL schema v2 backward
compatibility against a hand-written pre-PR-9 (v1) log, restart
replay without double-counted histograms, replica-side registration
of shipped records, the ``X-Request-Id`` echo contract on all three
HTTP roles, the ``GET /provenance`` endpoint, the ``repro trace``
CLI, and the ``stats --watch`` reconnect backoff.
"""

from __future__ import annotations

import argparse
import json
import time
import urllib.error

import pytest

from repro.cli import (
    _merge_timelines,
    _watch_service_stats,
    build_parser,
    cmd_trace,
)
from repro.client import get_json, request
from repro.core.aligner import align
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_pair
from repro.obs.provenance import (
    DELTA_STAGE_SECONDS,
    STAGE_LEGS,
    STAGES,
    ProvenanceRing,
    extract_trace_id,
    new_trace_id,
    sanitize_trace_id,
)
from repro.service import AlignmentService
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import build_server
from repro.service.stream import (
    StreamStack,
    WalGapError,
    WriteAheadLog,
    replay_wal,
)
from repro.service.stream.wal import WalRecord
from repro.testing import (
    family_delta,
    fetch_json,
    serve_in_thread,
    serve_primary,
    url_of,
    wait_until,
)

TOLERANCE = 1e-9


def assert_stores_match(first, second, tolerance=TOLERANCE):
    mismatches = list(first.diff(second, tolerance))
    assert not mismatches, mismatches[:5]


def leg_counts() -> dict:
    """Current observation count of each stage histogram leg (the
    registry is process-global, so tests compare deltas, not totals)."""
    return {leg: DELTA_STAGE_SECONDS.snapshot(stage=leg)[2] for leg in STAGE_LEGS}


def timeline_is_monotone(timeline: dict) -> bool:
    stamped = [timeline[stage] for stage in STAGES if stage in timeline]
    return all(a <= b for a, b in zip(stamped, stamped[1:]))


# ----------------------------------------------------------------------
# trace-context extraction
# ----------------------------------------------------------------------


class TestTraceExtraction:
    def test_sanitize_accepts_printable_ids(self):
        assert sanitize_trace_id("req-42/abc") == "req-42/abc"
        assert sanitize_trace_id("  padded  ") == "padded"

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "has space", "tab\tid", "ctrl\x01id", "x" * 129, None, 7],
    )
    def test_sanitize_rejects_garbage(self, bad):
        assert sanitize_trace_id(bad) is None

    def test_x_request_id_wins_over_traceparent(self):
        headers = {
            "X-Request-Id": "client-chosen",
            "traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
        }
        assert extract_trace_id(headers) == ("client-chosen", False)

    def test_traceparent_trace_id_is_extracted(self):
        headers = {"traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"}
        assert extract_trace_id(headers) == ("ab" * 16, False)

    def test_all_zero_traceparent_is_rejected(self):
        headers = {"traceparent": "00-" + "0" * 32 + "-" + "cd" * 8 + "-01"}
        trace, generated = extract_trace_id(headers)
        assert generated and trace != "0" * 32

    def test_absent_headers_synthesize(self):
        trace, generated = extract_trace_id({})
        assert generated and len(trace) == 32
        other, _ = extract_trace_id({})
        assert other != trace

    def test_new_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 and int(i, 16) >= 0 for i in ids)


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------


class TestProvenanceRing:
    def test_live_stamps_observe_each_leg_once(self):
        ring = ProvenanceRing()
        before = leg_counts()
        ring.admit("t1", offset=1, ingest_ts=10.0, enqueue_ts=10.5)
        ring.stamp_upto("durable", 1, ts=11.0)
        ring.stamp_applied_upto(1, ts=12.0)
        ring.stamp_upto("notified", 1, ts=12.5)
        after = leg_counts()
        assert after["ingest_to_durable"] == before["ingest_to_durable"] + 1
        assert after["durable_to_applied"] == before["durable_to_applied"] + 1
        assert after["applied_to_notified"] == before["applied_to_notified"] + 1
        payload = ring.lookup_trace("t1")
        assert payload["found"] and payload["offset"] == 1
        assert timeline_is_monotone(payload["timeline"])
        assert set(payload["timeline"]) == {
            "ingest", "enqueue", "durable", "applied", "notified",
        }

    def test_stamp_upto_covers_a_prefix_and_is_idempotent(self):
        ring = ProvenanceRing()
        for offset in (1, 2, 3):
            ring.admit(f"t{offset}", offset=offset, ingest_ts=1.0)
        ring.stamp_upto("durable", 2, ts=2.0)
        assert "durable" in ring.lookup_offset(1)["timeline"]
        assert "durable" in ring.lookup_offset(2)["timeline"]
        assert "durable" not in ring.lookup_offset(3)["timeline"]
        # Re-stamping the same prefix must not move existing stamps.
        ring.stamp_upto("durable", 3, ts=9.0)
        assert ring.lookup_offset(2)["timeline"]["durable"] == 2.0
        assert ring.lookup_offset(3)["timeline"]["durable"] == 9.0

    def test_replayed_entries_never_observe(self):
        ring = ProvenanceRing()
        record = WalRecord(
            offset=5, source="http", seq=None, delta=family_delta(6),
            prov={"trace": "old", "ingest_ts": 1.0, "enqueue_ts": 1.1},
        )
        before = leg_counts()
        ring.register_record(record, live=False)
        ring.stamp_applied_upto(5, ts=3.0)
        ring.stamp_upto("notified", 5, ts=4.0)
        assert leg_counts() == before
        payload = ring.lookup_trace("old")
        assert payload["replayed"] and "applied" in payload["timeline"]

    def test_registered_records_are_durable_already(self):
        """A later fsync of *new* appends must not stamp replayed
        entries with its own (much later) clock."""
        ring = ProvenanceRing()
        record = WalRecord(
            offset=1, source="http", seq=None, delta=family_delta(6),
            prov={"trace": "old", "ingest_ts": 1.0},
        )
        ring.register_record(record, live=False)
        ring.admit("new", offset=2, ingest_ts=100.0)
        ring.stamp_upto("durable", 2, ts=101.0)
        assert "durable" not in ring.lookup_trace("old")["timeline"]
        assert ring.lookup_trace("new")["timeline"]["durable"] == 101.0

    def test_remote_entries_stamp_replica_applied(self):
        ring = ProvenanceRing()
        record = WalRecord(
            offset=7, source="http", seq=None, delta=family_delta(6),
            prov={
                "trace": "shipped", "ingest_ts": 1.0,
                "durable_ts": 1.2, "applied_ts": 1.4,
            },
        )
        before = leg_counts()
        ring.register_record(record, live=True, remote=True)
        ring.stamp_applied_upto(7, ts=2.0)
        after = leg_counts()
        assert after["applied_to_replica"] == before["applied_to_replica"] + 1
        # The local apply routed to replica_applied, not applied...
        timeline = ring.lookup_trace("shipped")["timeline"]
        assert timeline["replica_applied"] == 2.0
        # ...and the shipped primary-side stamps survived.
        assert timeline["applied"] == 1.4 and timeline["durable"] == 1.2

    def test_v1_record_without_prov_still_registers(self):
        ring = ProvenanceRing()
        record = WalRecord(offset=3, source="w", seq=3, delta=family_delta(6))
        ring.register_record(record, live=False)
        payload = ring.lookup_offset(3)
        assert payload["found"] and payload["timeline"] == {}
        assert len(payload["trace"]) == 32  # synthesized

    def test_eviction_is_bounded_and_indexes_stay_consistent(self):
        ring = ProvenanceRing(capacity=2)
        for offset in (1, 2, 3):
            ring.admit(f"t{offset}", offset=offset, ingest_ts=float(offset))
        assert len(ring) == 2
        assert ring.lookup_trace("t1") is None
        assert ring.lookup_offset(1) is None
        assert ring.lookup_trace("t3")["found"]

    def test_note_merge_records_coalesced_traces(self):
        ring = ProvenanceRing()
        ring.admit("a", offset=1)
        ring.admit("b", offset=2)
        ring.note_merge(["a", "b"])
        assert ring.lookup_trace("a")["merged_traces"] == ["a", "b"]
        assert ring.lookup_trace("b")["merged_traces"] == ["a", "b"]
        # A single-delta batch is not a merge.
        ring.admit("c", offset=3)
        ring.note_merge(["c"])
        assert ring.lookup_trace("c")["merged_traces"] == []

    def test_offset_stamps_expose_durable_and_applied(self):
        ring = ProvenanceRing()
        ring.admit("t", offset=4, ingest_ts=1.0)
        assert ring.offset_stamps(4) == {}
        ring.stamp_upto("durable", 4, ts=2.0)
        ring.stamp_applied_upto(4, ts=3.0)
        assert ring.offset_stamps(4) == {"durable_ts": 2.0, "applied_ts": 3.0}
        assert ring.offset_stamps(99) == {}

    def test_freshness_age(self):
        ring = ProvenanceRing()
        assert ring.age("applied") == -1.0
        ring.admit("t", offset=1, ingest_ts=time.time())
        assert 0.0 <= ring.age("ingest") < 60.0


# ----------------------------------------------------------------------
# write path: batcher coalescing keeps every trace
# ----------------------------------------------------------------------


class TestBatcherProvenance:
    def test_traces_survive_coalescing(self, tmp_path):
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        stream = StreamStack.open(service, tmp_path, max_batch=8, max_lag=0.01)
        batcher = stream.batcher
        traces = [f"trace-{i}" for i in range(3)]
        before = leg_counts()
        # Queue three deltas before the flush loop exists, so one warm
        # pass absorbs all of them.
        for index, trace in enumerate(traces):
            batcher.submit(
                family_delta(6 + index), "writer", index + 1, trace=trace
            )
        stream.start()
        assert batcher.flush(timeout=60.0)
        stream.stop()
        after = leg_counts()
        assert after["ingest_to_durable"] >= before["ingest_to_durable"] + 3
        assert after["durable_to_applied"] >= before["durable_to_applied"] + 3
        for trace in traces:
            payload = service.provenance.lookup_trace(trace)
            assert payload is not None and payload["found"]
            assert set(traces) <= set(payload["merged_traces"])
            assert timeline_is_monotone(payload["timeline"])
            for stage in ("ingest", "enqueue", "durable", "applied"):
                assert stage in payload["timeline"], (trace, payload)


# ----------------------------------------------------------------------
# WAL schema v2: backward compatibility with pre-PR-9 logs
# ----------------------------------------------------------------------


class TestWalSchemaCompat:
    BASE = 6
    DELTAS = 3

    def _v1_fixture(self, tmp_path):
        """A state dir exactly as a pre-PR-9 primary leaves it: a
        snapshot at offset 0 and hand-written v1 WAL records (no ``v``,
        no ``prov`` — the old wire format, byte for byte)."""
        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        service.snapshot(state_dir)
        deltas = [family_delta(self.BASE + step) for step in range(self.DELTAS)]
        lines = [
            json.dumps(
                {
                    "offset": index + 1,
                    "source": "writer",
                    "seq": index + 1,
                    "delta": delta.to_json(),
                }
            )
            for index, delta in enumerate(deltas)
        ]
        (state_dir / "wal.ndjson").write_text("\n".join(lines) + "\n", "utf-8")
        return state_dir, deltas

    def test_v1_records_round_trip_unchanged(self, tmp_path):
        state_dir, _deltas = self._v1_fixture(tmp_path)
        for line in (state_dir / "wal.ndjson").read_text("utf-8").splitlines():
            raw = json.loads(line)
            assert "v" not in raw and "prov" not in raw
            record = WalRecord.from_json(raw)
            assert record.prov is None
            # Re-encoding a v1 record must not invent v2 keys.
            assert record.to_json() == raw

    def test_v2_records_round_trip_with_prov(self):
        record = WalRecord(
            offset=1, source="http", seq=None, delta=family_delta(6),
            prov={"trace": "t", "ingest_ts": 1.0},
        )
        wire = record.to_json()
        assert wire["v"] == 2 and wire["prov"]["trace"] == "t"
        decoded = WalRecord.from_json(wire)
        assert decoded.prov == {"trace": "t", "ingest_ts": 1.0}
        # The wire prov is a copy: mutating it must not alias the record.
        wire["prov"]["durable_ts"] = 9.9
        assert "durable_ts" not in record.prov

    @pytest.mark.parametrize("bad", [0, -1, "2", 1.5])
    def test_bad_schema_version_is_rejected(self, bad):
        payload = {
            "offset": 1, "source": "s", "delta": family_delta(6).to_json(),
            "v": bad,
        }
        with pytest.raises(ValueError):
            WalRecord.from_json(payload)

    def test_pre_pr9_wal_replays_to_cold_realign_scores(self, tmp_path):
        """Acceptance: a WAL written before provenance existed replays
        exactly as before — the recovered scores equal a cold realign
        of the final graphs within 1e-9, histograms untouched."""
        state_dir, _deltas = self._v1_fixture(tmp_path)
        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        wal = WriteAheadLog(state_dir / "wal.ndjson")
        before = leg_counts()
        assert replay_wal(service, wal, max_batch=2) == self.DELTAS
        wal.close()
        # Replay reconstructs timelines without re-observing histograms.
        assert leg_counts() == before
        assert len(service.provenance) >= self.DELTAS
        assert service.provenance.lookup_offset(1)["replayed"]
        cold = align(
            *family_pair(self.BASE + self.DELTAS),
            ParisConfig(score_stationarity=True),
        )
        assert_stores_match(service.state.store, cold.instances)

    def test_restart_replay_does_not_double_count(self, tmp_path):
        """Live traffic, then a 'restart' (fresh engine + replay of the
        same WAL): the stage histograms advance only for the first
        life of the process."""
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        service.snapshot(state_dir)
        with StreamStack.open(service, state_dir, max_batch=4, max_lag=0.01) as stream:
            for step in range(2):
                stream.batcher.submit(
                    family_delta(6 + step), "w", step + 1,
                    wait=True, trace=f"live-{step}",
                )

        left2, right2 = family_pair(6)
        restarted = AlignmentService.cold_start(left2, right2, ParisConfig())
        wal2 = WriteAheadLog(state_dir / "wal.ndjson")
        before = leg_counts()
        assert replay_wal(restarted, wal2) == 2
        wal2.close()
        assert leg_counts() == before
        # The replayed timeline still carries the live run's trace ids.
        payload = restarted.provenance.lookup_trace("live-0")
        assert payload is not None and payload["replayed"]
        assert_stores_match(restarted.state.store, service.state.store)


# ----------------------------------------------------------------------
# replica: shipped records register remotely, ring survives re-bootstrap
# ----------------------------------------------------------------------


class TestReplicaProvenance:
    def make_primary(self, tmp_path, segment_bytes=0):
        left, right = family_pair(6)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        wal = WriteAheadLog(state_dir / "wal.ndjson", segment_bytes=segment_bytes)
        wal.provenance = primary.provenance
        return primary, state_dir, wal

    def write_through(self, primary, wal, delta, seq, trace=None):
        """The primary's write path, as the batcher drives it: buffered
        append + ring admit, fsync (stamps durable), then apply."""
        prov = None
        now = time.time()
        if trace is not None:
            prov = {"trace": trace, "ingest_ts": now, "enqueue_ts": now}
        offset = wal.append(delta, "writer", seq, sync=False, prov=prov)
        if trace is not None:
            primary.provenance.admit(
                trace, source="writer", seq=seq, offset=offset,
                ingest_ts=now, enqueue_ts=now,
            )
        wal.sync(offset)
        primary.apply_delta(delta, wal_offset=offset)
        return offset

    def test_replica_applies_stamp_replica_applied(self, tmp_path):
        primary, state_dir, wal = self.make_primary(tmp_path)
        before = leg_counts()
        self.write_through(primary, wal, family_delta(6), 1, trace="shipped-1")
        replica = ReplicaNode(state_dir, batch=8)
        replica.catch_up(1)
        after = leg_counts()
        assert after["applied_to_replica"] >= before["applied_to_replica"] + 1
        payload = replica.provenance.lookup_trace("shipped-1")
        assert payload is not None and payload["found"]
        assert "replica_applied" in payload["timeline"]
        assert "ingest" in payload["timeline"]
        assert not payload["replayed"]
        # The primary's own ring routed the same offset to "applied".
        assert "applied" in primary.provenance.lookup_trace("shipped-1")["timeline"]
        wal.close()

    def test_ring_survives_rebootstrap_after_compaction(self, tmp_path):
        primary, state_dir, wal = self.make_primary(tmp_path, segment_bytes=400)
        self.write_through(primary, wal, family_delta(6), 1, trace="early")
        replica = ReplicaNode(state_dir, batch=2)
        replica.catch_up(1)
        ring = replica.provenance
        assert ring.lookup_trace("early") is not None
        for step in range(1, 4):
            self.write_through(
                primary, wal, family_delta(6 + step), step + 1,
                trace=f"later-{step}",
            )
        primary.snapshot(state_dir)
        reclaimed, _deleted = wal.compact(primary.state.wal_offset)
        assert reclaimed > 0
        with pytest.raises(WalGapError):
            replica.poll_once()
        replica.start()
        try:
            wait_until(lambda: replica.applied_offset == 4)
        finally:
            replica.stop()
        assert replica.rebootstraps == 1
        # The re-bootstrap swapped engines but kept the node's ring —
        # both the pre-compaction history and its identity survive.
        assert replica.provenance is ring
        assert replica.service.provenance is ring
        assert ring.lookup_trace("early") is not None
        wal.close()


# ----------------------------------------------------------------------
# HTTP surface: request-id echo, GET /provenance, router relay
# ----------------------------------------------------------------------


class TestHttpProvenance:
    @pytest.fixture()
    def fleet(self, tmp_path):
        """Primary (stream + WAL) + one replica server + router."""
        left, right = family_pair(6)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        options = {"max_batch": 8, "max_lag": 0.02}
        with serve_primary(primary, state_dir, options, snapshot_every=0) as primary_server:
            replica = ReplicaNode(state_dir, batch=8).start()
            replica_server = build_server(None, "127.0.0.1", 0, replica=replica)
            router = ReadRouter(
                url_of(primary_server), [url_of(replica_server)],
                check_interval=0.2, stats_ttl=0.05, retry_after=0.5,
            )
            router_server = build_router_server(router)
            with serve_in_thread(replica_server):
                with serve_in_thread(router_server):
                    router.start()
                    yield {
                        "primary": primary,
                        "primary_server": primary_server,
                        "replica": replica,
                        "replica_server": replica_server,
                        "router_server": router_server,
                    }
                router.stop()
            replica.stop()

    def test_request_id_is_echoed_on_every_role(self, fleet):
        for key in ("primary_server", "replica_server", "router_server"):
            _payload, headers = fetch_json(
                url_of(fleet[key], "/healthz"),
                headers={"X-Request-Id": f"probe-{key}"},
            )
            assert headers["X-Request-Id"] == f"probe-{key}", key
            # Exactly once — the router must not stack the backend's
            # echo on top of its own.
            assert headers.get_all("X-Request-Id") == [f"probe-{key}"], key

    def test_request_id_is_generated_when_absent(self, fleet):
        _payload, headers = fetch_json(url_of(fleet["primary_server"], "/healthz"))
        generated = headers["X-Request-Id"]
        assert generated and len(generated) == 32

    def test_traceparent_is_honored(self, fleet):
        trace = "ef" * 16
        _payload, headers = fetch_json(
            url_of(fleet["primary_server"], "/healthz"),
            headers={"traceparent": f"00-{trace}-{'12' * 8}-01"},
        )
        assert headers["X-Request-Id"] == trace

    def test_posted_delta_is_traceable_end_to_end(self, fleet):
        trace = "e2e-delta-1"
        report, headers = fetch_json(
            url_of(fleet["primary_server"], "/delta"),
            payload=family_delta(6).to_json(),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": trace,
            },
        )
        assert headers["X-Request-Id"] == trace
        payload, _ = fetch_json(
            url_of(fleet["primary_server"], f"/provenance?trace={trace}")
        )
        assert payload["found"] and payload["role"] == "primary"
        for stage in ("ingest", "enqueue", "durable", "applied"):
            assert stage in payload["timeline"], payload
        assert timeline_is_monotone(payload["timeline"])
        # The same record, by offset.
        by_offset, _ = fetch_json(
            url_of(fleet["primary_server"], f"/provenance?offset={payload['offset']}")
        )
        assert by_offset["trace"] == trace
        # The replica converges and serves its own view of the trace.
        wait_until(
            lambda: fleet["replica"].applied_offset >= payload["offset"], 60
        )
        replica_view, _ = fetch_json(
            url_of(fleet["replica_server"], f"/provenance?trace={trace}")
        )
        assert replica_view["found"] and replica_view["role"] == "replica"
        assert "replica_applied" in replica_view["timeline"]
        assert "ingest" in replica_view["timeline"]

    def test_router_forwards_the_request_id_to_the_primary(self, fleet):
        trace = "via-router-7"
        _report, headers = fetch_json(
            url_of(fleet["router_server"], "/delta"),
            payload=family_delta(7).to_json(),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": trace,
            },
        )
        assert headers.get_all("X-Request-Id") == [trace]
        payload, _ = fetch_json(
            url_of(fleet["primary_server"], f"/provenance?trace={trace}")
        )
        assert payload["found"], payload

    def test_provenance_endpoint_errors(self, fleet):
        base = url_of(fleet["primary_server"])
        for bad in ("/provenance", "/provenance?trace=a&offset=1",
                    "/provenance?offset=xyz"):
            assert get_json(base + bad)[0] == 400, bad
        status, payload = get_json(base + "/provenance?trace=never-seen")
        assert status == 404
        assert payload["found"] is False

    def test_stage_histograms_are_served_on_metrics(self, fleet):
        fetch_json(
            url_of(fleet["primary_server"], "/delta"),
            payload=family_delta(8).to_json(),
            headers={"Content-Type": "application/json"},
        )
        body = request(url_of(fleet["primary_server"], "/metrics"))[2].decode("utf-8")
        assert 'repro_delta_stage_seconds_count{stage="ingest_to_durable"}' in body
        assert 'repro_freshness_seconds{stage="applied"}' in body

    def test_trace_cli_merges_the_fleet_timeline(self, fleet, capsys):
        trace = "cli-trace-9"
        fetch_json(
            url_of(fleet["primary_server"], "/delta"),
            payload=family_delta(9).to_json(),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": trace,
            },
        )
        offset = fleet["primary"].state.wal_offset
        wait_until(lambda: fleet["replica"].applied_offset >= offset, 60)
        args = argparse.Namespace(
            url=url_of(fleet["primary_server"]),
            trace_id=trace,
            replicas=[url_of(fleet["replica_server"])],
            timeout=30.0,
            json=True,
        )
        assert cmd_trace(args) == 0
        merged = json.loads(capsys.readouterr().out)
        stages = [row["stage"] for row in merged["timeline"]]
        assert stages.index("ingest") < stages.index("applied")
        assert "replica_applied" in stages
        timestamps = [row["ts"] for row in merged["timeline"]]
        assert timestamps == sorted(timestamps)
        roles = {row["stage"]: row["role"] for row in merged["timeline"]}
        assert roles["applied"] == "primary"
        assert roles["replica_applied"] == "replica"
        # Human-readable mode prints one line per stage.
        args.json = False
        assert cmd_trace(args) == 0
        text = capsys.readouterr().out
        assert trace in text and "replica_applied" in text


# ----------------------------------------------------------------------
# the trace CLI, off-line pieces
# ----------------------------------------------------------------------


class TestTraceCli:
    def test_merge_prefers_the_primarys_own_stamps(self):
        nodes = [
            {
                "url": "http://replica",
                "payload": {
                    "found": True, "role": "replica",
                    "timeline": {
                        "ingest": 1.0, "applied": 3.5,
                        "replica_applied": 4.0, "notified": 5.0,
                    },
                },
            },
            {
                "url": "http://primary",
                "payload": {
                    "found": True, "role": "primary",
                    "timeline": {"ingest": 1.0, "applied": 3.0, "notified": 3.2},
                },
            },
        ]
        rows = _merge_timelines(nodes)
        by_stage = {}
        for row in rows:
            by_stage.setdefault(row["stage"], []).append(row)
        # Shared (primary-origin) stages appear once, from the primary.
        assert len(by_stage["ingest"]) == 1
        assert by_stage["applied"][0]["role"] == "primary"
        assert by_stage["applied"][0]["ts"] == 3.0
        # Per-node stages keep one row per reporting node.
        assert len(by_stage["notified"]) == 2
        assert len(by_stage["replica_applied"]) == 1
        assert [r["ts"] for r in rows] == sorted(r["ts"] for r in rows)

    def test_unreachable_fleet_returns_one(self, capsys):
        args = argparse.Namespace(
            url="http://127.0.0.1:1", trace_id="nope",
            replicas=["http://127.0.0.1:1"], timeout=0.2, json=False,
        )
        assert cmd_trace(args) == 1
        assert "not found" in capsys.readouterr().out

    def test_parser_wires_the_trace_command(self):
        args = build_parser().parse_args(
            ["trace", "http://p:1", "abc",
             "--replicas", "http://r:2", "--replicas", "http://r:3",
             "--timeout", "5", "--json"]
        )
        assert args.handler is cmd_trace
        assert args.url == "http://p:1" and args.trace_id == "abc"
        assert args.replicas == ["http://r:2", "http://r:3"]
        assert args.timeout == 5.0 and args.json is True


# ----------------------------------------------------------------------
# stats --watch reconnect backoff
# ----------------------------------------------------------------------


class TestStatsWatchBackoff:
    def test_transient_failures_back_off_then_recover(self):
        calls = []
        sleeps = []
        outcomes = [
            urllib.error.URLError("refused"),
            urllib.error.URLError("refused"),
            None,  # healthy fetch
            KeyboardInterrupt(),  # the user's ^C ends the loop
        ]

        def fetch(base_url, raw):
            calls.append(base_url)
            outcome = outcomes[len(calls) - 1]
            if outcome is not None:
                raise outcome

        with pytest.raises(KeyboardInterrupt):
            _watch_service_stats(
                "http://x", False, 2.0, fetch=fetch, sleep=sleeps.append
            )
        assert len(calls) == 4
        # Exponential backoff for the failures, the configured interval
        # after the healthy fetch, reset backoff for the next failure.
        assert sleeps == [0.5, 1.0, 2.0]

    def test_backoff_is_capped(self):
        sleeps = []
        attempts = []

        def fetch(base_url, raw):
            attempts.append(1)
            if len(attempts) > 6:
                raise KeyboardInterrupt()
            raise OSError("down")

        with pytest.raises(KeyboardInterrupt):
            _watch_service_stats(
                "http://x", False, 1.0,
                fetch=fetch, sleep=sleeps.append, max_retry=2.0,
            )
        assert sleeps == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0]
