"""Multi-replica serving: followers, replica nodes, router, endpoints.

Covers the replication subsystem bottom-up: the WAL followers (file
tail and HTTP log shipping), the replica node (bootstrap, tailing,
crash resume, re-bootstrap after compaction), the read router (fan-out,
write forwarding, bounded staleness, ejection) and the primary's
``GET /wal`` / ``GET /snapshot/latest`` endpoints — plus the headline
guarantee: a replica at WAL offset K scores equal (1e-9) to the
primary at offset K and to a cold realign of the same graphs, for
random delta streams, across crash resume and compaction.
"""

from __future__ import annotations

import json
import shutil
from contextlib import ExitStack, closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import get_json, post_json, request
from repro.core.aligner import align
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_addition, family_pair, family_removal
from repro.service import AlignmentService, Delta, load_state
from repro.service.replica import (
    FileWalFollower,
    HttpWalFollower,
    ReadRouter,
    ReplicaNode,
    build_router_server,
    make_follower,
)
from repro.service.server import build_server
from repro.service.state import load_state_bytes
from repro.rdf.terms import Literal, Relation, Resource
from repro.rdf.triples import Triple
from repro.service.stream import (
    WalGapError,
    WalRecord,
    WriteAheadLog,
)
from repro.service.stream.wal import RESUME_FALLBACKS
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
    for left, right, probability in second.items():
        assert first.equals_of_right(right)[left] == pytest.approx(
            probability, abs=tolerance
        )


def snapshotted_primary(tmp_path, base=6):
    """A cold-started primary engine, snapshotted into its state dir."""
    left, right = family_pair(base)
    primary = AlignmentService.cold_start(left, right, ParisConfig())
    state_dir = tmp_path / "state"
    primary.snapshot(state_dir)
    return primary, state_dir


def make_primary(tmp_path, base=6, segment_bytes=0):
    """A snapshotted primary + WAL, the fixture every replica needs."""
    primary, state_dir = snapshotted_primary(tmp_path, base)
    wal = WriteAheadLog(state_dir / "wal.ndjson", segment_bytes=segment_bytes)
    return primary, state_dir, wal


def write_through(primary, wal, delta, seq):
    """The primary's write path: durable WAL append, then apply."""
    offset = wal.append(delta, "writer", seq)
    primary.apply_delta(delta, wal_offset=offset)
    return offset


# ----------------------------------------------------------------------
# followers
# ----------------------------------------------------------------------


class TestFollowers:
    def test_file_follower_tails_and_reports_head(self, tmp_path):
        primary, state_dir, wal = make_primary(tmp_path)
        for step in range(3):
            write_through(primary, wal, family_delta(6 + step), step + 1)
        follower = FileWalFollower(state_dir / "wal.ndjson")
        fetch = follower.fetch(0, limit=2)
        assert [record.offset for record in fetch.records] == [1, 2]
        # A full-limit (backlogged) fetch must report the log's true
        # head, not its own last record — the replica's lag accounting
        # (and the router's ?max_lag_ms= contract) depend on it.
        assert fetch.source_offset == 3
        fetch = follower.fetch(2, limit=10)
        assert [record.offset for record in fetch.records] == [3]
        assert fetch.source_offset == 3
        assert follower.fetch(3, limit=10) == ([], 3)
        wal.close()

    def test_file_follower_never_reads_past_the_durable_marker(self, tmp_path):
        """A group-committing primary's buffered appends reach the
        shared file before their fsync; the follower must cap at the
        published durable marker or a primary crash could leave a
        replica ahead of the log it converges to."""
        primary, state_dir, wal = make_primary(tmp_path)
        write_through(primary, wal, family_delta(6), 1)  # fsync'd, marker at 1
        offset = wal.append(family_delta(7), "w", 2, sync=False)
        wal._stream.flush()  # the line is in the file, the fsync is not
        follower = FileWalFollower(state_dir / "wal.ndjson")
        fetch = follower.fetch(0, limit=10)
        assert [record.offset for record in fetch.records] == [1]
        assert fetch.source_offset == 1  # undurable tail is invisible
        wal.sync(offset)
        fetch = follower.fetch(1, limit=10)
        assert [record.offset for record in fetch.records] == [2]
        assert fetch.source_offset == 2
        wal.close()

    def test_replica_source_may_name_the_wal_file(self, tmp_path):
        """Every source form make_follower accepts must also
        bootstrap: a WAL-file path finds the snapshots next to it."""
        primary, state_dir, wal = make_primary(tmp_path)
        write_through(primary, wal, family_delta(6), 1)
        replica = ReplicaNode(state_dir / "wal.ndjson")
        replica.catch_up(1)
        assert_stores_match(replica.service.state.store, primary.state.store)
        wal.close()

    def test_make_follower_dispatch(self, tmp_path):
        assert isinstance(make_follower("http://127.0.0.1:1/x"), HttpWalFollower)
        follower = make_follower(tmp_path)  # a directory → its wal.ndjson
        assert isinstance(follower, FileWalFollower)
        assert follower.path == tmp_path / "wal.ndjson"
        assert isinstance(make_follower(tmp_path / "wal.ndjson"), FileWalFollower)

    def test_file_follower_sees_rotation_and_compaction(self, tmp_path):
        primary, state_dir, wal = make_primary(tmp_path, segment_bytes=512)
        follower = FileWalFollower(state_dir / "wal.ndjson")
        for step in range(4):
            write_through(primary, wal, family_delta(6 + step), step + 1)
        assert len(wal.sealed_segments()) >= 1
        fetch = follower.fetch(0, limit=100)
        assert [record.offset for record in fetch.records] == [1, 2, 3, 4]
        # Compact everything a snapshot covers; a fresh suffix fetch
        # works, an out-of-retention fetch raises the gap error.
        primary.snapshot(state_dir)
        wal.compact(primary.state.wal_offset)
        assert follower.fetch(4, limit=10).records == []
        with pytest.raises(WalGapError):
            follower.fetch(0, limit=10)
        wal.close()


def tiny_delta(index):
    return Delta(add1=(Triple(Resource(f"s{index}"), Relation("r"), Resource("o")),))


def append_tiny(wal, start, count):
    for index in range(start, start + count):
        wal.append(tiny_delta(index), "s", index + 1, sync=False)
    wal.sync()


@pytest.fixture()
def decode_counts(monkeypatch):
    """Count WAL line decodes and Delta builds."""
    from repro.service.stream import wal as wal_module

    counts = {"lines": 0, "deltas": 0}
    real_decode = wal_module._decode_record
    real_from_json = Delta.from_json.__func__

    def counting_decode(line, expected_offset):
        counts["lines"] += 1
        return real_decode(line, expected_offset)

    def counting_from_json(cls, payload, terms=None):
        counts["deltas"] += 1
        return real_from_json(cls, payload, terms)

    monkeypatch.setattr(wal_module, "_decode_record", counting_decode)
    monkeypatch.setattr(Delta, "from_json", classmethod(counting_from_json))
    return counts


def fetch_outcome(follower, after, limit=256):
    """A fetch's records and head, or the error it raised."""
    try:
        return follower.fetch(after, limit)
    except (ValueError, OSError) as error:
        return type(error), str(error)


class TestFollowerCursor:
    """A tailing FileWalFollower resumes its walk from the cursor of the
    last record it returned; whatever invalidates the cursor falls back
    to the full walk and returns exactly what a fresh follower does."""

    @pytest.mark.parametrize("prefix", [500, 4000])
    def test_fetch_decodes_only_the_new_records(self, tmp_path, prefix, decode_counts):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        append_tiny(wal, 0, prefix)
        follower = FileWalFollower(path)
        assert follower.fetch(0, limit=prefix).records[-1].offset == prefix
        new = 7
        append_tiny(wal, prefix, new)
        decode_counts.update(lines=0, deltas=0)
        fetch = follower.fetch(prefix, limit=256)
        assert [record.offset for record in fetch.records] == list(
            range(prefix + 1, prefix + new + 1)
        )
        # The head probe and the cursor file's first line, then one
        # decode per new record, whatever the prefix.
        assert decode_counts == {"lines": new + 2, "deltas": new}
        # A fresh follower checks the prefix's offsets from their JSON
        # but builds a Delta only for the records it returns.
        decode_counts.update(lines=0, deltas=0)
        assert FileWalFollower(path).fetch(prefix, limit=256) == fetch
        assert decode_counts["deltas"] == new
        wal.close()

    def test_rotation_between_fetches_keeps_the_cursor(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path, segment_bytes=600)
        append_tiny(wal, 0, 2)
        follower = FileWalFollower(path)
        assert [record.offset for record in follower.fetch(0).records] == [1, 2]
        append_tiny(wal, 2, 12)  # seals the file the cursor points into
        assert wal.sealed_segments()[0][0] == 1
        fallbacks = RESUME_FALLBACKS.value()
        fetch = follower.fetch(2)
        assert [record.offset for record in fetch.records] == list(range(3, 15))
        assert fetch == FileWalFollower(path).fetch(2)
        assert RESUME_FALLBACKS.value() == fallbacks
        wal.close()

    def test_compacted_cursor_segment_is_still_a_gap(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path, segment_bytes=600)
        append_tiny(wal, 0, 2)
        follower = FileWalFollower(path)
        follower.fetch(0)
        append_tiny(wal, 2, 12)
        _reclaimed, deleted = wal.compact(8)
        assert deleted and not (tmp_path / "wal-0000000000000001.ndjson").exists()
        fallbacks = RESUME_FALLBACKS.value()
        outcome = fetch_outcome(follower, 2)
        assert outcome[0] is WalGapError
        assert outcome == fetch_outcome(FileWalFollower(path), 2)
        assert RESUME_FALLBACKS.value() == fallbacks + 1
        wal.close()

    def test_cursor_segment_compacted_after_the_listing(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path, segment_bytes=600)
        append_tiny(wal, 0, 2)
        follower = FileWalFollower(path)
        follower.fetch(0)
        append_tiny(wal, 2, 12)
        cursor_segment = tmp_path / "wal-0000000000000001.ndjson"
        assert cursor_segment.exists()
        list_segments = follower.wal.sealed_segments

        def listing_then_compaction():
            listed = list_segments()
            cursor_segment.unlink(missing_ok=True)  # a compactor wins the race
            return listed

        monkeypatch.setattr(follower.wal, "sealed_segments", listing_then_compaction)
        fallbacks = RESUME_FALLBACKS.value()
        outcome = fetch_outcome(follower, 2)
        monkeypatch.undo()
        assert outcome[0] is WalGapError
        assert outcome == fetch_outcome(FileWalFollower(path), 2)
        assert RESUME_FALLBACKS.value() == fallbacks + 1
        wal.close()

    def test_torn_tail_completed_later(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        append_tiny(wal, 0, 3)
        wal.close()
        follower = FileWalFollower(path)
        records = follower.fetch(0).records
        cursor = records[-1].cursor
        line = json.dumps(WalRecord(4, "s", 4, tiny_delta(3)).to_json(), sort_keys=True)
        with path.open("a", encoding="utf-8") as stream:
            stream.write(line[:20])  # a writer mid-append
        fallbacks = RESUME_FALLBACKS.value()
        assert list(follower.wal.replay(3, resume=cursor)) == []
        assert follower.fetch(3) == FileWalFollower(path).fetch(3) == ([], 3)
        with path.open("a", encoding="utf-8") as stream:
            stream.write(line[20:] + "\n")
        path.with_name("wal.ndjson.durable").write_text("4\n", encoding="utf-8")
        fetch = follower.fetch(3)
        assert [record.offset for record in fetch.records] == [4]
        assert fetch == FileWalFollower(path).fetch(3)
        assert RESUME_FALLBACKS.value() == fallbacks

    def test_active_file_replaced_by_a_foreign_log(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        append_tiny(wal, 0, 4)
        wal.close()
        follower = FileWalFollower(path)
        follower.fetch(0, limit=2)
        foreign = WriteAheadLog(tmp_path / "other" / "wal.ndjson")
        for step in range(5):
            foreign.append(family_delta(6 + step), "f", step + 1)
        foreign.close()
        shutil.copyfile(foreign.path, path)
        fallbacks = RESUME_FALLBACKS.value()
        outcome = fetch_outcome(follower, 2)
        assert outcome == fetch_outcome(FileWalFollower(path), 2)
        assert [record.source for record in outcome.records] == ["f", "f"]
        assert RESUME_FALLBACKS.value() == fallbacks + 1

    def test_cursor_stops_at_the_durable_cap(self, tmp_path):
        primary, state_dir, wal = make_primary(tmp_path)
        write_through(primary, wal, family_delta(6), 1)
        offset = wal.append(family_delta(7), "w", 2, sync=False)
        wal._stream.flush()  # in the file, not yet fsync'd
        follower = FileWalFollower(state_dir / "wal.ndjson")
        fetch = follower.fetch(0)
        assert [record.offset for record in fetch.records] == [1]
        assert follower._cursor == fetch.records[0].cursor
        wal.sync(offset)
        fallbacks = RESUME_FALLBACKS.value()
        fetch = follower.fetch(1)
        assert [record.offset for record in fetch.records] == [2]
        assert fetch == FileWalFollower(state_dir / "wal.ndjson").fetch(1)
        assert RESUME_FALLBACKS.value() == fallbacks
        wal.close()

    def test_one_fetch_shares_its_terms(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        added = family_delta(6)
        wal.append(added, "s", 1)
        wal.append(Delta(remove1=added.add1), "s", 2)
        first, second = FileWalFollower(path).fetch(0).records
        assert_shared_terms(first.delta.add1, second.delta.remove1)
        wal.close()


def assert_shared_terms(triples, again):
    """The same statements decoded twice in one batch are one object per term."""
    assert triples == again
    for triple, other in zip(triples, again):
        assert triple.subject is other.subject
        assert triple.object is other.object
    assert any(isinstance(triple.object, Literal) for triple in triples)


# ----------------------------------------------------------------------
# the headline guarantee
# ----------------------------------------------------------------------


class TestReplicaEquivalence:
    """For random delta streams, a replica that bootstrapped from the
    primary's snapshot and tailed its WAL scores equal (1e-9) to the
    primary — at an intermediate offset K and at the head — and the
    head state equals a cold realign of the final graphs.  Both store
    directions are asserted (``assert_stores_match`` checks the 1→2
    diff and every 2→1 row)."""

    BASE = 5

    @staticmethod
    def _delta_stream(seed: int, num_ops: int) -> list:
        import random

        rng = random.Random(seed)
        deltas = []
        next_new = TestReplicaEquivalence.BASE
        for _ in range(num_ops):
            kind = rng.choice(("add_family", "remove_marriage", "readd_marriage"))
            if kind == "add_family":
                add1, add2 = family_addition(next_new, 1)
                deltas.append(Delta(add1=tuple(add1), add2=tuple(add2)))
                next_new += 1
            else:
                index = rng.randrange(0, TestReplicaEquivalence.BASE)
                rem1, rem2 = family_removal([index])
                if kind == "remove_marriage":
                    deltas.append(Delta(remove1=tuple(rem1), remove2=tuple(rem2)))
                else:
                    deltas.append(Delta(add1=tuple(rem1), add2=tuple(rem2)))
        return deltas

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=2, max_value=6),
        replica_batch=st.integers(min_value=1, max_value=4),
    )
    def test_replica_equals_primary_at_equal_offset(
        self, tmp_path_factory, seed, num_ops, replica_batch
    ):
        tmp_path = tmp_path_factory.mktemp("replica-prop")
        deltas = self._delta_stream(seed, num_ops)
        primary, state_dir, wal = make_primary(
            tmp_path, base=self.BASE, segment_bytes=700
        )
        # A mid-stream reference: a twin primary stopped at offset K.
        mid = (num_ops + 1) // 2
        left, right = family_pair(self.BASE)
        twin = AlignmentService.cold_start(left, right, ParisConfig())
        for sequence, delta in enumerate(deltas, start=1):
            write_through(primary, wal, delta, sequence)
            if sequence <= mid:
                twin.apply_delta(delta)
        replica = ReplicaNode(state_dir, batch=replica_batch)
        # ...equal at offset K (the replica pauses there)...
        while replica.applied_offset < mid:
            replica.poll_once()
            if replica.applied_offset >= mid:
                break
        # batch sizing may overshoot mid; only compare when it landed
        # exactly (coarse batches are compared at the head below).
        if replica.applied_offset == mid:
            assert_stores_match(replica.service.state.store, twin.state.store)
        # ...and equal at the head, where the cold realign also holds.
        replica.catch_up(len(deltas))
        assert replica.applied_offset == primary.state.wal_offset
        assert_stores_match(replica.service.state.store, primary.state.store)
        cold = align(
            primary.state.ontology1,
            primary.state.ontology2,
            ParisConfig(score_stationarity=True),
        )
        assert_stores_match(replica.service.state.store, cold.instances)
        wal.close()


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------


class TestReplicaFailureModes:
    def test_crash_resume_from_own_snapshot_plus_wal_suffix(self, tmp_path):
        """A replica killed mid-apply restarts from its *own* snapshot
        and replays only the WAL suffix beyond it."""
        primary, state_dir, wal = make_primary(tmp_path)
        for step in range(3):
            write_through(primary, wal, family_delta(6 + step), step + 1)
        own_dir = tmp_path / "replica-state"
        replica = ReplicaNode(state_dir, state_dir=own_dir, batch=1, snapshot_every=1)
        replica.poll_once()  # applies record 1, snapshots its own state
        assert replica.applied_offset == 1
        assert load_state(own_dir).wal_offset == 1
        del replica  # the "kill": nothing beyond the snapshot survives

        resumed = ReplicaNode(state_dir, state_dir=own_dir, batch=1, snapshot_every=1)
        # Bootstrapped from its own snapshot (offset 1), not the
        # primary's (offset 0) — the suffix is 2 records, not 3.
        assert resumed.bootstrapped_at_offset == 1
        resumed.catch_up(3)
        assert_stores_match(resumed.service.state.store, primary.state.store)
        wal.close()

    def test_wal_gap_triggers_rebootstrap(self, tmp_path):
        """A replica that fell behind compaction re-bootstraps from the
        primary's covering snapshot and converges anyway."""
        primary, state_dir, wal = make_primary(tmp_path, segment_bytes=400)
        for step in range(4):
            write_through(primary, wal, family_delta(6 + step), step + 1)
        # The lagging replica bootstrapped at offset 0...
        replica = ReplicaNode(state_dir, batch=2)
        assert replica.applied_offset == 0
        # ...and the primary snapshots + compacts past it.
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
        assert replica.last_error is None
        assert_stores_match(replica.service.state.store, primary.state.store)
        wal.close()

    def test_fresh_bootstrap_after_compaction(self, tmp_path):
        """Acceptance: after compaction shrinks the log, a *fresh*
        replica (snapshot + remaining segments) reaches the primary."""
        primary, state_dir, wal = make_primary(tmp_path, segment_bytes=400)
        for step in range(3):
            write_through(primary, wal, family_delta(6 + step), step + 1)
        primary.snapshot(state_dir)  # covers offset 3
        write_through(primary, wal, family_delta(9), 4)  # suffix beyond it
        before = wal.size_bytes()
        reclaimed, _deleted = wal.compact(3)
        assert reclaimed > 0 and wal.size_bytes() < before
        replica = ReplicaNode(state_dir)
        assert replica.bootstrapped_at_offset == 3
        replica.catch_up(4)
        assert_stores_match(replica.service.state.store, primary.state.store)
        wal.close()


# ----------------------------------------------------------------------
# HTTP surface: primary endpoints, replica server, router
# ----------------------------------------------------------------------


class TestPrimaryReplicationEndpoints:
    @pytest.fixture()
    def stack(self, tmp_path):
        primary, state_dir = snapshotted_primary(tmp_path)
        options = {"segment_bytes": 600, "max_batch": 8, "max_lag": 0.02}
        with serve_primary(primary, state_dir, options, snapshot_every=0) as server:
            yield server, primary, state_dir, server.stream.wal

    def test_get_wal_ships_ndjson_records(self, stack):
        server, primary, _state_dir, wal = stack
        for step in range(3):
            fetch_json(url_of(server, "/delta"), family_delta(6 + step).to_json())
        status, headers, body = request(url_of(server, "/wal?from=1"))
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert int(headers["X-Wal-Offset"]) == 3
        offsets = [json.loads(line)["offset"] for line in body.decode("utf-8").splitlines()]
        assert offsets == [2, 3]
        # limit caps the page; the header still advertises the head.
        status, headers, body = request(url_of(server, "/wal?from=0&limit=1"))
        assert status == 200 and int(headers["X-Wal-Offset"]) == 3
        assert len(body.decode("utf-8").splitlines()) == 1

    def test_get_wal_410_after_compaction(self, stack):
        server, primary, state_dir, wal = stack
        for step in range(4):
            fetch_json(url_of(server, "/delta"), family_delta(6 + step).to_json())
        compacted = fetch_json(url_of(server, "/snapshot"), {})[0]
        assert compacted["wal_bytes_compacted"] > 0
        status, detail = get_json(url_of(server, "/wal?from=0"))
        assert status == 410
        assert detail["oldest"] > 1

    def test_http_follower_ships_records_then_maps_410_to_a_gap(self, stack):
        server, _primary, _state_dir, _wal = stack
        for step in range(4):
            fetch_json(url_of(server, "/delta"), family_delta(6 + step).to_json())
        follower = HttpWalFollower(url_of(server))
        fetched = follower.fetch(1, limit=2)
        assert [record.offset for record in fetched.records] == [2, 3]
        assert fetched.source_offset == 4
        fetch_json(url_of(server, "/snapshot"), {})
        status, detail = get_json(url_of(server, "/wal?from=0"))
        assert status == 410
        with pytest.raises(WalGapError) as gap:
            follower.fetch(0)
        assert gap.value.oldest == detail["oldest"] > 1

    def test_http_follower_shares_terms_within_one_body(self, stack):
        server, _primary, _state_dir, _wal = stack
        added = family_delta(6)
        fetch_json(url_of(server, "/delta"), added.to_json())
        fetch_json(url_of(server, "/delta"), Delta(remove1=added.add1).to_json())
        first, second = HttpWalFollower(url_of(server)).fetch(0).records
        assert_shared_terms(first.delta.add1, second.delta.remove1)

    def test_get_wal_builds_only_the_shipped_records(self, stack, decode_counts):
        server, _primary, _state_dir, wal = stack
        append_tiny(wal, 0, 150)  # straight into the log; /wal only reads it
        decode_counts.update(lines=0, deltas=0)
        status, _headers, body = request(url_of(server, "/wal?from=140&limit=5"))
        assert status == 200
        offsets = [json.loads(line)["offset"] for line in body.splitlines()]
        assert offsets == [141, 142, 143, 144, 145]
        # The records before the page build no Delta, and the page
        # stops at its last record.
        assert decode_counts["deltas"] == 5

    def test_get_snapshot_latest_bootstraps_a_state(self, stack):
        server, primary, _state_dir, _wal = stack
        fetch_json(url_of(server, "/delta"), family_delta(6).to_json())
        fetch_json(url_of(server, "/snapshot"), {})
        status, headers, data = request(url_of(server, "/snapshot/latest"))
        assert status == 200 and headers["X-State-Version"] == "1"
        state = load_state_bytes(data)
        assert state.version == 1 and state.wal_offset == 1
        assert_stores_match(state.store, primary.state.store)

    def test_http_replica_end_to_end(self, stack):
        server, primary, _state_dir, _wal = stack
        for step in range(3):
            fetch_json(url_of(server, "/delta"), family_delta(6 + step).to_json())
        fetch_json(url_of(server, "/snapshot"), {})
        replica = ReplicaNode(url_of(server), batch=2)
        fetch_json(url_of(server, "/delta"), family_delta(9).to_json())  # beyond bootstrap
        replica.catch_up(4)
        assert_stores_match(replica.service.state.store, primary.state.store)

    def test_get_wal_404_without_wal(self, tmp_path):
        """Only a primary ships its log (and, without a state dir, no
        snapshot either): a replica server answers 404 for both."""
        _primary, state_dir, wal = make_primary(tmp_path, base=3)
        server = build_server(None, "127.0.0.1", 0, replica=ReplicaNode(state_dir))
        with serve_in_thread(server) as url, closing(wal):
            assert request(url + "/wal?from=0")[0] == 404
            assert request(url + "/snapshot/latest")[0] == 404


class TestReplicaServer:
    def test_read_only_surface_and_stats(self, tmp_path):
        primary, state_dir, wal = make_primary(tmp_path)
        write_through(primary, wal, family_delta(6), 1)
        replica = ReplicaNode(state_dir, batch=8)
        replica.catch_up(1)
        server = build_server(None, "127.0.0.1", 0, replica=replica)
        with serve_in_thread(server), closing(wal):
            health, _headers = fetch_json(url_of(server, "/healthz"))
            assert health["role"] == "replica" and health["status"] == "ok"
            stats, _headers = fetch_json(url_of(server, "/stats"))
            assert stats["role"] == "replica"
            assert stats["wal_offset"] == 1
            assert stats["replication"]["applied_offset"] == 1
            assert stats["replication"]["behind"] == 0
            assert "ingest" not in stats  # a replica ingests nothing
            pair, _headers = fetch_json(url_of(server, "/pair/p6a/q6a"))
            assert pair["probability"] > 0.9
            status, payload = post_json(url_of(server, "/delta"), family_delta(7).to_json())
            assert status == 403
            assert "primary" in payload["error"]


class TestReadRouter:
    @pytest.fixture()
    def cluster(self, tmp_path):
        """Primary (with stream+WAL) + two replica servers + router."""
        primary, state_dir = snapshotted_primary(tmp_path)
        options = {"max_batch": 8, "max_lag": 0.02}
        with serve_primary(primary, state_dir, options, snapshot_every=0) as primary_server:
            replicas = [ReplicaNode(state_dir, batch=8) for _ in range(2)]
            replica_servers = [
                build_server(None, "127.0.0.1", 0, replica=replica)
                for replica in replicas
            ]
            router = ReadRouter(
                url_of(primary_server),
                [url_of(server) for server in replica_servers],
                check_interval=0.2,
                stats_ttl=0.05,
                retry_after=0.5,
            )
            router_server = build_router_server(router)
            with ExitStack() as servers:
                for server in (*replica_servers, router_server):
                    servers.enter_context(serve_in_thread(server))
                router.start()
                yield {
                    "primary": primary,
                    "primary_server": primary_server,
                    "replicas": replicas,
                    "replica_servers": replica_servers,
                    "router": router,
                    "router_server": router_server,
                }
                router.stop()
                for replica in replicas:
                    replica.stop()

    def test_reads_fan_out_and_writes_forward(self, cluster):
        router_server = cluster["router_server"]
        report = fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())[0]
        assert report["converged"]
        assert cluster["primary"].state.wal_offset == 1
        for replica in cluster["replicas"]:
            replica.catch_up(1)
        served_by = set()
        for _ in range(6):
            pair, headers = fetch_json(url_of(router_server, "/pair/p6a/q6a"))
            assert pair["probability"] > 0.9
            served_by.add(headers["X-Served-By"])
        # Round-robin across both replicas; the primary served nothing.
        assert served_by == {url_of(s) for s in cluster["replica_servers"]}
        stats, _headers = fetch_json(url_of(router_server, "/stats"))
        assert stats["reads_routed"] == 6
        assert stats["writes_forwarded"] == 1
        assert all(entry["served"] > 0 for entry in stats["replicas"])

    def test_min_offset_rejects_stale_replicas(self, cluster):
        router_server = cluster["router_server"]
        fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())
        fresh, stale = cluster["replicas"]
        fresh.catch_up(1)  # `stale` stays at offset 0
        cluster["router"].probe_all()
        for _ in range(4):
            pair, headers = fetch_json(url_of(router_server, "/pair/p6a/q6a?min_offset=1"))
            assert pair["probability"] > 0.9
            # Only the caught-up replica may answer.
            assert headers["X-Served-By"] == url_of(cluster["replica_servers"][0])
        # An offset nobody reached: honest 503 + Retry-After, never the
        # primary (constrained reads do not fall back).
        status, headers, _body = request(url_of(router_server, "/pair/p6a/q6a?min_offset=99"))
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        stats, _headers = fetch_json(url_of(router_server, "/stats"))
        assert stats["rejected_stale"] >= 1

    def test_max_lag_ms_bounded_staleness(self, cluster):
        router_server = cluster["router_server"]
        fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())
        for replica in cluster["replicas"]:
            replica.catch_up(1)
            replica.start()  # live tailing keeps lag near the poll interval
        try:
            cluster["router"].probe_all()
            pair, _headers = fetch_json(
                url_of(router_server, "/pair/p6a/q6a?max_lag_ms=30000"),
            )
            assert pair["probability"] > 0.9
            # A bound nothing can meet (probe age alone exceeds it).
            assert request(url_of(router_server, "/pair/p6a/q6a?max_lag_ms=0"))[0] == 503
        finally:
            for replica in cluster["replicas"]:
                replica.stop()

    def test_dead_replica_is_ejected_and_routed_around(self, cluster):
        router_server = cluster["router_server"]
        fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())
        for replica in cluster["replicas"]:
            replica.catch_up(1)
        # Kill one replica server outright.
        dead = cluster["replica_servers"][1]
        dead.shutdown()
        dead.server_close()
        cluster["router"].probe_all()
        health, _headers = fetch_json(url_of(router_server, "/healthz"))
        assert health["replicas_healthy"] == 1
        for _ in range(4):
            pair, headers = fetch_json(url_of(router_server, "/pair/p6a/q6a"))
            assert pair["probability"] > 0.9
            assert headers["X-Served-By"] == url_of(cluster["replica_servers"][0])

    def test_all_replicas_dead_falls_back_to_primary(self, cluster):
        router_server = cluster["router_server"]
        fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())
        for server in cluster["replica_servers"]:
            server.shutdown()
            server.server_close()
        cluster["router"].probe_all()
        pair, headers = fetch_json(url_of(router_server, "/pair/p6a/q6a"))
        assert pair["probability"] > 0.9
        assert headers["X-Served-By"] == url_of(cluster["primary_server"])
        stats, _headers = fetch_json(url_of(router_server, "/stats"))
        assert stats["primary_fallbacks"] >= 1

    def test_replicas_dying_between_probes_still_degrade_to_primary(self, cluster):
        """Forward-time failures (no probe has noticed yet) must not
        turn an unconstrained read into a 503 while the primary is up."""
        router_server = cluster["router_server"]
        fetch_json(url_of(router_server, "/delta"), family_delta(6).to_json())
        # Kill both replicas WITHOUT letting the health loop observe it:
        # the router still lists them as healthy candidates.
        for server in cluster["replica_servers"]:
            server.shutdown()
            server.server_close()
        for replica in cluster["router"].replicas:
            replica.healthy = True
        pair, headers = fetch_json(url_of(router_server, "/pair/p6a/q6a"))
        assert pair["probability"] > 0.9
        assert headers["X-Served-By"] == url_of(cluster["primary_server"])
        # ...and the failed forwards ejected them for the next read.
        assert all(not replica.healthy for replica in cluster["router"].replicas)

    def test_backend_errors_relay_through(self, cluster):
        router_server = cluster["router_server"]
        status, _ = post_json(url_of(router_server, "/delta"), {"left": {"add": [{"bad": 1}]}})
        assert status == 400  # the primary's validation answer
        status, _ = get_json(url_of(router_server, "/pair/p6a/q6a?min_offset=notanumber"))
        assert status == 400  # the router's own validation
