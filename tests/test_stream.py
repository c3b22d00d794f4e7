"""Streaming ingestion stack: WAL, coalescing batcher, sources, recovery.

Covers the pipeline bottom-up: delta composition (unit + the
coalescing hypothesis property — composed batches score-equal to
one-by-one application at 1e-9, both store directions), the
write-ahead log (durability, torn-tail truncation, corruption
detection, sequence recovery), the batcher (coalescing, admission
control, idempotent redelivery), the NDJSON tailer and spool sources,
the ``GET /stats`` / 429 HTTP surface, and the two headline
guarantees: stream-vs-one-by-one equivalence and crash + snapshot + WAL
replay convergence.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import post_json, request
from repro.core.aligner import align
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_addition, family_pair, family_removal
from repro.rdf.terms import Relation, Resource
from repro.rdf.triples import Triple
from repro.service import AlignmentService, Delta, compose_deltas, load_state
from repro.service.server import build_server
from repro.service.stream import (
    DeltaBatcher,
    NdjsonFileTailer,
    QueueFullError,
    SpoolDirectorySource,
    StreamStack,
    WalBehindSnapshotError,
    WalCorruptionError,
    WalFailedError,
    WalGapError,
    WriteAheadLog,
    make_source,
    replay_wal,
)
from repro.testing import (
    Fleet,
    family_delta,
    fetch_json,
    serve_primary,
    url_of,
    wait_ready,
)

TOLERANCE = 1e-9


def assert_stores_match(first, second, tolerance=TOLERANCE):
    mismatches = list(first.diff(second, tolerance))
    assert not mismatches, mismatches[:5]
    for left, right, probability in second.items():
        assert first.equals_of_right(right)[left] == pytest.approx(
            probability, abs=tolerance
        )


# ----------------------------------------------------------------------
# compose_deltas
# ----------------------------------------------------------------------


class TestComposeDeltas:
    T1 = Triple(Resource("a"), Relation("r"), Resource("b"))
    T2 = Triple(Resource("c"), Relation("r"), Resource("d"))

    def test_add_then_remove_nets_to_remove(self):
        composed = compose_deltas([Delta(add1=(self.T1,)), Delta(remove1=(self.T1,))])
        assert composed.add1 == ()
        assert composed.remove1 == (self.T1,)

    def test_remove_then_add_nets_to_add(self):
        composed = compose_deltas([Delta(remove1=(self.T1,)), Delta(add1=(self.T1,))])
        assert composed.add1 == (self.T1,)
        assert composed.remove1 == ()

    def test_within_one_delta_removes_fold_before_adds(self):
        # apply_delta applies removals before additions per side, so a
        # batch that removes and re-adds the same triple nets to add.
        composed = compose_deltas([Delta(add1=(self.T1,), remove1=(self.T1,))])
        assert composed.add1 == (self.T1,)

    def test_sides_are_independent(self):
        composed = compose_deltas(
            [Delta(add1=(self.T1,), add2=(self.T2,)), Delta(remove2=(self.T2,))]
        )
        assert composed.add1 == (self.T1,)
        assert composed.add2 == ()
        assert composed.remove2 == (self.T2,)

    def test_inverse_orientation_cancels_canonical(self):
        composed = compose_deltas(
            [Delta(add1=(self.T1,)), Delta(remove1=(self.T1.inverse,))]
        )
        assert composed.add1 == ()
        assert composed.remove1 == (self.T1,)

    def test_empty_and_duplicate_adds(self):
        composed = compose_deltas([Delta(), Delta(add1=(self.T1, self.T1))])
        assert composed == Delta(add1=(self.T1,))
        assert compose_deltas([]).is_empty()


class TestCoalescingEquivalence:
    """Satellite guarantee: for random delta sequences, applying the
    coalesced batch yields scores equal (1e-9) to applying the deltas
    one-by-one — both store directions."""

    BASE = 5

    @staticmethod
    def _delta_stream(seed: int, num_ops: int) -> list:
        """A deterministic random mix of family additions, marriage
        removals and re-adds, chopped into variable-size deltas."""
        import random

        rng = random.Random(seed)
        operations = []
        next_new = TestCoalescingEquivalence.BASE
        for _ in range(num_ops):
            kind = rng.choice(("add_family", "remove_marriage", "readd_marriage"))
            if kind == "add_family":
                add1, add2 = family_addition(next_new, 1)
                operations.append(Delta(add1=tuple(add1), add2=tuple(add2)))
                next_new += 1
            else:
                index = rng.randrange(0, TestCoalescingEquivalence.BASE)
                rem1, rem2 = family_removal([index])
                if kind == "remove_marriage":
                    operations.append(Delta(remove1=tuple(rem1), remove2=tuple(rem2)))
                else:
                    operations.append(Delta(add1=tuple(rem1), add2=tuple(rem2)))
        deltas = []
        position = 0
        while position < len(operations):
            width = rng.randint(1, 3)
            chunk = operations[position : position + width]
            deltas.append(
                Delta(
                    add1=sum((d.add1 for d in chunk), ()),
                    remove1=sum((d.remove1 for d in chunk), ()),
                    add2=sum((d.add2 for d in chunk), ()),
                    remove2=sum((d.remove2 for d in chunk), ()),
                )
            )
            position += width
        return deltas

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=2, max_value=8),
    )
    def test_coalesced_equals_one_by_one(self, seed, num_ops):
        deltas = self._delta_stream(seed, num_ops)
        left, right = family_pair(self.BASE)
        one_by_one = AlignmentService.cold_start(left, right, ParisConfig())
        for delta in deltas:
            one_by_one.apply_delta(delta)
        left2, right2 = family_pair(self.BASE)
        coalesced = AlignmentService.cold_start(left2, right2, ParisConfig())
        coalesced.apply_delta(compose_deltas(deltas))
        assert_stores_match(coalesced.state.store, one_by_one.state.store)
        assert (
            coalesced.state.ontology1.num_facts == one_by_one.state.ontology1.num_facts
        )
        assert (
            coalesced.state.ontology2.num_facts == one_by_one.state.ontology2.num_facts
        )


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        first = family_delta(0)
        second = family_delta(1)
        assert wal.append(first, "s", 1) == 1
        assert wal.append(second, "s", 2) == 2
        records = list(wal.replay())
        assert [r.offset for r in records] == [1, 2]
        assert records[0].delta == first and records[1].delta == second
        assert all(r.source == "s" for r in records)
        assert list(wal.replay(after_offset=1))[0].offset == 2
        # One encoder: every line on disk is the record's wire form,
        # byte for byte, for v1 (no prov, with and without seq) and v2.
        prov = {"trace": "t-3", "ingest_ts": 1.5, "enqueue_ts": 2.5}
        assert wal.append(first, "s", None) == 3
        assert wal.append(second, "p", 4, prov=prov) == 4
        wal.close()
        lines = (tmp_path / "wal.ndjson").read_text(encoding="utf-8").splitlines()
        records = list(WriteAheadLog(tmp_path / "wal.ndjson", read_only=True).replay())
        assert [r.prov for r in records] == [None, None, None, prov]
        assert "seq" not in json.loads(lines[2]) and json.loads(lines[3])["v"] == 2
        assert lines == [json.dumps(r.to_json(), sort_keys=True) for r in records]

    def test_reopen_recovers_offset_and_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        wal.append(family_delta(0), "alpha", 3)
        wal.append(family_delta(1), "beta", 7)
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.ndjson")
        assert reopened.offset == 2
        assert reopened.last_seqs == {"alpha": 3, "beta": 7}
        reopened.close()

    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        wal.append(family_delta(0), "s", 1)
        wal.close()
        good_size = path.stat().st_size
        with path.open("a", encoding="utf-8") as stream:
            stream.write('{"offset": 2, "source": "s", "del')  # crash mid-append
        reopened = WriteAheadLog(path)
        assert reopened.offset == 1
        assert path.stat().st_size == good_size
        assert reopened.append(family_delta(1), "s", 2) == 2
        assert len(list(reopened.replay())) == 2
        reopened.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        wal.append(family_delta(0), "s", 1)
        wal.append(family_delta(1), "s", 2)
        wal.close()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][: len(lines[0]) // 2] + "garbage\n" + lines[1])
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path)

    def test_read_only_never_mutates(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        wal.append(family_delta(0), "s", 1)
        wal.close()
        with path.open("a", encoding="utf-8") as stream:
            stream.write("torn")
        size_before = path.stat().st_size
        readonly = WriteAheadLog(path, read_only=True)
        assert readonly.offset == 1
        assert len(list(readonly.replay())) == 1
        assert path.stat().st_size == size_before  # torn tail untouched
        with pytest.raises(RuntimeError):
            readonly.append(family_delta(1), "s", 2)
        # And a read-only open of a missing file creates nothing.
        missing = WriteAheadLog(tmp_path / "absent.ndjson", read_only=True)
        assert missing.offset == 0 and not (tmp_path / "absent.ndjson").exists()

    def test_read_only_open_decodes_no_record(self, tmp_path, monkeypatch):
        """A reader never needs the writer's recovery scan: opening
        decodes nothing, and its offset is one tail-line probe."""
        from repro.service.stream import wal as wal_module

        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path, segment_bytes=600)
        for step in range(5):
            wal.append(family_delta(step), "s", step + 1)
        wal.close()
        assert wal.sealed_segments()
        decoded = []
        real_decode = wal_module._decode_record

        def counting_decode(line, expected_offset):
            decoded.append(line)
            return real_decode(line, expected_offset)

        monkeypatch.setattr(wal_module, "_decode_record", counting_decode)
        reader = WriteAheadLog(path, read_only=True)
        assert decoded == []
        assert reader.offset == 5
        assert len(decoded) == 1


class TestWalSegments:
    """Segment rotation, compaction and group commit."""

    def fill(self, wal, count, start=0):
        for step in range(count):
            wal.append(family_delta(start + step), "s", start + step + 1)

    def test_rotation_seals_segments_and_replay_walks_them_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        self.fill(wal, 6)
        sealed = wal.sealed_segments()
        assert len(sealed) >= 2
        # Sealed names carry their first offset; ranges are contiguous.
        assert sealed[0][0] == 1
        assert [record.offset for record in wal.replay()] == [1, 2, 3, 4, 5, 6]
        assert (tmp_path / "wal.ndjson").exists()  # the active segment
        wal.close()
        # Reopen recovers offset and seqs across all segments.
        reopened = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        assert reopened.offset == 6
        assert reopened.last_seqs == {"s": 6}
        reopened.close()

    def test_replay_wal_applies_across_segments(self, tmp_path):
        """The startup catch-up walks segments in order, transparently."""
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=500)
        self.fill(wal, 4, start=6)
        assert len(wal.sealed_segments()) >= 1
        assert replay_wal(service, wal, max_batch=2) == 4
        assert service.state.wal_offset == 4
        assert service.pair("p9a", "q9a")["probability"] > 0.9
        wal.close()

    def test_torn_tail_truncation_only_in_the_active_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        self.fill(wal, 6)
        wal.close()
        # Torn tail in the ACTIVE segment: truncated away on reopen.
        active = tmp_path / "wal.ndjson"
        good_size = active.stat().st_size
        with active.open("a", encoding="utf-8") as stream:
            stream.write('{"offset": 99, "sour')
        reopened = WriteAheadLog(active, segment_bytes=600)
        assert reopened.offset == 6
        assert active.stat().st_size == good_size
        reopened.close()
        # Torn tail in a SEALED segment is corruption, not recovery:
        # sealing fsyncs before the rename, so a sealed file can only
        # lose its newline through real damage.
        sealed_path = reopened.sealed_segments()[0][1]
        torn = sealed_path.read_bytes()[:-10]
        sealed_path.write_bytes(torn)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(active, segment_bytes=600)

    def test_compaction_drops_covered_segments_only(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        self.fill(wal, 6)
        size_before = wal.size_bytes()
        segments_before = len(wal.sealed_segments())
        reclaimed, deleted = wal.compact(4)
        assert reclaimed > 0 and deleted
        assert wal.size_bytes() == size_before - reclaimed
        assert len(wal.sealed_segments()) < segments_before
        # The suffix beyond the covered offset is fully intact...
        assert [record.offset for record in wal.replay(after_offset=4)] == [5, 6]
        # ...but history below the oldest retained record is gone.
        with pytest.raises(WalGapError):
            list(wal.replay(after_offset=0))
        # Appending and reopening after compaction keeps offsets
        # monotonic (the snapshot contract depends on it).
        assert wal.append(family_delta(6), "s", 7) == 7
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        assert reopened.offset == 7
        reopened.close()

    def test_compaction_never_orphans_the_current_offset(self, tmp_path):
        """With an empty active file, the newest sealed segment
        survives even a covering compaction — deleting it would reset
        offsets to 0 on restart and break the snapshot contract."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=1)
        self.fill(wal, 2)
        # segment_bytes=1: every append rotates first, so the active
        # file holds exactly the newest record.  Rotate it out manually
        # by appending nothing: instead, compact with the active file
        # holding record 2 and covered=2 — segment 1 goes, active stays.
        reclaimed, deleted = wal.compact(2)
        assert [base for base, _path in wal.sealed_segments()] == []
        assert wal.offset == 2
        assert [record.offset for record in wal.replay(after_offset=1)] == [2]
        wal.close()

    def test_read_only_reader_follows_a_live_writer_across_rotations(self, tmp_path):
        writer = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=500)
        self.fill(writer, 3)
        reader = WriteAheadLog(tmp_path / "wal.ndjson", read_only=True)
        assert [record.offset for record in reader.replay()] == [1, 2, 3]
        assert reader.current_offset() == 3
        self.fill(writer, 3, start=3)  # more rotations under the reader
        assert [record.offset for record in reader.replay(after_offset=3)] == [4, 5, 6]
        assert reader.current_offset() == 6
        writer.close()

    def test_writer_walk_recovers_from_rotation_mid_replay(self, tmp_path):
        """The GET /wal handler replays the *writer's own* live log
        while the batcher thread appends and rotates: a rotation that
        lands between the walker's segment listing and its read of the
        active file must be re-discovered, not surface as corruption."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=1)
        for step in range(3):
            wal.append(family_delta(step), "s", step + 1)
        replay = wal.replay()
        # Consume the sealed records 1..2; record 3 still sits in the
        # active file the walker has not opened yet.
        assert next(replay).offset == 1
        assert next(replay).offset == 2
        # Rotation outruns the walker: the active file it expected to
        # hold record 3 now holds record 5.
        wal.append(family_delta(3), "s", 4)
        wal.append(family_delta(4), "s", 5)
        assert [record.offset for record in replay] == [3, 4, 5]
        wal.close()

    def test_vanished_sealed_segment_is_a_gap_not_a_skip(self, tmp_path, monkeypatch):
        """A compactor deleting a sealed segment between a reader's
        listing and its read must raise WalGapError — silently yielding
        nothing would let a replica skip the segment's offset range and
        diverge while reporting itself caught up."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=1)
        for step in range(3):
            wal.append(family_delta(step), "s", step + 1)
        reader = WriteAheadLog(tmp_path / "wal.ndjson", read_only=True)
        stale_listing = reader.sealed_segments()
        first_path = stale_listing[0][1]
        monkeypatch.setattr(reader, "sealed_segments", lambda: stale_listing)
        first_path.unlink()  # the racing compactor wins
        with pytest.raises(WalGapError):
            list(reader.replay(after_offset=0))
        wal.close()

    def test_duplicate_ack_waits_for_the_original_fsync(self, tmp_path):
        """A redelivery may be acked as duplicate only once the
        original record is durable — the ack promises replayability."""
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        wal = WriteAheadLog(tmp_path / "wal.ndjson", group_commit=0.01)
        # The original submitter appended but has not fsync'd yet (it
        # is still inside its group-commit window).
        offset = wal.append(family_delta(6), "w", 1, sync=False)
        assert wal.durable_offset < offset
        batcher = DeltaBatcher(service, wal=wal)
        assert batcher.submit(family_delta(6), source="w", seq=1) is None
        assert wal.durable_offset >= offset  # the ack implied durability
        batcher.close()
        wal.close()

    def test_group_commit_preserves_ack_after_fsync(self, tmp_path):
        """Per-delta durability semantics: an unsynced append is not
        yet durable, sync makes it so, and the batcher never acks (nor
        applies) a delta before its offset is durable."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson", group_commit=0.01)
        offset = wal.append(family_delta(0), "s", 1, sync=False)
        assert wal.durable_offset < offset  # buffered, not yet durable
        wal.sync(offset)
        assert wal.durable_offset == offset
        # Through the batcher: submit returns only after the fsync.
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        batcher = DeltaBatcher(service, wal=wal, max_lag=0.02).start()
        batcher.submit(family_delta(6), source="w", seq=1)
        assert wal.durable_offset >= 2  # ack implies durable
        assert batcher.flush(timeout=60)
        assert service.state.wal_offset == 2
        batcher.close()
        # And the record really is on disk, parseable by a fresh open.
        recovered = WriteAheadLog(tmp_path / "wal.ndjson")
        assert recovered.offset == 2
        recovered.close()

    def test_group_commit_shares_fsyncs_across_writers(self, tmp_path):
        """Batched queued records fsync once: concurrent syncs elect a
        leader whose single fsync covers every buffered record."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson", group_commit=0.05)
        offsets = [
            wal.append(family_delta(step), "s", step + 1, sync=False)
            for step in range(8)
        ]
        before = wal.fsyncs
        threads = [
            threading.Thread(target=wal.sync, args=(offset,)) for offset in offsets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert wal.durable_offset == 8
        # One leader fsync covered all 8 records (a second can sneak in
        # if a leader finishes before the last waiter arrives, but the
        # whole point is fsyncs << records).
        assert wal.fsyncs - before < len(offsets) / 2
        wal.close()

    @staticmethod
    def fsync_fails_once(monkeypatch):
        """Make the WAL module's ``os.fsync`` raise EIO once, then succeed
        (the Linux behaviour that makes a retried fsync lie)."""
        import errno

        from repro.service.stream import wal as wal_module

        real_fsync = wal_module.os.fsync
        calls = []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "injected EIO")
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", fsync)
        return calls

    def test_failed_fsync_latches_the_log(self, tmp_path, monkeypatch):
        """A failed fsync is never retried: the next writer's sync
        raises instead of being acked, and its record stays non-durable."""
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        wal.append(family_delta(0), "s", 1)
        durable = wal.durable_offset
        calls = self.fsync_fails_once(monkeypatch)
        first = wal.append(family_delta(1), "a", 1, sync=False)
        second = wal.append(family_delta(2), "b", 1, sync=False)
        with pytest.raises(OSError):
            wal.sync(first)
        with pytest.raises(WalFailedError):
            wal.sync(second)
        with pytest.raises(WalFailedError):
            wal.append(family_delta(3), "c", 1)
        assert wal.durable_offset == durable < second
        wal.close()
        assert wal.durable_offset == durable
        assert len(calls) == 1  # the failed fsync was never retried

    def test_failed_rotation_fsync_latches_the_log(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=200)
        offset = wal.append(family_delta(0), "s", 1)
        calls = self.fsync_fails_once(monkeypatch)
        # The active segment is over segment_bytes: this append seals it.
        with pytest.raises(OSError):
            wal.append(family_delta(1), "s", 2)
        with pytest.raises(WalFailedError):
            wal.sync()
        assert wal.durable_offset == offset
        assert wal.sealed_segments() == []
        assert len(calls) == 1
        wal.close()


class TestWalResume:
    """Resume cursors: replay's hint."""

    def test_replay_from_a_hint_matches_the_full_walk(self, tmp_path):
        from repro.service.stream.wal import RESUME_FALLBACKS

        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=600)
        for step in range(8):
            wal.append(family_delta(step), "s", step + 1)
        cursors = {record.offset: record.cursor for record in wal.replay()}
        fallbacks = RESUME_FALLBACKS.value()
        for hint_at, after in [(1, 1), (2, 5), (7, 7), (8, 8)]:
            resumed = list(wal.replay(after, resume=cursors[hint_at]))
            assert resumed == list(wal.replay(after))
            assert [record.cursor for record in resumed] == [
                cursors[offset] for offset in range(after + 1, 9)
            ]
        assert RESUME_FALLBACKS.value() == fallbacks
        # A hint above the requested offset cannot be used.
        assert list(wal.replay(2, resume=cursors[5])) == list(wal.replay(2))
        assert RESUME_FALLBACKS.value() == fallbacks + 1
        wal.close()

    def test_cursor_into_a_different_file_ending_at_its_byte(self, tmp_path):
        """The active file was replaced by one that starts at another
        offset but happens to end a line at the cursor's byte: its first
        record gives it away, and the full walk reports the gap."""
        from repro.service.stream.wal import RESUME_FALLBACKS, WalRecord

        path = tmp_path / "wal.ndjson"
        wal = WriteAheadLog(path)
        for step in range(2):
            wal.append(family_delta(step), "s", step + 1)
        cursor = list(wal.replay())[-1].cursor
        wal.close()
        record = WalRecord(11, "", 11, family_delta(11))
        short = len(json.dumps(record.to_json(), sort_keys=True)) + 1
        padded = WalRecord(11, "x" * (cursor.end - short), 11, family_delta(11))
        path.write_text(json.dumps(padded.to_json(), sort_keys=True) + "\n", encoding="utf-8")
        assert path.stat().st_size == cursor.end
        reader = WriteAheadLog(path, read_only=True)
        fallbacks = RESUME_FALLBACKS.value()
        with pytest.raises(WalGapError) as gap:
            list(reader.replay(2, resume=cursor))
        assert gap.value.oldest == 11
        assert RESUME_FALLBACKS.value() == fallbacks + 1

    def test_replay_wal_builds_only_the_suffix(self, tmp_path, monkeypatch):
        """Restart recovery skips the snapshotted prefix without
        building its deltas."""
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        for step in range(4):
            offset = wal.append(family_delta(6 + step), "s", step + 1)
            if step < 3:
                service.apply_delta(family_delta(6 + step), wal_offset=offset)
        built = []
        real_from_json = Delta.from_json.__func__

        def counting_from_json(cls, payload, terms=None):
            built.append(payload)
            return real_from_json(cls, payload, terms)

        monkeypatch.setattr(Delta, "from_json", classmethod(counting_from_json))
        assert replay_wal(service, wal) == 1
        assert len(built) == 1
        wal.close()


# ----------------------------------------------------------------------
# batcher
# ----------------------------------------------------------------------


@pytest.fixture()
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "wal.ndjson")
    yield log
    log.close()


class TestDeltaBatcher:
    @pytest.fixture()
    def service(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def test_coalesces_queued_deltas_into_one_batch(self, service, wal):
        batcher = DeltaBatcher(service, wal, max_batch=8, max_lag=0.2)
        for step in range(3):
            batcher.submit(family_delta(6 + step), source="t", seq=step + 1)
        batcher.start()
        assert batcher.flush(timeout=60)
        stats = batcher.stats()
        assert stats["accepted"] == 3
        assert stats["batches"] == 1  # one warm pass absorbed all three
        assert stats["coalesced_deltas"] == 3
        assert service.deltas_applied == 1
        assert service.pair("p8a", "q8a")["probability"] > 0.9
        batcher.close()

    def test_wait_returns_the_batch_report(self, service, wal):
        batcher = DeltaBatcher(service, wal, max_batch=4, max_lag=0.01).start()
        report = batcher.submit(family_delta(6), wait=True, timeout=60)
        assert report is not None and report.converged
        assert report.version == 1
        batcher.close()

    def test_queue_full_rejects_before_wal(self, service, wal):
        batcher = DeltaBatcher(service, wal, max_queue=2, max_lag=0.01)
        batcher.submit(family_delta(6))
        batcher.submit(family_delta(7))
        with pytest.raises(QueueFullError) as excinfo:
            batcher.submit(family_delta(8))
        assert excinfo.value.retry_after > 0
        assert batcher.stats()["rejected"] == 1
        assert wal.offset == 2  # the rejected delta never reached the log
        batcher.start()
        assert batcher.flush(timeout=60)
        assert service.state.wal_offset == 2
        batcher.close()

    def test_duplicate_seq_dropped_idempotently(self, service, wal):
        batcher = DeltaBatcher(service, wal, max_lag=0.01).start()
        first = batcher.submit(family_delta(6), source="s", seq=5, wait=True)
        assert first is not None
        facts = service.state.ontology1.num_facts
        assert batcher.submit(family_delta(6), source="s", seq=5, wait=True) is None
        assert batcher.submit(family_delta(6), source="s", seq=4, wait=True) is None
        assert service.state.ontology1.num_facts == facts
        assert batcher.stats()["duplicates"] == 2
        # Distinct sources have independent sequence spaces.
        assert batcher.submit(family_delta(7), source="other", seq=5, wait=True)
        batcher.close()

    def test_invalid_delta_rejected_without_consuming_anything(self, service, wal):
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF

        batcher = DeltaBatcher(service, wal)
        bad = Delta(add1=(Triple(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b")),))
        with pytest.raises(ValueError):
            batcher.submit(bad)
        assert batcher.stats()["accepted"] == 0
        batcher.close()

    def test_on_batch_applied_fires_once_per_batch(self, service, wal):
        """The snapshot-policy hook runs per applied *batch*, and its
        failures never fail the batch itself."""
        reports = []

        def hook(report):
            reports.append(report)
            raise OSError("disk full under the snapshot")

        batcher = DeltaBatcher(service, wal, max_batch=8, max_lag=0.2, on_batch_applied=hook)
        for step in range(3):
            batcher.submit(family_delta(6 + step))
        batcher.start()
        assert batcher.flush(timeout=60)
        assert len(reports) == 1  # one batch, one hook call
        assert reports[0].version == 1
        # The failing hook did not poison anything: waiters still get
        # reports and the engine keeps serving.
        assert batcher.submit(family_delta(9), wait=True, timeout=60).converged
        assert len(reports) == 2
        batcher.close()

    def test_engine_failure_reaches_waiters(self, service, wal, monkeypatch):
        from repro.core.aligner import ParisAligner

        def explode(*_args, **_kwargs):
            raise OSError("worker pool died")

        monkeypatch.setattr(ParisAligner, "warm_align", explode)
        batcher = DeltaBatcher(service, wal, max_lag=0.01).start()
        with pytest.raises(OSError):
            batcher.submit(family_delta(6), wait=True, timeout=60)
        assert service.poisoned is not None
        # Later batches fail fast on the fail-stop check.
        with pytest.raises(RuntimeError):
            batcher.submit(family_delta(7), wait=True, timeout=60)
        batcher.close()

    def test_wal_backed_failed_batch_still_acks_duplicates(
        self, service, wal, monkeypatch
    ):
        """The delta is durable at admission (restart replays it), so
        acking the retry of a failed batch as a duplicate is correct."""
        from repro.core.aligner import ParisAligner

        def explode(*_args, **_kwargs):
            raise OSError("worker pool died")

        monkeypatch.setattr(ParisAligner, "warm_align", explode)
        batcher = DeltaBatcher(service, wal, max_lag=0.01).start()
        with pytest.raises(OSError):
            batcher.submit(family_delta(6), source="w", seq=1, wait=True, timeout=60)
        assert batcher.submit(family_delta(6), source="w", seq=1, wait=True) is None
        assert wal.offset == 1  # the delta is in the log for replay
        batcher.close()


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------


class TestSources:
    @pytest.fixture()
    def service(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    @staticmethod
    def wait_until(condition, seconds=30.0):
        deadline = time.monotonic() + seconds
        while not condition():
            assert time.monotonic() < deadline, "condition never became true"
            time.sleep(0.05)

    def test_tailer_ingests_appended_lines(self, service, wal, tmp_path):
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.02).start()
        try:
            with watch.open("a", encoding="utf-8") as stream:
                stream.write(json.dumps(family_delta(6).to_json()) + "\n")
                stream.write("\n")  # blank lines are skipped
                stream.write("this is not json\n")  # counted, not fatal
                stream.write(
                    json.dumps({"delta": family_delta(7).to_json(), "seq": 2}) + "\n"
                )
                stream.write('{"left": {"add": [')  # partial line: must wait
            self.wait_until(lambda: tailer.ingested >= 2)
            assert batcher.flush(timeout=60)
            assert service.pair("p6a", "q6a")["probability"] > 0.9
            assert service.pair("p7a", "q7a")["probability"] > 0.9
            assert tailer.decode_errors == 1
            assert tailer.ingested == 2  # the partial line was not consumed
            # Completing the partial line gets it ingested.
            with watch.open("a", encoding="utf-8") as stream:
                stream.write(
                    json.dumps(family_delta(8).to_json())[len('{"left": {"add": [') :]
                    + "\n"
                )
            self.wait_until(lambda: tailer.ingested >= 3)
            assert batcher.flush(timeout=60)
            assert service.pair("p8a", "q8a")["probability"] > 0.9
        finally:
            tailer.stop()
            batcher.close()

    def test_spool_directory_ingests_and_renames(self, service, wal, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        source = SpoolDirectorySource(batcher, spool, poll_interval=0.02).start()
        try:
            target = spool / "batch-1.ndjson"
            staged = tmp_path / "batch-1.ndjson.tmp"
            with staged.open("w", encoding="utf-8") as stream:
                for step in range(2):
                    stream.write(json.dumps(family_delta(6 + step).to_json()) + "\n")
            staged.rename(target)  # atomic placement, as the contract requires
            self.wait_until(lambda: source.files_done >= 1)
            assert batcher.flush(timeout=60)
            assert not target.exists()
            assert (spool / "batch-1.ndjson.done").exists()
            assert service.pair("p7a", "q7a")["probability"] > 0.9
        finally:
            source.stop()
            batcher.close()

    def test_tailer_rotation_does_not_drop_new_data(self, service, wal, tmp_path):
        """A rotated (shrunk) watch file holds *new* deltas: the
        tailer's running record counter keeps its implicit sequence
        numbers above the ingested high-water mark, so the batcher
        must not drop them as redeliveries."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        watch.write_text(
            json.dumps(family_delta(6).to_json())
            + "\n"
            + json.dumps(family_delta(7).to_json())
            + "\n",
            encoding="utf-8",
        )
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.02).start()
        try:
            self.wait_until(lambda: tailer.ingested >= 2)
            # Rotate: truncate and write one *different* delta.
            watch.write_text(
                json.dumps(family_delta(8).to_json()) + "\n", encoding="utf-8"
            )
            self.wait_until(lambda: tailer.ingested >= 3)
            assert batcher.flush(timeout=60)
            assert batcher.stats()["duplicates"] == 0
            assert service.pair("p8a", "q8a")["probability"] > 0.9
        finally:
            tailer.stop()
            batcher.close()

    def test_spool_filename_reuse_is_new_data(self, service, wal, tmp_path):
        """A second spool file reusing a processed name is new data
        (namespace keyed on the inode), not a redelivery to drop."""
        spool = tmp_path / "spool"
        spool.mkdir()
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        source = SpoolDirectorySource(batcher, spool, poll_interval=0.02).start()
        try:
            for round_index in range(2):
                staged = tmp_path / "batch.ndjson.tmp"
                staged.write_text(
                    json.dumps(family_delta(6 + round_index).to_json()) + "\n",
                    encoding="utf-8",
                )
                staged.rename(spool / "batch.ndjson")
                self.wait_until(lambda: source.files_done >= round_index + 1)
            assert batcher.flush(timeout=60)
            assert batcher.stats()["duplicates"] == 0
            assert service.pair("p6a", "q6a")["probability"] > 0.9
            assert service.pair("p7a", "q7a")["probability"] > 0.9
        finally:
            source.stop()
            batcher.close()

    def test_unapplicable_delta_line_skips_without_killing_the_source(
        self, service, wal, tmp_path
    ):
        """A line that decodes fine but fails engine validation (e.g.
        a URI with a space) must be counted and skipped — not kill the
        tailer thread and wedge everything behind it."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        bad = {"left": {"add": [{"subject": "a b", "relation": "r", "object": "c"}]}}
        with watch.open("w", encoding="utf-8") as stream:
            stream.write(json.dumps(bad) + "\n")
            stream.write(json.dumps(family_delta(6).to_json()) + "\n")
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.02).start()
        try:
            self.wait_until(lambda: tailer.ingested >= 1)
            assert batcher.flush(timeout=60)
            assert tailer.decode_errors == 1
            assert service.pair("p6a", "q6a")["probability"] > 0.9
        finally:
            tailer.stop()
            batcher.close()

    def test_same_basename_watch_files_do_not_collide(self, service, wal, tmp_path):
        """Two watched files sharing a basename (repeatable --watch)
        must not share a sequence-dedup namespace."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        (first_dir / "deltas.ndjson").write_text(
            json.dumps(family_delta(6).to_json()) + "\n", encoding="utf-8"
        )
        (second_dir / "deltas.ndjson").write_text(
            json.dumps(family_delta(7).to_json()) + "\n", encoding="utf-8"
        )
        tailers = [
            NdjsonFileTailer(batcher, path / "deltas.ndjson", poll_interval=0.02).start()
            for path in (first_dir, second_dir)
        ]
        try:
            self.wait_until(lambda: sum(t.ingested for t in tailers) >= 2)
            assert batcher.flush(timeout=60)
            assert batcher.stats()["duplicates"] == 0
            assert service.pair("p6a", "q6a")["probability"] > 0.9
            assert service.pair("p7a", "q7a")["probability"] > 0.9
        finally:
            for tailer in tailers:
                tailer.stop()
            batcher.close()

    def test_mixed_explicit_and_implicit_seq_lines(self, service, wal, tmp_path):
        """A large explicit seq envelope must not swallow later bare
        lines (separate sequence namespaces per form)."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        with watch.open("w", encoding="utf-8") as stream:
            stream.write(
                json.dumps({"delta": family_delta(6).to_json(), "seq": 100}) + "\n"
            )
            stream.write(json.dumps(family_delta(7).to_json()) + "\n")
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.02).start()
        try:
            self.wait_until(lambda: tailer.ingested >= 2)
            assert batcher.flush(timeout=60)
            assert batcher.stats()["duplicates"] == 0
            assert service.pair("p7a", "q7a")["probability"] > 0.9
        finally:
            tailer.stop()
            batcher.close()

    def test_tailer_rename_rotation_with_fast_growth(self, service, wal, tmp_path):
        """Rotation by rename + recreate must be detected even when
        the replacement file already grew past the old byte position
        (inode check, not just shrinkage)."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        watch.write_text(json.dumps(family_delta(6).to_json()) + "\n", encoding="utf-8")
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.05)
        tailer._poll()  # deterministic: consume the first incarnation
        assert tailer.ingested == 1
        # Rotate: move the old file away, recreate *larger* than the
        # consumed position before the next poll.
        watch.rename(tmp_path / "deltas.ndjson.1")
        watch.write_text(
            json.dumps(family_delta(7).to_json())
            + "\n"
            + json.dumps(family_delta(8).to_json())
            + "\n",
            encoding="utf-8",
        )
        assert watch.stat().st_size > tailer._position
        tailer._poll()
        assert tailer.ingested == 3  # nothing lost, nothing garbled
        assert tailer.decode_errors == 0
        assert batcher.flush(timeout=60)
        assert batcher.stats()["duplicates"] == 0
        assert service.pair("p7a", "q7a")["probability"] > 0.9
        assert service.pair("p8a", "q8a")["probability"] > 0.9
        batcher.close()

    def test_spool_bad_utf8_file_skips_without_killing_the_source(
        self, service, wal, tmp_path
    ):
        """A spool file with undecodable bytes must be counted/skipped
        line-wise and finished, not kill the source thread."""
        spool = tmp_path / "spool"
        spool.mkdir()
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        staged = tmp_path / "bad.ndjson.tmp"
        with staged.open("wb") as stream:
            stream.write(b"\xff\xfe not utf-8 \xff\n")
            stream.write(json.dumps(family_delta(6).to_json()).encode("utf-8") + b"\n")
        staged.rename(spool / "bad.ndjson")
        source = SpoolDirectorySource(batcher, spool, poll_interval=0.02).start()
        try:
            self.wait_until(lambda: source.files_done >= 1)
            assert batcher.flush(timeout=60)
            assert source.decode_errors == 1
            assert source.ingested == 1
            assert (spool / "bad.ndjson.done").exists()
            assert service.pair("p6a", "q6a")["probability"] > 0.9
        finally:
            source.stop()
            batcher.close()

    def test_tailer_consumes_backlog_larger_than_one_chunk(self, service, wal, tmp_path):
        """A pre-existing backlog bigger than READ_CHUNK is consumed
        across bounded reads in one poll — nothing skipped, nothing
        re-read unboundedly."""
        batcher = DeltaBatcher(service, wal, max_queue=4096, max_lag=0.05).start()
        watch = tmp_path / "deltas.ndjson"
        deltas = [family_delta(6), family_delta(7), family_delta(8)]
        lines = [json.dumps(delta.to_json()) + "\n" for delta in deltas]
        watch.write_text("".join(lines), encoding="utf-8")
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.05)
        # Force multiple chunk reads per poll: smaller than one line.
        tailer.READ_CHUNK = len(lines[0]) // 3
        tailer._poll()
        assert tailer.ingested == 3
        assert tailer._position == watch.stat().st_size
        assert batcher.flush(timeout=60)
        assert service.pair("p8a", "q8a")["probability"] > 0.9
        batcher.close()

    def test_make_source_picks_by_path_kind(self, service, wal, tmp_path):
        batcher = DeltaBatcher(service, wal)
        directory = tmp_path / "spool"
        directory.mkdir()
        assert isinstance(make_source(batcher, directory), SpoolDirectorySource)
        assert isinstance(
            make_source(batcher, tmp_path / "not-there-yet.ndjson"), NdjsonFileTailer
        )
        batcher.close()

    def test_tailer_redelivery_after_restart_is_idempotent(self, service, wal, tmp_path):
        """A restarted tailer re-reads the file from byte 0; the WAL's
        recovered per-source sequence numbers drop every replayed line."""
        batcher = DeltaBatcher(service, wal, max_lag=0.02).start()
        watch = tmp_path / "deltas.ndjson"
        watch.write_text(json.dumps(family_delta(6).to_json()) + "\n", encoding="utf-8")
        tailer = NdjsonFileTailer(batcher, watch, poll_interval=0.02).start()
        self.wait_until(lambda: tailer.ingested >= 1)
        assert batcher.flush(timeout=60)
        tailer.stop()
        batcher.close()
        assert wal.offset == 1
        # "Restart": fresh batcher over the same WAL, fresh tailer.
        wal2 = WriteAheadLog(tmp_path / "wal.ndjson")
        batcher2 = DeltaBatcher(service, wal2, max_lag=0.02).start()
        tailer2 = NdjsonFileTailer(batcher2, watch, poll_interval=0.02).start()
        try:
            self.wait_until(lambda: batcher2.stats()["duplicates"] >= 1)
            assert batcher2.stats()["accepted"] == 0
        finally:
            tailer2.stop()
            batcher2.close()
            wal2.close()


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------


class TestHttpStreaming:
    @pytest.fixture()
    def stack(self, tmp_path):
        left, right = family_pair(5)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        options = {"max_batch": 8, "max_lag": 0.02}
        with serve_primary(service, tmp_path, options, snapshot_every=0) as server:
            yield server, service

    def test_stats_exposes_queue_wal_and_work(self, stack):
        server, service = stack
        stats = fetch_json(url_of(server, "/stats"))[0]
        assert stats["wal_offset"] == 0
        assert stats["ingest"]["queue_depth"] == 0
        report = fetch_json(url_of(server, "/delta"), family_delta(5).to_json())[0]
        assert report["converged"]
        stats = fetch_json(url_of(server, "/stats"))[0]
        assert stats["wal_offset"] == 1
        assert stats["ingest"]["wal_appended"] == 1
        assert stats["ingest"]["accepted"] == 1
        assert stats["pairs_touched_total"] > 0
        assert stats["deltas_applied"] == 1

    def test_duplicate_post_acknowledged(self, stack):
        server, service = stack
        payload = family_delta(5).to_json()
        first = fetch_json(url_of(server, "/delta?source=writer&seq=1"), payload)[0]
        assert first["converged"]
        second = fetch_json(url_of(server, "/delta?source=writer&seq=1"), payload)[0]
        assert second == {"duplicate": True, "source": "writer", "seq": 1}
        assert fetch_json(url_of(server, "/stats"))[0]["ingest"]["duplicates"] == 1

    def test_bad_seq_400(self, stack):
        server, _service = stack
        status, _ = post_json(url_of(server, "/delta?seq=abc"), family_delta(5).to_json())
        assert status == 400

    def test_overflow_answers_429_with_retry_after(self, stack):
        server, service = stack
        stream = server.stream
        stream.batcher.max_queue = 0  # admission rejects everything
        try:
            body = json.dumps(family_delta(5).to_json()).encode("utf-8")
            status, headers, body = request(url_of(server, "/delta"), "POST", body)
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "queue is full" in json.loads(body)["error"]
        finally:
            stream.batcher.max_queue = 8

    def test_healthz_reports_a_latched_wal(self, stack, monkeypatch):
        """After a failed fsync latches the WAL, /healthz must report
        the node degraded (never via a 304) while writes answer 503."""
        server, _service = stack
        TestWalSegments.fsync_fails_once(monkeypatch)
        assert post_json(url_of(server, "/delta"), family_delta(5).to_json())[0] == 500
        assert post_json(url_of(server, "/delta"), family_delta(6).to_json())[0] == 503
        status, headers, body = request(url_of(server, "/healthz"))
        health = json.loads(body)
        assert status == 200 and health["status"] == "degraded", health
        assert "injected EIO" in health["degraded"], health
        etag = {"If-None-Match": headers["ETag"]}
        assert request(url_of(server, "/healthz"), headers=etag)[0] == 200

    def test_build_server_installs_batch_snapshot_policy(self, tmp_path):
        """snapshot_every runs as the batcher hook (once per applied
        batch), not once per HTTP waiter."""
        from repro.service import latest_version

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        options = {"max_batch": 8, "max_lag": 0.02}
        with serve_primary(service, tmp_path, options, snapshot_every=1) as server:
            batcher = server.stream.batcher
            assert batcher.on_batch_applied is not None
            report = fetch_json(url_of(server, "/delta"), family_delta(3).to_json())[0]
            assert report["version"] == 1
            assert batcher.flush(timeout=60)
            assert latest_version(tmp_path) == 1  # snapshotted, once, by the hook

    def test_build_server_requires_a_stream_exactly_on_primaries(self, tmp_path):
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        with pytest.raises(ValueError, match="stream"):
            build_server(service, "127.0.0.1", 0)
        with StreamStack.open(service, tmp_path) as stream:
            with pytest.raises(ValueError, match="stream"):
                build_server(None, "127.0.0.1", 0, stream=stream, replica=object())

    def test_default_serve_acks_only_durable_deltas(self, tmp_path):
        """`repro serve L R --state-dir D`, no other flag: every POST
        /delta that answered 200 is already covered by the WAL's
        durable offset, and the log is D/wal.ndjson, shipped on GET /wal."""
        from repro.rdf import ntriples

        left, right = family_pair(4)
        paths = [str(tmp_path / name) for name in ("left.nt", "right.nt")]
        for ontology, path in zip((left, right), paths):
            ntriples.write_ntriples(ontology, path)
        state_dir = tmp_path / "state"
        with Fleet() as fleet:
            primary = fleet.spawn("serve", *paths, "--state-dir", str(state_dir))
            health = wait_ready(primary)
            assert health["wal"]["durable_offset"] == 0
            for acked in range(1, 4):
                fetch_json(primary.url + "/delta", family_delta(3 + acked).to_json())
                wal = fetch_json(primary.url + "/healthz")[0]["wal"]
                assert wal["durable_offset"] >= acked, wal
                assert wal["applied_offset"] == wal["appended_offset"] == acked, wal
            status, headers, body = request(primary.url + "/wal?from=0")
            assert status == 200 and headers["X-Wal-Offset"] == "3"
            assert len(body.splitlines()) == 3
            assert (state_dir / "wal.ndjson").is_file()


# ----------------------------------------------------------------------
# the headline guarantees
# ----------------------------------------------------------------------


class TestStreamEquivalence:
    """A delta stream ingested through watch-file + WAL + batcher ends
    at scores equal (1e-9) to the same deltas applied one-by-one,
    directly on the engine."""

    BASE = 8
    DELTAS = 4

    def test_watch_wal_batcher_equals_one_by_one(self, tmp_path):
        deltas = [family_delta(self.BASE + step) for step in range(self.DELTAS)]
        # Reference: one engine apply per delta.
        left, right = family_pair(self.BASE)
        reference = AlignmentService.cold_start(left, right, ParisConfig())
        for delta in deltas:
            reference.apply_delta(delta)
        # Stream: NDJSON watch file → WAL → coalescing batcher.
        left2, right2 = family_pair(self.BASE)
        streamed = AlignmentService.cold_start(left2, right2, ParisConfig())
        watch = tmp_path / "deltas.ndjson"
        with watch.open("w", encoding="utf-8") as stream:
            for delta in deltas:
                stream.write(json.dumps(delta.to_json()) + "\n")
        options = {"max_batch": 16, "max_lag": 0.05, "watch": [watch]}
        with StreamStack.open(streamed, tmp_path, **options):
            deadline = time.monotonic() + 60
            while streamed.state.wal_offset < self.DELTAS:
                assert time.monotonic() < deadline, streamed.stats()
                time.sleep(0.05)
        assert_stores_match(streamed.state.store, reference.state.store)
        # And both equal the cold realign of the final corpus.
        cold = align(
            *family_pair(self.BASE + self.DELTAS),
            ParisConfig(score_stationarity=True),
        )
        assert_stores_match(streamed.state.store, cold.instances)


class TestCrashRecovery:
    """SIGKILL mid-batch ≡ never crashing: restart from snapshot + WAL
    replay reaches the scores of an uninterrupted run."""

    BASE = 8

    def test_restart_refuses_a_log_behind_the_snapshot(self, tmp_path):
        """A snapshot at offset 3 with its log gone must not restart
        numbering at 1: the open stops before any record is reused."""
        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        with StreamStack.open(service, state_dir, max_batch=8) as stream:
            for step in range(3):
                stream.batcher.submit(family_delta(self.BASE + step), source="w", seq=step + 1)
            assert stream.batcher.flush(timeout=60)
        service.snapshot(state_dir)
        assert load_state(state_dir).wal_offset == 3
        (state_dir / "wal.ndjson").unlink()

        resumed = AlignmentService.from_state(load_state(state_dir))
        with pytest.raises(WalBehindSnapshotError) as caught:
            StreamStack.open(resumed, state_dir)
        assert (caught.value.wal_offset, caught.value.snapshot_offset) == (0, 3)
        assert resumed.state.wal_offset == 3
        reader = WriteAheadLog(state_dir / "wal.ndjson", read_only=True)
        with pytest.raises(WalBehindSnapshotError):
            replay_wal(resumed, reader)

    def test_mid_batch_crash_then_snapshot_plus_wal_replay(self, tmp_path, monkeypatch):
        from repro.core.aligner import ParisAligner

        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        service.snapshot(state_dir)
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        batcher = DeltaBatcher(service, wal=wal, max_batch=8, max_lag=0.1)
        # Three deltas land in the WAL and the queue...
        for step in range(3):
            batcher.submit(family_delta(self.BASE + step), source="w", seq=step + 1)
        # ...and the engine dies mid-batch, after mutation started (the
        # same poisoning surface test_service.py exercises): the WAL
        # has everything, the snapshot has nothing of the batch.
        real_warm_align = ParisAligner.warm_align

        def explode(*_args, **_kwargs):
            raise OSError("killed mid-batch")

        monkeypatch.setattr(ParisAligner, "warm_align", explode)
        batcher.start()
        batcher.flush(timeout=60)
        batcher.close()
        assert service.poisoned is not None
        with pytest.raises(RuntimeError):
            service.pair("p0a", "q0a")
        monkeypatch.setattr(ParisAligner, "warm_align", real_warm_align)

        # Restart: snapshot + WAL replay (what serve does on boot).
        resumed = AlignmentService.from_state(load_state(state_dir))
        recovered_wal = WriteAheadLog(tmp_path / "wal.ndjson")
        assert recovered_wal.offset == 3
        replayed = replay_wal(resumed, recovered_wal)
        assert replayed == 3
        assert resumed.state.wal_offset == 3

        # The uninterrupted twin applies the same stream, no crash.
        left2, right2 = family_pair(self.BASE)
        uninterrupted = AlignmentService.cold_start(left2, right2, ParisConfig())
        for step in range(3):
            uninterrupted.apply_delta(family_delta(self.BASE + step))
        assert_stores_match(resumed.state.store, uninterrupted.state.store)
        cold = align(*family_pair(self.BASE + 3), ParisConfig(score_stationarity=True))
        assert_stores_match(resumed.state.store, cold.instances)

    def test_partial_application_before_crash_is_idempotent(self, tmp_path):
        """Replaying WAL records whose effects partially landed before
        the crash (applied, but not yet covered by a snapshot) must
        converge to the same state: triple changes are idempotent."""
        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        # First delta: WAL'd, applied, *snapshotted*.
        first = family_delta(self.BASE)
        service.apply_delta(first, wal_offset=wal.append(first, "w", 1))
        service.snapshot(state_dir)
        # Second delta: WAL'd and applied — but the crash hits before
        # any snapshot records it.
        second = family_delta(self.BASE + 1)
        service.apply_delta(second, wal_offset=wal.append(second, "w", 2))
        wal.close()
        # Restart from the snapshot: record 2 replays onto a state that
        # (unknowingly) already contains half the story? No — the
        # snapshot predates it entirely; and replaying record 2 against
        # the *current* ontologies later is the no-op case.
        resumed = AlignmentService.from_state(load_state(state_dir))
        assert resumed.state.wal_offset == 1
        replayed = replay_wal(resumed, WriteAheadLog(tmp_path / "wal.ndjson"))
        assert replayed == 1
        cold = align(*family_pair(self.BASE + 2), ParisConfig(score_stationarity=True))
        assert_stores_match(resumed.state.store, cold.instances)
        # Replaying the whole WAL again over the caught-up state (the
        # double-delivery worst case) changes nothing.
        resumed.state.wal_offset = 0
        replay_wal(resumed, WriteAheadLog(tmp_path / "wal.ndjson"))
        assert_stores_match(resumed.state.store, cold.instances)
