"""Fleet correctness auditing (PR 10).

Covers the audit layer bottom-up: the deterministic pair hash and the
order-insensitive XOR fold, the hypothesis property that the
incrementally-maintained digest equals a full recompute under random
interleaved add/remove delta batches, offset-keyed checkpoint history,
engine integration (snapshot/restart and replica re-bootstrap carry the
digest), the :class:`~repro.service.audit.StateAuditor` background
cold-verification (sampled rows and the full-digest check, the
mismatch latch, the degraded ``/healthz``), the ``GET /digest`` HTTP
surface, the router's ``GET /fleet`` comparison and ``GET /provenance``
relay, and the ``repro doctor`` CLI verdict on a clean and on a
corrupted fleet.
"""

from __future__ import annotations

import json
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _build_auditor, build_parser, cmd_doctor
from repro.client import get_json, post_json
from repro.core.config import ParisConfig
from repro.core.result import apply_assignment_delta
from repro.datasets.incremental import family_addition, family_pair
from repro.obs.audit import (
    AUDIT_MISMATCH,
    SCORE_QUANTUM,
    DigestMaintainer,
    digest_assignment,
    format_digest,
    pair_hash,
    parse_digest,
    range_digest,
)
from repro.rdf.terms import Resource
from repro.service import AlignmentService, Delta, latest_version, load_state
from repro.service.audit import StateAuditor
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import build_server
from repro.service.stream import WriteAheadLog
from repro.testing import family_delta, serve_in_thread, serve_primary, url_of, wait_until


def corrupt_without_maintainer(service, scale=0.5):
    """Flip one pair's score in assignment *and* store, leaving the
    incremental digest stale — the shape of silent in-process state
    corruption.  Caught by the full-digest audit check and by
    ``/digest?verify=1``, not by the sampled row check (both resident
    copies agree on the corrupted value)."""
    with service.lock:
        entity, (counterpart, probability) = next(iter(service._assignment12.items()))
        corrupted = probability * scale
        service._assignment12[entity] = (counterpart, corrupted)
        service.state.store.set(entity, counterpart, corrupted)
    return entity, counterpart


def corrupt_with_maintainer(service, scale=0.5):
    """Divergence as replication would produce it: the bad pair went
    through the node's own apply path, so its incremental digest is
    coherent with the corrupted state — only a *cross-node* digest
    comparison (``GET /fleet``, ``repro doctor``) can see it."""
    with service.lock:
        entity, (counterpart, probability) = next(iter(service._assignment12.items()))
        corrupted = probability * scale
        service.digests.apply(
            {entity: (counterpart, corrupted)},
            service._assignment12,
            service.digests.wal_offset,
        )
        service._assignment12[entity] = (counterpart, corrupted)
        service.state.store.set(entity, counterpart, corrupted)
    return entity, counterpart


# ----------------------------------------------------------------------
# pair hash + fold
# ----------------------------------------------------------------------


class TestPairHash:
    def test_deterministic_across_calls(self):
        assert pair_hash("a", "b", 0.5) == pair_hash("a", "b", 0.5)

    def test_sides_are_not_interchangeable(self):
        assert pair_hash("a", "b", 0.5) != pair_hash("b", "a", 0.5)
        # The separator byte keeps ("ab","c") distinct from ("a","bc").
        assert pair_hash("ab", "c", 0.5) != pair_hash("a", "bc", 0.5)

    def test_score_quantization(self):
        base = pair_hash("x", "y", 0.5)
        # A sub-quantum perturbation lands in the same grid cell…
        assert pair_hash("x", "y", 0.5 + SCORE_QUANTUM / 100) == base
        # …a super-quantum one does not.
        assert pair_hash("x", "y", 0.5 + 10 * SCORE_QUANTUM) != base

    def test_format_parse_round_trip(self):
        for value in (0, 1, pair_hash("a", "b", 0.25), (1 << 64) - 1):
            text = format_digest(value)
            assert len(text) == 16
            assert parse_digest(text) == value


class TestDigestFold:
    def assignment(self, pairs):
        return {
            Resource(left): (Resource(right), probability)
            for left, right, probability in pairs
        }

    def test_empty_assignment_is_zero(self):
        assert digest_assignment({}) == 0

    def test_fold_is_order_insensitive(self):
        pairs = [("a", "x", 0.9), ("b", "y", 0.8), ("c", "z", 0.7)]
        forward = self.assignment(pairs)
        backward = self.assignment(list(reversed(pairs)))
        assert digest_assignment(forward) == digest_assignment(backward)

    def test_removal_is_xor_inverse(self):
        full = self.assignment([("a", "x", 0.9), ("b", "y", 0.8)])
        without = self.assignment([("a", "x", 0.9)])
        removed = pair_hash("b", "y", 0.8)
        assert digest_assignment(full) ^ removed == digest_assignment(without)

    def test_range_digests_partition_the_whole(self):
        assignment = self.assignment(
            [(f"e{i:02d}", f"r{i:02d}", 0.5 + i / 100) for i in range(10)]
        )
        whole = range_digest(assignment)
        mid = whole["mid"]
        left = range_digest(assignment, hi=mid)
        right = range_digest(assignment, lo=mid + "\x00")
        assert left["count"] + right["count"] == whole["count"] == 10
        assert parse_digest(left["digest"]) ^ parse_digest(right["digest"]) == (
            parse_digest(whole["digest"])
        )

    def test_range_bounds_are_inclusive(self):
        assignment = self.assignment([("a", "x", 0.9), ("b", "y", 0.8)])
        only_a = range_digest(assignment, lo="a", hi="a")
        assert only_a["count"] == 1 and only_a["min"] == "a"


# ----------------------------------------------------------------------
# incremental maintenance ≡ full recompute (the hypothesis property)
# ----------------------------------------------------------------------

# One random step: entity index → new match (counterpart index, score)
# or None (the entity lost its counterpart).  Interleaved over a small
# key space so steps genuinely add, rematch, and remove pairs.
_steps = st.lists(
    st.dictionaries(
        st.integers(0, 9),
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, 7),
                st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
            ),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=12,
)


def _materialize(raw):
    delta = {}
    for left_index, match in raw.items():
        entity = Resource(f"left-{left_index}")
        if match is None:
            delta[entity] = None
        else:
            delta[entity] = (Resource(f"right-{match[0]}"), match[1])
    return delta


class TestDigestMaintainerProperty:
    @given(steps=_steps)
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_full_recompute(self, steps):
        assignment = {}
        maintainer = DigestMaintainer(assignment)
        checkpoints = [(0, maintainer.digest)]
        for offset, raw in enumerate(steps, start=1):
            delta = _materialize(raw)
            previous = dict(assignment)
            apply_assignment_delta(assignment, delta)
            maintainer.apply(delta, previous, offset)
            assert maintainer.digest == digest_assignment(assignment)
            assert maintainer.wal_offset == offset
            checkpoints.append((offset, maintainer.digest))
        # Every offset in the bounded history answers with the digest
        # the state had *at that offset* — the doctor's comparison key.
        for offset, digest in checkpoints:
            assert maintainer.at_offset(offset) == digest

    def test_advance_checkpoints_noop_batches(self):
        maintainer = DigestMaintainer({}, wal_offset=3)
        maintainer.advance(7)
        assert maintainer.wal_offset == 7
        assert maintainer.at_offset(7) == maintainer.digest
        assert maintainer.at_offset(3) == maintainer.digest

    def test_history_is_bounded(self):
        maintainer = DigestMaintainer({}, wal_offset=0, history=4)
        for offset in range(1, 10):
            maintainer.advance(offset)
        assert maintainer.at_offset(1) is None
        assert maintainer.at_offset(9) == maintainer.digest

    def test_last_touched_tracks_offsets(self):
        entity = Resource("left-0")
        other = Resource("left-1")
        assignment = {}
        maintainer = DigestMaintainer(assignment)
        delta = {entity: (Resource("right-0"), 0.9)}
        apply_assignment_delta(assignment, delta)
        maintainer.apply(delta, {}, 5)
        delta = {other: (Resource("right-1"), 0.8)}
        previous = dict(assignment)
        apply_assignment_delta(assignment, delta)
        maintainer.apply(delta, previous, 9)
        assert maintainer.offsets_touching([entity]) == [5]
        assert maintainer.offsets_touching([entity, other]) == [5, 9]
        assert maintainer.offsets_touching([Resource("never")]) == []


# ----------------------------------------------------------------------
# engine integration: deltas, snapshot/restart, replica re-bootstrap
# ----------------------------------------------------------------------


class TestEngineDigest:
    def build(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def test_digest_maintained_across_interleaved_deltas(self):
        service = self.build()
        assert service.digests.digest == digest_assignment(service._assignment12)
        assert service.state.digest == service.digests.digest
        offset = 0
        for step in range(4):
            add1, add2 = family_addition(6 + step, 1)
            offset += 1
            service.apply_delta(
                Delta(add1=tuple(add1), add2=tuple(add2)), wal_offset=offset
            )
            assert service.digests.digest == digest_assignment(service._assignment12)
            # Remove one of the triples we just added: the digest must
            # follow net pair changes through removals too.
            offset += 1
            service.apply_delta(Delta(remove1=(add1[0],)), wal_offset=offset)
            assert service.digests.digest == digest_assignment(service._assignment12)
            assert service.digests.wal_offset == offset
            assert service.state.digest == service.digests.digest

    def test_snapshot_restart_verifies_digest(self, tmp_path):
        service = self.build()
        service.apply_delta(family_delta(6), wal_offset=1)
        expected = service.digests.digest
        service.snapshot(tmp_path)
        state = load_state(tmp_path, latest_version(tmp_path))
        assert state.digest == expected
        before = AUDIT_MISMATCH.value(kind="bootstrap")
        restarted = AlignmentService.from_state(state)
        assert AUDIT_MISMATCH.value(kind="bootstrap") == before
        assert restarted.digests.digest == expected
        assert restarted.digests.wal_offset == 1

    def test_corrupted_snapshot_digest_flags_bootstrap(self, tmp_path):
        service = self.build()
        service.snapshot(tmp_path)
        state = load_state(tmp_path, latest_version(tmp_path))
        state.digest ^= 1
        before = AUDIT_MISMATCH.value(kind="bootstrap")
        restarted = AlignmentService.from_state(state)
        assert AUDIT_MISMATCH.value(kind="bootstrap") == before + 1
        # The restarted engine trusts its own recompute, not the stamp.
        assert restarted.digests.digest == digest_assignment(restarted._assignment12)

    def test_pre_digest_snapshots_still_load(self, tmp_path):
        service = self.build()
        service.snapshot(tmp_path)
        state = load_state(tmp_path, latest_version(tmp_path))
        state.__dict__.pop("digest")
        revived = type(state).__new__(type(state))
        revived.__setstate__(state.__dict__)
        assert revived.digest is None
        restarted = AlignmentService.from_state(revived)
        assert restarted.digests.digest == digest_assignment(restarted._assignment12)

    def test_replica_matches_primary_across_rebootstrap(self, tmp_path):
        left, right = family_pair(6)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        wal = WriteAheadLog(state_dir / "wal.ndjson", segment_bytes=400)
        offset = 0
        for step in range(3):
            delta = family_delta(6 + step)
            offset = wal.append(delta, "writer", step + 1)
            primary.apply_delta(delta, wal_offset=offset)
        replica = ReplicaNode(state_dir, batch=2)
        replica.catch_up(offset)
        assert replica.service.digests.snapshot() == primary.digests.snapshot()
        # Compact past the replica's cursor and keep writing: the node
        # re-bootstraps from the newer snapshot, and the digest it
        # rebuilds from that state still matches the primary's.
        for step in range(3, 6):
            delta = family_delta(6 + step)
            offset = wal.append(delta, "writer", step + 1)
            primary.apply_delta(delta, wal_offset=offset)
        primary.snapshot(state_dir)
        reclaimed, _deleted = wal.compact(primary.state.wal_offset)
        assert reclaimed > 0
        replica.auditor = StateAuditor(lambda: replica.service, role="replica")
        replica.auditor.last_mismatch = {"kind": "sample", "wal_offset": 0}
        replica.start()
        try:
            wait_until(lambda: replica.applied_offset == offset)
        finally:
            replica.stop()
        assert replica.rebootstraps == 1
        assert replica.service.digests.snapshot() == primary.digests.snapshot()
        # Re-bootstrap replaced the state wholesale: the mismatch latch
        # of the node-owned auditor is cleared with it.
        assert replica.auditor.last_mismatch is None
        wal.close()


# ----------------------------------------------------------------------
# the background auditor
# ----------------------------------------------------------------------


class TestStateAuditor:
    def build(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def test_clean_state_audits_clean(self):
        service = self.build()
        auditor = StateAuditor(lambda: service, sample=1000, full_every=1, seed=7)
        assert auditor.check_once() is None
        assert auditor.checks > 0
        assert auditor.mismatches == 0
        assert auditor.last_audit_ts is not None
        assert auditor.degraded() is None
        stats = auditor.stats()
        assert stats["digest"] == format_digest(service.digests.digest)
        assert stats["digest_offset"] == service.digests.wal_offset
        assert "last_mismatch" not in stats

    def test_sampled_check_catches_store_vs_assignment_drift(self):
        service = self.build()
        with service.lock:
            entity, (counterpart, probability) = next(
                iter(service._assignment12.items())
            )
            # The store drifts but the maintained assignment does not —
            # exactly what the sampled cold-recompute is for.
            service.state.store.set(entity, counterpart, probability / 2)
        auditor = StateAuditor(
            lambda: service, sample=1000, full_every=1000, seed=7, role="replica"
        )
        mismatch = auditor.check_once()
        assert mismatch is not None and mismatch["kind"] == "sample"
        assert mismatch["left"] == entity.name
        assert mismatch["role"] == "replica"
        assert auditor.mismatches >= 1
        degraded = auditor.degraded()
        assert degraded is not None and entity.name in degraded

    def test_digest_check_catches_coherent_corruption(self):
        service = self.build()
        entity, _counterpart = corrupt_without_maintainer(service)
        auditor = StateAuditor(lambda: service, sample=0, full_every=1, seed=7)
        before = AUDIT_MISMATCH.value(kind="digest")
        mismatch = auditor.check_once()
        assert mismatch is not None and mismatch["kind"] == "digest"
        assert AUDIT_MISMATCH.value(kind="digest") == before + 1
        assert "digest" in auditor.degraded()

    def test_latch_survives_clean_cycles_until_reset(self):
        service = self.build()
        corrupt_without_maintainer(service)
        auditor = StateAuditor(lambda: service, sample=0, full_every=1, seed=7)
        auditor.check_once()
        first = auditor.last_mismatch
        assert first is not None
        # Heal the state; the latch must stay — divergence happened.
        with service.lock:
            service.digests.digest = digest_assignment(service._assignment12)
        auditor.check_once()
        assert auditor.last_mismatch is first
        auditor.reset()
        assert auditor.last_mismatch is None
        assert auditor.degraded() is None

    def test_absent_or_poisoned_service_is_skipped(self):
        auditor = StateAuditor(lambda: None)
        assert auditor.check_once() is None
        service = self.build()
        service.poisoned = "simulated fail-stop"
        auditor = StateAuditor(lambda: service, full_every=1)
        assert auditor.check_once() is None
        assert auditor.checks == 0

    def test_background_thread_runs_and_stops(self):
        service = self.build()
        auditor = StateAuditor(lambda: service, interval_ms=20, sample=4, full_every=1)
        auditor.start()
        try:
            wait_until(lambda: auditor.checks > 0)
        finally:
            auditor.stop()
        assert auditor._thread is None
        assert auditor.mismatches == 0


# ----------------------------------------------------------------------
# GET /digest and the degraded /healthz
# ----------------------------------------------------------------------


class TestDigestEndpoint:
    @pytest.fixture()
    def node(self, tmp_path):
        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        auditor = StateAuditor(lambda: service, sample=0, full_every=1, seed=7)
        with serve_primary(service, tmp_path, snapshot_every=0, auditor=auditor) as server:
            for offset in range(1, 4):
                server.stream.batcher.submit(family_delta(5 + offset), wait=True)
            assert service.state.wal_offset == 3
            yield {"service": service, "server": server, "auditor": auditor}

    def test_current_digest(self, node):
        status, payload = get_json(url_of(node["server"], "/digest"))
        assert status == 200
        assert payload["role"] == "primary"
        assert payload["wal_offset"] == 3
        assert payload["digest"] == format_digest(node["service"].digests.digest)
        assert payload["pairs"] == len(node["service"]._assignment12)

    def test_offset_keyed_lookup_and_aged_out(self, node):
        status, payload = get_json(url_of(node["server"], "/digest?offset=2"))
        assert status == 200
        at = payload["at_offset"]
        assert at["wal_offset"] == 2
        assert parse_digest(at["digest"]) == node["service"].digests.at_offset(2)
        status, payload = get_json(url_of(node["server"], "/digest?offset=999"))
        assert status == 409
        assert "999" in payload["error"]
        status, _payload = get_json(url_of(node["server"], "/digest?offset=nan"))
        assert status == 400

    def test_range_subdigests_partition(self, node):
        status, whole = get_json(url_of(node["server"], "/digest?lo="))
        assert status == 200 and whole["range"]["count"] > 0
        mid = urllib.parse.quote(whole["range"]["mid"])
        status, left = get_json(url_of(node["server"], f"/digest?lo=&hi={mid}"))
        assert status == 200
        status, right = get_json(
            url_of(node["server"], f"/digest?lo={mid}%00")
        )
        assert status == 200
        assert (
            parse_digest(left["range"]["digest"])
            ^ parse_digest(right["range"]["digest"])
        ) == parse_digest(whole["range"]["digest"])

    def test_verify_self_check(self, node):
        status, payload = get_json(url_of(node["server"], "/digest?verify=1"))
        assert status == 200
        assert payload["verified"] is True
        assert payload["recomputed"] == payload["digest"]
        corrupt_without_maintainer(node["service"])
        status, payload = get_json(url_of(node["server"], "/digest?verify=1"))
        assert status == 200
        assert payload["verified"] is False
        assert payload["recomputed"] != payload["digest"]

    def test_healthz_degrades_on_latched_mismatch(self, node):
        status, payload = get_json(url_of(node["server"], "/healthz"))
        assert status == 200 and payload["status"] == "ok"
        corrupt_without_maintainer(node["service"])
        node["auditor"].check_once()
        status, payload = get_json(url_of(node["server"], "/healthz"))
        assert status == 200
        assert payload["status"] == "degraded"
        assert "audit mismatch" in payload["degraded"]

    def test_stats_carries_audit_block(self, node):
        node["auditor"].check_once()
        status, payload = get_json(url_of(node["server"], "/stats"))
        assert status == 200
        audit = payload["audit"]
        assert audit["checks"] >= 1 and audit["mismatches"] == 0
        assert audit["digest"] == format_digest(node["service"].digests.digest)
        assert audit["digest_offset"] == payload["wal_offset"]


# ----------------------------------------------------------------------
# fleet surfaces: GET /fleet, router /provenance relay, repro doctor
# ----------------------------------------------------------------------


class TestFleet:
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
            replica_auditor = StateAuditor(
                lambda: replica.service, sample=0, full_every=1,
                role="replica", seed=7,
            )
            replica.auditor = replica_auditor
            replica_server = build_server(
                None, "127.0.0.1", 0, replica=replica, auditor=replica_auditor,
            )
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
                        "replica_auditor": replica_auditor,
                        "replica_server": replica_server,
                        "router_server": router_server,
                    }
                router.stop()
            replica.stop()

    def write_and_settle(self, fleet, start=6, count=2):
        primary = fleet["primary"]
        for step in range(count):
            delta = family_delta(start + step).to_json()
            status, _ = post_json(url_of(fleet["router_server"], "/delta"), delta)
            assert status == 200
        wait_until(lambda: primary.state.wal_offset >= count)
        offset = primary.state.wal_offset
        wait_until(lambda: fleet["replica"].applied_offset >= offset)
        return offset

    def test_fleet_is_consistent_after_converged_writes(self, fleet):
        self.write_and_settle(fleet)
        status, payload = get_json(url_of(fleet["router_server"], "/fleet"))
        assert status == 200
        assert payload["role"] == "router"
        assert payload["consistent"] is True and payload["divergent"] == []
        roles = {node["role"] for node in payload["nodes"]}
        assert roles == {"primary", "replica"}
        digests = {node["digest"] for node in payload["nodes"]}
        assert digests == {format_digest(fleet["primary"].digests.digest)}
        assert all(node["match"] is True for node in payload["nodes"])

    def test_fleet_names_the_divergent_replica(self, fleet):
        self.write_and_settle(fleet)
        corrupt_with_maintainer(fleet["replica"].service)
        status, payload = get_json(url_of(fleet["router_server"], "/fleet"))
        assert status == 200
        assert payload["consistent"] is False
        assert payload["divergent"] == [url_of(fleet["replica_server"])]
        bad = [n for n in payload["nodes"] if n["role"] == "replica"]
        assert bad and bad[0]["match"] is False

    def test_router_relays_provenance_to_primary(self, fleet):
        trace = "fleet-trace-1"
        status, _ = post_json(
            url_of(fleet["router_server"], "/delta"),
            family_delta(9).to_json(),
            headers={"X-Request-Id": trace},
        )
        assert status == 200
        status, payload = get_json(
            url_of(fleet["router_server"], f"/provenance?trace={trace}")
        )
        assert status == 200
        assert payload["found"] and payload["role"] == "primary"
        assert "applied" in payload["timeline"]

    def doctor_args(self, fleet, as_json=True):
        argv = [
            "doctor",
            url_of(fleet["primary_server"]),
            "--replicas",
            url_of(fleet["replica_server"]),
            "--timeout",
            "60",
        ]
        if as_json:
            argv.append("--json")
        return build_parser().parse_args(argv)

    def test_doctor_reports_clean_fleet(self, fleet, capsys):
        self.write_and_settle(fleet)
        args = self.doctor_args(fleet)
        assert cmd_doctor(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is True
        assert {node["verdict"] for node in report["nodes"]} == {"ok"}
        assert report["target_offset"] == fleet["primary"].state.wal_offset

    def test_doctor_flags_exactly_the_corrupted_node(self, fleet, capsys):
        self.write_and_settle(fleet)
        entity, _counterpart = corrupt_without_maintainer(fleet["replica"].service)
        # Its own auditor notices within one cycle…
        mismatch = fleet["replica_auditor"].check_once()
        assert mismatch is not None
        status, health = get_json(url_of(fleet["replica_server"], "/healthz"))
        assert status == 200 and health["status"] == "degraded"
        # …and the doctor names the node and the first divergent pair.
        args = self.doctor_args(fleet)
        assert cmd_doctor(args) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is False
        verdicts = {node["role"]: node["verdict"] for node in report["nodes"]}
        assert verdicts == {"primary": "ok", "replica": "DIVERGED"}
        bad = [n for n in report["nodes"] if n["verdict"] == "DIVERGED"]
        assert bad[0]["url"] == url_of(fleet["replica_server"])
        pair = bad[0]["first_divergent_pair"]
        assert pair is not None and pair["left"] == entity.name
        assert pair["primary"]["probability"] != pair["node"]["probability"]

    def test_doctor_table_output(self, fleet, capsys):
        self.write_and_settle(fleet)
        corrupt_without_maintainer(fleet["replica"].service)
        args = self.doctor_args(fleet, as_json=False)
        assert cmd_doctor(args) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE DETECTED" in out
        assert "first divergent pair" in out


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------


class TestAuditCliFlags:
    def test_serve_and_replica_accept_audit_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--state-dir", "/tmp/state",
             "--audit-interval-ms", "250", "--audit-sample", "8"]
        )
        assert args.audit_interval_ms == 250 and args.audit_sample == 8
        args = parser.parse_args(["replica", "/tmp/state"])
        assert args.audit_interval_ms > 0  # on by default, every role

    def test_zero_interval_disables_the_auditor(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--state-dir", "/tmp/state", "--audit-interval-ms", "0"]
        )
        assert _build_auditor(args, lambda: None, role="primary") is None
        args = parser.parse_args(
            ["serve", "--state-dir", "/tmp/state", "--audit-interval-ms", "100"]
        )
        auditor = _build_auditor(args, lambda: None, role="primary")
        assert isinstance(auditor, StateAuditor)

    def test_doctor_parser_contract(self):
        parser = build_parser()
        args = parser.parse_args(
            ["doctor", "http://p:1", "--replicas", "http://r:2",
             "--replicas", "http://r:3", "--json"]
        )
        assert args.handler is cmd_doctor
        assert args.url == "http://p:1"
        assert args.replicas == ["http://r:2", "http://r:3"]
        assert args.json is True
