"""Unit tests for the incremental alignment service stack.

Covers the delta layer bottom-up: ontology retraction with index
cleanup, literal-index and functionality invalidation, the delta JSON
codec, versioned state snapshots, the service engine, and the HTTP
front-end (exercised in-process over an ephemeral port).
"""

from __future__ import annotations

import gc

import pytest

from repro import OntologyBuilder, ParisConfig, align
from repro.client import get_json, post_json, request
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.datasets.incremental import family_addition, family_pair
from repro.literals import IdentitySimilarity
from repro.rdf.ontology import Ontology
from repro.rdf.terms import _RESOURCES, Literal, Relation, Resource
from repro.rdf.triples import Triple
from repro.service import (
    AlignmentService,
    AlignmentState,
    Delta,
    apply_delta,
    latest_version,
    load_state,
    save_state,
)
from repro.service.delta import triple_from_json, triple_to_json
from repro.service.state import snapshot_path
from repro.testing import family_delta, fetch_json, serve_primary, url_of


class TestOntologyRemove:
    @pytest.fixture()
    def ontology(self):
        return (
            OntologyBuilder("o")
            .value("e1", "name", "Elvis")
            .fact("e1", "bornIn", "Tupelo")
            .type("e1", "Singer")
            .build()
        )

    def test_remove_data_statement(self, ontology):
        assert ontology.remove(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert not ontology.has(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert not ontology.has(Resource("Tupelo"), Relation("bornIn").inverse, Resource("e1"))
        assert ontology.num_statements(Relation("bornIn")) == 0
        # Tupelo had no other statements: gone from the instance set.
        assert Resource("Tupelo") not in ontology.instances
        assert Resource("e1") in ontology.instances

    def test_remove_absent_statement_is_noop(self, ontology):
        assert not ontology.remove(Resource("e1"), Relation("diedIn"), Resource("Memphis"))
        assert ontology.num_facts == 2

    def test_remove_literal_statement_cleans_literal(self, ontology):
        assert ontology.remove(Resource("e1"), Relation("name"), Literal("Elvis"))
        assert Literal("Elvis") not in ontology.literals

    def test_literal_with_other_uses_survives(self, ontology):
        ontology.add(Resource("e2"), Relation("name"), Literal("Elvis"))
        ontology.remove(Resource("e1"), Relation("name"), Literal("Elvis"))
        assert Literal("Elvis") in ontology.literals

    def test_remove_type(self, ontology):
        assert ontology.remove_type(Resource("e1"), Resource("Singer"))
        assert not ontology.classes_of(Resource("e1"))
        # e1 keeps its data statements, so it stays an instance.
        assert Resource("e1") in ontology.instances

    def test_instance_with_only_type_survives_until_type_removed(self):
        ontology = Ontology("o")
        ontology.add_type(Resource("x"), Resource("C"))
        assert Resource("x") in ontology.instances
        assert ontology.remove_type(Resource("x"), Resource("C"))
        assert Resource("x") not in ontology.instances

    def test_remove_via_inverse_relation(self, ontology):
        assert ontology.remove(
            Resource("Tupelo"), Relation("bornIn").inverse, Resource("e1")
        )
        assert ontology.num_statements(Relation("bornIn")) == 0

    def test_remove_subclass_and_subproperty(self):
        ontology = Ontology("o")
        ontology.add_subclass(Resource("A"), Resource("B"))
        ontology.add_subproperty(Relation("r"), Relation("s"))
        assert ontology.remove_subclass(Resource("A"), Resource("B"))
        assert not ontology.remove_subclass(Resource("A"), Resource("B"))
        assert ontology.remove_subproperty(Relation("r"), Relation("s"))
        assert not list(ontology.subclass_edges())
        assert not list(ontology.subproperty_edges())

    def test_add_after_remove_round_trips(self, ontology):
        triple = Triple(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert ontology.remove_triple(triple)
        assert ontology.add_triple(triple)
        assert ontology.has(triple.subject, triple.relation, triple.object)


class TestInvalidation:
    def test_functionality_invalidate_reports_changes(self):
        ontology = OntologyBuilder("o").fact("a", "r", "b").build()
        oracle = FunctionalityOracle(ontology)
        assert oracle.fun(Relation("r")) == 1.0
        ontology.add(Resource("a"), Relation("r"), Resource("c"))
        changes = oracle.invalidate([Relation("r")])
        assert changes[Relation("r")] == (1.0, 0.5)
        assert oracle.fun(Relation("r")) == 0.5

    def test_literal_index_add_and_discard(self):
        ontology = OntologyBuilder("o").value("e", "name", "Anna").build()
        index = LiteralIndex(ontology, IdentitySimilarity())
        assert index.candidates(Literal("Bea")) == ()
        assert index.add(Literal("Bea"))
        assert index.candidates(Literal("Bea")) == ((Literal("Bea"), 1.0),)
        assert index.discard(Literal("Bea"))
        assert index.candidates(Literal("Bea")) == ()
        assert not index.discard(Literal("Bea"))
        assert index.bucket_members("Anna") == {Literal("Anna")}


class TestDeltaCodec:
    def test_triple_round_trip(self):
        """The wire form round-trips the *canonical* statement (the
        codec orients along the forward relation; both orientations
        assert the same fact)."""
        triples = [
            Triple(Resource("a"), Relation("r"), Resource("b")),
            Triple(Resource("a"), Relation("r").inverse, Resource("b")),
            Triple(Resource("a"), Relation("name"), Literal("Anna", "string")),
        ]
        for triple in triples:
            assert triple_from_json(triple_to_json(triple)) == triple.canonical

    def test_delta_round_trip(self):
        add1, add2 = family_addition(3, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2), remove1=(add1[0],))
        decoded = Delta.from_json(delta.to_json())
        assert decoded == delta
        assert decoded.size == delta.size

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"middle": {}},
            {"left": []},
            {"left": {"patch": []}},
            {"left": {"add": [{"subject": "a"}]}},
            {"left": {"add": [{"subject": "a", "relation": "r", "object": "b",
                               "object_type": "uri"}]}},
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            Delta.from_json(payload)

    def test_delta_validation_is_all_or_nothing(self):
        """A rejected batch must not half-apply (the live service would
        otherwise serve scores violating the cold-equality guarantee)."""
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF

        left, right = family_pair(2)
        facts_before = left.num_facts
        add1, _add2 = family_addition(2, 1)
        bad = Triple(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b"))
        with pytest.raises(ValueError):
            apply_delta(left, right, Delta(add1=tuple(add1) + (bad,)))
        assert left.num_facts == facts_before  # nothing applied

    def test_schema_statement_with_literal_rejected(self):
        from repro.rdf.vocabulary import RDF_TYPE

        left, right = family_pair(2)
        bad = Triple(Resource("a"), RDF_TYPE, Literal("not-a-class"))
        with pytest.raises(ValueError):
            apply_delta(left, right, Delta(add2=(bad,)))

    def test_triple_from_json_non_string_fields(self):
        with pytest.raises(ValueError):
            triple_from_json({"subject": None, "relation": "r", "object": "b"})
        with pytest.raises(ValueError):
            triple_from_json({"subject": "a", "relation": "r", "object": None,
                              "object_type": "literal"})

    def test_shared_terms_parse_each_relation_once(self, monkeypatch):
        """A decode batch parses each relation text once; its key cannot
        meet a literal's ``(value, datatype)`` key in the shared dict."""
        parsed = []
        real_parse = Relation.parse.__func__

        def counting_parse(cls, text):
            parsed.append(text)
            return real_parse(cls, text)

        monkeypatch.setattr(Relation, "parse", classmethod(counting_parse))
        payloads = [
            {"subject": "a", "relation": "name", "object": "name", "object_type": "literal"},
            {"subject": "b", "relation": "name", "object": "Bo", "object_type": "literal"},
            {"subject": "c", "relation": "knows^-1", "object": "a"},
            {"subject": "d", "relation": "knows^-1", "object": "b"},
        ]
        terms: dict = {}
        decoded = [triple_from_json(payload, terms) for payload in payloads]
        assert parsed == ["name", "knows^-1"]
        assert decoded == [triple_from_json(payload) for payload in payloads]
        assert decoded[0].relation is decoded[1].relation
        assert decoded[0].object == Literal("name")

    def test_inverse_oriented_literal_subject_triple(self):
        """An inverse-oriented statement with a literal subject is the
        same assertion as its canonical form and must invalidate the
        literal index like one (Triple docs allow literal subjects)."""
        left, right = family_pair(2)
        inverted = Triple(
            Literal("Fresh Label"), Relation("name").inverse, Resource("p0a")
        )
        effect = apply_delta(left, right, Delta(add1=(inverted,)))
        assert effect.applied_add == 1
        assert Literal("Fresh Label") in effect.added_literals1
        assert (Relation("name"), Resource("p0a"), Literal("Fresh Label")) in (
            effect.statements1
        )
        assert left.has(Resource("p0a"), Relation("name"), Literal("Fresh Label"))
        # The codec canonicalizes instead of crashing on the literal subject.
        encoded = triple_to_json(inverted)
        assert encoded["subject"] == "p0a"
        assert triple_from_json(encoded) == inverted.canonical

    def test_apply_delta_skips_noops_and_tracks_effect(self):
        left, right = family_pair(2)
        add1, add2 = family_addition(2, 1)
        delta = Delta(
            add1=tuple(add1) + tuple(add1[:1]),  # duplicate add is a no-op
            add2=tuple(add2),
            remove1=(Triple(Resource("nobody"), Relation("name"), Literal("x")),),
        )
        effect = apply_delta(left, right, delta)
        assert effect.applied_add == len(add1) + len(add2)
        assert effect.applied_remove == 0
        assert Relation("name") in effect.touched_relations1
        assert Literal("Person 2 Alpha") in effect.added_literals1
        assert Resource("p2a") in effect.touched_instances1


class TestStateStore:
    def test_save_load_round_trip(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        path = save_state(service.state, tmp_path)
        assert path.exists()
        assert latest_version(tmp_path) == 0
        loaded = load_state(tmp_path)
        assert isinstance(loaded, AlignmentState)
        assert loaded.version == 0
        assert loaded.store.max_difference(service.state.store) == 0.0
        assert loaded.ontology1.num_facts == left.num_facts

    def test_versioned_snapshots(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        add1, add2 = family_addition(4, 1)
        service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        service.snapshot(tmp_path)
        assert latest_version(tmp_path) == 1
        old = load_state(tmp_path, version=0)
        new = load_state(tmp_path)
        assert old.version == 0 and new.version == 1
        assert new.ontology1.num_facts > old.ontology1.num_facts

    def test_resumed_state_keeps_serving_deltas(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        resumed = AlignmentService.from_state(load_state(tmp_path))
        add1, add2 = family_addition(4, 1)
        report = resumed.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert report.converged and report.version == 1
        assert resumed.pair("p4a", "q4a")["probability"] > 0.9

    def test_snapshot_with_retired_engine_knobs_still_loads(self, tmp_path):
        """Snapshots written while ``ParisConfig`` still had the engine
        knobs ``shard_size``/``parallel_backend``/``workers``/``scoring``
        pickle those keys in the config's ``__dict__``.  Nothing reads
        them any more: the state must resume and serve deltas, and a
        replica bootstrapped from it must catch up with the primary."""
        from repro.service.replica import ReplicaNode
        from repro.service.stream import WriteAheadLog

        left, right = family_pair(4)
        state = AlignmentService.cold_start(left, right, ParisConfig()).state
        state.config.__dict__.update(
            shard_size=None, parallel_backend="process", workers=4, scoring="dict"
        )
        state_dir = tmp_path / "state"
        save_state(state, state_dir)

        loaded = load_state(state_dir)
        assert loaded.config.__dict__["workers"] == 4
        # Relations unpickle through the constructor: one object each.
        for ontology in (loaded.ontology1, loaded.ontology2):
            for by_relation in ontology._subject_index.values():
                assert all(r is Relation(r.name, r.inverted) for r in by_relation)
        assert loaded.config.__dict__["scoring"] == "dict"
        resumed = AlignmentService.from_state(loaded)
        add1, add2 = family_addition(4, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2))
        wal = WriteAheadLog(state_dir / "wal.ndjson")
        offset = wal.append(delta, "writer", 1)
        report = resumed.apply_delta(delta, wal_offset=offset)
        assert report.converged and report.version == 1
        assert resumed.pair("p4a", "q4a")["probability"] > 0.9

        replica = ReplicaNode(state_dir)
        assert replica.applied_offset == 0
        replica.catch_up(offset)
        assert replica.applied_offset == offset
        assert not list(replica.service.state.store.diff(resumed.state.store, 1e-9))
        assert replica.service.pair("p4a", "q4a")["probability"] > 0.9
        wal.close()

    def test_resnapshot_same_version_is_atomic_replace(self, tmp_path):
        """The shutdown snapshot re-saves the current version over an
        existing file; it must go through write-then-rename so a crash
        cannot truncate a published snapshot."""
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        first = service.snapshot(tmp_path)
        second = service.snapshot(tmp_path)  # same version, overwrite
        assert first == second
        assert load_state(tmp_path).version == 0
        assert not list(tmp_path.glob("*.tmp"))  # temp files cleaned up

    def test_load_missing_state_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path)

    def test_malformed_latest_marker_falls_back_to_scan(self, tmp_path):
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        # Simulate a crash that truncated the marker: resume must not brick.
        (tmp_path / "LATEST").write_text("")
        assert latest_version(tmp_path) == 0
        assert load_state(tmp_path).version == 0


class TestSnapshotDurability:
    def test_snapshot_is_durable_before_latest_and_before_compaction(
        self, tmp_path, monkeypatch
    ):
        """POST /snapshot on a segmented primary: the pickle and the
        LATEST pointer are each fsync'd before their rename, the
        directory is fsync'd after it, and all of that happens before
        LATEST is published and before compaction unlinks a segment
        the snapshot covers."""
        import os

        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        options = {"segment_bytes": 200}
        with serve_primary(service, tmp_path, options, snapshot_every=0) as server:
            for step in range(3):
                fetch_json(url_of(server, "/delta"), family_delta(4 + step).to_json())
            assert server.stream.wal.sealed_segments()
            events = []
            real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

            def fsync(fd):
                events.append(("fsync", os.fstat(fd).st_ino))
                real_fsync(fd)

            def replace(src, dst, **kwargs):
                real_replace(src, dst, **kwargs)
                events.append(("replace", os.path.basename(dst)))

            def unlink(path, **kwargs):
                events.append(("unlink", os.path.basename(path)))
                real_unlink(path, **kwargs)

            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(os, "replace", replace)
            monkeypatch.setattr(os, "unlink", unlink)
            assert fetch_json(url_of(server, "/snapshot"), {})[0]["wal_bytes_compacted"] > 0
            monkeypatch.undo()
        pickle_path = snapshot_path(tmp_path)
        fsync_pickle = events.index(("fsync", pickle_path.stat().st_ino))
        replace_pickle = events.index(("replace", pickle_path.name))
        fsync_latest = events.index(("fsync", (tmp_path / "LATEST").stat().st_ino))
        replace_latest = events.index(("replace", "LATEST"))
        directory = ("fsync", tmp_path.stat().st_ino)
        dir_fsyncs = [index for index, event in enumerate(events) if event == directory]
        unlinks = [index for index, event in enumerate(events) if event[0] == "unlink"]
        assert unlinks, events
        assert fsync_pickle < replace_pickle < fsync_latest < replace_latest, events
        assert any(replace_pickle < index < replace_latest for index in dir_fsyncs), events
        assert any(replace_latest < index < unlinks[0] for index in dir_fsyncs), events


class TestSnapshotResumeAfterOverlayWarmPass:
    """Restart mid-stream of deltas: a snapshot taken after overlay
    warm passes folded rows into the store in place must resume to a
    process that serves exactly what a cold realign of the final corpus
    computes."""

    def test_restart_mid_stream_matches_cold_realign(self, tmp_path):
        left, right = family_pair(8)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        # Two overlay-store warm passes land before the restart...
        for step in range(2):
            add1, add2 = family_addition(8 + step, 1)
            report = service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
            assert report.converged
            assert report.pairs_touched > 0
        service.snapshot(tmp_path)
        # ...the process restarts from the snapshot...
        resumed = AlignmentService.from_state(load_state(tmp_path))
        # ...and the rest of the stream lands on the resumed process.
        for step in range(2, 4):
            add1, add2 = family_addition(8 + step, 1)
            report = resumed.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
            assert report.converged
        reference = align(*family_pair(12), ParisConfig(score_stationarity=True))
        assert resumed.state.store.max_difference(reference.instances) <= 1e-9
        for left_res, (right_res, probability) in reference.assignment12.items():
            payload = resumed.pair(left_res.name, right_res.name)
            assert payload["probability"] == pytest.approx(probability, abs=1e-9)
            assert payload["best_counterpart_of_left"]["right"] == right_res.name


class TestInvalidTermSyntax:
    """Deltas naming terms the N-Triples codec cannot round-trip are
    rejected up front, with the offending triple in the message."""

    @pytest.fixture()
    def service(self):
        left, right = family_pair(3)
        return AlignmentService.cold_start(left, right, ParisConfig())

    @pytest.mark.parametrize(
        "subject, relation, obj",
        [
            ("has space", "name", "q0a"),
            ("ok", "bad relation", "q0a"),
            ("ok", "name", "angle>bracket"),
            ("new\nline", "name", "q0a"),
            ("quote\"inside", "name", "q0a"),
        ],
    )
    def test_rejected_before_mutation(self, service, subject, relation, obj):
        bad = Triple(Resource(subject), Relation(relation), Resource(obj))
        facts_before = service.state.ontology1.num_facts
        with pytest.raises(ValueError) as excinfo:
            service.apply_delta(Delta(add1=(bad,)))
        message = str(excinfo.value)
        assert "N-Triples" in message
        # The 400 must list the offending triple.
        assert subject in message or relation in message or obj in message
        assert service.poisoned is None
        assert service.state.ontology1.num_facts == facts_before

    @pytest.mark.parametrize(
        "subject, relation, obj, reason",
        [
            ("a b<c", "name", "q0a", "subject 'a b<c' contains ' '"),
            ("ok", "name", "x|y^z", "object 'x|y^z' contains '|'"),
            ("ok", "has`tick\\", "q0a", "relation 'has`tick\\\\' contains '`'"),
            ("ctl\x00", "name", "q0a", "subject 'ctl\\x00' contains '\\x00'"),
            ("ok", "name", "del\x7fok\x1f", "object 'del\\x7fok\\x1f' contains '\\x1f'"),
        ],
    )
    def test_message_names_the_first_offending_character(
        self, subject, relation, obj, reason
    ):
        from repro.service.delta import validate_delta

        bad = Triple(Resource(subject), Relation(relation), Resource(obj))
        with pytest.raises(ValueError) as excinfo:
            validate_delta(Delta(add1=(bad,)))
        assert str(excinfo.value) == (
            f"invalid N-Triples term syntax in triple {bad}: {reason}, "
            "which is invalid inside an N-Triples <uri>"
        )

    def test_schema_relation_names_are_exempt(self, monkeypatch):
        """Schema relations serialize through their full URIs, so only a
        data relation's own name must be a valid <uri> token."""
        from repro.service import delta as delta_module

        odd = Triple(Resource("a"), Relation("schema alias"), Resource("b"))
        with pytest.raises(ValueError, match="relation 'schema alias' contains ' '"):
            delta_module.validate_delta(Delta(add1=(odd,)))
        monkeypatch.setattr(
            delta_module, "is_schema_relation", lambda relation: relation is odd.relation
        )
        delta_module.validate_delta(Delta(add1=(odd,)))

    def test_literal_values_are_not_restricted(self, service):
        """Literals escape through the codec, so any content is fine."""
        odd = Triple(
            Resource("p0a"), Relation("note"), Literal('line\nbreak "quoted" <x>')
        )
        report = service.apply_delta(Delta(add1=(odd,)))
        assert report.applied_add == 1


class TestFailStop:
    """A failure after mutation started must poison the service: no
    more serving (or snapshotting) of a possibly inconsistent state."""

    def test_mid_delta_failure_poisons_service(self, tmp_path, monkeypatch):
        from repro.core.aligner import ParisAligner

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())

        def explode(*_args, **_kwargs):
            raise OSError("worker pool died")

        monkeypatch.setattr(ParisAligner, "warm_align", explode)
        add1, add2 = family_addition(3, 1)
        with pytest.raises(OSError):
            service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert service.poisoned is not None
        assert service.health()["status"] == "inconsistent"
        for call in (
            lambda: service.pair("p0a", "q0a"),
            lambda: service.alignment(),
            lambda: service.snapshot(tmp_path),
            lambda: service.apply_delta(Delta()),
        ):
            with pytest.raises(RuntimeError):
                call()

    def test_validation_failure_does_not_poison(self):
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        bad = Triple(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b"))
        with pytest.raises(ValueError):
            service.apply_delta(Delta(add1=(bad,)))
        assert service.poisoned is None
        assert service.health()["status"] == "ok"
        assert service.pair("p0a", "q0a")["probability"] > 0.9


class TestServiceQueries:
    @pytest.fixture(scope="class")
    def service(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def test_pair(self, service):
        payload = service.pair("p0a", "q0a")
        assert payload["probability"] > 0.9
        assert payload["best_counterpart_of_left"]["right"] == "q0a"
        assert payload["best_counterpart_of_right"]["left"] == "p0a"

    def test_unknown_pair(self, service):
        payload = service.pair("p0a", "qnope")
        assert payload["probability"] == 0.0
        assert "best_counterpart_of_right" not in payload

    def test_request_names_do_not_accumulate(self, service):
        """Each query builds a Resource per requested name; the weak
        resource table lets an unknown name go with its request."""
        gc.collect()
        before = len(_RESOURCES)
        for index in range(1000):
            service.pair(f"unknown-left-{index}", f"unknown-right-{index}")
        for index in range(100):
            service.neighborhood(f"unknown-entity-{index}")
        gc.collect()
        assert len(_RESOURCES) == before
        assert "unknown-left-0" not in _RESOURCES

    def test_alignment_threshold(self, service):
        everything = service.alignment()
        strong = service.alignment(threshold=0.9)
        assert strong and len(strong) <= len(everything)
        assert all(probability >= 0.9 for _l, _r, probability in strong)

    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["matched_left"] == 18  # 6 families x 3 entities


class TestHttpServer:
    @pytest.fixture()
    def server(self, tmp_path):
        left, right = family_pair(5)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        with serve_primary(service, tmp_path) as server:
            yield server

    def test_healthz(self, server):
        health = fetch_json(url_of(server, "/healthz"))[0]
        assert health["status"] == "ok" and health["version"] == 0
        assert health["role"] == "primary"

    def test_delta_then_pair(self, server, tmp_path):
        add1, add2 = family_addition(5, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2))
        report = fetch_json(url_of(server, "/delta"), delta.to_json())[0]
        assert report["version"] == 1 and report["converged"]
        pair = fetch_json(url_of(server, "/pair/p5a/q5a"))[0]
        assert pair["probability"] > 0.9
        # The delta triggered an automatic snapshot.
        assert latest_version(tmp_path) == 1

    def test_alignment_json_and_tsv(self, server):
        alignment = fetch_json(url_of(server, "/alignment?threshold=0.5"))[0]
        assert alignment["pairs"]
        text = request(url_of(server, "/alignment?threshold=0.5&format=tsv"))[2].decode("utf-8")
        assert text.count("\n") == len(alignment["pairs"])
        assert "\t" in text.splitlines()[0]

    def test_snapshot_endpoint(self, server, tmp_path):
        payload = fetch_json(url_of(server, "/snapshot"), {})[0]
        assert "snapshot" in payload
        assert latest_version(tmp_path) == 0

    def test_unknown_route_404(self, server):
        assert get_json(url_of(server, "/nope"))[0] == 404

    def test_bad_delta_400(self, server):
        status, _ = post_json(url_of(server, "/delta"), {"left": {"add": [{"subject": "x"}]}})
        assert status == 400

    def test_null_field_delta_400(self, server):
        status, _ = post_json(
            url_of(server, "/delta"),
            {"left": {"add": [{"subject": None, "relation": "r", "object": "b"}]}},
        )
        assert status == 400

    def test_unapplicable_delta_400_leaves_state_untouched(self, server):
        facts_before = fetch_json(url_of(server, "/healthz"))[0]["facts_left"]
        status, _ = post_json(
            url_of(server, "/delta"),
            {"left": {"add": [
                {"subject": "p0a", "relation": "extra", "object": "x"},
                {"subject": "a", "relation": "rdfs:subPropertyOf", "object": "b"},
            ]}},
        )
        assert status == 400
        health = fetch_json(url_of(server, "/healthz"))[0]
        assert health["facts_left"] == facts_before
        assert health["version"] == 0

    def test_invalid_ntriples_term_400_lists_triple(self, server):
        """A delta naming a term with invalid N-Triples syntax gets a
        400 whose body names the offending triple — not a codec
        traceback much later."""
        status, body = post_json(
            url_of(server, "/delta"),
            {"left": {"add": [
                {"subject": "bad uri", "relation": "extra", "object": "x"},
            ]}},
        )
        assert status == 400
        assert "N-Triples" in body["error"]
        assert "bad uri" in body["error"]
        health = fetch_json(url_of(server, "/healthz"))[0]
        assert health["status"] == "ok" and health["version"] == 0

    def test_bad_threshold_400(self, server):
        assert get_json(url_of(server, "/alignment?threshold=abc"))[0] == 400

    def test_snapshot_every_zero_defers_to_explicit_snapshot(self, tmp_path):
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        with serve_primary(service, tmp_path, snapshot_every=0) as server:
            add1, add2 = family_addition(3, 1)
            delta = Delta(add1=tuple(add1), add2=tuple(add2))
            report = fetch_json(url_of(server, "/delta"), delta.to_json())[0]
            assert report["version"] == 1
            assert latest_version(tmp_path) is None  # no automatic snapshot
            fetch_json(url_of(server, "/snapshot"), {})
            assert latest_version(tmp_path) == 1
