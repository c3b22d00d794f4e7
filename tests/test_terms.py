"""Unit tests for the term model (repro.rdf.terms)."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.rdf.terms import _RESOURCES, Literal, Relation, Resource


class TestResource:
    def test_equality_by_name(self):
        assert Resource("London") == Resource("London")
        assert Resource("London") != Resource("Londres")

    def test_hash_consistency(self):
        assert hash(Resource("London")) == hash(Resource("London"))
        assert {Resource("a"), Resource("a")} == {Resource("a")}

    def test_not_equal_to_literal_with_same_text(self):
        assert Resource("London") != Literal("London")
        assert hash(Resource("London")) != hash(Literal("London"))

    def test_immutable(self):
        resource = Resource("x")
        with pytest.raises(AttributeError):
            resource.name = "y"

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Resource("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            Resource(42)

    def test_str_and_repr(self):
        assert str(Resource("Elvis")) == "Elvis"
        assert "Elvis" in repr(Resource("Elvis"))

    def test_is_resource_flags(self):
        assert Resource("x").is_resource
        assert not Resource("x").is_literal


class TestResourceInterning:
    def test_one_object_per_name(self):
        resource = Resource("interned")
        assert Resource("interned") is resource
        assert _RESOURCES["interned"] is resource

    def test_pickle_and_copy_return_the_interned_object(self):
        resource = Resource("interned")
        assert pickle.loads(pickle.dumps(resource)) is resource
        assert copy.copy(resource) is resource
        assert copy.deepcopy(resource) is resource
        assert resource.__reduce__() == (Resource, ("interned",))

    def test_hash_is_the_c_identity_hash(self):
        assert Resource.__hash__ is object.__hash__
        resource = Resource("interned")
        assert hash(resource) == object.__hash__(resource)

    @pytest.mark.parametrize(
        "name, error, message",
        [
            (42, TypeError, "resource name must be a string, got int"),
            (["x"], TypeError, "resource name must be a string, got list"),
            ("", ValueError, "resource name must be non-empty"),
        ],
    )
    def test_a_rejected_name_inserts_nothing(self, name, error, message):
        gc.collect()
        before = len(_RESOURCES)
        with pytest.raises(error, match=f"^{message}$"):
            Resource(name)
        assert len(_RESOURCES) == before
        assert "" not in _RESOURCES

    def test_a_dropped_resource_leaves_the_table(self):
        resource = Resource("short-lived")
        assert "short-lived" in _RESOURCES
        del resource
        gc.collect()
        assert "short-lived" not in _RESOURCES

    def test_a_dead_entry_not_yet_removed_is_replaced(self):
        # A reference whose referent died before its removal callback
        # ran (the mapping defers removals while it is iterated) reads
        # None; the constructor must build a fresh resource then.
        class Referent:
            pass

        referent = Referent()
        _RESOURCES.data["dead-entry"] = weakref.ref(referent)
        del referent
        gc.collect()
        fresh = Resource("dead-entry")
        assert fresh.name == "dead-entry" and Resource("dead-entry") is fresh
        assert _RESOURCES["dead-entry"] is fresh

    def test_racing_threads_get_one_object_per_name(self):
        threads_count, names = 8, [f"race-{index}" for index in range(500)]
        barrier = threading.Barrier(threads_count, timeout=30)
        built = [None] * threads_count

        def build(slot):
            barrier.wait()
            built[slot] = [Resource(name) for name in names]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(threads_count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for column in zip(*built):
            assert len({id(resource) for resource in column}) == 1
        assert [resource.name for resource in built[0]] == names


class TestLiteral:
    def test_equality_by_value(self):
        assert Literal("1935") == Literal("1935")
        assert Literal("1935") != Literal("1936")

    def test_datatype_is_hint_only(self):
        assert Literal("42", datatype="integer") == Literal("42")
        assert hash(Literal("42", datatype="integer")) == hash(Literal("42"))

    def test_numeric_coercion(self):
        assert Literal(42).value == "42"
        assert Literal(42).datatype == "integer"
        assert Literal(2.5).value == "2.5"
        assert Literal(2.5).datatype == "decimal"

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            Literal(True)

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            Literal(None)

    def test_immutable(self):
        literal = Literal("a")
        with pytest.raises(AttributeError):
            literal.value = "b"

    def test_is_literal_flags(self):
        assert Literal("x").is_literal
        assert not Literal("x").is_resource

    def test_repr_includes_datatype(self):
        assert "date" in repr(Literal("1935-01-08", datatype="date"))


class TestRelation:
    def test_forward_by_default(self):
        relation = Relation("wasBornIn")
        assert not relation.inverted
        assert str(relation) == "wasBornIn"

    def test_inverse_swaps_direction(self):
        relation = Relation("wasBornIn")
        assert relation.inverse.inverted
        assert str(relation.inverse) == "wasBornIn^-1"

    def test_double_inverse_is_identity(self):
        relation = Relation("r")
        assert relation.inverse.inverse == relation

    def test_base_strips_inversion(self):
        assert Relation("r", inverted=True).base == Relation("r")
        assert Relation("r").base == Relation("r")

    def test_parse_round_trips(self):
        for text in ("actedIn", "actedIn^-1"):
            assert str(Relation.parse(text)) == text

    def test_parse_inverse(self):
        parsed = Relation.parse("actedIn^-1")
        assert parsed == Relation("actedIn", inverted=True)

    def test_forward_and_inverse_differ(self):
        assert Relation("r") != Relation("r", inverted=True)
        assert hash(Relation("r")) != hash(Relation("r", inverted=True))

    def test_rejects_suffix_in_name(self):
        with pytest.raises(ValueError):
            Relation("r^-1")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Relation("")

    def test_immutable(self):
        relation = Relation("r")
        with pytest.raises(AttributeError):
            relation.inverted = True

    def test_distinct_from_resource(self):
        assert Relation("x") != Resource("x")


class TestRelationInterning:
    def test_one_object_per_name_and_direction(self):
        relation = Relation("r")
        assert Relation("r") is relation
        assert Relation("r", inverted=True) is relation.inverse
        assert Relation.parse("r^-1") is relation.inverse

    def test_inverse_and_base_are_interned(self):
        relation = Relation("r")
        assert relation.inverse.inverse is relation
        assert relation.inverse.base is relation
        assert relation.base is relation

    def test_pickle_and_copy_return_the_interned_object(self):
        relation = Relation("r")
        for term in (relation, relation.inverse):
            assert pickle.loads(pickle.dumps(term)) is term
            assert copy.deepcopy(term) is term
        assert relation.__reduce__() == (Relation, ("r", False))

    def test_equality_does_not_rely_on_identity(self):
        # A relation that bypassed the table (as a racing thread could
        # build) still equals and hashes like the interned one.
        stray = object.__new__(Relation)
        for slot, value in (("name", "r"), ("inverted", False), ("_hash", hash(Relation("r")))):
            object.__setattr__(stray, slot, value)
        assert stray is not Relation("r")
        assert stray == Relation("r") and Relation("r") == stray
        assert {stray: 1}[Relation("r")] == 1

    def test_first_construction_validates_either_direction(self):
        with pytest.raises(ValueError):
            Relation("bad^-1", inverted=True)
        with pytest.raises(TypeError):
            Relation(["unhashable"])
