"""Unit tests for the indexed ontology store (repro.rdf.ontology)."""

import pytest

from repro.rdf.ontology import Ontology
from repro.rdf.terms import Literal, Relation, Resource
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE, RDFS_SUBCLASSOF


@pytest.fixture()
def onto():
    ontology = Ontology("test")
    ontology.add(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo"))
    ontology.add(Resource("Elvis"), Relation("name"), Literal("Elvis Presley"))
    ontology.add(Resource("Cash"), Relation("bornIn"), Resource("Kingsland"))
    return ontology


class TestAdd:
    def test_returns_true_for_new_statement(self):
        ontology = Ontology("t")
        assert ontology.add(Resource("a"), Relation("r"), Resource("b"))

    def test_returns_false_for_duplicate(self, onto):
        assert not onto.add(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo"))

    def test_materializes_inverse(self, onto):
        inverse = Relation("bornIn").inverse
        assert onto.has(Resource("Tupelo"), inverse, Resource("Elvis"))

    def test_duplicate_does_not_double_count(self, onto):
        before = onto.num_statements(Relation("bornIn"))
        onto.add(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo"))
        assert onto.num_statements(Relation("bornIn")) == before

    def test_type_routed_to_schema_index(self):
        ontology = Ontology("t")
        ontology.add(Resource("Elvis"), RDF_TYPE, Resource("singer"))
        assert Resource("Elvis") in ontology.instances_of(Resource("singer"))
        # rdf:type is not a data relation
        assert RDF_TYPE not in ontology.relations()

    def test_subclass_routed_to_schema_index(self):
        ontology = Ontology("t")
        ontology.add(Resource("singer"), RDFS_SUBCLASSOF, Resource("person"))
        assert Resource("person") in ontology.superclasses_of(Resource("singer"))

    def test_inverted_type_statement(self):
        ontology = Ontology("t")
        ontology.add(Resource("singer"), RDF_TYPE.inverse, Resource("Elvis"))
        assert Resource("singer") in ontology.classes_of(Resource("Elvis"))

    def test_non_relation_predicate_rejected(self):
        ontology = Ontology("t")
        with pytest.raises(TypeError):
            ontology.add(Resource("a"), "r", Resource("b"))

    def test_subproperty_via_add_rejected(self):
        ontology = Ontology("t")
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF
        with pytest.raises(ValueError):
            ontology.add(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b"))


class TestStatementAccess:
    def test_statements_about_includes_both_directions(self, onto):
        statements = set(onto.statements_about(Resource("Elvis")))
        assert (Relation("bornIn"), Resource("Tupelo")) in statements
        assert (Relation("name"), Literal("Elvis Presley")) in statements

    def test_statements_about_literal_subject(self, onto):
        statements = set(onto.statements_about(Literal("Elvis Presley")))
        assert (Relation("name").inverse, Resource("Elvis")) in statements

    def test_statements_about_unknown_is_empty(self, onto):
        assert list(onto.statements_about(Resource("nobody"))) == []

    def test_objects(self, onto):
        assert onto.objects(Relation("bornIn"), Resource("Elvis")) == {Resource("Tupelo")}
        assert onto.objects(Relation("bornIn"), Resource("nobody")) == set()

    def test_pairs(self, onto):
        pairs = set(onto.pairs(Relation("bornIn")))
        assert pairs == {
            (Resource("Elvis"), Resource("Tupelo")),
            (Resource("Cash"), Resource("Kingsland")),
        }

    def test_relations_of(self, onto):
        assert Relation("bornIn") in onto.relations_of(Resource("Elvis"))
        assert Relation("name") in onto.relations_of(Resource("Elvis"))

    def test_relation_objects_is_relations_of_with_their_objects(self, onto):
        for node in (Resource("Elvis"), Resource("Tupelo"), Resource("nobody")):
            row = onto.relation_objects(node)
            assert list(row) == list(onto.relations_of(node))
            assert all(row[relation] == onto.objects(relation, node) for relation in row)
        assert dict(onto.relation_objects(Resource("Tupelo"))) == {
            Relation("bornIn").inverse: {Resource("Elvis")}
        }
        assert not onto.relation_objects(Resource("nobody"))

    def test_triples_forward_only_by_default(self, onto):
        triples = list(onto.triples())
        assert all(not t.relation.inverted for t in triples)
        assert len(triples) == 3

    def test_triples_with_inverses(self, onto):
        assert len(list(onto.triples(include_inverses=True))) == 6

    def test_contains_triple(self, onto):
        assert Triple(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo")) in onto
        assert Triple(Resource("Elvis"), Relation("bornIn"), Resource("Memphis")) not in onto
        assert "not a triple" not in onto


class TestCounts:
    def test_num_statements_counts_both_directions_separately(self, onto):
        relation = Relation("bornIn")
        assert onto.num_statements(relation) == 2
        assert onto.num_statements(relation.inverse) == 2

    def test_num_subjects_and_objects(self, onto):
        relation = Relation("bornIn")
        assert onto.num_subjects(relation) == 2
        assert onto.num_objects(relation) == 2
        assert onto.num_subjects(relation.inverse) == 2

    def test_fanout_histogram(self):
        ontology = Ontology("t")
        ontology.add(Resource("a"), Relation("r"), Resource("b"))
        ontology.add(Resource("a"), Relation("r"), Resource("c"))
        ontology.add(Resource("d"), Relation("r"), Resource("b"))
        assert ontology.fanout_histogram(Relation("r")) == {2: 1, 1: 1}

    def test_num_facts_counts_assertions_once(self, onto):
        assert onto.num_facts == 3
        assert len(onto) == 3


class TestPartition:
    def test_instances_and_literals(self, onto):
        assert Resource("Elvis") in onto.instances
        assert Resource("Tupelo") in onto.instances
        assert Literal("Elvis Presley") in onto.literals

    def test_classes_are_not_instances(self):
        ontology = Ontology("t")
        ontology.add_type(Resource("Elvis"), Resource("singer"))
        ontology.add(Resource("Elvis"), Relation("knows"), Resource("Cash"))
        assert Resource("singer") in ontology.classes
        assert Resource("singer") not in ontology.instances

    def test_class_registration_evicts_instance(self):
        # A resource first seen in data, later declared a class, ends
        # up a class only (the paper assumes a clean partition).
        ontology = Ontology("t")
        ontology.add(Resource("x"), Relation("r"), Resource("singer"))
        ontology.add_subclass(Resource("singer"), Resource("person"))
        assert Resource("singer") in ontology.classes
        assert Resource("singer") not in ontology.instances


class TestSchemaAccess:
    def test_type_statements_iteration(self):
        ontology = Ontology("t")
        ontology.add_type(Resource("a"), Resource("C"))
        ontology.add_type(Resource("b"), Resource("C"))
        assert set(ontology.type_statements()) == {
            (Resource("a"), Resource("C")),
            (Resource("b"), Resource("C")),
        }

    def test_subclass_edges_iteration(self):
        ontology = Ontology("t")
        ontology.add_subclass(Resource("C"), Resource("D"))
        assert list(ontology.subclass_edges()) == [(Resource("C"), Resource("D"))]

    def test_subproperty(self):
        ontology = Ontology("t")
        assert ontology.add_subproperty(Relation("r"), Relation("s"))
        assert not ontology.add_subproperty(Relation("r"), Relation("s"))
        assert Relation("s") in ontology.superproperties_of(Relation("r"))

    def test_classes_of(self):
        ontology = Ontology("t")
        ontology.add_type(Resource("a"), Resource("C"))
        ontology.add_type(Resource("a"), Resource("D"))
        assert ontology.classes_of(Resource("a")) == {Resource("C"), Resource("D")}

    def test_num_type_statements(self):
        ontology = Ontology("t")
        ontology.add_type(Resource("a"), Resource("C"))
        ontology.add_type(Resource("b"), Resource("C"))
        assert ontology.num_type_statements == 2


def test_requires_name():
    with pytest.raises(ValueError):
        Ontology("")


def test_repr_mentions_counts(onto):
    text = repr(onto)
    assert "test" in text
    assert "3 facts" in text


def test_update_bulk(onto):
    added = onto.update(
        [
            Triple(Resource("a"), Relation("r"), Resource("b")),
            Triple(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo")),  # dup
        ]
    )
    assert added == 1
