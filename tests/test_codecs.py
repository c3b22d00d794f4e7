"""Unit tests for the N-Triples and TSV codecs."""

import random

import pytest

from repro.datasets import yago_dbpedia_pair
from repro.rdf import ntriples, tsv
from repro.rdf.builder import OntologyBuilder
from repro.rdf.ntriples import NTriplesError, parse_line
from repro.rdf.ontology import Ontology
from repro.rdf.terms import Literal, Relation, Resource
from repro.rdf.tsv import TsvError


@pytest.fixture()
def onto():
    return (
        OntologyBuilder("demo")
        .fact("Elvis", "bornIn", "Tupelo")
        .value("Elvis", "rdfs:label", 'Elvis "The King" Presley')
        .value("Elvis", "born", Literal("1935-01-08", datatype="date"))
        .type("Elvis", "singer")
        .subclass("singer", "person")
        .subproperty("bornIn", "locatedAt")
        .build()
    )


#: Lines every N-Triples entry point must reject with an NTriplesError.
MALFORMED = [
    "<a> <r> <b>",  # missing dot
    "a <r> <b> .",  # bare subject
    "<a> r <b> .",  # bare predicate
    "<a> <r> .",  # missing object
    '<a> <r> "unterminated .',
    '<a> <r> "x" junk .',
    "<s> <p .",  # unterminated predicate URI
    "<abc .",  # unterminated subject URI
    "<s> <p> <o> <x> .",  # junk after the object URI
    "<> <r> <b> .",  # empty subject URI
    '<a> <r> "x\\uZZZZ" .',  # non-hex unicode escape
    '<a> <r> "x\\u12" .',  # truncated unicode escape
    '<a> <r> "x\\q" .',  # unknown escape
]


class TestNTriplesParsing:
    def test_resource_object(self):
        parsed = parse_line("<a> <r> <b> .")
        assert parsed == ("a", "r", Resource("b"))

    def test_literal_object(self):
        parsed = parse_line('<a> <r> "hello" .')
        assert parsed[2] == Literal("hello")

    def test_literal_with_datatype(self):
        parsed = parse_line(
            '<a> <r> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert parsed[2] == Literal("5")
        assert parsed[2].datatype == "integer"

    def test_literal_with_language_tag(self):
        parsed = parse_line('<a> <r> "bonjour"@fr .')
        assert parsed[2] == Literal("bonjour")

    def test_escapes(self):
        parsed = parse_line('<a> <r> "line\\nbreak \\"quoted\\" tab\\t" .')
        assert parsed[2].value == 'line\nbreak "quoted" tab\t'

    def test_unicode_escape(self):
        parsed = parse_line('<a> <r> "\\u00e9" .')
        assert parsed[2].value == "é"

    def test_comment_and_blank_lines(self):
        assert parse_line("# comment") is None
        assert parse_line("   ") is None

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(NTriplesError):
            parse_line(bad, line_number=3)

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_lines_name_their_line(self, bad):
        with pytest.raises(NTriplesError) as exc:
            ntriples.loads(f"# header\n<a> <r> <b> .\n{bad}\n")
        assert exc.value.line_number == 3
        assert str(exc.value).startswith("line 3: ")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("<a> <> <b> .", "bad relation"),
            ("<a> <r^-1> <b> .", "bad relation"),
            ('<a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "x" .', "rdf:type connects"),
        ],
    )
    def test_lines_that_build_no_statement_raise(self, bad, message):
        # parse_line accepts these; only building the statement fails.
        with pytest.raises(NTriplesError, match=f"^line 1: {message}"):
            ntriples.loads(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesError) as exc:
            ntriples.loads("<a> <r> <b>\n")
        assert "line 1" in str(exc.value)


def _shuffled_kb_lines(seed=3):
    pair = yago_dbpedia_pair(num_persons=40, num_works=20, seed=seed)
    lines = ntriples.dumps(pair.ontology1).splitlines(keepends=True)
    lines += ntriples.dumps(pair.ontology2).splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    return lines


def _ordered(value):
    """A nested container as lists, keeping every iteration order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return list(value)
    return value


class TestNTriplesInterning:
    """``read_ntriples`` builds one term object per distinct term."""

    def test_one_object_per_term(self):
        loaded = ntriples.loads("".join(_shuffled_kb_lines()))
        objects = {}
        for relation, by_subject in loaded._statements.items():
            objects[id(relation)] = relation
            for subject, nodes in by_subject.items():
                objects[id(subject)] = subject
                objects.update((id(node), node) for node in nodes)
        for subject, by_relation in loaded._subject_index.items():
            objects[id(subject)] = subject
            for relation, nodes in by_relation.items():
                objects[id(relation)] = relation
                objects.update((id(node), node) for node in nodes)
        assert loaded.num_facts > 500
        assert len(objects) == len(set(objects.values()))

    def test_same_indexes_as_line_by_line_adds(self):
        lines = _shuffled_kb_lines()
        loaded = ntriples.loads("".join(lines))
        reference = Ontology("ontology")
        for line in lines:
            subject, predicate, obj = parse_line(line)
            name = ntriples._URI_TO_SCHEMA.get(predicate, predicate)
            reference.add(Resource(subject), Relation(name), obj)
        for index in (
            "_statements",
            "_subject_index",
            "_fact_counts",
            "_instance_classes",
            "_class_instances",
            "_subclass_edges",
            "_superclass_edges",
            "_subproperty_edges",
            "_instances",
            "_classes",
            "_literals",
        ):
            assert _ordered(getattr(loaded, index)) == _ordered(getattr(reference, index)), index
        assert loaded.num_type_statements > 0 and loaded.version == reference.version


    def test_names_shared_by_two_files_and_a_snapshot_are_one_object(self, tmp_path):
        from repro.core.config import ParisConfig
        from repro.service import AlignmentService
        from repro.service.state import load_state

        lines = _shuffled_kb_lines()
        half = len(lines) // 2
        (tmp_path / "left.nt").write_text("".join(lines[:half]), encoding="utf-8")
        (tmp_path / "right.nt").write_text("".join(lines[half:]), encoding="utf-8")
        left = ntriples.read_ntriples(tmp_path / "left.nt")
        right = ntriples.read_ntriples(tmp_path / "right.nt")

        def resources(ontology):
            found = {}
            for subject, by_relation in ontology._subject_index.items():
                for node in (subject, *(n for nodes in by_relation.values() for n in nodes)):
                    if isinstance(node, Resource):
                        found.setdefault(node.name, set()).add(id(node))
            for index in (ontology._instance_classes, ontology._subclass_edges):
                for node, others in index.items():
                    for resource in (node, *others):
                        found.setdefault(resource.name, set()).add(id(resource))
            return found

        in_left, in_right = resources(left), resources(right)
        shared = in_left.keys() & in_right.keys()
        assert len(shared) > 100
        assert all(len(in_left[name] | in_right[name]) == 1 for name in shared)

        AlignmentService.cold_start(left, right, ParisConfig()).snapshot(tmp_path / "state")
        state = load_state(tmp_path / "state")
        for loaded, original in ((state.ontology1, in_left), (state.ontology2, in_right)):
            assert resources(loaded) == original


class TestNTriplesRoundTrip:
    def test_round_trip_preserves_statements(self, onto):
        text = ntriples.dumps(onto)
        loaded = ntriples.loads(text, name="demo")
        assert loaded.has(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo"))
        assert Literal('Elvis "The King" Presley') in loaded.literals
        assert Resource("Elvis") in loaded.instances_of(Resource("singer"))
        assert Resource("person") in loaded.superclasses_of(Resource("singer"))
        assert Relation("locatedAt") in loaded.superproperties_of(Relation("bornIn"))

    def test_round_trip_counts(self, onto):
        loaded = ntriples.loads(ntriples.dumps(onto))
        assert loaded.num_facts == onto.num_facts
        assert loaded.num_type_statements == onto.num_type_statements

    def test_schema_uris_used_on_output(self, onto):
        text = ntriples.dumps(onto)
        assert "rdf-syntax-ns#type" in text
        assert "rdf-schema#subClassOf" in text
        assert "rdf-schema#label" in text

    def test_file_round_trip(self, onto, tmp_path):
        path = tmp_path / "demo.nt"
        ntriples.write_ntriples(onto, path)
        loaded = ntriples.read_ntriples(path)
        assert loaded.name == "demo"
        assert loaded.num_facts == onto.num_facts


class TestTsv:
    def test_round_trip(self, onto):
        loaded = tsv.loads(tsv.dumps(onto), name="demo")
        assert loaded.has(Resource("Elvis"), Relation("bornIn"), Resource("Tupelo"))
        assert Literal('Elvis "The King" Presley') in loaded.literals
        assert Resource("Elvis") in loaded.instances_of(Resource("singer"))
        assert Resource("person") in loaded.superclasses_of(Resource("singer"))
        assert Relation("locatedAt") in loaded.superproperties_of(Relation("bornIn"))

    def test_literals_are_quoted(self, onto):
        text = tsv.dumps(onto)
        assert '"Elvis \\"The King\\" Presley"' in text

    def test_tab_in_literal_escaped(self):
        onto = OntologyBuilder("t").value("a", "r", "x\ty").build()
        loaded = tsv.loads(tsv.dumps(onto))
        assert Literal("x\ty") in loaded.literals

    def test_wrong_field_count_raises(self):
        with pytest.raises(TsvError):
            tsv.loads("a\tb\n")

    @pytest.mark.parametrize("bad", ["\tr\tb", "a\t\tb", "a\tr^-1^-1\tb", 'a\trdf:type\t"x"'])
    def test_bad_terms_raise_tsv_error(self, bad):
        with pytest.raises(TsvError, match="^line 2: "):
            tsv.loads(f"a\tr\tb\n{bad}\n")

    def test_comments_skipped(self):
        loaded = tsv.loads("# header\na\tr\tb\n")
        assert loaded.num_facts == 1

    def test_file_round_trip(self, onto, tmp_path):
        path = tmp_path / "demo.tsv"
        tsv.write_tsv(onto, path)
        loaded = tsv.read_tsv(path)
        assert loaded.num_facts == onto.num_facts

    def test_inverse_relation_names_round_trip(self):
        onto = OntologyBuilder("t").fact("a", "r^-1", "b").build()
        loaded = tsv.loads(tsv.dumps(onto))
        # r^-1(a, b) is stored as r(b, a); serialization is canonical.
        assert loaded.has(Resource("b"), Relation("r"), Resource("a"))


def test_cross_codec_equivalence(onto):
    """Both codecs must preserve identical content."""
    via_nt = ntriples.loads(ntriples.dumps(onto))
    via_tsv = tsv.loads(tsv.dumps(onto))
    assert set(via_nt.triples()) == set(via_tsv.triples())
