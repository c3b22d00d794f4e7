"""Line-based N-Triples reading and writing.

The paper loads RDF dumps through Jena; our substrate ships a small
self-contained N-Triples codec so ontologies can be persisted and
reloaded without external dependencies.  The dialect supported is the
practical core of the W3C format:

* ``<uri> <uri> <uri> .`` — resource-valued statement,
* ``<uri> <uri> "literal" .`` — literal-valued statement, with optional
  ``^^<datatype>`` suffix and ``\\"``/``\\\\``/``\\n``/``\\t`` escapes,
* comment lines starting with ``#`` and blank lines are skipped.

Schema statements (``rdf:type``, ``rdfs:subClassOf``,
``rdfs:subPropertyOf``) are recognized by their conventional URIs and
routed to the ontology's schema indexes.
"""

from __future__ import annotations

import io
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, TextIO, Tuple, TypeVar, Union

from .ontology import Ontology
from .terms import Literal, Node, Relation, Resource
from .vocabulary import RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF

#: Full URIs of the schema relations, mapped to internal names.
_URI_TO_SCHEMA = {
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type": RDF_TYPE.name,
    "http://www.w3.org/2000/01/rdf-schema#subClassOf": RDFS_SUBCLASSOF.name,
    "http://www.w3.org/2000/01/rdf-schema#subPropertyOf": RDFS_SUBPROPERTYOF.name,
    "http://www.w3.org/2000/01/rdf-schema#label": "rdfs:label",
}
_SCHEMA_TO_URI = {v: k for k, v in _URI_TO_SCHEMA.items()}


class NTriplesError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _unescape(text: str, line_number: int) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise NTriplesError("dangling backslash in literal", line_number)
        nxt = text[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt == "u" and i + 6 <= len(text):
            digits = text[i + 2 : i + 6]
            if not _HEX_DIGITS.issuperset(digits):
                raise NTriplesError(f"invalid escape sequence \\u{digits}", line_number)
            out.append(chr(int(digits, 16)))
            i += 6
        else:
            raise NTriplesError(f"unsupported escape sequence \\{nxt}", line_number)
    return "".join(out)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def _parse_uri(token: str, line_number: int) -> str:
    if len(token) < 3 or not token.startswith("<") or token.find(">") != len(token) - 1:
        raise NTriplesError(f"expected <uri>, got {token!r}", line_number)
    return token[1:-1]


def _relation(uri: str, line_number: int) -> Relation:
    try:
        return Relation(_URI_TO_SCHEMA.get(uri, uri))
    except ValueError as exc:
        raise NTriplesError(f"bad relation <{uri}>: {exc}", line_number) from None


def _split(line: str, line_number: int) -> Tuple[str, str, str] | None:
    """Split one line into its subject, predicate and object tokens.

    The subject token keeps its angle brackets (``<uri>``) so that it
    shares a key space with resource object tokens; the predicate is
    the bare URI.  Returns ``None`` for blank and comment lines.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if not stripped.endswith("."):
        raise NTriplesError("statement must end with '.'", line_number)
    body = stripped[:-1].rstrip()
    if not body.startswith("<"):
        raise NTriplesError("subject must be a <uri>", line_number)
    end = body.find(">")
    if end < 0:
        raise NTriplesError("unterminated subject <uri>", line_number)
    subject = body[: end + 1]
    rest = body[end + 1 :].lstrip()
    if not rest.startswith("<"):
        raise NTriplesError("predicate must be a <uri>", line_number)
    end = rest.find(">")
    if end < 0:
        raise NTriplesError("unterminated predicate <uri>", line_number)
    obj = rest[end + 1 :].lstrip()
    if not obj:
        raise NTriplesError("missing object", line_number)
    return subject, rest[1:end], obj


def _parse_object(token: str, line_number: int) -> Node:
    """Decode an object token: a ``<uri>`` or a literal."""
    if token.startswith("<"):
        return Resource(_parse_uri(token, line_number))
    if not token.startswith('"'):
        raise NTriplesError(f"object must be a <uri> or a literal, got {token!r}", line_number)
    # find the closing unescaped quote (without a backslash, the first quote)
    if "\\" not in token:
        i = token.find('"', 1)
        if i < 0:
            raise NTriplesError("unterminated literal", line_number)
    else:
        i = 1
        while i < len(token):
            if token[i] == "\\":
                i += 2
                continue
            if token[i] == '"':
                break
            i += 1
        else:
            raise NTriplesError("unterminated literal", line_number)
    lexical = _unescape(token[1:i], line_number)
    suffix = token[i + 1 :].strip()
    datatype = None
    if suffix.startswith("^^"):
        datatype_uri = _parse_uri(suffix[2:].strip(), line_number)
        datatype = datatype_uri.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
    elif suffix.startswith("@"):
        pass  # language tags are accepted and dropped
    elif suffix:
        raise NTriplesError(f"unexpected trailing content {suffix!r}", line_number)
    return Literal(lexical, datatype=datatype)


def parse_line(line: str, line_number: int = 0) -> Tuple[str, str, Node] | None:
    """Parse one N-Triples line into ``(subject_uri, predicate_uri, object)``.

    Returns ``None`` for blank and comment lines.  The object is either
    a :class:`Resource` (carrying its URI as name) or a
    :class:`Literal`.
    """
    tokens = _split(line, line_number)
    if tokens is None:
        return None
    subject, predicate, obj = tokens
    return _parse_uri(subject, line_number), predicate, _parse_object(obj, line_number)


def read_ntriples(source: Union[str, Path, TextIO], name: str | None = None) -> Ontology:
    """Load an ontology from an N-Triples file or stream.

    Each line is split into its three tokens once, and the term for
    each distinct token is built once per call: every statement that
    repeats a subject, predicate or object shares one term object, so
    the ontology's index probes hit by identity.  Decoding goes through
    the same functions as :func:`parse_line`.

    Parameters
    ----------
    source:
        Path to a ``.nt`` file, or an open text stream.
    name:
        Ontology name; defaults to the file stem or ``"ontology"``.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            return read_ntriples(stream, name=name or path.stem)
    ontology = Ontology(name or "ontology")
    nodes: Dict[str, Node] = {}  # subject/object token -> term
    relations: Dict[str, Relation] = {}  # predicate URI -> relation
    for line_number, line in enumerate(source, start=1):
        tokens = _split(line, line_number)
        if tokens is None:
            continue
        subject_token, predicate_uri, obj_token = tokens
        subject = nodes.get(subject_token)
        if subject is None:
            subject = nodes[subject_token] = Resource(_parse_uri(subject_token, line_number))
        obj = nodes.get(obj_token)
        if obj is None:
            obj = nodes[obj_token] = _parse_object(obj_token, line_number)
        relation = relations.get(predicate_uri)
        if relation is None:
            relation = relations[predicate_uri] = _relation(predicate_uri, line_number)
        if relation.name == RDFS_SUBPROPERTYOF.name:
            if not isinstance(obj, Resource):
                raise NTriplesError("rdfs:subPropertyOf needs a resource object", line_number)
            ontology.add_subproperty(
                _relation(subject.name, line_number), _relation(obj.name, line_number)
            )
            continue
        try:
            ontology.add(subject, relation, obj)
        except TypeError as exc:  # a schema statement with a literal argument
            raise NTriplesError(str(exc), line_number) from None
    return ontology


def _render_term(node: Node) -> str:
    if isinstance(node, Resource):
        return f"<{node.name}>"
    rendered = f'"{_escape(node.value)}"'
    if node.datatype:
        rendered += f"^^<http://www.w3.org/2001/XMLSchema#{node.datatype}>"
    return rendered


_Item = TypeVar("_Item")


def in_stable_order(
    items: Iterable[_Item], group: Callable[[_Item], object], text: Callable[[_Item], str]
) -> Iterator[_Item]:
    """``items`` with each run of equal ``group`` keys sorted by ``text``.

    The ontology yields its groups (a subject's objects under one
    relation, a class's instances, a class's superclasses) in insertion
    order, but the members of each group come from a set, whose order
    follows the per-process salted ``str`` hash (``PYTHONHASHSEED``).
    Sorting each group by its rendered text makes a written file depend
    on the ontology alone.
    """
    for _key, run in groupby(items, key=group):
        yield from sorted(run, key=text)


def write_ntriples(ontology: Ontology, target: Union[str, Path, TextIO]) -> int:
    """Serialize an ontology to N-Triples.

    Data statements are written once (forward direction), followed by
    ``rdf:type``, ``rdfs:subClassOf`` and ``rdfs:subPropertyOf``
    statements, in an order that does not depend on the process's hash
    seed (:func:`in_stable_order`).  Returns the number of lines
    written.
    """
    if isinstance(target, (str, Path)):
        with Path(target).open("w", encoding="utf-8") as stream:
            return write_ntriples(ontology, stream)
    count = 0

    def emit(subject: str, predicate: str, obj: str) -> None:
        nonlocal count
        target.write(f"<{subject}> <{predicate}> {obj} .\n")
        count += 1

    # Forward triples always have resource subjects.
    data = (t for t in ontology.triples() if isinstance(t.subject, Resource))
    by_subject = in_stable_order(
        data, lambda t: (t.subject, t.relation), lambda t: _render_term(t.object)
    )
    for triple in by_subject:
        predicate_uri = _SCHEMA_TO_URI.get(triple.relation.name, triple.relation.name)
        emit(triple.subject.name, predicate_uri, _render_term(triple.object))
    types = ontology.type_statements()
    for instance, cls in in_stable_order(types, itemgetter(1), lambda pair: str(pair[0])):
        emit(instance.name, _SCHEMA_TO_URI[RDF_TYPE.name], f"<{cls.name}>")
    edges = ontology.subclass_edges()
    for sub, sup in in_stable_order(edges, itemgetter(0), lambda pair: str(pair[1])):
        emit(sub.name, _SCHEMA_TO_URI[RDFS_SUBCLASSOF.name], f"<{sup.name}>")
    edges = ontology.subproperty_edges()
    for sub, sup in in_stable_order(edges, itemgetter(0), lambda pair: str(pair[1])):
        emit(sub.name, _SCHEMA_TO_URI[RDFS_SUBPROPERTYOF.name], f"<{sup.name}>")
    return count


def dumps(ontology: Ontology) -> str:
    """Serialize an ontology to an N-Triples string."""
    buffer = io.StringIO()
    write_ntriples(ontology, buffer)
    return buffer.getvalue()


def loads(text: str, name: str = "ontology") -> Ontology:
    """Parse an ontology from an N-Triples string."""
    return read_ntriples(io.StringIO(text), name=name)
