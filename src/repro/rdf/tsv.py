"""TSV serialization of ontologies.

The original PARIS release consumed tab-separated ``subject predicate
object`` files converted from the IMDb plain-text dumps (Section 6.4).
This codec mirrors that: one statement per line, three tab-separated
fields.  Object fields wrapped in double quotes are literals; everything
else is a resource.  The schema relations use the same internal names
as :mod:`repro.rdf.vocabulary` (``rdf:type`` etc.).
"""

from __future__ import annotations

import io
from operator import itemgetter
from pathlib import Path
from typing import TextIO, Union

from .ntriples import in_stable_order
from .ontology import Ontology
from .terms import Literal, Node, Relation, Resource
from .vocabulary import RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF


class TsvError(ValueError):
    """Raised when a TSV line is malformed."""


def _render(node: Node) -> str:
    if isinstance(node, Literal):
        escaped = node.value.replace("\\", "\\\\").replace('"', '\\"').replace("\t", "\\t")
        return f'"{escaped}"'
    return node.name


def _parse_object(field: str) -> Node:
    if field.startswith('"') and field.endswith('"') and len(field) >= 2:
        body = field[1:-1]
        out = []
        i = 0
        while i < len(body):
            if body[i] == "\\" and i + 1 < len(body):
                mapping = {"t": "\t", "n": "\n", '"': '"', "\\": "\\"}
                out.append(mapping.get(body[i + 1], body[i + 1]))
                i += 2
            else:
                out.append(body[i])
                i += 1
        return Literal("".join(out))
    return Resource(field)


def write_tsv(ontology: Ontology, target: Union[str, Path, TextIO]) -> int:
    """Write an ontology as TSV; returns the number of lines.  The order
    does not depend on the process's hash seed
    (:func:`repro.rdf.ntriples.in_stable_order`)."""
    if isinstance(target, (str, Path)):
        with Path(target).open("w", encoding="utf-8") as stream:
            return write_tsv(ontology, stream)
    count = 0
    data = (t for t in ontology.triples() if isinstance(t.subject, Resource))
    by_subject = in_stable_order(
        data, lambda t: (t.subject, t.relation), lambda t: _render(t.object)
    )
    for triple in by_subject:
        target.write(f"{triple.subject.name}\t{triple.relation}\t{_render(triple.object)}\n")
        count += 1
    types = ontology.type_statements()
    for instance, cls in in_stable_order(types, itemgetter(1), lambda pair: str(pair[0])):
        target.write(f"{instance.name}\t{RDF_TYPE.name}\t{cls.name}\n")
        count += 1
    edges = ontology.subclass_edges()
    for sub, sup in in_stable_order(edges, itemgetter(0), lambda pair: str(pair[1])):
        target.write(f"{sub.name}\t{RDFS_SUBCLASSOF.name}\t{sup.name}\n")
        count += 1
    edges = ontology.subproperty_edges()
    for sub, sup in in_stable_order(edges, itemgetter(0), lambda pair: str(pair[1])):
        target.write(f"{sub}\t{RDFS_SUBPROPERTYOF.name}\t{sup}\n")
        count += 1
    return count


def read_tsv(source: Union[str, Path, TextIO], name: str | None = None) -> Ontology:
    """Load an ontology from a TSV file or stream."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            return read_tsv(stream, name=name or path.stem)
    ontology = Ontology(name or "ontology")
    for line_number, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise TsvError(
                f"line {line_number}: expected 3 tab-separated fields, got {len(fields)}"
            )
        subject_name, predicate_name, object_field = fields
        try:
            if predicate_name == RDFS_SUBPROPERTYOF.name:
                ontology.add_subproperty(
                    Relation.parse(subject_name), Relation.parse(object_field)
                )
                continue
            ontology.add(
                Resource(subject_name), Relation.parse(predicate_name), _parse_object(object_field)
            )
        except (TypeError, ValueError) as exc:  # empty names, literal schema arguments
            raise TsvError(f"line {line_number}: {exc}") from None
    return ontology


def dumps(ontology: Ontology) -> str:
    """Serialize to a TSV string."""
    buffer = io.StringIO()
    write_tsv(ontology, buffer)
    return buffer.getvalue()


def loads(text: str, name: str = "ontology") -> Ontology:
    """Parse an ontology from a TSV string."""
    return read_tsv(io.StringIO(text), name=name)
