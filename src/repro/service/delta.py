"""Triple-level delta batches and their application.

A :class:`Delta` is a batch of statement additions and removals against
the two ontologies of a running alignment.  :func:`apply_delta` pushes
it into the indexed stores (:meth:`Ontology.add` / :meth:`Ontology.remove`)
and records everything the warm-start fixpoint needs to invalidate:

* which *data relations* changed statement counts (their
  functionalities and Eq. 12 rows are stale),
* which *literals* entered or left each ontology (their blocking-index
  postings are stale),
* the applied statements themselves, oriented per ontology, for the
  incremental relation-row updates.

The JSON codec used by the HTTP front-end lives here too, so the wire
format is testable without a socket.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Literal, Node, Relation, Resource
from ..rdf.triples import Triple
from ..rdf.vocabulary import (
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    is_schema_relation,
)

#: An applied data-statement change, oriented along its relation.
AppliedStatement = Tuple[Relation, Node, Node]


def triple_from_json(payload: dict, terms: Optional[dict] = None) -> Triple:
    """Decode one triple from its wire form.

    Expected keys: ``subject``, ``relation``, ``object``, and
    ``object_type`` (``"resource"`` — the default — or ``"literal"``,
    with optional ``datatype``).  Relations honour the ``^-1`` suffix
    (:meth:`repro.rdf.terms.Relation.parse`).

    ``terms`` is an optional dict shared across one decode batch (one
    WAL replay, one shipped ``GET /wal`` body): each distinct
    ``(value, datatype)`` literal is then built once per batch and
    reused, and each distinct relation text is parsed once, keyed by
    the text itself (a ``str`` never equals a literal's tuple key).
    Resources need no such dict: :class:`Resource` is interned, so
    each name is one object already.  Literals still compare by value;
    sharing only lets the index probes of the apply hit by identity
    and keeps the batch's allocations down.
    """
    try:
        subject = Resource(payload["subject"])
        relation = _relation(payload["relation"], terms)
        object_type = payload.get("object_type", "resource")
        if object_type == "literal":
            obj: Node = _literal(payload["object"], payload.get("datatype"), terms)
        elif object_type == "resource":
            obj = Resource(payload["object"])
        else:
            raise ValueError(f"unknown object_type {object_type!r}")
    except KeyError as missing:
        raise ValueError(f"triple is missing field {missing.args[0]!r}") from None
    except TypeError as bad_type:
        # Term constructors raise TypeError for non-string names etc.;
        # normalize so callers handle one exception type for bad wire data.
        raise ValueError(f"bad triple field: {bad_type}") from None
    return Triple(subject, relation, obj)


def _relation(text, terms: Optional[dict]) -> Relation:
    if terms is None or type(text) is not str:
        return Relation.parse(text)
    relation = terms.get(text)
    if relation is None:
        relation = terms[text] = Relation.parse(text)
    return relation


def _literal(value, datatype, terms: Optional[dict]) -> Literal:
    # Keyed by ``(value, datatype)``, and only for ``str`` parts: a
    # number key would collide with its equal bool/float spellings
    # (``1 == True == 1.0``), which build different literals.
    if terms is None or type(value) is not str or not (
        datatype is None or type(datatype) is str
    ):
        return Literal(value, datatype)
    key = (value, datatype)
    term = terms.get(key)
    if term is None:
        term = terms[key] = Literal(value, datatype)
    return term


def triple_to_json(triple: Triple) -> dict:
    """Encode one triple to its wire form (inverse of :func:`triple_from_json`).

    The triple is canonicalized first (oriented along the forward
    relation), because the wire format only represents resource
    subjects; an inverse-oriented statement with a literal subject is
    the same assertion as its canonical form.
    """
    triple = triple.canonical
    if isinstance(triple.subject, Literal):
        raise ValueError(f"cannot encode a literal-subject statement: {triple}")
    payload = {
        "subject": triple.subject.name,
        "relation": str(triple.relation),
        "object": str(triple.object),
    }
    if isinstance(triple.object, Literal):
        payload["object_type"] = "literal"
        if triple.object.datatype:
            payload["datatype"] = triple.object.datatype
    return payload


@dataclass(frozen=True)
class Delta:
    """One batch of triple changes against a running alignment.

    ``add1``/``remove1`` target the left ontology, ``add2``/``remove2``
    the right one.  Removals are applied before additions per side, so
    a batch can atomically rewrite a fact.
    """

    add1: Tuple[Triple, ...] = ()
    remove1: Tuple[Triple, ...] = ()
    add2: Tuple[Triple, ...] = ()
    remove2: Tuple[Triple, ...] = ()

    def is_empty(self) -> bool:
        return not (self.add1 or self.remove1 or self.add2 or self.remove2)

    @property
    def size(self) -> int:
        return len(self.add1) + len(self.remove1) + len(self.add2) + len(self.remove2)

    @classmethod
    def from_json(cls, payload: dict, terms: Optional[dict] = None) -> "Delta":
        """Decode ``{"left": {"add": [...], "remove": [...]}, "right": ...}``.

        ``terms`` shares term objects across a decode batch (see
        :func:`triple_from_json`)."""
        if not isinstance(payload, dict):
            raise ValueError("delta payload must be a JSON object")
        unknown = set(payload) - {"left", "right"}
        if unknown:
            raise ValueError(f"unknown delta keys: {sorted(unknown)}")
        sides: Dict[str, Dict[str, Tuple[Triple, ...]]] = {}
        for side in ("left", "right"):
            spec = payload.get(side, {})
            if not isinstance(spec, dict):
                raise ValueError(f"delta side {side!r} must be a JSON object")
            unknown = set(spec) - {"add", "remove"}
            if unknown:
                raise ValueError(f"unknown keys under {side!r}: {sorted(unknown)}")
            sides[side] = {
                kind: tuple(triple_from_json(item, terms) for item in spec.get(kind, ()))
                for kind in ("add", "remove")
            }
        return cls(
            add1=sides["left"]["add"],
            remove1=sides["left"]["remove"],
            add2=sides["right"]["add"],
            remove2=sides["right"]["remove"],
        )

    def to_json(self) -> dict:
        return {
            "left": {
                "add": [triple_to_json(t) for t in self.add1],
                "remove": [triple_to_json(t) for t in self.remove1],
            },
            "right": {
                "add": [triple_to_json(t) for t in self.add2],
                "remove": [triple_to_json(t) for t in self.remove2],
            },
        }


def _fold_side(
    net: Dict[Triple, bool], removes: Tuple[Triple, ...], adds: Tuple[Triple, ...]
) -> None:
    """Fold one delta's side into the net per-triple outcome.

    Removals fold before additions, mirroring the order
    :func:`apply_delta` applies them within a batch.  Re-inserting on
    every fold keeps the dict ordered by *last* operation, so the
    composed batch lists triples in the order the stream last touched
    them — deterministic for any fixed input sequence.
    """
    for triple in removes:
        canonical = triple.canonical
        net.pop(canonical, None)
        net[canonical] = False
    for triple in adds:
        canonical = triple.canonical
        net.pop(canonical, None)
        net[canonical] = True


def compose_deltas(deltas: Iterable["Delta"]) -> "Delta":
    """Coalesce an ordered sequence of deltas into one equivalent batch.

    Triple statements have set semantics (:meth:`Ontology.add_triple` /
    :meth:`Ontology.remove_triple` are idempotent), so after applying a
    sequence of deltas a triple is present iff the *last* operation on
    its canonical form was an add — earlier add/remove pairs on the
    same triple cancel.  The composed batch asserts exactly that net
    outcome, one operation per touched triple, which leaves both
    ontologies in the same final state as the one-by-one sequence; and
    because the warm-start fixpoint converges to the numeric fixpoint
    of the *final* graphs, applying the composed batch yields scores
    equal to applying the deltas one by one (within 1e-9 — the
    coalescing property in ``tests/test_stream.py``).  The dirty
    frontier :func:`apply_delta` derives from the composed batch is the
    union of what the individual deltas would have seeded, minus the
    cancelled operations that no longer change anything.

    This is the coalescing step of the streaming batcher
    (:mod:`repro.service.stream`): one warm pass absorbs many queued
    writes.
    """
    net1: Dict[Triple, bool] = {}
    net2: Dict[Triple, bool] = {}
    for delta in deltas:
        _fold_side(net1, delta.remove1, delta.add1)
        _fold_side(net2, delta.remove2, delta.add2)
    return Delta(
        add1=tuple(triple for triple, keep in net1.items() if keep),
        remove1=tuple(triple for triple, keep in net1.items() if not keep),
        add2=tuple(triple for triple, keep in net2.items() if keep),
        remove2=tuple(triple for triple, keep in net2.items() if not keep),
    )


#: The characters the N-Triples codec cannot round-trip inside a
#: ``<uri>`` token: the W3C IRIREF exclusions plus ASCII whitespace and
#: controls (U+0000–U+0020).
_URI_FORBIDDEN = re.compile(r'[<>"{}|^`\\\x00-\x20]')


def _term_syntax_error(triple: Triple) -> Optional[str]:
    """Why a triple's terms cannot survive the N-Triples codec, if any.

    Literal objects always round-trip (the codec escapes them); resource
    and relation names become bare ``<uri>`` tokens, so a name with
    whitespace, controls or IRIREF-forbidden characters would serialize
    to a line the parser rejects — or, worse, to a different statement.
    The first offending character of a name is the one reported.
    """
    names = [("subject", triple.subject), ("object", triple.object)]
    for position, node in names:
        if isinstance(node, Literal):
            continue
        bad = _URI_FORBIDDEN.search(node.name)
        if bad is not None:
            return (
                f"{position} {node.name!r} contains {bad.group()!r}, "
                "which is invalid inside an N-Triples <uri>"
            )
    # Schema relation names are internal aliases ("rdf:type") that
    # serialize through their full URIs, so only data relations must
    # themselves be valid <uri> tokens.
    if not is_schema_relation(triple.relation):
        bad = _URI_FORBIDDEN.search(triple.relation.name)
        if bad is not None:
            return (
                f"relation {triple.relation.name!r} contains {bad.group()!r}, "
                "which is invalid inside an N-Triples <uri>"
            )
    return None


def validate_delta(delta: "Delta") -> None:
    """Reject triples the live stores cannot apply, *before* mutating.

    :func:`apply_delta` is only atomic if nothing raises mid-batch, so
    every condition under which :meth:`Ontology.add` /
    :meth:`Ontology.remove` would raise must be caught here first:
    ``rdfs:subPropertyOf`` statements (they relate Relation terms, not
    nodes) and schema statements with literal arguments.  Terms whose
    names cannot round-trip through the N-Triples codec are rejected
    here too — with the offending triple in the message — instead of
    blowing up much later when the ontology is serialized.
    """
    for triple in (*delta.add1, *delta.remove1, *delta.add2, *delta.remove2):
        base = triple.relation.base
        if base == RDFS_SUBPROPERTYOF:
            raise ValueError(
                "rdfs:subPropertyOf cannot be changed through a delta "
                "(it relates Relation terms, not nodes)"
            )
        if base in (RDF_TYPE, RDFS_SUBCLASSOF):
            if isinstance(triple.subject, Literal) or isinstance(triple.object, Literal):
                raise ValueError(f"schema statement with a literal argument: {triple}")
        syntax_error = _term_syntax_error(triple)
        if syntax_error is not None:
            raise ValueError(
                f"invalid N-Triples term syntax in triple {triple}: {syntax_error}"
            )


@dataclass
class DeltaEffect:
    """What actually changed when a delta was applied.

    Statements already present (adds) or absent (removes) are no-ops
    and appear in none of the collections — the warm-start fixpoint
    then has nothing to invalidate for them.
    """

    #: Applied data-statement changes per ontology (adds and removes).
    statements1: List[AppliedStatement] = field(default_factory=list)
    statements2: List[AppliedStatement] = field(default_factory=list)
    #: Data relations whose statement multiset changed, per ontology.
    touched_relations1: List[Relation] = field(default_factory=list)
    touched_relations2: List[Relation] = field(default_factory=list)
    #: Literals that entered/left the ontology's literal set.
    added_literals1: List[Literal] = field(default_factory=list)
    removed_literals1: List[Literal] = field(default_factory=list)
    added_literals2: List[Literal] = field(default_factory=list)
    removed_literals2: List[Literal] = field(default_factory=list)
    #: Resource endpoints of changed *left* data statements (the seed of
    #: the dirty instance frontier; the right side's reach is derived
    #: from ``statements2`` through the equivalence store instead).
    touched_instances1: List[Resource] = field(default_factory=list)
    #: Classes whose direct extension changed (``rdf:type`` adds or
    #: removes), per ontology — the delta-aware class pass invalidates
    #: exactly these rows.
    touched_classes1: List[Resource] = field(default_factory=list)
    touched_classes2: List[Resource] = field(default_factory=list)
    #: Instances whose type set changed, per ontology (their closed
    #: class sets feed the *other* direction's class pass).
    type_changed_instances1: List[Resource] = field(default_factory=list)
    type_changed_instances2: List[Resource] = field(default_factory=list)
    #: Whether ``rdfs:subClassOf`` edges changed, per ontology — this
    #: invalidates the class closures wholesale.
    subclass_changed1: bool = False
    subclass_changed2: bool = False
    #: Counts of actually-applied triple changes (schema included).
    applied_add: int = 0
    applied_remove: int = 0

    def is_noop(self) -> bool:
        return self.applied_add == 0 and self.applied_remove == 0


def _apply_side(
    ontology: Ontology,
    adds: Tuple[Triple, ...],
    removes: Tuple[Triple, ...],
    statements: List[AppliedStatement],
    relations: List[Relation],
    added_literals: List[Literal],
    removed_literals: List[Literal],
    effect: DeltaEffect,
    touched_classes: List[Resource],
    type_changed_instances: List[Resource],
    instances: Optional[List[Resource]] = None,
) -> bool:
    """Apply one side's triples; returns whether subclass edges changed."""
    relation_set = set()
    subclass_changed = False
    for triple, removing in [(t, True) for t in removes] + [(t, False) for t in adds]:
        # Canonicalize: an inverse-oriented statement (possibly with a
        # literal subject, see repro.rdf.triples) is the same assertion
        # as its forward form, and the bookkeeping below assumes the
        # forward orientation.
        triple = triple.canonical
        schema = is_schema_relation(triple.relation)
        literal_nodes = [
            node for node in (triple.subject, triple.object) if isinstance(node, Literal)
        ]
        was_present = {literal: literal in ontology.literals for literal in literal_nodes}
        if removing:
            applied = ontology.remove_triple(triple)
        else:
            applied = ontology.add_triple(triple)
        if not applied:
            continue
        if removing:
            effect.applied_remove += 1
        else:
            effect.applied_add += 1
        if schema:
            base = triple.relation.base
            if base == RDF_TYPE:
                # Canonical orientation: rdf:type(instance, class).
                type_changed_instances.append(triple.subject)  # type: ignore[arg-type]
                touched_classes.append(triple.object)  # type: ignore[arg-type]
            elif base == RDFS_SUBCLASSOF:
                subclass_changed = True
            continue
        statements.append((triple.relation, triple.subject, triple.object))
        if triple.relation not in relation_set:
            relation_set.add(triple.relation)
            relations.append(triple.relation)
        if instances is not None:
            for node in (triple.subject, triple.object):
                if isinstance(node, Resource):
                    instances.append(node)
        for literal in literal_nodes:
            now_present = literal in ontology.literals
            if now_present and not was_present[literal]:
                added_literals.append(literal)
            elif was_present[literal] and not now_present:
                removed_literals.append(literal)
    return subclass_changed


def apply_delta(
    ontology1: Ontology,
    ontology2: Ontology,
    delta: Delta,
    validated: bool = False,
) -> DeltaEffect:
    """Apply a delta to both ontologies and report the effect.

    Removals run before additions on each side; the left side is
    applied first.  Idempotent changes are skipped silently.  The batch
    is validated up front (:func:`validate_delta`), so a rejected delta
    raises *before* any store is touched — all-or-nothing from the
    service's perspective.  Callers that already validated (the service
    engine does, outside its poisoning scope) pass ``validated=True``
    to skip the second walk.
    """
    if not validated:
        validate_delta(delta)
    effect = DeltaEffect()
    effect.subclass_changed1 = _apply_side(
        ontology1,
        delta.add1,
        delta.remove1,
        effect.statements1,
        effect.touched_relations1,
        effect.added_literals1,
        effect.removed_literals1,
        effect,
        effect.touched_classes1,
        effect.type_changed_instances1,
        instances=effect.touched_instances1,
    )
    effect.subclass_changed2 = _apply_side(
        ontology2,
        delta.add2,
        delta.remove2,
        effect.statements2,
        effect.touched_relations2,
        effect.added_literals2,
        effect.removed_literals2,
        effect,
        effect.touched_classes2,
        effect.type_changed_instances2,
    )
    return effect
