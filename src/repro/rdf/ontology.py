"""Indexed in-memory RDFS ontology store.

This is the substrate the paper obtains from Jena + Berkeley DB
(Section 5.2); here it is a set of dictionaries tuned for the access
patterns of the PARIS fixpoint:

* iterate all statements ``r(x, y)`` for a fixed first argument ``x``
  (the optimized Eq. 13 traversal),
* iterate all pairs of a fixed relation ``r`` (Eq. 12),
* count statements and distinct arguments per relation (Eq. 2),
* enumerate instances of a class (Eq. 17).

Every assertion is stored in both directions: adding ``r(x, y)`` also
records ``r⁻(y, x)``, exactly as the paper assumes ("we assume that the
ontology contains all inverse relations and their corresponding
statements", Section 3).

The store is also the substrate of the *incremental alignment service*
(:mod:`repro.service`): :meth:`Ontology.remove` retracts statements
with full index cleanup, so live delta batches (add + remove) can be
absorbed without rebuilding, and the warm-start fixpoint can invalidate
exactly the entries a delta touched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .terms import Literal, Node, Relation, Resource
from .triples import Triple
from .vocabulary import RDF_TYPE, RDFS_SUBCLASSOF, SCHEMA_RELATIONS, is_schema_relation

#: Names of the schema relations that :meth:`Ontology.add` and
#: :meth:`Ontology.remove` route away from the data indexes.
_SCHEMA_NAMES = frozenset(relation.name for relation in SCHEMA_RELATIONS)


class Ontology:
    """A mutable, indexed collection of RDFS statements.

    Parameters
    ----------
    name:
        Human-readable identifier used in alignment reports
        (e.g. ``"yago"`` or ``"dbpedia"``).

    Notes
    -----
    The store distinguishes *data* statements (between instances and/or
    literals) from *schema* statements (``rdf:type``,
    ``rdfs:subClassOf``, ``rdfs:subPropertyOf``).  Schema statements are
    kept in dedicated indexes and never contribute to functionality or
    to the instance-equivalence equations, mirroring the paper's
    separation of A-Box evidence from T-Box alignment.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("ontology name must be non-empty")
        self.name = name
        # relation -> subject -> set of objects (both directions kept).
        self._statements: Dict[Relation, Dict[Node, Set[Node]]] = {}
        # subject -> relation -> set of objects (both directions kept).
        self._subject_index: Dict[Node, Dict[Relation, Set[Node]]] = {}
        # statement counts per relation (both directions).
        self._fact_counts: Dict[Relation, int] = {}
        # schema indexes
        self._instance_classes: Dict[Resource, Set[Resource]] = {}
        self._class_instances: Dict[Resource, Set[Resource]] = {}
        self._subclass_edges: Dict[Resource, Set[Resource]] = {}
        self._superclass_edges: Dict[Resource, Set[Resource]] = {}
        self._subproperty_edges: Dict[Relation, Set[Relation]] = {}
        self._instances: Set[Resource] = set()
        self._classes: Set[Resource] = set()
        self._literals: Set[Literal] = set()
        # Data-statement mutation counter (see the `version` property).
        self._version = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, subject: Node, relation: Relation, obj: Node) -> bool:
        """Add the statement ``relation(subject, obj)``.

        Schema relations are routed to :meth:`add_type`,
        :meth:`add_subclass` or :meth:`add_subproperty`.  Data
        statements are stored in both directions.

        Returns
        -------
        bool
            ``True`` if the statement was new, ``False`` if it was
            already present.
        """
        if not isinstance(relation, Relation):
            raise TypeError(f"relation must be a Relation, got {type(relation).__name__}")
        if relation.name not in _SCHEMA_NAMES:
            return self._add_data(subject, relation, obj)
        sub, obj2 = (subject, obj) if not relation.inverted else (obj, subject)
        if relation.name == RDF_TYPE.name:
            return self.add_type(sub, obj2)  # type: ignore[arg-type]
        if relation.name == RDFS_SUBCLASSOF.name:
            return self.add_subclass(sub, obj2)  # type: ignore[arg-type]
        raise ValueError(
            "add rdfs:subPropertyOf edges via add_subproperty(), "
            "they relate Relation terms, not nodes"
        )

    def _add_data(self, subject: Node, relation: Relation, obj: Node) -> bool:
        objects = self._statements.setdefault(relation, {}).setdefault(subject, set())
        if obj in objects:
            return False
        self._version += 1
        objects.add(obj)
        self._subject_index.setdefault(subject, {}).setdefault(relation, set()).add(obj)
        self._fact_counts[relation] = self._fact_counts.get(relation, 0) + 1
        # inverse direction
        inverse = relation.inverse
        self._statements.setdefault(inverse, {}).setdefault(obj, set()).add(subject)
        self._subject_index.setdefault(obj, {}).setdefault(inverse, set()).add(subject)
        self._fact_counts[inverse] = self._fact_counts.get(inverse, 0) + 1
        self._register_node(subject)
        self._register_node(obj)
        return True

    def _register_node(self, node: Node) -> None:
        if isinstance(node, Literal):
            self._literals.add(node)
        elif node not in self._classes:
            self._instances.add(node)

    def add_type(self, instance: Resource, cls: Resource) -> bool:
        """Assert ``rdf:type(instance, cls)``."""
        if not isinstance(instance, Resource) or not isinstance(cls, Resource):
            raise TypeError("rdf:type connects a Resource instance to a Resource class")
        members = self._class_instances.setdefault(cls, set())
        if instance in members:
            return False
        members.add(instance)
        self._instance_classes.setdefault(instance, set()).add(cls)
        self._register_class(cls)
        self._instances.add(instance)
        return True

    def add_subclass(self, sub: Resource, sup: Resource) -> bool:
        """Assert ``rdfs:subClassOf(sub, sup)``."""
        if not isinstance(sub, Resource) or not isinstance(sup, Resource):
            raise TypeError("rdfs:subClassOf connects two Resource classes")
        supers = self._subclass_edges.setdefault(sub, set())
        if sup in supers:
            return False
        supers.add(sup)
        self._superclass_edges.setdefault(sup, set()).add(sub)
        self._register_class(sub)
        self._register_class(sup)
        return True

    def add_subproperty(self, sub: Relation, sup: Relation) -> bool:
        """Assert ``rdfs:subPropertyOf(sub, sup)``."""
        if not isinstance(sub, Relation) or not isinstance(sup, Relation):
            raise TypeError("rdfs:subPropertyOf connects two Relation terms")
        supers = self._subproperty_edges.setdefault(sub, set())
        if sup in supers:
            return False
        supers.add(sup)
        return True

    def _register_class(self, cls: Resource) -> None:
        self._classes.add(cls)
        # A name cannot denote both a class and an instance within one
        # ontology (the paper assumes the resources are partitioned).
        self._instances.discard(cls)

    def add_triple(self, triple: Triple) -> bool:
        """Add a :class:`~repro.rdf.triples.Triple`."""
        return self.add(triple.subject, triple.relation, triple.object)

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number of new statements."""
        return sum(1 for t in triples if self.add_triple(t))

    # ------------------------------------------------------------------
    # retraction (delta ingestion, repro.service)
    # ------------------------------------------------------------------

    def remove(self, subject: Node, relation: Relation, obj: Node) -> bool:
        """Retract the statement ``relation(subject, obj)``.

        The mirror of :meth:`add`: schema relations are routed to
        :meth:`remove_type` / :meth:`remove_subclass`, data statements
        are removed from both directions, and nodes that no longer
        appear in any statement are dropped from the instance/literal
        registries.

        Returns
        -------
        bool
            ``True`` if the statement was present and removed.
        """
        if not isinstance(relation, Relation):
            raise TypeError(f"relation must be a Relation, got {type(relation).__name__}")
        if relation.name not in _SCHEMA_NAMES:
            return self._remove_data(subject, relation, obj)
        sub, obj2 = (subject, obj) if not relation.inverted else (obj, subject)
        if relation.name == RDF_TYPE.name:
            return self.remove_type(sub, obj2)  # type: ignore[arg-type]
        if relation.name == RDFS_SUBCLASSOF.name:
            return self.remove_subclass(sub, obj2)  # type: ignore[arg-type]
        raise ValueError(
            "remove rdfs:subPropertyOf edges via remove_subproperty(), "
            "they relate Relation terms, not nodes"
        )

    def _remove_data(self, subject: Node, relation: Relation, obj: Node) -> bool:
        objects = self._statements.get(relation, {}).get(subject)
        if objects is None or obj not in objects:
            return False
        self._version += 1
        self._drop_direction(subject, relation, obj)
        self._drop_direction(obj, relation.inverse, subject)
        self._unregister_if_orphan(subject)
        self._unregister_if_orphan(obj)
        return True

    def _drop_direction(self, subject: Node, relation: Relation, obj: Node) -> None:
        by_subject = self._statements[relation]
        objects = by_subject[subject]
        objects.remove(obj)
        if not objects:
            del by_subject[subject]
            if not by_subject:
                del self._statements[relation]
        by_relation = self._subject_index[subject]
        indexed = by_relation[relation]
        indexed.remove(obj)
        if not indexed:
            del by_relation[relation]
            if not by_relation:
                del self._subject_index[subject]
        remaining = self._fact_counts.get(relation, 0) - 1
        if remaining > 0:
            self._fact_counts[relation] = remaining
        else:
            self._fact_counts.pop(relation, None)

    def _unregister_if_orphan(self, node: Node) -> None:
        """Drop a node from the registries once nothing mentions it."""
        if self._subject_index.get(node):
            return
        if isinstance(node, Literal):
            self._literals.discard(node)
        elif node not in self._instance_classes:
            self._instances.discard(node)

    def remove_type(self, instance: Resource, cls: Resource) -> bool:
        """Retract ``rdf:type(instance, cls)``."""
        members = self._class_instances.get(cls)
        if members is None or instance not in members:
            return False
        members.remove(instance)
        if not members:
            del self._class_instances[cls]
        classes = self._instance_classes[instance]
        classes.remove(cls)
        if not classes:
            del self._instance_classes[instance]
            if not self._subject_index.get(instance):
                self._instances.discard(instance)
        return True

    def remove_subclass(self, sub: Resource, sup: Resource) -> bool:
        """Retract ``rdfs:subClassOf(sub, sup)``."""
        supers = self._subclass_edges.get(sub)
        if supers is None or sup not in supers:
            return False
        supers.remove(sup)
        if not supers:
            del self._subclass_edges[sub]
        subs = self._superclass_edges[sup]
        subs.remove(sub)
        if not subs:
            del self._superclass_edges[sup]
        return True

    def remove_subproperty(self, sub: Relation, sup: Relation) -> bool:
        """Retract ``rdfs:subPropertyOf(sub, sup)``."""
        supers = self._subproperty_edges.get(sub)
        if supers is None or sup not in supers:
            return False
        supers.remove(sup)
        if not supers:
            del self._subproperty_edges[sub]
        return True

    def remove_triple(self, triple: Triple) -> bool:
        """Retract a :class:`~repro.rdf.triples.Triple`."""
        return self.remove(triple.subject, triple.relation, triple.object)

    # ------------------------------------------------------------------
    # statement access
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter of *data-statement* mutations.

        Bumped by every successful data add/remove (schema edits do not
        count: they never feed Eq. 13 or the functionality vectors).
        The vectorized scoring kernel (:mod:`repro.core.vectorized`)
        freezes the statement structure into flat arrays; it keys its
        cache on this counter to know when a delta made them stale.
        """
        return self._version

    def nodes_with_statements(self) -> Iterable[Node]:
        """All nodes appearing in at least one data statement (either
        position) — the node universe the vectorized kernel interns."""
        return self._subject_index.keys()

    def statements_about(self, subject: Node) -> Iterator[Tuple[Relation, Node]]:
        """Iterate ``(r, y)`` for every data statement ``r(subject, y)``.

        Includes inverse-direction statements, so this enumerates every
        data fact that mentions ``subject`` in either position — the
        traversal at the core of the optimized Eq. 13 evaluation.
        """
        by_relation = self._subject_index.get(subject)
        if not by_relation:
            return
        for relation, objects in by_relation.items():
            for obj in objects:
                yield relation, obj

    def relations_of(self, subject: Node) -> Iterable[Relation]:
        """Relations (either direction) with ``subject`` as first argument."""
        return self._subject_index.get(subject, {}).keys()

    def relation_objects(self, subject: Node) -> Mapping[Relation, Set[Node]]:
        """The row ``{r: {y : r(subject, y)}}`` of ``subject``, both
        directions, empty if it has no data statement.

        Its keys are :meth:`relations_of` in the same order, and each
        value equals ``objects(r, subject)``, so one probe serves a loop
        that would call both per relation.  The row is the live index
        entry: read it, never mutate it.
        """
        return self._subject_index.get(subject, {})

    def objects(self, relation: Relation, subject: Node) -> Set[Node]:
        """The set ``{y : relation(subject, y)}`` (empty if none)."""
        return self._statements.get(relation, {}).get(subject, set())

    def subjects(self, relation: Relation) -> Iterable[Node]:
        """All distinct first arguments of ``relation``."""
        return self._statements.get(relation, {}).keys()

    def pairs(self, relation: Relation) -> Iterator[Tuple[Node, Node]]:
        """Iterate all ``(x, y)`` with ``relation(x, y)``."""
        for subject, objects in self._statements.get(relation, {}).items():
            for obj in objects:
                yield subject, obj

    def has(self, subject: Node, relation: Relation, obj: Node) -> bool:
        """Whether the statement ``relation(subject, obj)`` is present."""
        return obj in self._statements.get(relation, {}).get(subject, set())

    def match(
        self,
        subject: Optional[Node] = None,
        relation: Optional[Relation] = None,
        obj: Optional[Node] = None,
    ) -> Iterator[Triple]:
        """Triple-pattern query: ``None`` positions are wildcards.

        >>> list(onto.match(Resource("Elvis"), None, None))  # doctest: +SKIP
        [Triple(Elvis, bornIn, Tupelo), Triple(Elvis, name, "Elvis Presley")]

        Matching uses the most selective available index: subject+
        relation → direct lookup; subject only → subject index;
        relation only → relation index; object-only patterns run on the
        materialized inverse.  Only forward-direction statements are
        yielded unless the pattern names an inverted relation.
        """
        if relation is not None and relation.inverted and subject is None and obj is None:
            # normalize: query the forward relation with swapped slots
            for triple in self.match(obj, relation.base, subject):
                yield triple
            return
        if subject is not None and relation is not None:
            objects = self.objects(relation, subject)
            candidates = [obj] if obj is not None and obj in objects else (
                objects if obj is None else []
            )
            for candidate in candidates:
                yield Triple(subject, relation, candidate)
            return
        if subject is not None:
            for rel, candidate in self.statements_about(subject):
                if rel.inverted:
                    continue
                if obj is not None and candidate != obj:
                    continue
                yield Triple(subject, rel, candidate)
            return
        if relation is not None:
            if obj is not None:
                for candidate in self.objects(relation.inverse, obj):
                    yield Triple(candidate, relation, obj)
                return
            for sub, candidate in self.pairs(relation):
                yield Triple(sub, relation, candidate)
            return
        if obj is not None:
            for rel, candidate in self.statements_about(obj):
                if not rel.inverted:
                    continue
                yield Triple(candidate, rel.inverse, obj)
            return
        yield from self.triples()

    def triples(self, include_inverses: bool = False) -> Iterator[Triple]:
        """Iterate all data statements.

        Parameters
        ----------
        include_inverses:
            If ``False`` (default), yield each assertion once, oriented
            along its forward relation.  If ``True``, yield both
            directions.
        """
        for relation, by_subject in self._statements.items():
            if relation.inverted and not include_inverses:
                continue
            for subject, objects in by_subject.items():
                for obj in objects:
                    yield Triple(subject, relation, obj)

    # ------------------------------------------------------------------
    # relation-level counts (used by functionality, Eq. 2)
    # ------------------------------------------------------------------

    def relations(self, include_inverses: bool = True) -> List[Relation]:
        """All data relations with at least one statement.

        PARIS aligns relations of both directions (Table 4 contains
        alignments such as ``actedIn ⊆ starring⁻``), so inverses are
        included by default.
        """
        rels = [r for r in self._statements if self._fact_counts.get(r)]
        if not include_inverses:
            rels = [r for r in rels if not r.inverted]
        return rels

    def num_statements(self, relation: Relation) -> int:
        """``#x,y : r(x, y)`` — the number of statements of ``relation``."""
        return self._fact_counts.get(relation, 0)

    def num_subjects(self, relation: Relation) -> int:
        """``#x : ∃y r(x, y)`` — the number of distinct first arguments."""
        return len(self._statements.get(relation, {}))

    def num_objects(self, relation: Relation) -> int:
        """``#y : ∃x r(x, y)`` — the number of distinct second arguments."""
        return len(self._statements.get(relation.inverse, {}))

    def fanout_histogram(self, relation: Relation) -> Dict[int, int]:
        """Histogram ``{fanout: count}`` of objects-per-subject for ``relation``."""
        histogram: Dict[int, int] = {}
        for objects in self._statements.get(relation, {}).values():
            histogram[len(objects)] = histogram.get(len(objects), 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------

    @property
    def instances(self) -> Set[Resource]:
        """All instance resources seen in data or ``rdf:type`` statements."""
        return self._instances

    @property
    def classes(self) -> Set[Resource]:
        """All class resources."""
        return self._classes

    @property
    def literals(self) -> Set[Literal]:
        """All literals appearing in data statements."""
        return self._literals

    def instances_of(self, cls: Resource) -> Set[Resource]:
        """Direct extension of ``cls`` (run deductive closure first if
        inherited members are needed)."""
        return self._class_instances.get(cls, set())

    def classes_of(self, instance: Resource) -> Set[Resource]:
        """Direct classes of ``instance``."""
        return self._instance_classes.get(instance, set())

    def superclasses_of(self, cls: Resource) -> Set[Resource]:
        """Direct superclasses of ``cls``."""
        return self._subclass_edges.get(cls, set())

    def subclasses_of(self, cls: Resource) -> Set[Resource]:
        """Direct subclasses of ``cls``."""
        return self._superclass_edges.get(cls, set())

    def superproperties_of(self, relation: Relation) -> Set[Relation]:
        """Direct super-relations of ``relation``."""
        return self._subproperty_edges.get(relation, set())

    def subclass_edges(self) -> Iterator[Tuple[Resource, Resource]]:
        """Iterate all direct ``(sub, sup)`` subclass edges."""
        for sub, supers in self._subclass_edges.items():
            for sup in supers:
                yield sub, sup

    def subproperty_edges(self) -> Iterator[Tuple[Relation, Relation]]:
        """Iterate all direct ``(sub, sup)`` subproperty edges."""
        for sub, supers in self._subproperty_edges.items():
            for sup in supers:
                yield sub, sup

    def type_statements(self) -> Iterator[Tuple[Resource, Resource]]:
        """Iterate all ``(instance, class)`` membership statements."""
        for cls, members in self._class_instances.items():
            for instance in members:
                yield instance, cls

    # ------------------------------------------------------------------
    # dunder / summary
    # ------------------------------------------------------------------

    @property
    def num_facts(self) -> int:
        """Number of data assertions (each counted once, not per direction)."""
        return sum(
            count for relation, count in self._fact_counts.items() if not relation.inverted
        )

    @property
    def num_type_statements(self) -> int:
        """Number of ``rdf:type`` statements."""
        return sum(len(members) for members in self._class_instances.values())

    def __len__(self) -> int:
        return self.num_facts

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        if is_schema_relation(triple.relation):
            if triple.relation.base == RDF_TYPE:
                sub, obj = triple.subject, triple.object
                if triple.relation.inverted:
                    sub, obj = obj, sub
                return obj in self._instance_classes.get(sub, set())  # type: ignore[arg-type]
            return False
        return self.has(triple.subject, triple.relation, triple.object)

    def __repr__(self) -> str:
        return (
            f"Ontology({self.name!r}: {len(self._instances)} instances, "
            f"{len(self._classes)} classes, "
            f"{len(self.relations(include_inverses=False))} relations, "
            f"{self.num_facts} facts)"
        )
