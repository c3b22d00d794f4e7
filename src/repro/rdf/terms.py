"""Term model for the RDFS substrate.

The paper (Section 3) models an ontology as a set of triples
``O ⊆ R × P × (R ∪ L)`` over a global set of resources ``R``, literals
``L`` and properties ``P``.  This module provides the three corresponding
term types:

* :class:`Resource` — an identifier for a real-world object (instance or
  class).
* :class:`Literal` — a string, number or date.  Literals are shared across
  ontologies and compared by literal-similarity functions
  (:mod:`repro.literals`).
* :class:`Relation` — a binary predicate.  Every relation has an inverse
  (``r.inverse``); PARIS materializes all inverse statements, which is why
  literals may appear in subject position (a "minor digression from the
  standard", Section 3).

All terms are immutable, hashable and slotted so they can be used as
dictionary keys in the hot loops of the aligner.  Every term compares
by value, but the three types hash differently:

* a :class:`Resource` is interned weakly (one live object per name)
  and hashed by identity in C, so probing an index by resource runs no
  Python code;
* a :class:`Relation` is interned strongly (one object per name and
  direction, never pruned: the predicate vocabulary is small) and
  hashed by value;
* a :class:`Literal` is not interned and is hashed by value: its
  equality ignores ``datatype``, which the WAL and the N-Triples
  writer still serialize, so equal literals may be distinct objects.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Tuple, Union


class Term:
    """Base class for all RDF terms.

    Terms compare by value and are safe to use as dictionary keys.  The
    concrete subclasses are :class:`Resource`, :class:`Literal` and
    :class:`Relation`.
    """

    __slots__ = ()

    @property
    def is_literal(self) -> bool:
        """Whether this term is a literal value."""
        return isinstance(self, Literal)

    @property
    def is_resource(self) -> bool:
        """Whether this term is a resource (instance or class)."""
        return isinstance(self, Resource)


class Resource(Term):
    """An identifier for a real-world object.

    A resource may denote an *instance* (e.g. ``Elvis``) or a *class*
    (e.g. ``singer``); the distinction is tracked by the
    :class:`~repro.rdf.ontology.Ontology` that contains it, not by the
    term itself, because the same name could play either role in
    different ontologies.

    Resources are interned weakly: while a resource for a name is
    alive, constructing, unpickling or copying one returns that same
    object.  Hashing is by identity (CPython's C ``object.__hash__``),
    so a dictionary or set probe keyed by a resource runs no Python
    code; that is sound because two equal live resources are one
    object.  Equality stays by name, and only runs on a bucket
    collision.  The table holds its resources weakly, so names that
    only pass through (a query for an unknown entity) leave with their
    last reference.

    Parameters
    ----------
    name:
        The URI or local name identifying the resource.  Names are
        compared exactly; two resources with the same name are the same
        term.
    """

    __slots__ = ("name", "__weakref__")

    # The C identity hash; assigning the slot wrapper keeps CPython's
    # slot function in place of a Python-level method.
    __hash__ = object.__hash__

    def __new__(cls, name: str) -> "Resource":
        try:
            resource = _RESOURCE_REFS[name]()
        except (KeyError, TypeError):
            return cls._intern(name)
        # A dead reference whose callback has not run yet reads None.
        return cls._intern(name) if resource is None else resource

    @classmethod
    def _intern(cls, name: str) -> "Resource":
        if not isinstance(name, str):
            raise TypeError(f"resource name must be a string, got {type(name).__name__}")
        if not name:
            raise ValueError("resource name must be non-empty")
        with _RESOURCES_LOCK:
            ref = _RESOURCE_REFS.get(name)
            resource = None if ref is None else ref()
            if resource is None:
                resource = object.__new__(cls)
                object.__setattr__(resource, "name", name)
                # What WeakValueDictionary.__setitem__ stores, without
                # its two Python frames; a dead reference's pending
                # removal only ever deletes a dead entry.
                _RESOURCE_REFS[name] = weakref.KeyedRef(resource, _RESOURCES._remove, name)
        return resource

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Resource is immutable")

    def __reduce__(self):
        # Slotted immutables reject the default __setstate__; rebuild
        # through the constructor so terms can cross process boundaries
        # (worker-pool relation and class tasks return them to the
        # parent), and so unpickled and copied resources are interned.
        return (Resource, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Resource) and other.name == self.name

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        return f"Resource({self.name!r})"

    def __str__(self) -> str:
        return self.name


#: The resource table: name -> the one live Resource for it.  Weak, so
#: it never outgrows the resources the program still holds.
_RESOURCES: "weakref.WeakValueDictionary[str, Resource]" = weakref.WeakValueDictionary()
#: Its underlying ``{name: weakref}`` dict, read lock-free by the
#: constructor's hit path (one C dict probe and one reference call).
_RESOURCE_REFS = _RESOURCES.data
_RESOURCES_LOCK = threading.Lock()


class Literal(Term):
    """A literal value: a string, a number, or a date rendered as a string.

    The paper clamps literal equivalence probabilities up front
    (Section 5.3).  We therefore store literals as their lexical form
    plus an optional datatype tag; similarity functions in
    :mod:`repro.literals` decide what "equal" means.

    Parameters
    ----------
    value:
        Lexical form of the literal (always stored as ``str``; numeric
        inputs are converted).
    datatype:
        Optional datatype hint such as ``"string"``, ``"integer"``,
        ``"decimal"`` or ``"date"``.  Kept for normalization
        (Section 5.3 discusses stripping datatype and dimension
        information); ignored by term equality.
    """

    __slots__ = ("value", "datatype", "_hash")

    def __init__(self, value: Union[str, int, float], datatype: str | None = None) -> None:
        if isinstance(value, bool):
            raise TypeError("boolean literals are not part of the paper's model")
        if isinstance(value, (int, float)):
            if datatype is None:
                datatype = "integer" if isinstance(value, int) else "decimal"
            value = repr(value) if isinstance(value, float) else str(value)
        if not isinstance(value, str):
            raise TypeError(f"literal value must be str/int/float, got {type(value).__name__}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash(("L", value)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        return (Literal, (self.value, self.datatype))

    def __eq__(self, other: object) -> bool:
        # Datatype is a hint only: "42"^^integer and "42" are one term.
        return isinstance(other, Literal) and other.value == self.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.datatype:
            return f"Literal({self.value!r}, datatype={self.datatype!r})"
        return f"Literal({self.value!r})"

    def __str__(self) -> str:
        return self.value


class Relation(Term):
    """A binary predicate, possibly the inverse of a named predicate.

    ``Relation("wasBornIn")`` is the forward relation;
    ``Relation("wasBornIn").inverse`` is the relation written
    ``wasBornIn⁻`` in the paper, satisfying
    ``r(x, y) ⇔ r⁻(y, x)``.  Double inversion returns the forward
    relation (``r.inverse.inverse is r``).

    Relations are interned: constructing one returns the single object
    for its ``(name, inverted)``, built and validated the first time
    that name is seen together with its inverse.  Every index keyed by
    a relation then hits by identity, which CPython checks before it
    calls ``__eq__``.  Identity is a fast path only: equality and
    hashing stay by value, so a relation built any other way still
    compares equal.  The table holds both directions of every
    predicate name ever constructed and is never pruned, so it grows
    with the predicate vocabulary (including the names of relations
    that deltas add), not with the number of statements.

    Parameters
    ----------
    name:
        Name of the underlying predicate.
    inverted:
        ``True`` if this term denotes the inverse direction.

    Attributes
    ----------
    inverse:
        The relation ``r⁻`` with arguments swapped.
    base:
        The forward (non-inverted) relation underlying this term.
    """

    __slots__ = ("name", "inverted", "inverse", "base", "_hash")

    #: Textual marker used when rendering inverse relations.
    INVERSE_SUFFIX = "^-1"

    def __new__(cls, name: str, inverted: bool = False) -> "Relation":
        try:
            return _RELATIONS[name, inverted]
        except (KeyError, TypeError):
            return cls._intern(name, bool(inverted))

    @classmethod
    def _intern(cls, name: str, inverted: bool) -> "Relation":
        if not isinstance(name, str):
            raise TypeError(f"relation name must be a string, got {type(name).__name__}")
        if not name:
            raise ValueError("relation name must be non-empty")
        if name.endswith(cls.INVERSE_SUFFIX):
            raise ValueError(
                f"relation name must not end with {cls.INVERSE_SUFFIX!r}; "
                "use inverted=True or .inverse instead"
            )
        with _RELATIONS_LOCK:
            forward = _RELATIONS.get((name, False))
            if forward is None:
                forward = object.__new__(cls)
                backward = object.__new__(cls)
                for term, flag, other in ((forward, False, backward), (backward, True, forward)):
                    object.__setattr__(term, "name", name)
                    object.__setattr__(term, "inverted", flag)
                    object.__setattr__(term, "inverse", other)
                    object.__setattr__(term, "base", forward)
                    object.__setattr__(term, "_hash", hash(("P", name, flag)))
                _RELATIONS[name, True] = backward
                _RELATIONS[name, False] = forward
        return forward.inverse if inverted else forward

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Relation is immutable")

    def __reduce__(self):
        # Unpickling goes through the constructor, so relations loaded
        # from a snapshot are the interned ones.
        return (Relation, (self.name, self.inverted))

    @classmethod
    def parse(cls, text: str) -> "Relation":
        """Parse a relation from text, honouring the ``^-1`` suffix.

        >>> Relation.parse("actedIn^-1")
        Relation('actedIn', inverted=True)
        """
        if text.endswith(cls.INVERSE_SUFFIX):
            return cls(text[: -len(cls.INVERSE_SUFFIX)], inverted=True)
        return cls(text)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Relation)
            and other.name == self.name
            and other.inverted == self.inverted
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.inverted:
            return f"Relation({self.name!r}, inverted=True)"
        return f"Relation({self.name!r})"

    def __str__(self) -> str:
        return self.name + (self.INVERSE_SUFFIX if self.inverted else "")


#: The relation table: ``(name, inverted)`` -> the one Relation object.
_RELATIONS: Dict[Tuple[str, bool], Relation] = {}
_RELATIONS_LOCK = threading.Lock()


#: Type alias for anything allowed in subject/object position.  Because
#: inverse statements are materialized, literals may appear as subjects.
Node = Union[Resource, Literal]
