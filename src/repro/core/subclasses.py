"""Sub-class pass (Section 4.3, Eq. 17).

For classes ``c`` of one ontology and ``c'`` of the other::

                Σ_{x : type(x,c)} (1 − ∏_{y : type(y,c')} (1 − Pr(x ≡ y)))
  Pr(c ⊆ c') = ────────────────────────────────────────────────────────────
                                  #x : type(x, c)

i.e. the expected fraction of ``c``'s instances that match some
instance of ``c'``.  The paper computes class inclusions **once, after
the instance fixpoint has converged** (class evidence is deliberately
not fed back into instance equivalence — Section 4.3 explains why:
granularity mismatches and class-vs-relation modelling differences make
it unreliable).

Class extensions are taken in their deductive closure: an instance of
``MaleSingers`` counts as an instance of ``singer`` and ``person`` too,
which is what lets PARIS assign one class to multiple superclasses in
the other taxonomy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set

from ..rdf.closure import superclass_closure
from ..rdf.ontology import Ontology
from ..rdf.terms import Resource
from .matrix import SubsumptionMatrix
from .view import EquivalenceView


def closed_classes_of(
    ontology: Ontology, closure: Mapping[Resource, Set[Resource]] | None = None
) -> Dict[Resource, Set[Resource]]:
    """Map each instance to its classes including all superclasses."""
    if closure is None:
        closure = superclass_closure(ontology)
    result: Dict[Resource, Set[Resource]] = {}
    for instance in ontology.instances:
        direct = ontology.classes_of(instance)
        if not direct:
            continue
        closed: Set[Resource] = set()
        for cls in direct:
            closed.add(cls)
            closed |= closure.get(cls, set())
        result[instance] = closed
    return result


def score_class(
    cls: Resource,
    ontology1: Ontology,
    view: EquivalenceView,
    classes_of_right: Mapping[Resource, Set[Resource]],
    max_instances: int,
    reverse: bool = False,
) -> Dict[Resource, float]:
    """Scores ``Pr(cls ⊆ c')`` for every class ``c'`` of the other side.

    Parameters
    ----------
    classes_of_right:
        Closed instance→classes map of the *other* ontology.
    max_instances:
        Cap on evaluated members (the Eq. 17 pair cap of Section 5.2).
        When the extension is larger, the score is computed over the
        first ``max_instances`` members and remains an unbiased
        estimate of the full ratio.
    """
    members = ontology1.instances_of(cls)
    if not members:
        return {}
    numerators: Dict[Resource, float] = {}
    examined = 0
    for x in members:
        if examined >= max_instances:
            break
        examined += 1
        products: Dict[Resource, float] = {}
        for y, probability in view.equivalents(x, reverse=reverse):
            if probability <= 0.0:
                continue
            for cls2 in classes_of_right.get(y, ()):  # type: ignore[arg-type]
                products[cls2] = products.get(cls2, 1.0) * (1.0 - probability)
        for cls2, product in products.items():
            numerators[cls2] = numerators.get(cls2, 0.0) + (1.0 - product)
    if examined == 0:
        return {}
    return {cls2: min(1.0, total / examined) for cls2, total in numerators.items()}


def subclass_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    truncation_threshold: float,
    max_instances: int,
    reverse: bool = False,
) -> SubsumptionMatrix[Resource]:
    """Compute ``Pr(c ⊆ c')`` for every class ``c`` of ``ontology1``."""
    matrix: SubsumptionMatrix[Resource] = SubsumptionMatrix()
    classes_of_right = closed_classes_of(ontology2)
    for cls in ontology1.classes:
        scores = score_class(
            cls, ontology1, view, classes_of_right, max_instances, reverse=reverse
        )
        for cls2, score in scores.items():
            if score >= truncation_threshold:
                matrix.set(cls, cls2, score)
    return matrix


class IncrementalClassPass:
    """Delta-aware Eq. 17 pass: per-class rows cached across warm runs.

    One direction of :func:`subclass_pass` with the same arguments and
    the same output, but a class row is recomputed only when one of its
    inputs changed:

    * the class's direct extension (an ``rdf:type`` change on the
      member side — :meth:`invalidate_classes`);
    * the equivalents-view row of one of its members (reported by the
      warm fixpoint — :meth:`invalidate_members`);
    * the closed class sets of the *other* ontology (type/subclass
      changes over there — :meth:`invalidate_closure`, which also drops
      every cached row because the numerators read that map).

    Rows of classes over the ``max_instances`` cap are cached like any
    other: a recompute walks the same extension set in the same
    iteration order, so the cached row equals the fresh one.  The
    service engine owns two of these (one per direction) and feeds them
    through :meth:`ParisAligner.warm_align`; a fresh instance is
    equivalent to a plain :func:`subclass_pass`.
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        truncation_threshold: float,
        max_instances: int,
        reverse: bool = False,
    ) -> None:
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.truncation_threshold = truncation_threshold
        self.max_instances = max_instances
        self.reverse = reverse
        self._rows: Dict[Resource, Dict[Resource, float]] = {}
        self._closure: Optional[Dict[Resource, Set[Resource]]] = None
        self._class_closure: Optional[Dict[Resource, Set[Resource]]] = None

    # -- invalidation --------------------------------------------------

    def invalidate_classes(self, classes: Iterable[Resource]) -> None:
        """Drop the cached rows of ``classes`` (extension changed)."""
        for cls in classes:
            self._rows.pop(cls, None)

    def invalidate_members(self, instances: Iterable[Resource]) -> None:
        """Drop rows of every class a changed member belongs to."""
        for instance in instances:
            for cls in self.ontology1.classes_of(instance):
                self._rows.pop(cls, None)

    def invalidate_closure(self) -> None:
        """The other side's *class graph* changed: drop everything."""
        self._closure = None
        self._class_closure = None
        self._rows.clear()

    def refresh_other_member(self, instance: Resource) -> None:
        """An ``rdf:type`` change on the other side touched one
        instance: update just its closed class set (the class *graph*
        is unchanged, so the cached superclass closure stays valid).
        Row invalidation is the caller's job — only classes with a
        member matched to ``instance`` read this entry."""
        if self._closure is None:
            return
        closed: Set[Resource] = set()
        for cls in self.ontology2.classes_of(instance):
            closed.add(cls)
            closed |= (self._class_closure or {}).get(cls, set())
        if closed:
            self._closure[instance] = closed
        else:
            self._closure.pop(instance, None)

    # -- computation ---------------------------------------------------

    def matrix(self, view: EquivalenceView) -> SubsumptionMatrix[Resource]:
        """The full class matrix against ``view``, reusing valid rows.

        ``view`` must be the final restricted view of the run; callers
        are responsible for invalidating the rows whose members moved
        since the previous call.
        """
        if self._closure is None:
            self._class_closure = superclass_closure(self.ontology2)
            self._closure = closed_classes_of(self.ontology2, self._class_closure)
        matrix: SubsumptionMatrix[Resource] = SubsumptionMatrix()
        for cls in self.ontology1.classes:
            row = self._rows.get(cls)
            if row is None:
                row = score_class(
                    cls,
                    self.ontology1,
                    view,
                    self._closure,
                    self.max_instances,
                    reverse=self.reverse,
                )
                self._rows[cls] = row
            for cls2, score in row.items():
                if score >= self.truncation_threshold:
                    matrix.set(cls, cls2, score)
        return matrix
